"""One interpreter mode: no check in the library may depend on ``-O``.

``python -O`` strips ``assert`` statements and makes ``__debug__`` false,
so either would give the library a second behaviour under ``-O``.  A check
that guards a returned value raises InvariantViolation instead; a second
derivation of an identity that holds by construction belongs in the tests.
pytest rewrites asserts only in test modules, so the shared test helpers
and conftest, which hold reference code, are held to the same rule.

The loaders in ``serialize`` and the CLI must not reach the trusted
constructors, and the package must not export them; no other module may
call the checked ``CpMap`` and ``ChoiOperator`` constructors.  No module
calls ``kron`` or ``tensor``, ``op_norm`` is called only where a norm
is a result or is printed, and ``eigh`` and ``svd`` only at pinned sites.  No module uses a numpy name that needs
numpy 2, since the declared floor is 1.24, no module keeps a memo
that could outlive the object it describes, no module contracts two
operands with ``einsum``, and no module renders JSON with ``indent=``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import cp_calculus
from cp_calculus import cpmap

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cp_calculus"
PATHS = [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))] + [
    pytest.param(TESTS / name, id=f"tests/{name}") for name in ("helpers.py", "conftest.py")
]


@pytest.mark.parametrize("path", PATHS)
def test_no_mode_dependent_code(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []


# Validated at the boundary: what reads user input builds through the
# checked public constructors, never the trusted ones the library uses
# for objects it derives from validated inputs.
TRUSTED = sorted(name for name in vars(cpmap) if name.startswith("_trusted"))
BOUNDARY = ("serialize.py", "cli.py")


def test_trusted_constructors_are_known():
    assert TRUSTED == ["_trusted", "_trusted_choi", "_trusted_map"]


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


@pytest.mark.parametrize("name", BOUNDARY)
def test_boundary_modules_use_checked_constructors(name):
    path = SRC / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{name}:{getattr(node, 'lineno', '?')}: {ident}"
        for node in ast.walk(tree)
        for ident in _names(node)
        if ident in TRUSTED or ident == "__new__"
    ]
    assert found == []


# Trusted by construction inside: the loaders in ``serialize`` are the one
# place the library builds maps and process operators through the checked
# public constructors; everything it derives takes the trusted path.
CHECKED = (
    "CpMap",
    "ChoiOperator",
    "StinespringDilation",
    "PovmDecomposition",
    "PvmChain",
    "CommonDilationPair",
    "FaithfulState",
)
LIBRARY = [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py")) if p.name != "serialize.py"]


@pytest.mark.parametrize("path", LIBRARY)
def test_library_derives_on_trusted_path(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and set(_names(node.func)) & set(CHECKED)
    ]
    assert found == []


def test_trusted_constructors_not_exported():
    trusted = [getattr(cpmap, name) for name in TRUSTED]
    exported = [
        name
        for name in cp_calculus.__all__
        if name in TRUSTED or any(getattr(cp_calculus, name) is fn for fn in trusted)
    ]
    assert exported == []


# No linter runs in CI, and refactors leave imports behind.  ``from
# __future__`` imports are not uses to look for; ``__init__.py`` re-exports
# nothing by import, so it is held to the same rule.
@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items())
        if name not in used
    ]
    assert unused == []


# Act on one tensor factor by reshaping: (1 (x) X)V is X applied to each
# reshaped block of V, and a projection 1 (x) diag(mask) is built as the
# diagonal it is, so no module forms a Kronecker product at all.
KRON = {"tensor", "kron"}


def _kron_calls(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and set(_names(node.func)) & KRON
    ]


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))])
def test_no_identity_kronecker_temporaries(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}" for line in _kron_calls(tree)] == []


# A residual checked against a tolerance goes through numerics.norm_excess,
# whose exact path is the one op_norm comparison; op_norm is called
# directly only where the norm is a result or is printed.  A new residual
# check either uses the helper or edits this pin on purpose.
OP_NORM_SITES = {
    "duality.faithful_rn": 1,  # the limit the constant is held to
    "norms._bound_dilation": 2,
    "norms._bound_rn": 2,
    "norms.bound_dilation_diff": 1,  # the gap, which norm_report passes in
    "norms.cb_norm_cp": 1,
    "norms.norm_report": 2,  # printed dilation gap, cb_exact
    "numerics.norm_excess": 2,  # the exact comparison
    "order.channel_difference_is_cp": 1,  # printed normalization gap
}


def _calls(node, name, scope, found):
    """Count the calls of ``name`` in ``node`` per enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call) and name in _names(child.func):
            found[scope] += 1
        _calls(child, name, inner, found)


def _call_sites(name):
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        _calls(ast.parse(path.read_text(), filename=str(path)), name, path.stem, found)
    return dict(found)


def test_op_norm_only_where_a_norm_is_the_result():
    assert _call_sites("op_norm") == OP_NORM_SITES


# A PSD-order verdict goes through numerics.is_psd, which runs eigvalsh only
# in its rounding band; eigvalsh is called directly only where an eigenvalue
# is a value the caller reads, not a yes/no.  A new PSD verdict either uses
# the rule or edits this pin on purpose.  A density's spectrum has one owner,
# radon._spectrum, read by the window, c_min and faithful_rn's constant.
EIGVALSH_SITES = {
    "cpmap._check_psd": 1,  # words a failure is_psd has decided
    "cpmap.choi_rank": 1,
    "norms._toward_top": 1,
    "numerics.is_psd": 1,  # the rounding band
    "radon._spectrum": 1,  # of F, or of the Gram X* X of a thin factor
}


def test_eigvalsh_only_where_an_eigenvalue_is_read():
    assert _call_sites("eigvalsh") == EIGVALSH_SITES


# Full factorizations: an eigensystem comes from eigh only in herm_eig and
# the ascent's batched x half-step, and an SVD only in op_norm and in
# canonicalize's thin SVD (its body, _canonical) of a Kraus stack with fewer
# columns than its process operator's side; both canonical routes order
# their eigenpairs through canonical_eig.  A new factorization edits these
# pins on purpose.
FACTORIZATION_SITES = {
    "eigh": {"norms._ascend": 1, "numerics.herm_eig": 1},
    "svd": {"cpmap._canonical": 1, "numerics.op_norm": 1},
    "canonical_eig": {"cpmap._canonical": 1, "numerics.herm_eig": 1},
}


@pytest.mark.parametrize("name", sorted(FACTORIZATION_SITES))
def test_factorizations_only_at_their_sites(name):
    assert _call_sites(name) == FACTORIZATION_SITES[name]


# Every density is a density of a map, and reconstruction reweights a Kraus
# family (T - S reweights T's by 1 - D_T(S)), so a process operator becomes
# a Kraus family only where none is at hand: the sum C1 + C2, which is
# exactly symmetric in the two maps where their union family's SVD is not.
FROM_CHOI_SITES = {"norms._bound_rn": 1}


def test_from_choi_only_where_no_family_is_at_hand():
    assert _call_sites("from_choi") == FROM_CHOI_SITES


# The CP order has one criterion, the density's (radon's residual and
# window): norm_report's cb_exact reads it off the density difference D its
# upper_rn takes, and rigidity's cross-check is dominates at EPS_PSD.  psd_leq
# only compares T(1) with 1 and tr_in F with m 1, never two maps' process
# operators, so a second criterion cannot creep back in; a new order test
# either reads the density or edits this pin.
PSD_LEQ_SITES = {"cpmap.is_quantum_operation": 1, "duality.jam_is_operation": 1}


def test_psd_leq_never_decides_the_cp_order_a_density_decides():
    assert _call_sites("psd_leq") == PSD_LEQ_SITES


def test_call_sites_see_every_call_form():
    sources = (
        "def f(m):\n    return np.linalg.eigvalsh(m)\n",
        "def f(m):\n    return eigvalsh(m)\n",
        "class C:\n    def f(self, m):\n        return la.eigvalsh(m)[0]\n",
        "w = np.linalg.eigvalsh(m)\n",
    )
    found = Counter()
    for src in sources:
        _calls(ast.parse(src), "eigvalsh", "m", found)
    assert found == {"m.f": 2, "m.C.f": 1, "m": 1}


# pyproject declares numpy>=1.24, and CI installs the latest numpy, so a
# name that numpy added in 2.0 would pass CI and fail on a supported 1.x.
NUMPY2_ONLY = {"mT", "matrix_transpose", "vecdot", "permute_dims", "concat", "cumulative_sum"}


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))])
def test_no_numpy2_only_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in NUMPY2_ONLY
    ]
    assert found == []


# A contraction of two or more operands runs as one np.tensordot, a GEMM on
# reshaped operands: np.einsum without optimize loops over every index in C,
# which at d=16 was twenty times slower.  Single-operand einsum, the traces in
# numerics.partial_trace, stays allowed.
def _einsum_operands(call):
    args = call.args
    if any(isinstance(arg, ast.Starred) for arg in args):
        return len(args) + 1
    spec = args[0] if args else None
    if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
        return max(len(args) - 1, spec.value.split("->")[0].count(",") + 1)
    return (len(args) + 1) // 2


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))])
def test_no_two_operand_einsum(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "einsum" in _names(node.func)
        and _einsum_operands(node) > 1
    ]
    assert found == []


def test_einsum_check_sees_contractions():
    calls = {
        'np.einsum("ij,jk->ik", a, b)': 2,
        'einsum("ij,jk", a, b)': 2,
        "np.einsum(a, [0, 1], b, [1, 2])": 2,
        "np.einsum(spec, *ops)": 3,
        'np.einsum("ikil->kl", t)': 1,
        "np.einsum(a, [0, 0])": 1,
    }
    found = {src: _einsum_operands(ast.parse(src).body[0].value) for src in calls}
    assert found == calls


# A memo lives on the object it describes (canonicalize and radon._prepare
# keep theirs in the map's instance dict), so it can never outlive that
# object: no functools cache, which holds its arguments for the life of the
# process, no module-level container written after import, and no global.
# The package's lazy names are not cached in its namespace either, through
# ``globals()``: a name bound while the span tracer's patches are installed
# would keep the wrapper after they are restored.
CACHES = {"cache", "lru_cache"}
WRITES = {"setdefault", "update", "append", "add", "extend", "insert", "__setitem__"}


def _is_module_dict(node, module):
    if isinstance(node, ast.Name):
        return node.id in module
    return isinstance(node, ast.Call) and _names(node.func) == ["globals"]


def _module_names(tree):
    targets = [
        target
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _memo_sites(tree):
    module = _module_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global) or set(_names(node)) & CACHES:
            yield node.lineno
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if _is_module_dict(node.value, module):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in WRITES:
            if _is_module_dict(node.value, module):
                yield node.lineno


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))])
def test_no_module_level_memo(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}" for line in _memo_sites(tree)] == []


def test_memo_check_sees_module_caches():
    # the check above must fire on each way a module could keep a memo
    sources = [
        "import functools\n@functools.lru_cache\ndef f(x): return x\n",
        "from functools import cache\n@cache\ndef f(x): return x\n",
        "_MEMO = {}\ndef f(x):\n    _MEMO[x] = x\n",
        "_MEMO = {}\ndef f(x):\n    return _MEMO.setdefault(x, x)\n",
        "_MEMO = None\ndef f(x):\n    global _MEMO\n    _MEMO = x\n",
        "def __getattr__(name):\n    globals()[name] = value = f(name)\n    return value\n",
        "def __getattr__(name):\n    globals().update({name: f(name)})\n",
        "def __getattr__(name):\n    return globals().setdefault(name, f(name))\n",
    ]
    assert all(list(_memo_sites(ast.parse(src))) for src in sources)


# json.dumps(indent=...) falls back to CPython's pure-Python encoder, one
# generator frame per token (655k for a d=16 process operator); the CLI's
# rendering goes through serialize.dumps, which keeps to the C encoder.
def _indent_sites(tree):
    return [
        node.value.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "indent"
    ]


@pytest.mark.parametrize(
    "path", [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))]
)
def test_no_indented_json_rendering(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}" for line in _indent_sites(tree)] == []


def test_indent_check_sees_json_indent():
    calls = ("json.dumps(x, indent=2)", "json.JSONEncoder(indent=None)", "f(**kw, indent=1)")
    for src in calls:
        assert _indent_sites(ast.parse(src)) == [1]


# One boundary rule: numerics.as_matrix is the one place a matrix's shape is
# compared with the shape its caller expects, so every constructor and
# function gives the same messages, and a dimension below 1 is refused
# wherever a shape is checked.  psd_leq compares its two operands with each
# other, and serialize's loaders check shapes first to name the JSON path.
# radon._spectrum checks nothing: it picks the smaller of F and the Gram X* X.
SHAPE_SITES = {
    "numerics.as_matrix": 1,
    "numerics.psd_leq": 2,
    "radon._spectrum": 1,
    "serialize.choi_from_json": 1,
    "serialize.cpmap_from_json": 1,
}


def _reads_shape(node):
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "shape"


def _shape_compares(node, scope, found):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Compare) and any(
            _reads_shape(side) for side in (child.left, *child.comparators)
        ):
            found[scope] += 1
        _shape_compares(child, inner, found)


def test_only_as_matrix_checks_shapes():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        _shape_compares(ast.parse(path.read_text(), filename=str(path)), path.stem, found)
    assert dict(found) == SHAPE_SITES


def test_shape_check_sees_comparisons():
    sources = (
        "if m.shape != (d, d): pass",
        "ok = f.shape[0] == f.shape[1]",
        "if (n, n) != self.matrix.shape: pass",
    )
    for src in sources:
        found = Counter()
        _shape_compares(ast.parse(src), "m", found)
        assert found == {"m": 1}

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
calls ``kron`` or ``tensor``, and ``op_norm`` is called only where a norm
is a result or is printed.
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
CHECKED = ("CpMap", "ChoiOperator")
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


# No linter runs in CI, and refactors leave imports behind.  Re-exports in
# ``__init__.py`` and ``from __future__`` imports are not uses to look for.
MODULES = [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES)
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
    "duality.faithful_rn": 2,  # the constant, and the limit it is held to
    "norms._bound_dilation": 2,
    "norms._bound_rn": 2,
    "norms.bound_dilation_diff": 1,  # the gap, which norm_report passes in
    "norms.cb_norm_cp": 1,
    "norms.norm_report": 2,  # printed dilation gap, cb_exact
    "numerics.norm_excess": 2,  # the exact comparison
    "order.channel_difference_is_cp": 1,  # printed normalization gap
}


def _op_norm_calls(node, scope, found):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call) and "op_norm" in _names(child.func):
            found[scope] += 1
        _op_norm_calls(child, inner, found)


def test_op_norm_only_where_a_norm_is_the_result():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        _op_norm_calls(ast.parse(path.read_text(), filename=str(path)), path.stem, found)
    assert dict(found) == OP_NORM_SITES

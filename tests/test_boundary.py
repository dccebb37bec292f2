"""Validated at the boundary, trusted by construction inside.

Every public constructor and every ``serialize`` loader rejects non-finite
entries, wrong shapes, non-Hermitian and non-PSD input with a fixed error
class and message.  Objects the library derives from validated ones skip
those checks, but ``to_choi`` still raises when its Gram product
overflows, and every array a map, a process operator or a dilation
result holds is read-only.
CI runs this module in default mode and under ``python -O``.
"""

import json

import numpy as np
import pytest

from cp_calculus import errors, norms
from cp_calculus.cpmap import (
    ChoiOperator,
    CpMap,
    StinespringDilation,
    add,
    canonicalize,
    choi_rank,
    compose,
    from_stinespring,
    is_channel,
    is_quantum_operation,
    kraus_stack,
    scale,
    to_choi,
    to_stinespring,
)
from cp_calculus.duality import (
    FaithfulState,
    faithful_channel,
    jam_forward,
    jam_is_operation,
    reference_channel,
)
from cp_calculus.norms import (
    CommonDilationPair,
    bound_dilation_diff,
    diamond_lower,
    norm_report,
)
from cp_calculus.numerics import is_psd, partial_trace
from cp_calculus.order import (
    DifferenceVerdict,
    PvmChain,
    channel_difference_is_cp,
    naimark_dilate,
)
from cp_calculus.radon import PovmDecomposition, dominates, rn_reconstruct
from cp_calculus.serialize import (
    choi_from_json,
    cpmap_from_json,
    matrix_from_json,
    parse_input,
    parse_obj,
    povm_from_json,
    state_from_json,
)
from helpers import rand_cp_map

NAN = float("nan")
INF = float("inf")
I2 = np.eye(2, dtype=complex)
NON_HERMITIAN = np.eye(4, dtype=complex) + np.diag([1.0, 0.0, 0.0], k=1)
NON_PSD = np.diag([1.0, -1.0, 0.5, 0.5]).astype(complex)
FINITE = "matrix entries must be finite"
DIMS = "dimensions must be at least 1"
FLOAT_DIM = "dimensions must be an integer, got 2.0"
HERM = "deviation from Hermiticity 1.000e+00"
PSD = "eigenvalue -1.000e+00 below zero at scale 1.000e+00"
# a resolution of the identity whose elements are not Hermitian
POVM_SKEW = (np.array([[0.5, 0.3], [-0.3, 0.5]]), np.array([[0.5, -0.3], [0.3, 0.5]]))
POVM_HERM = "element 0: deviation from Hermiticity 6.000e-01"


def entry(m, i, j, value):
    m = np.array(m, dtype=complex)
    m[i, j] = value
    return m


def js(m):
    m = np.asarray(m, dtype=complex)
    data = [[z.real, z.imag] for z in m.reshape(-1)]
    return {"rows": m.shape[0], "cols": m.shape[1], "data": data}


def choi_doc(m):
    return {"dim_in": 2, "dim_out": 2, "matrix": js(m)}


def kraus_doc(*ops):
    return {"dim_in": 2, "dim_out": 2, "kraus": [js(v) for v in ops]}


CONSTRUCTORS = {
    "cpmap_nan": (lambda: CpMap(2, 2, (I2, entry(I2, 0, 0, NAN))), "ShapeMismatch", FINITE),
    "cpmap_inf": (lambda: CpMap(2, 2, (entry(I2, 1, 1, INF),)), "ShapeMismatch", FINITE),
    "cpmap_shape": (
        lambda: CpMap(2, 2, (I2, np.ones((2, 3)))),
        "ShapeMismatch",
        "kraus operator 1 has shape (2, 3), expected (2, 2)",
    ),
    "cpmap_ndim": (
        lambda: CpMap(2, 2, (np.ones(4),)),
        "ShapeMismatch",
        "expected a matrix, got array of ndim 1",
    ),
    "cpmap_empty": (
        lambda: CpMap(2, 2, ()),
        "ShapeMismatch",
        "a CP map needs at least one Kraus operator",
    ),
    "cpmap_dims": (lambda: CpMap(0, 2, (I2,)), "ShapeMismatch", DIMS),
    # a dim that is a float or a bool passes no dimension check by comparison
    "cpmap_float_dim": (lambda: CpMap(2.0, 2, (I2,)), "ShapeMismatch", FLOAT_DIM),
    "cpmap_bool_dims": (
        lambda: CpMap(True, True, (np.eye(1),)),
        "ShapeMismatch",
        "dimensions must be an integer, got True",
    ),
    "cpmap_empty_generator": (
        lambda: CpMap(2, 2, (v for v in ())),
        "ShapeMismatch",
        "a CP map needs at least one Kraus operator",
    ),
    "choi_nan": (lambda: ChoiOperator(2, 2, entry(np.eye(4), 0, 0, NAN)), "ShapeMismatch", FINITE),
    "choi_inf": (lambda: ChoiOperator(2, 2, entry(np.eye(4), 2, 3, INF)), "ShapeMismatch", FINITE),
    "choi_shape": (
        lambda: ChoiOperator(2, 2, np.eye(3)),
        "ShapeMismatch",
        "matrix has shape (3, 3), expected (4, 4)",
    ),
    # each side is a product of two dims, and a pair of negative dims
    # multiplies to a side of 1
    "choi_negative_dims": (lambda: ChoiOperator(-1, -1, [[1.0]]), "ShapeMismatch", DIMS),
    "choi_float_dim": (lambda: ChoiOperator(2.0, 2, np.eye(4)), "ShapeMismatch", FLOAT_DIM),
    "choi_non_hermitian": (lambda: ChoiOperator(2, 2, NON_HERMITIAN), "NotHermitian", HERM),
    "choi_non_psd": (lambda: ChoiOperator(2, 2, NON_PSD), "NotPsd", PSD),
    "stinespring_nan": (
        lambda: StinespringDilation(2, 2, 1, entry(I2, 0, 1, NAN), True),
        "ShapeMismatch",
        FINITE,
    ),
    "stinespring_shape": (
        lambda: StinespringDilation(2, 2, 2, I2, True),
        "ShapeMismatch",
        "matrix has shape (2, 2), expected (4, 2)",
    ),
    "stinespring_env_dim": (
        lambda: StinespringDilation(2, 2, 0, np.zeros((0, 2)), True), "ShapeMismatch", DIMS
    ),
    "stinespring_dim_in": (
        lambda: StinespringDilation(0, 2, 2, np.zeros((0, 2)), True), "ShapeMismatch", DIMS
    ),
    "stinespring_negative_dims": (
        lambda: StinespringDilation(-1, 2, -2, np.zeros((2, 2)), True), "ShapeMismatch", DIMS
    ),
    "povm_nan": (lambda: PovmDecomposition((entry(I2, 0, 0, NAN),)), "ShapeMismatch", FINITE),
    "povm_shape": (
        lambda: PovmDecomposition((np.ones((2, 3)),)),
        "ShapeMismatch",
        "element 0 has shape (2, 3), expected (2, 2)",
    ),
    "povm_non_psd": (
        lambda: PovmDecomposition((np.diag([2.0, 1.0]), np.diag([-1.0, 0.0]))),
        "NotPsd",
        "element 1: eigenvalue -1.000e+00 below zero at scale 1.000e+00",
    ),
    "povm_non_hermitian": (lambda: PovmDecomposition(POVM_SKEW), "NotHermitian", POVM_HERM),
    "povm_empty_element": (
        lambda: PovmDecomposition((np.zeros((0, 0)),)), "ShapeMismatch", DIMS
    ),
    "povm_empty_generator": (
        lambda: PovmDecomposition(f for f in ()),
        "ShapeMismatch",
        "a POVM needs at least one element",
    ),
    "dilation_pair_nan": (
        lambda: CommonDilationPair(1, 1, [[1.0]], [[NAN]]), "ShapeMismatch", FINITE
    ),
    "dilation_pair_shape": (
        lambda: CommonDilationPair(1, 2, np.zeros((2, 2)), np.zeros((2, 1))),
        "ShapeMismatch",
        "v2 has shape (2, 1), expected (2, 2)",
    ),
    "dilation_pair_dim_in": (
        lambda: CommonDilationPair(0, 2, np.zeros((0, 2)), np.zeros((0, 2))),
        "ShapeMismatch",
        DIMS,
    ),
    "dilation_pair_negative_dim": (
        lambda: CommonDilationPair(-1, 1, [[1.0]], [[0.5]]), "ShapeMismatch", DIMS
    ),
    "pvm_chain_nan": (
        lambda: PvmChain(1, 1, 1, [[NAN]], ([[1.0]],)), "ShapeMismatch", FINITE
    ),
    "pvm_chain_projection_nan": (
        lambda: PvmChain(1, 1, 1, [[1.0]], ([[INF]],)), "ShapeMismatch", FINITE
    ),
    "pvm_chain_env_dim": (
        lambda: PvmChain(1, 1, 0, np.zeros((0, 1)), ()), "ShapeMismatch", DIMS
    ),
    "pvm_chain_negative_dims": (
        lambda: PvmChain(-1, 1, -1, [[1.0]], ()), "ShapeMismatch", DIMS
    ),
    "pvm_chain_isometry_shape": (
        lambda: PvmChain(1, 1, 2, [[1.0]], ()),
        "ShapeMismatch",
        "isometry has shape (1, 1), expected (2, 1)",
    ),
    "pvm_chain_projection_shape": (
        lambda: PvmChain(1, 1, 2, [[1.0], [0.0]], (np.eye(2), np.eye(3))),
        "ShapeMismatch",
        "projection 1 has shape (3, 3), expected (2, 2)",
    ),
    "reference_channel_float_dim": (
        lambda: reference_channel(2.0, 2), "ShapeMismatch", FLOAT_DIM
    ),
    "state_nan": (
        lambda: FaithfulState(p=np.array([NAN, 1.0])),
        "ShapeMismatch",
        "p must be a finite probability vector",
    ),
    "state_basis_shape": (
        lambda: FaithfulState(p=np.array([0.5, 0.5]), basis=np.eye(3)),
        "ShapeMismatch",
        "basis has shape (3, 3), expected (2, 2)",
    ),
    # partial_trace takes its dims from the caller, and (-1) * (-1) would
    # pass as the side of a 1 x 1 matrix
    "partial_trace_negative_dims": (
        lambda: partial_trace(np.eye(1), "first", -1, -1), "ShapeMismatch", DIMS
    ),
    "partial_trace_float_dim": (
        lambda: partial_trace(np.eye(4), "first", 2.0, 2), "ShapeMismatch", FLOAT_DIM
    ),
}

LOADERS = {
    "cpmap_inf": (
        lambda: cpmap_from_json(
            {"dim_in": 2, "dim_out": 2, "kraus": [
                {"rows": 2, "cols": 2, "data": [[1e999, 0], [0, 0], [0, 0], [1, 0]]}
            ]}
        ),
        "SchemaError",
        "/kraus/0/data/0/0: non-finite value",
    ),
    "cpmap_shape": (
        lambda: cpmap_from_json(kraus_doc(I2, np.ones((2, 3)))),
        "SchemaError",
        "/kraus/1: shape (2, 3) does not match dims (2, 2)",
    ),
    "choi_inf": (
        lambda: choi_from_json(
            {"dim_in": 2, "dim_out": 2, "matrix": {
                "rows": 4, "cols": 4, "data": [[-1e999, 0]] + [[0, 0]] * 15
            }}
        ),
        "SchemaError",
        "/matrix/data/0/0: non-finite value",
    ),
    "choi_shape": (
        lambda: choi_from_json(choi_doc(np.eye(3))),
        "SchemaError",
        "/matrix: shape (3, 3) does not match dims (4, 4)",
    ),
    "choi_non_hermitian": (lambda: choi_from_json(choi_doc(NON_HERMITIAN)), "NotHermitian", HERM),
    "choi_non_psd": (lambda: choi_from_json(choi_doc(NON_PSD)), "NotPsd", PSD),
    "parse_choi_non_psd": (lambda: parse_obj(choi_doc(NON_PSD)), "NotPsd", PSD),
    "povm_shape": (
        lambda: povm_from_json({"elements": [js(np.ones((2, 3)))]}),
        "ShapeMismatch",
        "element 0 has shape (2, 3), expected (2, 2)",
    ),
    "povm_non_psd": (
        lambda: povm_from_json({"elements": [js(np.diag([2.0, 1.0])), js(np.diag([-1.0, 0.0]))]}),
        "NotPsd",
        "element 1: eigenvalue -1.000e+00 below zero at scale 1.000e+00",
    ),
    "povm_non_hermitian": (
        lambda: povm_from_json({"elements": [js(f) for f in POVM_SKEW]}),
        "NotHermitian",
        POVM_HERM,
    ),
    "state_not_faithful": (
        lambda: state_from_json({"p": [0.0, 1.0]}),
        "NotPsd",
        "state is not faithful: p[0] = 0.000e+00",
    ),
    "matrix_count": (
        lambda: matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]}),
        "SchemaError",
        "/data: expected 4 entries, got 1",
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTORS))
def test_public_constructor_rejects(case):
    build, cls, message = CONSTRUCTORS[case]
    with pytest.raises(getattr(errors, cls)) as info:
        build()
    assert type(info.value).__name__ == cls
    assert str(info.value) == message


@pytest.mark.parametrize("case", sorted(LOADERS))
def test_serialize_loader_rejects(case):
    load, cls, message = LOADERS[case]
    with pytest.raises(getattr(errors, cls)) as info:
        load()
    assert type(info.value).__name__ == cls
    assert str(info.value) == message


@pytest.mark.parametrize(
    "family, message",
    [
        ([], "a CP map needs at least one Kraus operator"),
        ([I2, np.ones((2, 3))], "kraus operator 1 has shape (2, 3), expected (2, 2)"),
        ([np.zeros((0, 0))], DIMS),
    ],
    ids=["empty", "ragged", "zero_sides"],
)
def test_kraus_stack_rejects(family, message):
    with pytest.raises(errors.ShapeMismatch) as info:
        kraus_stack(family)
    assert str(info.value) == message


def test_stacked_families_are_accepted():
    # a (k, m, n) array is a family of k operators, as its tuple of slices is
    t = rand_cp_map(np.random.default_rng(25), 2, 3, n_kraus=3)
    assert np.array_equal(CpMap(2, 3, t.kraus_array).kraus_array, t.kraus_array)
    elements = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    povm = PovmDecomposition(elements)
    assert len(povm.elements) == 2
    assert np.array_equal(np.stack(povm.elements), elements)


def test_parse_input_rejects_non_psd_choi(tmp_path):
    path = tmp_path / "choi.json"
    path.write_text(json.dumps(choi_doc(NON_PSD)))
    with pytest.raises(errors.NotPsd, match=r"^eigenvalue -1\.000e\+00 below zero"):
        parse_input(str(path))


def test_choi_psd_slack_scales_with_the_norm():
    # -5e-8 is within EPS_PSD * 100 of zero but not within EPS_PSD * 1
    ChoiOperator(2, 2, np.diag([100.0, 0.0, 0.0, -5e-8]))
    with pytest.raises(errors.NotPsd) as info:
        ChoiOperator(2, 2, np.diag([1.0, 0.0, 0.0, -5e-8]))
    assert str(info.value) == "eigenvalue -5.000e-08 below zero at scale 1.000e+00"


@pytest.mark.parametrize(
    "t",
    [CpMap(2, 2, (1e200 * I2,)), CpMap(1, 2, (np.array([[1e300, 1e300]]),))],
    ids=["square", "row"],
)
def test_to_choi_overflow_raises(t):
    for convert in (to_choi, jam_forward):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(errors.ShapeMismatch) as info:
                convert(t)
        assert str(info.value) == FINITE


def derived_maps():
    rng = np.random.default_rng(61)
    t = rand_cp_map(rng, 2, 3, n_kraus=3)
    return {
        "public": t,
        "canonical": canonicalize(t),
        "scaled": scale(t, 0.5),
        "sum": add(t, t),
        "composed": compose(rand_cp_map(rng, 3, 2, n_kraus=2), t),
        "from_stinespring": from_stinespring(to_stinespring(t)),
        "reference": reference_channel(2, 3),
        "faithful": faithful_channel(FaithfulState(p=np.array([0.25, 0.75])), 3),
    }


@pytest.mark.parametrize("name", sorted(derived_maps()))
def test_held_arrays_are_read_only(name):
    t = derived_maps()[name]
    for v in t.kraus:
        with pytest.raises(ValueError):
            v[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.kraus_array[0, 0, 0] = 5.0
    assert all(np.shares_memory(v, t.kraus_array) for v in t.kraus)
    c = to_choi(t)
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 5.0


def test_trusted_results_do_not_alias_their_inputs():
    ops = np.stack([I2, 2.0 * I2])
    t = CpMap(2, 2, tuple(ops))
    ops[0, 0, 0] = 7.0
    for derived in (t, scale(t, 1.0), add(t, t), canonicalize(t)):
        assert not np.shares_memory(derived.kraus_array, ops)
    assert t.kraus[0][0, 0] == 1.0


def test_result_types_store_frozen_arrays():
    # list input is converted once, and the stored arrays cannot be written
    pair = CommonDilationPair(1, 1, [[1.0]], [[0.5]])
    assert bound_dilation_diff(pair) == 0.75
    chain = PvmChain(1, 1, 2, [[1.0], [0.0]], ([[1.0, 0.0], [0.0, 0.0]],))
    povm = PovmDecomposition(([[0.25]], [[0.75]]))
    nai = naimark_dilate(povm)
    held = [
        pair.v1, pair.v2, chain.isometry, *chain.projections,
        *povm.elements, nai.isometry, *nai.pvm,
    ]
    assert all(isinstance(m, np.ndarray) and m.dtype == complex for m in held)
    for m in held:
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
    source = np.eye(2, dtype=complex)
    chain = PvmChain(1, 1, 2, source[:, :1], (source,))
    assert not np.shares_memory(chain.isometry, source)
    assert not np.shares_memory(chain.projections[0], source)


def test_povm_does_not_alias_its_elements():
    a, b = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    povm = PovmDecomposition((a, b))
    a[0, 0] = 5.0
    assert povm.elements[0][0, 0] == 1.0
    v = naimark_dilate(povm).isometry
    assert np.array_equal(v.conj().T @ v, I2)


def test_rn_reconstruct_rejects_non_hermitian_density():
    # the anti-Hermitian part of a density is rejected, not dropped, by the
    # rule ChoiOperator applies
    t = CpMap(2, 2, (I2 / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)))
    with pytest.raises(errors.NotHermitian) as info:
        rn_reconstruct(t, [[0.5, 0.3], [-0.3, 0.5]])
    assert str(info.value) == "deviation from Hermiticity 6.000e-01"


ID2 = CpMap(2, 2, (I2,))
FLIP = CpMap(2, 2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
WIDE = CpMap(4, 2, (np.ones((4, 2)) / 2.0,))
# (maps, ancilla_dim, error class, message): the search checks r before it
# forms anything, and max(dim_in, dim_out) * r is held to MAX_DIM
ANCILLA = {
    "float": ((ID2, FLIP), 2.9, "ValueError", "ancilla dimension must be an integer, got 2.9"),
    "bool": ((ID2, FLIP), True, "ValueError", "ancilla dimension must be an integer, got True"),
    "square_too_wide": (
        (ID2, FLIP), 2**13 + 1, "DimensionLimit", "ascent dimension 16386 exceeds 16384"
    ),
    "input_side_too_wide": (
        (WIDE, WIDE), 2**12 + 1, "DimensionLimit", "ascent dimension 16388 exceeds 16384"
    ),
}


@pytest.fixture
def no_search(monkeypatch):
    """Fail the test if the ascent search forms a process operator or ascends."""

    def allocates(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(norms, "to_choi", allocates)
    monkeypatch.setattr(norms, "_ascend", allocates)


@pytest.mark.parametrize("case", sorted(ANCILLA))
def test_diamond_lower_rejects_ancilla_before_allocating(no_search, case):
    (t1, t2), ancilla_dim, cls, message = ANCILLA[case]
    with pytest.raises(getattr(errors, cls, ValueError)) as info:
        diamond_lower(t1, t2, restarts=2, ancilla_dim=ancilla_dim)
    assert type(info.value).__name__ == cls
    assert str(info.value) == message


# restarts is checked as ancilla_dim is, before anything is formed: a bool
# or a float used to run (True as one restart) or fail in range()
RESTARTS = {
    "bool": (True, "restarts must be an integer, got True"),
    "float": (2.5, "restarts must be an integer, got 2.5"),
    "numpy_float": (np.float64(3.0), f"restarts must be an integer, got {np.float64(3.0)!r}"),
    "zero": (0, "restarts must be at least 1"),
}


@pytest.mark.parametrize("fn", [diamond_lower, norm_report], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("case", sorted(RESTARTS))
def test_restarts_rejected_before_allocating(no_search, fn, case):
    restarts, message = RESTARTS[case]
    with pytest.raises(ValueError) as info:
        fn(ID2, FLIP, restarts=restarts)
    assert str(info.value) == message


# the ascent's max_iter and tol are checked as restarts is: max_iter 0 or -3
# returned 0.0 after no step and True ran one, and a NaN or negative tol ran
# every restart into the cap
ASCENT_ARGS = {
    "max_iter_zero": ({"max_iter": 0}, "max_iter must be at least 1"),
    "max_iter_negative": ({"max_iter": -3}, "max_iter must be at least 1"),
    "max_iter_bool": ({"max_iter": True}, "max_iter must be an integer, got True"),
    "max_iter_float": ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    "tol_nan": ({"tol": NAN}, f"tol must be a finite number >= 0, got {NAN!r}"),
    "tol_negative": ({"tol": -1.0}, "tol must be a finite number >= 0, got -1.0"),
    "tol_inf": ({"tol": INF}, f"tol must be a finite number >= 0, got {INF!r}"),
    "tol_bool": ({"tol": True}, "tol must be a finite number >= 0, got True"),
}


@pytest.mark.parametrize("case", sorted(ASCENT_ARGS))
def test_ascent_arguments_rejected_before_allocating(no_search, case):
    kwargs, message = ASCENT_ARGS[case]
    with pytest.raises(ValueError) as info:
        diamond_lower(ID2, FLIP, restarts=2, **kwargs)
    assert str(info.value) == message


# the seed is checked as restarts is: None failed in len(), -1 in numpy's
# generator after both process operators were formed, and True ran as 1
SEEDS = {
    "none": (None, "seed must be an integer, got None"),
    "bool": (True, "seed must be an integer, got True"),
    "float": (1.5, "seed must be an integer, got 1.5"),
    "negative": (-1, "seed must be at least 0"),
}


@pytest.mark.parametrize("fn", [diamond_lower, norm_report], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("case", sorted(SEEDS))
def test_seed_rejected_before_allocating(no_search, fn, case):
    seed, message = SEEDS[case]
    with pytest.raises(ValueError) as info:
        fn(ID2, FLIP, seed=seed, restarts=2)
    assert str(info.value) == message


def test_numpy_integer_restarts_run():
    three = np.int64(3)
    assert diamond_lower(ID2, FLIP, restarts=three) == diamond_lower(ID2, FLIP, restarts=3)
    assert norm_report(ID2, FLIP, restarts=three) == norm_report(ID2, FLIP, restarts=3)


# every verdict takes its tol through numerics.as_tol: a NaN or negative tol
# made every verdict False, inf passed everything (from side 32 up with
# numpy's inf - inf RuntimeWarning), and a bool read as 0 or 1; so does
# choi_rank's rank cut, whose NaN counted 0 and negative tol the full side
TOL_ENTRIES = {
    "is_psd": lambda tol: is_psd(np.eye(2), tol),
    "is_psd_side_32": lambda tol: is_psd(np.eye(32), tol),
    "psd_leq": lambda tol: is_psd(np.eye(2) - np.eye(2) / 2.0, tol),  # 1 / 2 <= 1
    "dominates": lambda tol: dominates(scale(ID2, 0.5), ID2, tol),
    "is_quantum_operation": lambda tol: is_quantum_operation(ID2, tol),
    "is_channel": lambda tol: is_channel(ID2, tol),
    "jam_is_operation": lambda tol: jam_is_operation(to_choi(ID2), tol),
    "channel_difference_is_cp": lambda tol: channel_difference_is_cp(ID2, FLIP, tol),
    "choi_rank": lambda tol: choi_rank(to_choi(ID2), tol),
}
BAD_TOLS = {"nan": NAN, "negative": -1e-9, "inf": INF, "bool": True}


@pytest.mark.parametrize("tol", sorted(BAD_TOLS))
@pytest.mark.parametrize("entry", sorted(TOL_ENTRIES))
def test_verdict_tolerance_rejected(entry, tol):
    with pytest.raises(ValueError) as info:
        TOL_ENTRIES[entry](BAD_TOLS[tol])
    assert str(info.value) == f"tol must be a finite number >= 0, got {BAD_TOLS[tol]!r}"


@pytest.mark.parametrize("tol", [0, 0.0, np.float32(1e-3), np.float64(1e-9)])
def test_verdict_tolerance_accepted(tol):
    for entry in sorted(TOL_ENTRIES):
        TOL_ENTRIES[entry](tol)


# rigidity's cross-check is dominates at EPS_PSD whatever the caller's tol,
# which loosens only the normalization test: at tol 1 and 2, an order test at
# that tol would pass the identity against Pauli X and raise InvariantViolation
@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0])
def test_rigidity_cross_check_ignores_the_callers_tol(tol):
    assert channel_difference_is_cp(ID2, FLIP, tol) is DifferenceVerdict.NOT_CP


# s = t / 2 lies below t, and its normalization is off by 0.5: at tol 0.4 the
# normalization test refuses it, and at tol 0.5 and 1, which admit that gap,
# the ordered pair the cross-check finds is the same unequal normalization
# (it raised InvariantViolation, as if the library had broken rigidity)
@pytest.mark.parametrize("tol", [0.4, 0.5, 1.0])
def test_rigidity_refuses_an_ordered_pair_the_tol_admitted(tol):
    with pytest.raises(errors.NotAChannel) as info:
        channel_difference_is_cp(scale(ID2, 0.5), ID2, tol)
    assert str(info.value) == "normalizations differ by 5.000e-01; rigidity needs equality"

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp_calculus import serialize
from cp_calculus.cpmap import ChoiOperator, CpMap, to_choi
from cp_calculus.duality import FaithfulState
from cp_calculus.errors import IoError, NotPsd, SchemaError
from cp_calculus.radon import PovmDecomposition
from cp_calculus.serialize import (
    choi_from_json,
    choi_to_json,
    cpmap_from_json,
    cpmap_to_json,
    dumps,
    matrix_from_json,
    matrix_to_json,
    parse_input,
    parse_obj,
    povm_from_json,
    povm_to_json,
    state_from_json,
    state_to_json,
)
from helpers import rand_cp_map, rand_psd, rand_unitary

RNG = np.random.default_rng(20240823)


def test_matrix_round_trip_exact():
    m = RNG.standard_normal((3, 2)) + 1j * RNG.standard_normal((3, 2))
    text = dumps(matrix_to_json(m))
    back = matrix_from_json(json.loads(text))
    # shortest-repr floats survive the text round trip bit for bit
    assert np.array_equal(back, m)


def test_matrix_to_json_matches_per_entry_form():
    # a transposed (non-contiguous) matrix is written row-major, and signed
    # zeros keep their sign, exactly as float() of each entry gives them
    m = (RNG.standard_normal((3, 4)) + 1j * RNG.standard_normal((3, 4))).T
    m[0, 1], m[2, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
    assert not m.flags.c_contiguous
    for mat in (m, np.array([[complex(-0.0, -0.0)]]), np.array([[7]])):
        z = np.asarray(mat, dtype=complex).reshape(-1)
        rows, cols = mat.shape
        data = [[float(e.real), float(e.imag)] for e in z]
        want = {"rows": rows, "cols": cols, "data": data}
        assert dumps(matrix_to_json(mat)) == dumps(want)


def test_cpmap_round_trip_exact():
    t = rand_cp_map(RNG, 3, 2, n_kraus=3)
    back = cpmap_from_json(json.loads(dumps(cpmap_to_json(t))))
    assert (back.dim_in, back.dim_out) == (3, 2)
    assert all(np.array_equal(a, b) for a, b in zip(back.kraus, t.kraus))


def test_choi_round_trip():
    c = to_choi(rand_cp_map(RNG, 2, 2))
    back = choi_from_json(json.loads(dumps(choi_to_json(c))))
    assert np.array_equal(back.matrix, c.matrix)


def test_povm_round_trip():
    p = PovmDecomposition(elements=(0.5 * np.eye(2), 0.5 * np.eye(2)))
    back = povm_from_json(json.loads(dumps(povm_to_json(p))))
    assert len(back.elements) == 2


def test_state_round_trip_with_basis():
    w = FaithfulState(p=np.array([0.25, 0.75]), basis=rand_unitary(RNG, 2))
    back = state_from_json(json.loads(dumps(state_to_json(w))))
    assert np.array_equal(back.p, w.p)
    assert np.array_equal(back.basis, w.basis)


def test_parse_obj_detection():
    t = rand_cp_map(RNG, 2, 2)
    assert isinstance(parse_obj(cpmap_to_json(t)), CpMap)
    assert isinstance(parse_obj(choi_to_json(to_choi(t))), ChoiOperator)
    assert isinstance(
        parse_obj(povm_to_json(PovmDecomposition(elements=(np.eye(2),)))),
        PovmDecomposition,
    )
    assert isinstance(parse_obj({"p": [0.5, 0.5]}), FaithfulState)
    assert isinstance(parse_obj(matrix_to_json(np.eye(2))), np.ndarray)
    with pytest.raises(SchemaError, match="unrecognized"):
        parse_obj({"something": 1})


def test_kraus_shape_mismatch_names_index():
    obj = cpmap_to_json(rand_cp_map(RNG, 2, 2, n_kraus=3))
    obj["kraus"][1] = matrix_to_json(np.eye(3))
    with pytest.raises(SchemaError, match="/kraus/1"):
        cpmap_from_json(obj)


def test_data_entry_errors_carry_paths():
    with pytest.raises(SchemaError, match="/data/3"):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0, 0]] * 3 + ["x"]})
    with pytest.raises(SchemaError, match="/data"):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0, 0]] * 3})
    with pytest.raises(SchemaError, match="missing"):
        matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(SchemaError, match="unknown"):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[0, 0]], "extra": 1})


def test_rejects_booleans_and_bad_ints():
    with pytest.raises(SchemaError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[True, 0]]})
    with pytest.raises(SchemaError, match="/rows"):
        matrix_from_json({"rows": 0, "cols": 1, "data": []})
    with pytest.raises(SchemaError, match="/rows"):
        matrix_from_json({"rows": 1.0, "cols": 1, "data": [[0, 0]]})


def test_rejects_non_finite_everywhere():
    with pytest.raises(SchemaError, match="non-finite"):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[float("inf"), 0]]})
    with pytest.raises(SchemaError):
        matrix_to_json(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})


def test_textual_infinity_token_rejected(tmp_path):
    path = tmp_path / "bad.json"
    for token in ("Infinity", "-Infinity", "NaN"):
        path.write_text('{"rows": 1, "cols": 2, "data": [[0, 0], [%s, 0.0]]}' % token)
        with pytest.raises(SchemaError) as info:
            parse_input(str(path))
        assert str(info.value) == f"non-finite token {token} is not allowed"


def test_choi_psd_failure_reports_eigenvalue():
    bad = np.diag([1.0, 1.0, 1.0, -1e-3])
    with pytest.raises(NotPsd, match="-1"):
        choi_from_json(
            {"dim_in": 2, "dim_out": 2, "matrix": matrix_to_json(bad)}
        )


def test_parse_input_io_and_json_errors(tmp_path):
    with pytest.raises(IoError):
        parse_input(str(tmp_path / "missing.json"))
    path = tmp_path / "broken.json"
    path.write_text('{"dim_in": 2,,}')
    with pytest.raises(SchemaError, match="line 1"):
        parse_input(str(path))


def test_parse_input_happy_path(tmp_path):
    t = rand_cp_map(RNG, 2, 3)
    path = tmp_path / "map.json"
    path.write_text(dumps(cpmap_to_json(t)))
    back = parse_input(str(path))
    assert isinstance(back, CpMap)
    assert (back.dim_in, back.dim_out) == (2, 3)


def test_integers_accepted_as_reals():
    m = matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 0], [0, -2]]})
    assert np.array_equal(m, np.array([[1.0 + 0j, -2j]]))


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [1.5, None, True]})
    b = dumps({"a": [1.5, None, True], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_state_validation_through_schema():
    with pytest.raises(SchemaError, match="/p"):
        state_from_json({"p": []})
    with pytest.raises(SchemaError, match="/p/1"):
        state_from_json({"p": [0.5, "x"]})
    with pytest.raises(SchemaError, match="^/p/1: number out of float range$"):
        state_from_json({"p": [0.5, 10**400]})


def test_choi_matrix_dim_cross_check():
    with pytest.raises(SchemaError, match="/matrix"):
        choi_from_json(
            {"dim_in": 2, "dim_out": 2, "matrix": matrix_to_json(rand_psd(RNG, 3))}
        )


# dumps renders with its own walker over the C encoder; it must give the
# bytes json.dumps(sort_keys=True, indent=2) gives, and its errors.
def _json_dumps(x):
    return json.dumps(x, sort_keys=True, indent=2, allow_nan=False) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.one_of(
    st.floats(),  # includes -0.0, subnormals, inf and nan
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 2.0**53]),
    FINITE.map(np.float64),
)
NUMBERS = st.one_of(FLOATS, st.integers(), st.integers(2**53, 2**200), st.booleans())
SCALARS = st.one_of(st.none(), NUMBERS, st.text())
FLOAT_PAIRS = st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=1)
PAIRS = st.one_of(
    FLOAT_PAIRS,  # the bulk path
    st.tuples(FLOAT_PAIRS, st.lists(NUMBERS, min_size=2, max_size=2)).map(
        lambda t: t[0] + [t[1]]  # one pair of ints, bools, np.float64 or non-finite
    ),
    st.lists(st.tuples(FINITE, FINITE)),
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, PAIRS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


def _assert_renders_as_json(x):
    try:
        want = _json_dumps(x)
    except ValueError:
        with pytest.raises(ValueError):
            dumps(x)
    else:
        assert dumps(x) == want


@settings(max_examples=400, deadline=None)
@given(x=PAYLOADS)
def test_dumps_matches_json(x):
    _assert_renders_as_json(x)


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=1))
def test_dumps_matches_json_on_matrix_data(data):
    # the shape matrix_to_json emits, nested as in a CLI report
    _assert_renders_as_json({"m": {"rows": len(data), "cols": 1, "data": data}})


def test_dumps_matches_json_on_edge_values():
    pairs = [[-0.0, 5e-324], [1e16, -1e-300], [0.1, 2.0**60]]
    for x in (
        {}, [], (), {"a": {}, "b": [[]], "c": [()]},
        pairs, tuple(pairs), [tuple(p) for p in pairs], [pairs[0], [1, 2.0]],
        [[1.5, True]], [[np.float64(0.1), 0.2]], [[0.5, 0.5], [0.5]],
        {"q\"\\\n\t é\x00": 10**40, "": -0.0}, "\ud800",
        {1: "int", 2: None}, {1.5: 0, -0.0: 1}, {True: 0, False: 1}, {None: 0},
    ):
        _assert_renders_as_json(x)
    for bad in ([[0.5, float("inf")]], {"x": [[float("nan"), 0.0]]}, {float("inf"): 0}):
        with pytest.raises(ValueError):
            dumps(bad)
    for bad in ({(1, 2): 0}, {"a": 1, 2: 0}, [np.int64(1)], [object()]):
        with pytest.raises(TypeError):
            dumps(bad)


GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"


def test_dumps_replays_golden_stdout():
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    outs = [c["stdout"] for c in cases if c["stdout"] and "--format" not in c["argv"]]
    assert len(outs) >= 12
    for text in outs:
        assert dumps(json.loads(text)) == text


def test_dumps_stays_off_the_pure_python_encoder(monkeypatch):
    # json.dumps(indent=...) renders token by token in Python; a d=16
    # process operator is 655k tokens, so dumps must never fall back to it
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder reached")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    payload = choi_to_json(to_choi(rand_cp_map(RNG, 16, 16, n_kraus=2)))
    assert dumps({"report": payload, "seed": 1}).count("\n") > 4 * 256 * 256


# matrix_from_json converts well-typed data in one np.array call; the
# per-entry checks must give the same bits and, on a miss, the same errors.
def _per_entry(data, rows, cols):
    flat = [serialize._complex(x, f"/data/{k}") for k, x in enumerate(data)]
    return np.array(flat, dtype=complex).reshape(rows, cols)


ENTRIES = st.one_of(
    FINITE,
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3]),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**53 + 1, 2**63, 2**64 + 1, -(2**63) - 1, 2**1023]),
)


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), data=st.data())
def test_bulk_parse_is_bit_identical(shape, data):
    rows, cols = shape
    pair = st.lists(ENTRIES, min_size=2, max_size=2)
    entries = data.draw(st.lists(pair, min_size=rows * cols, max_size=rows * cols))
    got = matrix_from_json({"rows": rows, "cols": cols, "data": entries})
    want = _per_entry(entries, rows, cols)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "entry, message",
    [
        ([True, 0.5], "/m/data/1/0: expected a number, got bool"),
        ([0.5, False], "/m/data/1/1: expected a number, got bool"),
        ("x", "/m/data/1: expected a [re, im] pair"),
        ([1, 2, 3], "/m/data/1: expected a [re, im] pair"),
        ([1.0], "/m/data/1: expected a [re, im] pair"),
        ((1.0, 2.0), "/m/data/1: expected a [re, im] pair"),
        ([[1.0], 0.0], "/m/data/1/0: expected a number, got list"),
        ([None, 0.0], "/m/data/1/0: expected a number, got NoneType"),
        ([0.0, float("inf")], "/m/data/1/1: non-finite value"),
        ([float("nan"), 0.0], "/m/data/1/0: non-finite value"),
        ([0.0, json.loads("1e400")], "/m/data/1/1: non-finite value"),
        ([10**400, 0.0], "/m/data/1/0: number out of float range"),
        ([0.0, -(10**400)], "/m/data/1/1: number out of float range"),
    ],
    ids=["bool", "bool_im", "string", "three", "one", "tuple", "nested", "null",
         "inf", "nan", "1e400", "huge_int", "huge_int_im"],
)
def test_bulk_parse_rejections_name_the_first_bad_entry(entry, message):
    data = [[0.0, 1.0], entry, [True, "later"]]
    with pytest.raises(SchemaError) as info:
        matrix_from_json({"rows": 1, "cols": 3, "data": data}, "/m")
    assert str(info.value) == message


def test_valid_matrix_parses_without_per_entry_checks(monkeypatch):
    m = RNG.standard_normal((32, 32)) + 1j * RNG.standard_normal((32, 32))
    obj = json.loads(dumps(matrix_to_json(m)))
    calls = []
    per_entry = serialize._complex

    def counted(x, path):
        calls.append(path)
        return per_entry(x, path)

    monkeypatch.setattr(serialize, "_complex", counted)
    assert matrix_from_json(obj).tobytes() == m.tobytes()
    assert calls == []
    # an integer entry sends the data through the per-entry checks, same bits
    obj["data"][5] = [3, -0]
    want = m.copy()
    want[0, 5] = 3
    assert matrix_from_json(obj).tobytes() == want.tobytes()
    assert len(calls) == 32 * 32
    calls.clear()
    obj["data"][7] = [0.5, True]
    with pytest.raises(SchemaError, match="/data/7/1"):
        matrix_from_json(obj)
    assert calls[-1] == "/data/7" and len(calls) == 8


def test_overlong_integer_literal_is_out_of_range(tmp_path, int_digit_limit):
    # json.loads refuses such a literal with a bare ValueError before any
    # entry path exists; it is reported by file alone, a huge integer by
    # file and entry path
    path = tmp_path / "long.json"
    text = '{"rows": 1, "cols": 1, "data": [[%s, 0.0]]}'
    path.write_text(text % ("9" * (int_digit_limit + 1)))
    with pytest.raises(SchemaError) as info:
        parse_input(str(path))
    assert str(info.value) == f"{path}: number out of float range"
    path.write_text(text % ("9" * int_digit_limit))
    with pytest.raises(SchemaError) as info:
        parse_input(str(path))
    assert str(info.value) == f"{path}: /data/0/0: number out of float range"

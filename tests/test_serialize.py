import json

import numpy as np
import pytest

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
    path.write_text('{"rows": 1, "cols": 1, "data": [[Infinity, 0.0]]}')
    with pytest.raises(SchemaError, match="non-finite token"):
        parse_input(str(path))


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


def test_choi_matrix_dim_cross_check():
    with pytest.raises(SchemaError, match="/matrix"):
        choi_from_json(
            {"dim_in": 2, "dim_out": 2, "matrix": matrix_to_json(rand_psd(RNG, 3))}
        )

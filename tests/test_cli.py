import argparse
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from cp_calculus.cli import build_parser, dispatch, main
from cp_calculus.cpmap import CpMap, compose, scale, to_choi
from cp_calculus.duality import FaithfulState, jam_forward
from cp_calculus.errors import SchemaError
from cp_calculus.norms import diamond_lower, norm_report
from cp_calculus.numerics import EPS_PSD, MAX_DIM
from cp_calculus.serialize import (
    choi_from_json,
    choi_to_json,
    cpmap_to_json,
    dumps,
    matrix_to_json,
    state_to_json,
)
from helpers import rand_channel, rand_cp_map

RNG = np.random.default_rng(20240824)

IDENT = CpMap(2, 2, (np.eye(2),))
XCONJ = CpMap(2, 2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(dumps(payload))
        return str(path)

    return tmp_path, write


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(files, capsys):
    _, write = files
    path = write("id.json", cpmap_to_json(IDENT))
    code, out, err = run(["validate", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["kind"] == "cp_map"
    assert report["kraus_count"] == 1


def test_validate_schema_failure_is_verdict(files, capsys):
    tmp, write = files
    bad = tmp / "bad.json"
    bad.write_text('{"dim_in": 2, "dim_out": 2, "kraus": []}')
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert "kraus" in report["error"]


def test_huge_integer_entry_is_an_input_error(files, capsys):
    # an integer beyond float range is bad input, not a traceback: validate
    # reports it, and every other command exits 2 naming file and entry
    tmp, write = files
    huge = "1" + "0" * 400
    bad = tmp / "huge.json"
    bad.write_text(dumps(cpmap_to_json(IDENT)).replace("1.0", huge, 1))
    message = f"{bad}: /kraus/0/data/0/0: number out of float range"
    code, out, err = run(["validate", str(bad)], capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"valid": False, "error": message}
    for argv in (["choi", str(bad)], ["compose", str(bad), str(bad)]):
        assert run(argv, capsys) == (2, "", f"error: {message}\n")
    state = tmp / "state.json"
    state.write_text('{"p": [0.5, -%s]}' % huge)
    ident = write("id.json", cpmap_to_json(IDENT))
    code, out, err = run(["faithful", ident, str(state)], capsys)
    assert (code, out, err) == (2, "", f"error: {state}: /p/1: number out of float range\n")



def test_overlong_integer_literal_is_an_input_error(files, capsys, int_digit_limit):
    # json.loads refuses the literal itself, so the file is named, not an entry
    tmp, _ = files
    bad = tmp / "long.json"
    digits = "1" * (int_digit_limit + 1)
    bad.write_text(dumps(cpmap_to_json(IDENT)).replace("1.0", digits, 1))
    message = f"{bad}: number out of float range"
    code, out, err = run(["validate", str(bad)], capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"valid": False, "error": message}
    assert run(["choi", str(bad)], capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("depth", [1100, 100_000])
def test_deeply_nested_input_is_an_input_error(files, capsys, depth):
    # json.loads runs out of recursion on the nesting itself: the file is
    # invalid, not a traceback whose exit code 1 would read as a verdict
    tmp, _ = files
    bad = tmp / "deep.json"
    bad.write_text("[" * depth)
    message = f"{bad}: nesting too deep"
    code, out, err = run(["validate", str(bad)], capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"valid": False, "error": message}
    assert run(["choi", str(bad)], capsys) == (2, "", f"error: {message}\n")


def test_validate_missing_file_is_io_error(files, capsys):
    tmp, _ = files
    code, out, err = run(["validate", str(tmp / "absent.json")], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_dominate_verdicts(files, capsys):
    _, write = files
    ident = write("id.json", cpmap_to_json(IDENT))
    half = write("half.json", cpmap_to_json(scale(IDENT, 0.5)))
    code, out, _ = run(["dominate", half, ident], capsys)
    assert code == 0 and json.loads(out) == {"dominates": True}
    code, out, _ = run(["dominate", ident, half], capsys)
    assert code == 1 and json.loads(out) == {"dominates": False}


def test_dominate_tol_flag_loosens_verdict(files, capsys):
    _, write = files
    ident = write("id.json", cpmap_to_json(IDENT))
    half = write("half.json", cpmap_to_json(scale(IDENT, 0.5)))
    code, out, _ = run(["dominate", ident, half, "--tol", "10"], capsys)
    assert code == 0 and json.loads(out) == {"dominates": True}


def test_choi_output_reloads(files, capsys):
    _, write = files
    t = rand_cp_map(RNG, 2, 3)
    path = write("t.json", cpmap_to_json(t))
    code, out, _ = run(["choi", path], capsys)
    assert code == 0
    back = choi_from_json(json.loads(out))
    assert np.allclose(back.matrix, to_choi(t).matrix, atol=1e-15)


def test_canonical_round_trip(files, capsys):
    _, write = files
    t = rand_cp_map(RNG, 2, 2, n_kraus=3)
    path = write("t.json", cpmap_to_json(t))
    code, out, _ = run(["canonical", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dim_in"] == 2 and len(report["kraus"]) <= 4


def test_apply_map_and_choi_agree(files, capsys):
    _, write = files
    t = rand_cp_map(RNG, 2, 2)
    tpath = write("t.json", cpmap_to_json(t))
    fpath = write("f.json", choi_to_json(jam_forward(t)))
    a = RNG.standard_normal((2, 2))
    apath = write("a.json", matrix_to_json(a))
    _, out1, _ = run(["apply", tpath, apath], capsys)
    _, out2, _ = run(["apply", fpath, apath], capsys)
    m1 = np.array(json.loads(out1)["data"])
    m2 = np.array(json.loads(out2)["data"])
    assert np.allclose(m1, m2, atol=1e-10)


def test_derivative_success_and_failure(files, capsys):
    _, write = files
    ident = write("id.json", cpmap_to_json(IDENT))
    half = write("half.json", cpmap_to_json(scale(IDENT, 0.5)))
    code, out, _ = run(["derivative", half, ident], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["env_dim"] == 1
    assert report["matrix"]["data"][0][0] == pytest.approx(0.5)
    # reverse direction has no derivative: numeric failure, silent stdout
    code, out, err = run(["derivative", ident, half], capsys)
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_cmin_finite_and_infinite(files, capsys):
    _, write = files
    ident = write("id.json", cpmap_to_json(IDENT))
    half = write("half.json", cpmap_to_json(scale(IDENT, 0.5)))
    xconj = write("x.json", cpmap_to_json(XCONJ))
    code, out, _ = run(["cmin", half, ident], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["finite"] is True
    assert report["c_min"] == pytest.approx(0.5)
    code, out, _ = run(["cmin", xconj, ident], capsys)
    assert code == 1
    assert json.loads(out) == {"c_min": None, "finite": False, "attained": False}


def test_chain_command(files, capsys):
    _, write = files
    t = rand_channel(RNG, 2, 2)
    paths = [
        write(f"c{k}.json", cpmap_to_json(scale(t, lam)))
        for k, lam in enumerate([0.2, 0.7, 1.0])
    ]
    code, out, _ = run(["chain", *paths], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["projections"]) == 3
    assert report["env_dim"] >= 1
    # a reversed chain is not monotone: numeric failure
    code, out, err = run(["chain", *reversed(paths)], capsys)
    assert code == 3 and out == ""


def test_naimark_command(files, capsys):
    _, write = files
    povm = write(
        "povm.json",
        {"elements": [matrix_to_json(0.5 * np.eye(2))] * 2},
    )
    code, out, _ = run(["naimark", povm], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["isometry"]["rows"] == 4
    assert len(report["pvm"]) == 2


def test_non_hermitian_povm_is_rejected(files, capsys):
    # the elements sum to 1, but naimark would dilate their Hermitian parts
    _, write = files
    skew = np.array([[0.5, 0.3], [-0.3, 0.5]])
    povm = write(
        "skew.json",
        {"elements": [matrix_to_json(skew), matrix_to_json(np.eye(2) - skew)]},
    )
    code, out, _ = run(["validate", povm], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert "Hermiticity" in report["error"]
    code, out, err = run(["naimark", povm], capsys)
    assert code == 2 and out == ""
    assert "Hermiticity" in err


def test_compose_command_matches_kraus_route(files, capsys):
    _, write = files
    t1 = rand_cp_map(RNG, 2, 3)
    t2 = rand_cp_map(RNG, 3, 2)
    p1 = write("t1.json", cpmap_to_json(t1))
    p2 = write("t2.json", cpmap_to_json(t2))
    code, out, _ = run(["compose", p2, p1], capsys)
    assert code == 0
    got = choi_from_json(json.loads(out))
    want = jam_forward(compose(t2, t1))
    assert np.allclose(got.matrix, want.matrix, atol=1e-10)


def test_diamond_and_bounds_reports(files, capsys):
    _, write = files
    a = write("a.json", cpmap_to_json(IDENT))
    b = write("b.json", cpmap_to_json(XCONJ))
    code, out, _ = run(["diamond", a, b, "--seed", "3", "--restarts", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 3 and report["restarts"] == 6
    assert report["diamond_lower"] == pytest.approx(2.0, abs=1e-6)
    code, out, _ = run(["bounds", a, b, "--restarts", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    for key in ("lower", "upper_rn", "upper_dilation", "cb_exact", "iterations"):
        assert key in report
    assert report["cb_exact"] is None


@pytest.mark.parametrize("command", ["diamond", "bounds"])
def test_ascent_dimension_limit_exits_3(files, capsys, command):
    # a 1 x 130 map passes --max-dim, but the ascent's side, dim_out times
    # an ancilla of dim_out, is 16900: a domain failure, like a Naimark one
    _, write = files
    t = write("t.json", cpmap_to_json(CpMap(1, 130, (np.ones((1, 130)),))))
    code, out, err = run([command, t, t], capsys)
    assert (code, out) == (3, "")
    assert err == "error: ascent dimension 16900 exceeds 16384\n"


def test_faithful_command(files, capsys):
    _, write = files
    t = write("t.json", cpmap_to_json(IDENT))
    w = write("w.json", state_to_json(FaithfulState(p=np.array([0.5, 0.5]))))
    code, out, _ = run(["faithful", t, w], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["constant"] == pytest.approx(4.0)
    assert report["matrix"]["rows"] == 4


def test_wrong_input_kind_is_usage_error(files, capsys):
    _, write = files
    mat = write("m.json", matrix_to_json(np.eye(2)))
    ident = write("id.json", cpmap_to_json(IDENT))
    code, out, err = run(["dominate", mat, ident], capsys)
    assert code == 2 and out == ""
    assert "expected a CP map" in err
    # with both inputs of the wrong kind, the first one is reported
    code, out, err = run(["apply", mat, ident], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {mat}: expected a CP map or a Choi operator, got ndarray\n"


def test_arity_and_unknown_command(files, capsys):
    _, write = files
    ident = write("id.json", cpmap_to_json(IDENT))
    code, out, err = run(["dominate", ident], capsys)
    assert code == 2 and out == ""
    code, _, _ = run(["frobnicate", ident], capsys)
    assert code == 2


def test_max_dim_guard(files, capsys):
    _, write = files
    t = write("t.json", cpmap_to_json(rand_cp_map(RNG, 4, 4)))
    code, out, err = run(["choi", t, "--max-dim", "3"], capsys)
    assert code == 2 and out == ""
    assert "--max-dim" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("diamond", "--restarts", "0"),
        ("diamond", "--seed", "-1"),
        ("dominate", "--max-dim", "0"),
        ("dominate", "--tol", "nan"),
        ("dominate", "--tol", "inf"),
        ("dominate", "--tol", "-0.5"),
    ],
)
def test_invalid_flag_is_usage_error(files, capsys, command, flag, value):
    # rejected by argparse before any input is read: exit 2, empty stdout;
    # an infinite --tol would otherwise let any map dominate any other
    _, write = files
    high = write("high.json", cpmap_to_json(scale(IDENT, 0.8)))
    low = write("low.json", cpmap_to_json(scale(IDENT, 0.2)))
    code, out, err = run([command, high, low, flag, value], capsys)
    assert code == 2 and out == ""
    assert f"argument {flag}: '{value}' is not " in err


def test_text_format_matches_json_values(files, capsys):
    _, write = files
    ident = write("id.json", cpmap_to_json(IDENT))
    half = write("half.json", cpmap_to_json(scale(IDENT, 0.5)))
    _, out_json, _ = run(["cmin", half, ident], capsys)
    _, out_text, _ = run(["cmin", half, ident, "--format", "text"], capsys)
    val = json.loads(out_json)["c_min"]
    line = next(l for l in out_text.splitlines() if l.startswith("c_min"))
    assert float(line.split("=")[1]) == pytest.approx(val, rel=1e-12)


def test_dispatch_level_requests():
    with pytest.raises(SchemaError, match="takes"):
        dispatch(build_parser().parse_args(["choi"]))
    with pytest.raises(SchemaError, match="unknown command 'frobnicate'"):
        dispatch(argparse.Namespace(command="frobnicate", inputs=["x.json"]))


def test_parser_defaults_match_the_library():
    ns = build_parser().parse_args(["bounds", "a", "b"])
    for fn in (norm_report, diamond_lower):
        params = inspect.signature(fn).parameters
        assert ns.seed == params["seed"].default
        assert ns.restarts == params["restarts"].default
    assert ns.tol is EPS_PSD
    assert ns.max_dim == MAX_DIM


def test_subprocess_byte_determinism(files):
    _, write = files
    a = write("a.json", cpmap_to_json(rand_channel(RNG, 2, 2)))
    b = write("b.json", cpmap_to_json(rand_channel(RNG, 2, 2)))
    argv = [
        sys.executable,
        "-m",
        "cp_calculus",
        "bounds",
        a,
        b,
        "--seed",
        "9",
        "--restarts",
        "6",
    ]
    outputs = set()
    for workers in ("1", "4"):
        for _ in range(3):
            proc = subprocess.run(
                argv + ["--workers", workers], capture_output=True, check=True
            )
            outputs.add(proc.stdout)
    assert len(outputs) == 1

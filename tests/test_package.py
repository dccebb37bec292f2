"""The package loads a layer module only when one of its names is used.

``cp_calculus`` resolves each public name from its defining module on
every access (PEP 562), so its public surface must read exactly as if the
names were imported eagerly, and a name patched in its defining module
must be what the package returns.  Each CLI command loads only the layer
modules it runs; a fresh interpreter per command, in default mode and
under ``python -O``, shows which.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cp_calculus
from cp_calculus import cpmap, radon

DATA = Path(__file__).resolve().parent / "data" / "cli_golden"

PUBLIC = [
    "ChoiOperator", "CommonDilationPair", "CpError", "CpMap", "DifferenceVerdict",
    "DimMismatch", "DimensionLimit", "DominationConstant", "FaithfulDerivative",
    "FaithfulState", "InvariantViolation", "IoError", "NaimarkDilation", "NormReport",
    "NotAChannel", "NotADecomposition", "NotAResolution", "NotAnOperation",
    "NotDominated", "NotHermitian", "NotMonotone", "NotPsd", "PovmDecomposition",
    "PvmChain", "ReferenceChannel", "RescaledKraus", "RnDerivative", "SchemaError",
    "ShapeMismatch", "StinespringDilation", "add", "apply", "apply_dual",
    "bound_dilation_diff", "bound_rn", "c_min", "canonicalize", "cb_norm_cp",
    "channel_difference_is_cp", "choi_rank", "choi_unnormalized", "common_dilation",
    "compose", "cp_difference", "diamond_lower", "dilation_matrix", "dominates",
    "faithful_channel", "faithful_rn", "from_choi", "from_stinespring", "instrument_rn",
    "is_channel", "is_pure", "is_quantum_operation", "jam_apply", "jam_compose",
    "jam_forward", "jam_is_operation", "kraus_stack", "mix_channels", "naimark_dilate",
    "norm_report", "order_chain_dilation", "pad_to_channel", "reference_channel",
    "rescaled_kraus", "rn_derivative", "rn_reconstruct", "scale", "to_choi",
    "to_stinespring",
]


def test_public_names_are_unchanged():
    assert len(PUBLIC) == 72
    assert cp_calculus.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_defining_modules(name):
    obj = getattr(cp_calculus, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("cp_calculus.")
    assert getattr(home, name) is obj


def test_dir_lists_the_public_names():
    names = dir(cp_calculus)
    assert "__all__" in names and "__version__" in names
    assert set(PUBLIC) <= set(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'cp_calculus' has no attribute 'frobnicate'$"):
        cp_calculus.frobnicate  # noqa: B018
    assert not hasattr(cp_calculus, "_trusted_map")


def test_star_import_binds_every_name():
    scope = {}
    exec("from cp_calculus import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == PUBLIC


def test_lookup_follows_a_patched_module(monkeypatch):
    # the span tracer patches defining modules and restores them afterwards
    def patched(*args):
        return "patched"

    for module, name in ((radon, "dominates"), (cpmap, "to_choi")):
        original = getattr(cp_calculus, name)
        monkeypatch.setattr(module, name, patched)
        assert getattr(cp_calculus, name) is patched
        monkeypatch.setattr(module, name, original)
        assert getattr(cp_calculus, name) is original
        assert name not in vars(cp_calculus)


# Which cp_calculus modules a fresh interpreter holds after one command.
BASE = {"cli", "cpmap", "errors", "numerics", "serialize"}
LOADS = {
    "choi": (["choi", "t.json"], set()),
    "canonical": (["canonical", "t.json"], set()),
    "apply-map": (["apply", "t.json", "a.json"], set()),
    "validate-map": (["validate", "t.json"], set()),
    "dominate": (["dominate", "t_mid.json", "t.json"], {"radon"}),
    "derivative": (["derivative", "t_mid.json", "t.json"], {"radon"}),
    "cmin": (["cmin", "t_mid.json", "t.json"], {"radon", "order"}),
    "chain": (["chain", "t_low.json", "t_mid.json", "t_high.json"], {"radon", "order"}),
    "naimark": (["naimark", "povm.json"], {"radon", "order"}),
    "diamond": (["diamond", "t.json", "u.json", "--restarts", "2"], {"radon", "norms"}),
    "bounds": (["bounds", "t.json", "u.json", "--restarts", "2"], {"radon", "norms"}),
    "compose": (["compose", "t.json", "u.json"], {"radon", "duality"}),
    "faithful": (["faithful", "t.json", "w.json"], {"radon", "duality"}),
    "apply-choi": (["apply", "CHOI", "a.json"], {"radon", "duality"}),
}

CHILD = """
import contextlib, io, json, sys
from cp_calculus.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "cp_calculus")]))
"""

ENV = {**os.environ, "PYTHONPATH": str(Path(cp_calculus.__file__).parents[1])}


@pytest.fixture(scope="module")
def choi_file(tmp_path_factory):
    from cp_calculus.cpmap import to_choi
    from cp_calculus.serialize import choi_to_json, dumps, parse_input

    path = tmp_path_factory.mktemp("choi") / "c.json"
    path.write_text(dumps(choi_to_json(to_choi(parse_input(DATA / "t.json")))))
    return str(path)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "O"])
@pytest.mark.parametrize("case", sorted(LOADS))
def test_command_loads_only_its_layers(case, flags, choi_file):
    argv, extra = LOADS[case]
    argv = [choi_file if arg == "CHOI" else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, json.dumps(argv)],
        cwd=DATA, env=ENV, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(proc.stdout)
    assert code == 0
    assert set(modules) == {"cp_calculus", *(f"cp_calculus.{m}" for m in BASE | extra)}

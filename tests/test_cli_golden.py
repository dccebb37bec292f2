"""Replay the CLI golden fixtures in ``tests/data/cli_golden/``.

Exit code and stderr must match exactly.  Verdict reports (and empty
stdout) must match byte for byte; numeric reports must keep their key
order and agree within 1e-12, since last bits differ across BLAS builds.
``tests/data/make_cli_golden.py`` documents how the fixtures were made.
"""

import json
from pathlib import Path

import pytest

from cp_calculus.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_golden"
CASES = json.loads((DATA / "cases.json").read_text(encoding="utf-8"))


class _Obj(list):
    """A JSON object as its (key, value) pairs, in file order."""


def _parse(text):
    return json.loads(text, object_pairs_hook=_Obj)


def _assert_close(got, want, where="$"):
    if isinstance(want, _Obj):
        assert isinstance(got, _Obj), where
        assert [k for k, _ in got] == [k for k, _ in want], f"{where}: key order"
        for (key, g), (_, w) in zip(got, want):
            _assert_close(g, w, f"{where}.{key}")
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), where
        for idx, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{idx}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_golden(case, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["code"]
    assert captured.err == case["stderr"]
    if case["exact"]:
        assert captured.out == case["stdout"]
    else:
        _assert_close(_parse(captured.out), _parse(case["stdout"]))

"""The format guide's examples must stay exact against the code: its JSON
blocks byte for byte, its command-line reports by the CLI goldens' rule."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from cp_calculus.cli import main
from cp_calculus.cpmap import CpMap, scale
from cp_calculus.serialize import cpmap_to_json, dumps, parse_obj
from test_cli_golden import _assert_close, _Obj, _parse

DOC = Path(__file__).resolve().parent.parent / "docs" / "format.md"


def json_blocks():
    text = DOC.read_text()
    return re.findall(r"```json\n(.*?)```\n", text, flags=re.DOTALL)


def test_doc_examples_present():
    assert len(json_blocks()) >= 8


def test_doc_examples_are_canonical():
    # every block is the serializer's own output: reload + dump is identity
    for block in json_blocks():
        assert dumps(json.loads(block)) == block


def test_doc_object_examples_parse():
    parsed = 0
    for block in json_blocks():
        obj = json.loads(block)
        if {"kraus", "elements", "p", "rows"} & obj.keys() or "matrix" in obj:
            parse_obj(obj)
            parsed += 1
    assert parsed == 5


# The command-line examples, replayed on inputs built from the prose around
# them.  As for the CLI goldens, exit code and stderr match exactly, a verdict
# report byte for byte, and a numeric report (bounds, cmin) keeps its keys in
# order with each number within 1e-12.
EXAMPLES = re.findall(
    r"`cp-calculus ([^`]*)`(.*?)```(json|text)\n(.*?)```\n", DOC.read_text(), flags=re.DOTALL
)
IDENTITY = CpMap(2, 2, (np.eye(2),))
INPUTS = {
    "id.json": cpmap_to_json(IDENTITY),
    "half.json": cpmap_to_json(scale(IDENTITY, 0.5)),
    "damp.json": cpmap_to_json(
        CpMap(2, 2, (np.array([[1.0, 0.0], [0.0, 0.8]]), np.array([[0.0, 0.6], [0.0, 0.0]])))
    ),
    # a Kraus entry holding one value instead of four
    "bad.json": {
        "dim_in": 2, "dim_out": 2, "kraus": [{"cols": 2, "data": [[1.0, 0.0]], "rows": 2}]
    },
}
NUMERIC = {"bounds", "cmin"}


def _report(text, fmt):
    """A report as the goldens' rule reads it; a text report's ``key = value``
    lines as the pairs of one object."""
    if fmt == "json":
        return _parse(text)
    lines = (line.split(" = ") for line in text.splitlines())
    return _Obj((key, json.loads(value)) for key, value in lines)


def test_doc_cli_examples_present():
    assert [argv.split()[0] for argv, *_ in EXAMPLES] == ["dominate", "bounds", "cmin", "validate"]


@pytest.mark.parametrize(
    "argv, prose, fmt, want", EXAMPLES, ids=[argv.split()[0] for argv, *_ in EXAMPLES]
)
def test_doc_cli_example(argv, prose, fmt, want, tmp_path, monkeypatch, capsys):
    for name, obj in INPUTS.items():
        (tmp_path / name).write_text(dumps(obj))
    monkeypatch.chdir(tmp_path)
    code = main(argv.split())
    got = capsys.readouterr()
    assert code == (1 if "exits 1" in prose else 0)
    assert got.err == ""
    if argv.split()[0] in NUMERIC:
        _assert_close(_report(got.out, fmt), _report(want, fmt))
    else:
        assert got.out == want

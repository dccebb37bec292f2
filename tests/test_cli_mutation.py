"""Mutated golden inputs never crash the command line.

Each example takes one CLI golden input file and applies one mutation: a
node swapped for another JSON type, a key dropped or duplicated, a node
nested deeply, a dimension made huge, negative or boolean, non-UTF-8 bytes,
or a byte-order mark.  ``cli.main`` then runs in process with the mutated
file in every input position of every command and arity, the other
positions holding golden inputs of the kind the command expects.  No
exception may escape, the exit code must be 0 to 3, and exit 2 must come
with one stderr line that names the mutated file.
"""

import codecs
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cp_calculus.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"
INPUTS = sorted(p.name for p in GOLDEN.glob("*.json") if p.name != "cases.json")
# a golden input of each kind, for the positions the mutated file does not take
FILLER = {"CpMap": "t.json", "ndarray": "a.json", "PovmDecomposition": "povm.json",
          "FaithfulState": "w.json"}
OTHER_TYPES = [None, True, 0, -1, 2.5, "x", [], {}, [[1.0, 0.0]], {"rows": 1}]
DIM_KEYS = {"dim_in", "dim_out", "rows", "cols"}


class Raw(str):
    """JSON text written as it is."""


class Pairs(list):
    """A JSON object as (key, value) pairs, so a key can repeat."""


BAD_DIMS = [0, -3, True, False, 2.0, 2**31, 2**63, 10**30, Raw("1" + "0" * 5000)]


def _text(node) -> str:
    if isinstance(node, Raw):
        return node
    if isinstance(node, dict):
        node = Pairs(node.items())
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_text, node)) + "]"
    return json.dumps(node)


def _nodes(node, parent=None, key=None):
    """(parent, key, node) for every node, the root's parent being None."""
    yield parent, key, node
    if isinstance(node, (dict, list)):
        for k, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, node, k)


def _mutate(data, obj) -> bytes:
    """The golden object ``obj`` as JSON bytes with one drawn mutation."""
    kind = data.draw(st.sampled_from(
        ["swap", "drop", "duplicate", "nest", "dimension", "non_utf8", "bom"]))
    nodes = list(_nodes(obj))
    if kind in ("drop", "duplicate"):
        nodes = [n for n in nodes if isinstance(n[2], dict) and n[2]]
    elif kind == "dimension":
        nodes = [n for n in nodes if n[1] in DIM_KEYS]
    parent, key, node = data.draw(st.sampled_from(nodes))
    if kind == "swap":
        node = data.draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(node)]))
    elif kind == "drop":
        node = dict(node)
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "duplicate":
        k = data.draw(st.sampled_from(sorted(node)))
        node = Pairs([*node.items(), (k, data.draw(st.sampled_from([node[k], *OTHER_TYPES])))])
    elif kind == "nest":
        depth = data.draw(st.sampled_from([2, 100, 1100, 20000]))
        opener, closer = data.draw(st.sampled_from([("[", "]"), ('{"k": ', "}")]))
        node = Raw(opener * depth + _text(node) + closer * depth)
    elif kind == "dimension":
        node = data.draw(st.sampled_from(BAD_DIMS))
    if parent is None:
        obj = node
    else:
        parent[key] = node
    text = _text(obj)
    if kind == "non_utf8":
        at = data.draw(st.integers(0, len(text)))
        bad = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"]))
        return text[:at].encode() + bad + text[at:].encode()
    if kind == "bom":
        return data.draw(st.sampled_from([
            codecs.BOM_UTF8 + text.encode(),
            codecs.BOM_UTF16_LE + text.encode("utf-16-le"),
        ]))
    return text.encode()


def _filler(kinds) -> str:
    kinds = (kinds,) if isinstance(kinds, str) else kinds
    return str(GOLDEN / next(FILLER[k] for k in kinds if k in FILLER))


def _invocations(path):
    for name, cmd in sorted(_COMMANDS.items()):
        lo = len(cmd.kinds)
        for arity in range(lo, lo + 1 + cmd.variadic):
            fills = [_filler(cmd.kinds[min(i, lo - 1)]) for i in range(arity)]
            for pos in range(arity):
                yield [name, *fills[:pos], path, *fills[pos + 1:], "--restarts", "2"]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_golden_inputs_never_crash(data):
    name = data.draw(st.sampled_from(INPUTS))
    payload = _mutate(data, json.loads((GOLDEN / name).read_text(encoding="utf-8")))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        Path(path).write_bytes(payload)
        for argv in _invocations(path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in {0, 1, 2, 3}, argv
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and path in lines[0], (argv, lines)

"""Command-line front end.

Commands read JSON files in the shared schema, run one analysis, and
print a single report to stdout.  Exit codes are script-friendly:

    0  affirmative verdict or successful computation
    1  negative verdict (dominate false, infinite cmin, invalid input
       under ``validate``)
    2  usage problems, unreadable files, schema or validation failures
    3  numeric / domain failures (no derivative, broken chain, ...)

Nothing is written to stdout on failure; diagnostics go to stderr.
Identical invocations produce byte-identical stdout.  ``--workers`` is
accepted for compatibility and ignored: estimator restarts run stacked.
``build_parser`` holds every option's default, and ``dispatch`` runs on
the namespace it parses.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

import numpy as np

import cp_calculus as cp

from .cpmap import ChoiOperator, CpMap, apply, canonicalize, to_choi
from .errors import CpError, IoError, SchemaError
from .numerics import EPS_PSD, MAX_DIM
from .serialize import (
    choi_to_json,
    cpmap_to_json,
    dumps,
    matrix_to_json,
    parse_input,
)


def _flag(cast, ok, need: str) -> Callable:
    """argparse type: ``cast`` the text, a usage error unless ``ok(value)``."""

    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {need}")
        return value

    parse.__name__ = cast.__name__  # unparsable text reads "invalid int value"
    return parse


_COUNT = _flag(int, lambda v: v >= 1, "an integer >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cp-calculus",
        description="Domination calculus for completely positive maps.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="analysis to run")
    parser.add_argument("inputs", nargs="*", help="input JSON files")
    parser.add_argument(
        "--tol",
        type=_flag(
            float, lambda v: np.isfinite(v) and v >= 0.0, "a finite number >= 0"
        ),
        default=EPS_PSD,
        help="PSD slack for verdict commands (default %(default)g)",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    parser.add_argument(
        "--seed",
        type=_flag(int, lambda v: v >= 0, "an integer >= 0"),
        default=0,
        help="estimator seed",
    )
    parser.add_argument(
        "--restarts", type=_COUNT, default=32, help="estimator restart count"
    )
    parser.add_argument(
        "--max-dim",
        type=_COUNT,
        default=MAX_DIM,
        help="reject inputs whose total dimension exceeds this",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="accepted and ignored"
    )
    return parser


class _Kind(NamedTuple):
    """How the CLI names, sizes and describes one kind of input object."""

    name: str
    sides: Callable  # dimensions checked against --max-dim
    describe: Callable  # fields of the ``validate`` report


_KINDS = {  # keyed by type name: parsing the first POVM or state loads its layer
    "CpMap": _Kind(
        "a CP map",
        lambda t: [t.dim_in, t.dim_out],
        lambda t: {
            "kind": "cp_map",
            "dim_in": t.dim_in,
            "dim_out": t.dim_out,
            "kraus_count": len(t.kraus),
        },
    ),
    "ChoiOperator": _Kind(
        "a Choi operator",
        lambda c: [c.dim_in * c.dim_out],
        lambda c: {"kind": "choi", "dim_in": c.dim_in, "dim_out": c.dim_out},
    ),
    "PovmDecomposition": _Kind(
        "a POVM",
        lambda p: [p.dim],
        lambda p: {"kind": "povm", "dim": p.dim, "element_count": len(p.elements)},
    ),
    "FaithfulState": _Kind(
        "a faithful state",
        lambda w: [w.dim],
        lambda w: {"kind": "faithful_state", "dim": w.dim},
    ),
    "ndarray": _Kind(
        "a matrix",
        lambda a: list(a.shape),
        lambda a: {"kind": "matrix", "rows": int(a.shape[0]), "cols": int(a.shape[1])},
    ),
}


def _kind(obj) -> _Kind:
    return _KINDS[type(obj).__name__]


def _load(path, max_dim):
    """Parse one input; semantic constructor failures count as bad input."""
    try:
        obj = parse_input(path)
    except (IoError, SchemaError):
        raise
    except (CpError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    sides = _kind(obj).sides(obj)
    if max(sides) > max_dim:
        raise SchemaError(f"{path}: dimension {max(sides)} exceeds --max-dim {max_dim}")
    return obj


def _expect(obj, kinds, path):
    wanted = (kinds,) if isinstance(kinds, str) else kinds
    if type(obj).__name__ not in wanted:
        want = " or ".join(_KINDS[k].name for k in wanted)
        raise SchemaError(f"{path}: expected {want}, got {type(obj).__name__}")


def _fields(res) -> dict:
    """A result object's fields as a report, matrices via matrix_to_json."""
    out = res._asdict() if isinstance(res, tuple) else dict(vars(res))
    for key, val in out.items():
        if isinstance(val, np.ndarray):
            out[key] = matrix_to_json(val)
        elif isinstance(val, tuple):
            out[key] = [matrix_to_json(v) for v in val]
    return out


def _apply(o, first, a):
    if isinstance(first, ChoiOperator):
        return 0, matrix_to_json(cp.jam_apply(first, a))
    return 0, matrix_to_json(apply(first, a))


def _dominate(o, s, t):
    verdict = cp.dominates(s, t, o.tol)
    return (0 if verdict else 1), {"dominates": bool(verdict)}


def _cmin(o, s, t):
    r = cp.c_min(s, t)
    if not np.isfinite(r.value):
        return 1, {"c_min": None, "finite": False, "attained": False}
    return 0, {
        "c_min": float(r.value),
        "finite": True,
        "attained": bool(r.attained),
    }


def _compose(o, f2, f1):
    f2, f1 = (cp.jam_forward(f) if isinstance(f, CpMap) else f for f in (f2, f1))
    return 0, choi_to_json(cp.jam_compose(f2, f1))


def _diamond(o, t1, t2):
    val = cp.diamond_lower(t1, t2, o.seed, o.restarts)
    return 0, {"diamond_lower": float(val), "seed": o.seed, "restarts": o.restarts}


class _Command(NamedTuple):
    """Input kinds per position and the handler ``run(args, *inputs)``.

    A kind is a type name, or a tuple of them; a variadic command repeats
    its last kind.  ``bad_input`` turns a load failure into a report, not a
    usage error.  Handlers reach their layers through the package, which
    imports each on its first lookup.
    """

    kinds: tuple
    run: Callable
    variadic: bool = False
    bad_input: Callable | None = None


_EITHER = ("CpMap", "ChoiOperator")
_COMMANDS = {
    "validate": _Command(
        (tuple(_KINDS),),
        lambda o, obj: (0, {"valid": True, **_kind(obj).describe(obj)}),
        bad_input=lambda exc: (1, {"valid": False, "error": str(exc)}),
    ),
    "choi": _Command(("CpMap",), lambda o, t: (0, choi_to_json(to_choi(t)))),
    "canonical": _Command(("CpMap",), lambda o, t: (0, cpmap_to_json(canonicalize(t)))),
    "apply": _Command((_EITHER, "ndarray"), _apply),
    "dominate": _Command(("CpMap", "CpMap"), _dominate),
    "derivative": _Command(
        ("CpMap", "CpMap"),
        lambda o, s, t: (0, _fields(cp.rn_derivative(s, t))),
    ),
    "cmin": _Command(("CpMap", "CpMap"), _cmin),
    "chain": _Command(
        ("CpMap",),
        lambda o, *maps: (0, _fields(cp.order_chain_dilation(maps))),
        variadic=True,
    ),
    "naimark": _Command(
        ("PovmDecomposition",),
        lambda o, povm: (0, _fields(cp.naimark_dilate(povm))),
    ),
    "compose": _Command((_EITHER, _EITHER), _compose),
    "diamond": _Command(("CpMap", "CpMap"), _diamond),
    "bounds": _Command(
        ("CpMap", "CpMap"),
        lambda o, t1, t2: (0, _fields(cp.norm_report(t1, t2, o.seed, o.restarts))),
    ),
    "faithful": _Command(
        ("CpMap", "FaithfulState"),
        lambda o, t, w: (0, _fields(cp.faithful_rn(t, w))),
    ),
}


def dispatch(args: argparse.Namespace):
    """Run a namespace parsed by ``build_parser``; returns (exit_code, payload)."""
    cmd = _COMMANDS.get(args.command)
    if cmd is None:
        raise SchemaError(f"unknown command {args.command!r}")
    count, lo = len(args.inputs), len(cmd.kinds)
    if count < lo or (count > lo and not cmd.variadic):
        expected = f"at least {lo}" if cmd.variadic else str(lo)
        raise SchemaError(f"{args.command} takes {expected} input file(s), got {count}")
    try:
        loaded = [_load(path, args.max_dim) for path in args.inputs]
    except SchemaError as exc:
        if cmd.bad_input is None:
            raise
        return cmd.bad_input(exc)
    for idx, (obj, path) in enumerate(zip(loaded, args.inputs)):
        _expect(obj, cmd.kinds[min(idx, lo - 1)], path)
    return cmd.run(args, *loaded)


def _render_text(payload) -> str:
    lines = []
    _walk(payload, "", lines)
    return "\n".join(lines) + "\n"


def _walk(node, path, lines):
    if isinstance(node, dict):
        for key in sorted(node):
            _walk(node[key], f"{path}.{key}" if path else key, lines)
    elif isinstance(node, (list, tuple)):
        for idx, item in enumerate(node):
            _walk(item, f"{path}[{idx}]", lines)
    else:
        lines.append(f"{path} = {_scalar(node)}")


def _scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload = dispatch(ns)
    except (IoError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CpError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    rendered = dumps(payload) if ns.format == "json" else _render_text(payload)
    sys.stdout.write(rendered)
    return code

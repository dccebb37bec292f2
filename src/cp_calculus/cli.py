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
accepted for compatibility and ignored: estimator restarts run serially.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from .cpmap import (
    ChoiOperator,
    CpMap,
    apply,
    canonicalize,
    to_choi,
)
from .duality import FaithfulState, faithful_rn, jam_apply, jam_compose, jam_forward
from .errors import CpError, IoError, SchemaError
from .norms import diamond_lower, norm_report
from .numerics import EPS_PSD, MAX_DIM
from .order import c_min, naimark_dilate, order_chain_dilation
from .radon import PovmDecomposition, dominates, rn_derivative
from .serialize import (
    choi_to_json,
    cpmap_to_json,
    dumps,
    matrix_to_json,
    parse_input,
)

# command -> (min inputs, max inputs or None for unbounded)
_ARITY = {
    "validate": (1, 1),
    "choi": (1, 1),
    "canonical": (1, 1),
    "apply": (2, 2),
    "dominate": (2, 2),
    "derivative": (2, 2),
    "cmin": (2, 2),
    "chain": (1, None),
    "naimark": (1, 1),
    "compose": (2, 2),
    "diamond": (2, 2),
    "bounds": (2, 2),
    "faithful": (2, 2),
}


@dataclass
class AnalysisRequest:
    """One CLI invocation: a command, its input files, and options."""

    command: str
    inputs: list[str]
    options: dict = field(default_factory=dict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cp-calculus",
        description="Domination calculus for completely positive maps.",
    )
    parser.add_argument("command", choices=sorted(_ARITY), help="analysis to run")
    parser.add_argument("inputs", nargs="*", help="input JSON files")
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="PSD slack for verdict commands (default %g)" % EPS_PSD,
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    parser.add_argument("--seed", type=int, default=0, help="estimator seed")
    parser.add_argument(
        "--restarts", type=int, default=32, help="estimator restart count"
    )
    parser.add_argument(
        "--max-dim",
        type=int,
        default=None,
        help="reject inputs whose total dimension exceeds this",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="accepted and ignored"
    )
    return parser


def _load(path, max_dim):
    """Parse one input; semantic constructor failures count as bad input."""
    try:
        obj = parse_input(path)
    except (IoError, SchemaError):
        raise
    except (CpError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    sides = []
    if isinstance(obj, CpMap):
        sides = [obj.dim_in, obj.dim_out]
    elif isinstance(obj, ChoiOperator):
        sides = [obj.dim_in * obj.dim_out]
    elif isinstance(obj, PovmDecomposition):
        sides = [obj.dim]
    elif isinstance(obj, FaithfulState):
        sides = [obj.dim]
    elif isinstance(obj, np.ndarray):
        sides = list(obj.shape)
    if max_dim is not None and sides and max(sides) > max_dim:
        raise SchemaError(f"{path}: dimension {max(sides)} exceeds --max-dim {max_dim}")
    return obj


def _expect(obj, kinds, path):
    if not isinstance(obj, kinds):
        names = {
            CpMap: "a CP map",
            ChoiOperator: "a Choi operator",
            PovmDecomposition: "a POVM",
            FaithfulState: "a faithful state",
            np.ndarray: "a matrix",
        }
        wanted = (kinds,) if not isinstance(kinds, tuple) else kinds
        want = " or ".join(names[k] for k in wanted)
        raise SchemaError(f"{path}: expected {want}, got {type(obj).__name__}")
    return obj


def _describe(obj) -> dict:
    if isinstance(obj, CpMap):
        return {
            "kind": "cp_map",
            "dim_in": obj.dim_in,
            "dim_out": obj.dim_out,
            "kraus_count": len(obj.kraus),
        }
    if isinstance(obj, ChoiOperator):
        return {"kind": "choi", "dim_in": obj.dim_in, "dim_out": obj.dim_out}
    if isinstance(obj, PovmDecomposition):
        return {"kind": "povm", "dim": obj.dim, "element_count": len(obj.elements)}
    if isinstance(obj, FaithfulState):
        return {"kind": "faithful_state", "dim": obj.dim}
    return {"kind": "matrix", "rows": int(obj.shape[0]), "cols": int(obj.shape[1])}


def _as_choi(obj, path) -> ChoiOperator:
    obj = _expect(obj, (CpMap, ChoiOperator), path)
    return jam_forward(obj) if isinstance(obj, CpMap) else obj


def dispatch(req: AnalysisRequest):
    """Run one request; returns (exit_code, payload)."""
    lo, hi = _ARITY[req.command]
    count = len(req.inputs)
    if count < lo or (hi is not None and count > hi):
        expected = str(lo) if hi == lo else f"at least {lo}"
        raise SchemaError(f"{req.command} takes {expected} input file(s), got {count}")
    opts = req.options
    tol = opts.get("tol")
    tol = EPS_PSD if tol is None else float(tol)
    seed = int(opts.get("seed", 0))
    restarts = int(opts.get("restarts", 32))
    max_dim = opts.get("max_dim")
    max_dim = MAX_DIM if max_dim is None else int(max_dim)

    if req.command == "validate":
        try:
            obj = _load(req.inputs[0], max_dim)
        except SchemaError as exc:
            return 1, {"valid": False, "error": str(exc)}
        return 0, {"valid": True, **_describe(obj)}

    loaded = [_load(path, max_dim) for path in req.inputs]

    if req.command == "choi":
        t = _expect(loaded[0], CpMap, req.inputs[0])
        return 0, choi_to_json(to_choi(t))

    if req.command == "canonical":
        t = _expect(loaded[0], CpMap, req.inputs[0])
        return 0, cpmap_to_json(canonicalize(t))

    if req.command == "apply":
        a = _expect(loaded[1], np.ndarray, req.inputs[1])
        first = loaded[0]
        if isinstance(first, ChoiOperator):
            out = jam_apply(first, a)
        else:
            out = apply(_expect(first, CpMap, req.inputs[0]), a)
        return 0, matrix_to_json(out)

    if req.command == "dominate":
        s = _expect(loaded[0], CpMap, req.inputs[0])
        t = _expect(loaded[1], CpMap, req.inputs[1])
        verdict = dominates(s, t, tol)
        return (0 if verdict else 1), {"dominates": bool(verdict)}

    if req.command == "derivative":
        s = _expect(loaded[0], CpMap, req.inputs[0])
        t = _expect(loaded[1], CpMap, req.inputs[1])
        d = rn_derivative(s, t)
        return 0, {
            "dim_in": d.dim_in,
            "dim_out": d.dim_out,
            "env_dim": d.env_dim,
            "matrix": matrix_to_json(d.matrix),
        }

    if req.command == "cmin":
        s = _expect(loaded[0], CpMap, req.inputs[0])
        t = _expect(loaded[1], CpMap, req.inputs[1])
        r = c_min(s, t)
        if not np.isfinite(r.value):
            return 1, {"c_min": None, "finite": False, "attained": False}
        return 0, {
            "c_min": float(r.value),
            "finite": True,
            "attained": bool(r.attained),
        }

    if req.command == "chain":
        maps = [
            _expect(obj, CpMap, path) for obj, path in zip(loaded, req.inputs)
        ]
        res = order_chain_dilation(maps)
        return 0, {
            "dim_in": res.dim_in,
            "dim_out": res.dim_out,
            "env_dim": res.env_dim,
            "isometry": matrix_to_json(res.isometry),
            "projections": [matrix_to_json(p) for p in res.projections],
        }

    if req.command == "naimark":
        povm = _expect(loaded[0], PovmDecomposition, req.inputs[0])
        nai = naimark_dilate(povm)
        return 0, {
            "isometry": matrix_to_json(nai.isometry),
            "pvm": [matrix_to_json(p) for p in nai.pvm],
        }

    if req.command == "compose":
        f2 = _as_choi(loaded[0], req.inputs[0])
        f1 = _as_choi(loaded[1], req.inputs[1])
        return 0, choi_to_json(jam_compose(f2, f1))

    if req.command == "diamond":
        t1 = _expect(loaded[0], CpMap, req.inputs[0])
        t2 = _expect(loaded[1], CpMap, req.inputs[1])
        val = diamond_lower(t1, t2, seed, restarts)
        return 0, {"diamond_lower": float(val), "seed": seed, "restarts": restarts}

    if req.command == "bounds":
        t1 = _expect(loaded[0], CpMap, req.inputs[0])
        t2 = _expect(loaded[1], CpMap, req.inputs[1])
        rep = norm_report(t1, t2, seed, restarts)
        return 0, {
            "lower": float(rep.lower),
            "upper_rn": float(rep.upper_rn),
            "upper_dilation": float(rep.upper_dilation),
            "cb_exact": None if rep.cb_exact is None else float(rep.cb_exact),
            "seed": rep.seed,
            "restarts": rep.restarts,
            "iterations": rep.iterations,
        }

    if req.command == "faithful":
        t = _expect(loaded[0], CpMap, req.inputs[0])
        w = _expect(loaded[1], FaithfulState, req.inputs[1])
        fr = faithful_rn(t, w)
        return 0, {
            "matrix": matrix_to_json(fr.matrix),
            "constant": float(fr.constant),
        }

    raise SchemaError(f"unknown command {req.command}")


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
    req = AnalysisRequest(
        command=ns.command,
        inputs=list(ns.inputs),
        options={
            "tol": ns.tol,
            "format": ns.format,
            "seed": ns.seed,
            "restarts": ns.restarts,
            "max_dim": ns.max_dim,
        },
    )
    try:
        code, payload = dispatch(req)
    except (IoError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CpError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    rendered = dumps(payload) if ns.format == "json" else _render_text(payload)
    sys.stdout.write(rendered)
    return code

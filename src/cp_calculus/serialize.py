"""JSON serialization for maps, process operators, POVMs, and states.

Schema summary (full examples live in docs/format.md):

    complex number  [re, im]
    matrix          {"rows": r, "cols": c, "data": [[re, im], ...]}  row-major
    CP map          {"dim_in": m, "dim_out": n, "kraus": [matrix, ...]}
    Choi operator   {"dim_in": m, "dim_out": n, "matrix": matrix}
    POVM            {"elements": [matrix, ...]}
    faithful state  {"p": [real, ...], "basis": matrix (optional)}

Floats are written in Python's shortest round-trip form; non-finite values
are rejected in both directions, including textual Infinity/NaN tokens.
Schema failures carry a JSON-pointer style path to the offending field.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .cpmap import ChoiOperator, CpMap
from .duality import FaithfulState
from .errors import IoError, SchemaError
from .radon import PovmDecomposition


def _fail(path: str, msg: str):
    raise SchemaError(f"{path or '/'}: {msg}")


def _real(x, path) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        _fail(path, f"expected a number, got {type(x).__name__}")
    x = float(x)
    if not np.isfinite(x):
        _fail(path, "non-finite value")
    return x


def _positive_int(x, path) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, f"expected an integer, got {type(x).__name__}")
    if x < 1:
        _fail(path, f"expected a positive integer, got {x}")
    return x


def _complex(x, path) -> complex:
    if not isinstance(x, list) or len(x) != 2:
        _fail(path, "expected a [re, im] pair")
    return complex(_real(x[0], path + "/0"), _real(x[1], path + "/1"))


def _expect_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(path, "missing key(s): " + ", ".join(missing))
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        _fail(path, "unknown key(s): " + ", ".join(sorted(unknown)))


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise SchemaError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise SchemaError("non-finite entry in matrix")
    data = np.ascontiguousarray(m).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj, path="") -> np.ndarray:
    _expect_keys(obj, path, ("rows", "cols", "data"))
    rows = _positive_int(obj["rows"], path + "/rows")
    cols = _positive_int(obj["cols"], path + "/cols")
    data = obj["data"]
    if not isinstance(data, list):
        _fail(path + "/data", f"expected a list, got {type(data).__name__}")
    if len(data) != rows * cols:
        _fail(path + "/data", f"expected {rows * cols} entries, got {len(data)}")
    flat = [_complex(x, f"{path}/data/{k}") for k, x in enumerate(data)]
    return np.array(flat, dtype=complex).reshape(rows, cols)


def cpmap_to_json(t: CpMap) -> dict:
    return {
        "dim_in": t.dim_in,
        "dim_out": t.dim_out,
        "kraus": [matrix_to_json(v) for v in t.kraus],
    }


def cpmap_from_json(obj, path="") -> CpMap:
    _expect_keys(obj, path, ("dim_in", "dim_out", "kraus"))
    m = _positive_int(obj["dim_in"], path + "/dim_in")
    n = _positive_int(obj["dim_out"], path + "/dim_out")
    kraus = obj["kraus"]
    if not isinstance(kraus, list) or not kraus:
        _fail(path + "/kraus", "expected a nonempty list")
    ops = []
    for idx, item in enumerate(kraus):
        v = matrix_from_json(item, f"{path}/kraus/{idx}")
        if v.shape != (m, n):
            _fail(
                f"{path}/kraus/{idx}",
                f"shape {v.shape} does not match dims ({m}, {n})",
            )
        ops.append(v)
    return CpMap(dim_in=m, dim_out=n, kraus=tuple(ops))


def choi_to_json(c: ChoiOperator) -> dict:
    return {
        "dim_in": c.dim_in,
        "dim_out": c.dim_out,
        "matrix": matrix_to_json(c.matrix),
    }


def choi_from_json(obj, path="") -> ChoiOperator:
    _expect_keys(obj, path, ("dim_in", "dim_out", "matrix"))
    m = _positive_int(obj["dim_in"], path + "/dim_in")
    n = _positive_int(obj["dim_out"], path + "/dim_out")
    mat = matrix_from_json(obj["matrix"], path + "/matrix")
    d = m * n
    if mat.shape != (d, d):
        _fail(path + "/matrix", f"shape {mat.shape} does not match dims ({d}, {d})")
    # Hermiticity and positivity checks run in the constructor
    return ChoiOperator(dim_in=m, dim_out=n, matrix=mat)


def povm_to_json(p: PovmDecomposition) -> dict:
    return {"elements": [matrix_to_json(f) for f in p.elements]}


def povm_from_json(obj, path="") -> PovmDecomposition:
    _expect_keys(obj, path, ("elements",))
    els = obj["elements"]
    if not isinstance(els, list) or not els:
        _fail(path + "/elements", "expected a nonempty list")
    mats = tuple(
        matrix_from_json(e, f"{path}/elements/{i}") for i, e in enumerate(els)
    )
    return PovmDecomposition(elements=mats)


def state_to_json(w: FaithfulState) -> dict:
    return {
        "p": [float(x) for x in w.p],
        "basis": matrix_to_json(w.basis),
    }


def state_from_json(obj, path="") -> FaithfulState:
    _expect_keys(obj, path, ("p",), optional=("basis",))
    p = obj["p"]
    if not isinstance(p, list) or not p:
        _fail(path + "/p", "expected a nonempty list")
    vals = np.array([_real(x, f"{path}/p/{k}") for k, x in enumerate(p)])
    basis = None
    if "basis" in obj:
        basis = matrix_from_json(obj["basis"], path + "/basis")
    return FaithfulState(p=vals, basis=basis)


def parse_obj(obj, path=""):
    """Dispatch a parsed JSON object on its discriminating key."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    if "kraus" in obj:
        return cpmap_from_json(obj, path)
    if "elements" in obj:
        return povm_from_json(obj, path)
    if "p" in obj:
        return state_from_json(obj, path)
    if "dim_in" in obj and "matrix" in obj:
        return choi_from_json(obj, path)
    if "data" in obj:
        return matrix_from_json(obj, path)
    _fail(
        path,
        "unrecognized object; expected a CP map, Choi operator, POVM, "
        "faithful state, or matrix",
    )


def _reject_constant(name):
    raise SchemaError(f"non-finite token {name} is not allowed")


def parse_input(path):
    """Load and validate one JSON input file.

    Returns a CpMap, ChoiOperator, PovmDecomposition, FaithfulState, or a
    bare matrix depending on the object's keys.  Raises IoError when the
    file cannot be read, SchemaError for malformed structure, and the
    constructor errors (NotPsd, ShapeMismatch, ...) for semantic failures.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"{path}: {exc.strerror or exc}") from exc
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_obj(obj)


def dumps(payload) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, no NaN."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

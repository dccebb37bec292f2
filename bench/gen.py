"""Seeded input generators for the benchmark workloads.

The generators live here rather than in the test suite, so a refactor of
the tests cannot change what the benchmark measures.  Everything is plain
numpy; the library sees only the finished inputs (``CpMap`` objects, or
JSON fixture files written by :func:`write_json` in the documented schema).
"""

from __future__ import annotations

import json

import numpy as np

from cp_calculus import CpMap, FaithfulState


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_unitary(rng, d):
    q, r = np.linalg.qr(rand_complex(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def channel_kraus(rng, m, n, k):
    """k Kraus operators (m x n) of a random channel: slices of an isometry."""
    q, r = np.linalg.qr(rand_complex(rng, m * k, n))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    arr = q.reshape(m, k, n)
    return [arr[:, x, :] for x in range(k)]


def rand_channel(rng, m, n, k):
    return CpMap(m, n, tuple(channel_kraus(rng, m, n, k)))


def rand_cp_map(rng, m, n, k):
    """Random CP map with k Gaussian Kraus operators, scaled to ||T(1)|| = 1."""
    ops = [rand_complex(rng, m, n) for _ in range(k)]
    unit = sum(v.conj().T @ v for v in ops)
    factor = 1.0 / np.sqrt(np.linalg.eigvalsh(unit)[-1])
    return CpMap(m, n, tuple(factor * v for v in ops))


def rand_contraction(rng, d):
    """Random Hermitian matrix with spectrum inside [0.05, 0.95]."""
    u = rand_unitary(rng, d)
    return (u * rng.uniform(0.05, 0.95, size=d)) @ u.conj().T


def rand_povm(rng, d, k):
    """k PSD elements that sum to the identity."""
    parts = []
    for _ in range(k):
        g = rand_complex(rng, d, d)
        parts.append(g @ g.conj().T)
    w, u = np.linalg.eigh(sum(parts))
    inv_root = (u / np.sqrt(w)) @ u.conj().T
    return [inv_root @ a @ inv_root for a in parts]


def rand_state(rng, m):
    p = rng.uniform(0.2, 1.0, size=m)
    return FaithfulState(p=p / p.sum(), basis=rand_unitary(rng, m))


def _matrix(a):
    a = np.asarray(a, dtype=complex)
    data = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"rows": a.shape[0], "cols": a.shape[1], "data": data}


def write_json(path, obj):
    """Write a CpMap, FaithfulState, POVM element list or matrix as JSON."""
    if isinstance(obj, CpMap):
        doc = {
            "dim_in": obj.dim_in,
            "dim_out": obj.dim_out,
            "kraus": [_matrix(v) for v in obj.kraus],
        }
    elif isinstance(obj, FaithfulState):
        doc = {"p": [float(x) for x in obj.p], "basis": _matrix(obj.basis)}
    elif isinstance(obj, list):
        doc = {"elements": [_matrix(f) for f in obj]}
    else:
        doc = _matrix(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

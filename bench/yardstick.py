"""Fixed reference computations that the benchmark times beside its jobs.

A shared 2-core virtual machine was seen to change speed by up to 2x, for
seconds to minutes at a time, in CPU time as well as in wall time.  Each
workload therefore runs a yardstick between its jobs: a fixed computation
of the same kind as the workload's jobs, written here in plain numpy (or,
for ``cli``, a bare interpreter start), that never calls the program.  A
job's time divided by the mean of the yardstick times measured just
before and just after it is the job's cost in yardsticks, which a slow
phase moves much less than the raw time.  Every yardstick is built from a
fixed seed, so it is the same work on every commit and for every workload
seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

import numpy as np


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _ascent(kraus, psi, steps):
    """The alternating ascent of ``norms``, re-implemented: fixed steps."""
    for _ in range(steps):
        rho = np.outer(psi, psi.conj())
        x = sum(k @ rho @ k.conj().T for k in kraus)
        w, v = np.linalg.eigh(x)
        sign = (v * np.where(w >= 0.0, 1.0, -1.0)) @ v.conj().T
        y = sum(k.conj().T @ sign @ k for k in kraus)
        psi = np.linalg.eigh(y)[1][:, -1]
    return psi


class Ascent:
    """Bracket: ascent steps on ancilla-extended Kraus operators at d=4
    (32 operators, 16x16) and d=8 (64x64), like ``norm_report`` jobs."""

    def __init__(self):
        rng = np.random.default_rng(2**16)
        self.cases = []
        for d, k, steps in ((4, 32, 24), (8, 8, 2)):
            kraus = [np.kron(_complex(rng, d, d), np.eye(d)) for _ in range(k)]
            psi = _complex(rng, d * d)
            self.cases.append((kraus, psi / np.linalg.norm(psi), steps))

    def __call__(self):
        t0 = perf_counter()
        for kraus, psi, steps in self.cases:
            _ascent(kraus, psi, steps)
        return perf_counter() - t0


class Spectral:
    """Calculus: Choi matrices built from Kraus operators, a Hermitian
    eigensolve and a product at d=4, 8 and 16, like the derivative calls."""

    def __init__(self):
        rng = np.random.default_rng(2**17)
        self.cases = [
            ([_complex(rng, d, d) for _ in range(d)], reps)
            for d, reps in ((4, 12), (8, 4), (16, 1))
        ]

    def __call__(self):
        t0 = perf_counter()
        for kraus, reps in self.cases:
            for _ in range(reps):
                vecs = np.stack([k.reshape(-1) for k in kraus], axis=1)
                choi = vecs @ vecs.conj().T
                w, v = np.linalg.eigh(choi)
                _ = (v * np.sqrt(np.abs(w))) @ v.conj().T @ choi
        return perf_counter() - t0


class Interpreter:
    """Cli: one interpreter that imports numpy and json and writes a small
    JSON document, as every ``cp-calculus`` process does before its work."""

    CODE = "import json, numpy; json.dumps(numpy.arange(64.0).tolist())"

    def __call__(self):
        cmd = [sys.executable] + (["-O"] if sys.flags.optimize else []) + ["-c", self.CODE]
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, env=dict(os.environ))
        return perf_counter() - t0

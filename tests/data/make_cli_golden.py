"""Write the CLI golden fixtures under ``tests/data/cli_golden/``.

    PYTHONPATH=src python tests/data/make_cli_golden.py [--only NAME ...]

Seeded d=2 inputs for all 13 commands, the negative ``dominate``,
``derivative`` and ``cmin`` cases, a ``derivative`` whose density leaves
the [0, 1] window (s = 1.5 t), a decreasing ``chain``, a wrong-arity and
two wrong-kind cases.
Each case records argv (paths relative to the fixture directory), exit
code, stdout and stderr of ``cp_calculus.cli.main`` run from that
directory.  ``test_cli_golden.py`` replays them; regenerate only when a
report is meant to change.  ``--only NAME ...`` reruns just the named cases
on the input files already written (writing only those missing) and
rewrites only their entries of ``cases.json``, so reports that depend on
rounding keep their recorded bits.  The ``chain`` isometry no longer does
(``psd_sqrt`` cuts the rounding-level eigenvalues whose roots moved it by
about 1e-8); the ascent's ``lower`` and ``iterations`` in ``bounds`` and
``diamond`` still do, until its kernel signs stop depending on rounding
(ROADMAP item 2).
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from cp_calculus.cli import main
from cp_calculus.cpmap import CpMap, scale
from cp_calculus.duality import FaithfulState
from cp_calculus.radon import PovmDecomposition
from cp_calculus.serialize import (
    cpmap_to_json,
    dumps,
    matrix_to_json,
    povm_to_json,
    state_to_json,
)

OUT = Path(__file__).resolve().parent / "cli_golden"

# reports compared byte for byte; the rest numerically (last bits vary by BLAS)
EXACT = {"validate", "dominate", "dominate_negative", "cmin_infinite"}


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_channel(rng, d, n_kraus):
    """Random channel d -> d: Kraus blocks of an isometry, Heisenberg picture."""
    q, _ = np.linalg.qr(rand_complex(rng, d * n_kraus, d))
    return CpMap(d, d, tuple(q[x::n_kraus] for x in range(n_kraus)))


def inputs(rng):
    t = rand_channel(rng, 2, 2)
    u = rand_channel(rng, 2, 1)
    q, _ = np.linalg.qr(rand_complex(rng, 2, 2))
    p0 = q @ np.diag([0.7, 0.2]) @ q.conj().T
    return {
        "t.json": cpmap_to_json(t),
        "u.json": cpmap_to_json(u),
        "t_low.json": cpmap_to_json(scale(t, 0.2)),
        "t_mid.json": cpmap_to_json(scale(t, 0.5)),
        "t_high.json": cpmap_to_json(scale(t, 0.8)),
        "t_over.json": cpmap_to_json(scale(t, 1.5)),
        "a.json": matrix_to_json(rand_complex(rng, 2, 2)),
        "povm.json": povm_to_json(PovmDecomposition((p0, np.eye(2) - p0))),
        "w.json": state_to_json(FaithfulState(p=np.array([0.3, 0.7]))),
    }


CASES = [
    ("validate", ["validate", "t.json"]),
    ("choi", ["choi", "t.json"]),
    ("canonical", ["canonical", "t.json"]),
    ("apply", ["apply", "t.json", "a.json"]),
    ("dominate", ["dominate", "t_mid.json", "t.json"]),
    ("dominate_negative", ["dominate", "t.json", "t_mid.json"]),
    ("derivative", ["derivative", "t_mid.json", "t.json"]),
    ("derivative_negative", ["derivative", "u.json", "t_mid.json"]),
    ("derivative_window", ["derivative", "t_over.json", "t.json"]),
    ("cmin", ["cmin", "t_mid.json", "t.json"]),
    ("cmin_infinite", ["cmin", "u.json", "t.json"]),
    ("chain", ["chain", "t_low.json", "t_mid.json", "t_high.json"]),
    ("chain_not_monotone", ["chain", "t_high.json", "t_mid.json", "t_low.json"]),
    ("naimark", ["naimark", "povm.json"]),
    ("compose", ["compose", "t.json", "u.json"]),
    ("diamond", ["diamond", "t.json", "u.json", "--seed", "5", "--restarts", "4"]),
    ("bounds", ["bounds", "t.json", "u.json", "--seed", "5", "--restarts", "4"]),
    ("faithful", ["faithful", "t.json", "w.json"]),
    ("wrong_arity", ["dominate", "t.json"]),
    ("wrong_kind", ["dominate", "a.json", "t.json"]),
    ("wrong_kind_apply", ["apply", "povm.json", "a.json"]),
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record(name, argv):
    code, out, err = run(argv)
    return {
        "name": name,
        "argv": argv,
        "code": code,
        "exact": name in EXACT or not out,
        "stdout": out,
        "stderr": err,
    }


def main_(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", choices=[n for n, _ in CASES])
    only = parser.parse_args(argv).only
    OUT.mkdir(exist_ok=True)
    for name, payload in inputs(np.random.default_rng(20261018)).items():
        if only is None or not (OUT / name).exists():
            (OUT / name).write_text(dumps(payload), encoding="utf-8")
    old = {}
    if only is not None:
        old = {c["name"]: c for c in json.loads((OUT / "cases.json").read_text(encoding="utf-8"))}
    os.chdir(OUT)
    cases = [
        record(name, argv) if only is None or name in only else old[name]
        for name, argv in CASES
    ]
    (OUT / "cases.json").write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
    wrote = len(cases) if only is None else len(only)
    print(f"wrote {wrote} of {len(cases)} cases to {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main_()

"""The benchmark's three workloads and their jobs.

Every workload is a closed loop: one client, one job at a time.  Jobs come
in rounds whose composition is fixed, so runs of different length measure
the same mix; the seed decides only the random inputs.  Every round repeats
the same inputs, built afresh as new objects, so that a job's latency can
be taken over its repeats while no object is shared between them.

* ``bracket``: ``norm_report`` on channel pairs, a new pair for every job
  of a round (no dominator is ever reused).  Most of the time goes into
  the ``norms`` ascent, which calls ``herm_eig`` on small matrices
  thousands of times.
* ``calculus``: derivative machinery in-process, a few large eigensolves
  per call.  Calls are grouped so that several share one dominating map.
  ``norms`` does no work here.
* ``cli``: one ``python -m cp_calculus`` subprocess per job on fixture
  files, dominated by import, JSON parsing and rendering.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cp_calculus as cp
import gen
import oracles as orc
from yardstick import Ascent, Interpreter, Spectral

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass
class Job:
    """One call: ``check(value, error_name)`` decides whether it was right."""

    kind: str
    size: str
    call: Callable[[], object]
    check: Callable[[object, str | None], bool]
    dominator: object = None


def _ok(fn):
    return lambda value, error: error is None and bool(fn(value))


def _raises(name):
    return lambda value, error: error == name


class InProcess:
    """A workload whose jobs run in the benchmark process itself."""

    tracer = None

    def __init__(self, seed, max_dim, workdir):
        self.seed = seed
        self.max_dim = max_dim

    def setup(self):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bracket(InProcess):
    """``norm_report`` on seeded channel pairs, a new pair for every job."""

    # (size class, d, Kraus operators per channel, restarts, jobs per round).
    # Pairs with d^2 Kraus operators, or a single one, converge in a few
    # iterations; d=4 pairs with two Kraus operators can run every restart
    # into the 200-iteration cap, so both regimes are in every round.
    # Ranked by cost, a round's median falls in the middle of the d4-r8
    # jobs and its 75th percentile in the middle of the d4-r32 jobs.
    CLASSES = (
        ("d2-r8", 2, 1, 8, 3),
        ("d2-r32", 2, 1, 32, 3),
        ("d4-r8", 4, 16, 8, 4),
        ("d4-r32", 4, 16, 32, 4),
        ("d4-cap-r8", 4, 2, 8, 1),
        ("d8-r8", 8, 1, 8, 1),
    )
    tail_pct = 75
    yard_every = 1
    yardstick = Ascent()

    def round(self):
        rng = np.random.default_rng([self.seed, 0])
        return [
            bracket_job(rng, label, *conjugate_pair(rng, d, k), restarts)
            for label, d, k, restarts, count in self.CLASSES
            if d <= self.max_dim
            for _ in range(count)
        ]

    def warmup(self):
        label, d, k, restarts, _ = self.CLASSES[0]
        rng = np.random.default_rng([self.seed, 10**6])
        return [bracket_job(rng, label, *conjugate_pair(rng, d, k), restarts)]


# How many iterations the ascent needs depends mostly on the pair: about
# 90 to 150 over 8 restarts for random d=4 pairs with 16 Kraus operators,
# and for pairs with two, anything from 800 up to the cap of 1600.  Every
# class therefore draws one base pair from this fixed stream, and each job
# gets a fresh, seeded conjugate  K -> W K U  of it (U, W random unitaries
# applied to both channels).  That keeps the norms, the landscape and the
# iteration count (within a few percent) while no two jobs share a map;
# the base pair of the d4-cap class runs every restart into the cap.
BASE_PAIR_STREAM = [503, 0]


def conjugate_pair(rng, d, k):
    base = np.random.default_rng(BASE_PAIR_STREAM)
    k1 = gen.channel_kraus(base, d, d, k)
    k2 = gen.channel_kraus(base, d, d, k)
    u = gen.rand_unitary(rng, d)
    w = gen.rand_unitary(rng, d)
    return tuple(cp.CpMap(d, d, tuple(w @ v @ u for v in ks)) for ks in (k1, k2))


def bracket_job(rng, label, t1, t2, restarts):
    d = t1.dim_in
    seed = int(rng.integers(2**31))

    def check(rep):
        return orc.bracket(
            orc.ops(t1), orc.ops(t2), d,
            rep.lower, rep.upper_rn, rep.upper_dilation, rep.cb_exact,
        )

    return Job(
        "norm_report", label, lambda: cp.norm_report(t1, t2, seed, restarts), _ok(check)
    )


def gap_probe(seed, max_dim):
    """Mean bracket gap min(upper_rn, upper_dilation) - lower over 16
    seeded d=4 channel pairs at 8 restarts (d=2 under a smaller cap).

    Run after the timed loop on every workload, so each carries the same
    accuracy guard: an ascent that does less work shows as a wider gap.
    Pairs with d^2 Kraus operators have a steady gap, so 16 suffice.
    """
    rng = np.random.default_rng([seed, 2**20])
    d = 4 if max_dim >= 4 else 2
    jobs = [
        bracket_job(rng, f"d{d}-r8", gen.rand_channel(rng, d, d, d * d),
                    gen.rand_channel(rng, d, d, d * d), 8)
        for _ in range(16)
    ]
    gaps, failed = [], 0
    for job in jobs:
        rep = job.call()
        failed += not job.check(rep, None)
        gaps.append(min(rep.upper_rn, rep.upper_dilation) - rep.lower)
    return float(np.mean(gaps)), failed


class Calculus(InProcess):
    """Derivative machinery, grouped around one dominating map per shape."""

    # (dim_in, dim_out, groups per round).  One d=16 group holds 90% of the
    # time; two groups of every smaller shape put a round's 95th percentile
    # among the d=16 derivative and c_min calls, not on a single outlier.
    SHAPES = ((2, 2, 2), (4, 4, 2), (8, 8, 2), (16, 16, 1), (4, 8, 2), (8, 4, 2))
    tail_pct = 95
    yard_every = 13
    yardstick = Spectral()

    def round(self):
        rng = np.random.default_rng([self.seed, 0])
        return [
            job
            for m, n, groups in self.SHAPES
            if max(m, n) <= self.max_dim
            for _ in range(groups)
            for job in calculus_group(rng, m, n)
        ]

    def warmup(self):
        m, n, _ = self.SHAPES[0]
        return calculus_group(np.random.default_rng([self.seed, 10**6]), m, n)


def calculus_group(rng, m, n):
    """Thirteen calls at one shape; eleven of them take the dominating map t.

    ``bad`` has full Kraus rank and leaves t's support, so c_min is
    infinite and the derivative raises NotDominated: both are timed as
    expected outcomes.  The chain's last element is subunital when
    m >= n, so ``pad_to_channel`` runs; for m < n a padding operator need
    not exist and the chain ends in a channel instead.
    """
    label = f"{m}x{n}"
    k = max(1, m * n // 4)
    a = gen.rand_cp_map(rng, m, n, k)
    b = gen.rand_cp_map(rng, m, n, k)
    t = cp.add(a, b)
    u = float(rng.uniform(0.3, 0.9))
    s = cp.scale(a, u)
    bad = gen.rand_cp_map(rng, m, n, m * n)
    parts = [s, cp.scale(a, 1.0 - u), b]
    density = gen.rand_contraction(rng, 2 * k)
    kraus3 = gen.channel_kraus(rng, m, n, 3)
    f = 1.0 if m < n else float(rng.uniform(0.5, 0.9))
    chain_ops = [[np.sqrt(f) * v for v in kraus3[:j]] for j in (1, 2, 3)]
    chain = [cp.CpMap(m, n, tuple(c)) for c in chain_ops]
    second = gen.rand_channel(rng, n, n, 2)
    f1 = cp.ChoiOperator(m, n, orc.choi(orc.ops(t), m))
    f2 = cp.ChoiOperator(n, n, orc.choi(orc.ops(second), n))
    state = gen.rand_state(rng, m)
    a_test = orc.random_hermitian(rng, m)
    check_rng = np.random.default_rng(rng.integers(2**31))

    maps = {"t": t, "s": s, "bad": bad, **{f"part{i}": p for i, p in enumerate(parts)}}

    @functools.cache
    def ch(name):
        return orc.choi(orc.ops(maps[name]), m)

    def rescaled(res):
        w = np.asarray(res.weights)
        ks = [np.asarray(v) for v in res.kraus]
        return (
            np.all(np.diff(w) <= 1e-12) and w.min() >= 0.0 and w.max() <= 1.0
            and orc.close(orc.heis(ks, a_test), orc.heis(orc.ops(t), a_test))
            and orc.close(
                orc.heis([np.sqrt(x) * v for x, v in zip(w, ks)], a_test),
                orc.heis(orc.ops(s), a_test),
            )
        )

    def instrument(povm):
        els = povm.elements
        return (
            len(els) == 3
            and all(orc.is_psd(e) for e in els)
            and orc.close(sum(els), np.eye(els[0].shape[0]))
            and all(
                orc.same_spectrum(e, orc.density(ch("t"), ch(f"part{i}")))
                for i, e in enumerate(els)
            )
        )

    def reconstruct(r):
        return orc.same_spectrum(density, orc.density(ch("t"), orc.choi(orc.ops(r), m)))

    def faithful(res):
        ref = orc.faithful(orc.ops(t), state.p, state.basis)
        return orc.close(res.matrix, ref) and orc.close(
            res.constant, np.linalg.norm(ref, 2)
        )

    def job(kind, call, check, dominator=t):
        return Job(kind, label, call, check, dominator)

    return [
        job("dominates", lambda: cp.dominates(s, t),
            _ok(lambda v: v is True and orc.is_psd(ch("t") - ch("s")))),
        job("dominates", lambda: cp.dominates(bad, t),
            _ok(lambda v: v is False and not orc.is_psd(ch("t") - ch("bad"), 1e-6))),
        job("rn_derivative", lambda: cp.rn_derivative(s, t),
            _ok(lambda d: d.env_dim == 2 * k
                and orc.same_spectrum(d.matrix, orc.density(ch("t"), ch("s"))))),
        job("rn_derivative", lambda: cp.rn_derivative(bad, t), _raises("NotDominated")),
        job("rn_reconstruct", lambda: cp.rn_reconstruct(t, density), _ok(reconstruct)),
        job("c_min", lambda: cp.c_min(s, t),
            _ok(lambda c: c.attained and orc.cmin_ok(c.value, ch("t"), ch("s")))),
        job("c_min", lambda: cp.c_min(bad, t),
            _ok(lambda c: c.value == np.inf and not c.attained
                and orc.leak(ch("t"), ch("bad")) > 1e-6)),
        job("rescaled_kraus", lambda: cp.rescaled_kraus(s, t), _ok(rescaled)),
        job("instrument_rn", lambda: cp.instrument_rn(t, parts), _ok(instrument)),
        job("order_chain_dilation", lambda: cp.order_chain_dilation(chain),
            _ok(lambda p: orc.chain_ok(check_rng, p.isometry, p.projections, chain_ops, m)),
            None),
        job("jam_forward", lambda: cp.jam_forward(t),
            _ok(lambda c: orc.close(c.matrix, ch("t")))),
        job("jam_compose", lambda: cp.jam_compose(f2, f1),
            _ok(lambda c: orc.close(
                c.matrix, orc.choi(orc.compose_kraus(orc.ops(t), orc.ops(second)), m))),
            None),
        job("faithful_rn", lambda: cp.faithful_rn(t, state), _ok(faithful)),
    ]


def _mat(doc):
    a = np.asarray(doc["data"], dtype=float)
    return (a[:, 0] + 1j * a[:, 1]).reshape(doc["rows"], doc["cols"])


class Cli:
    """One ``cp-calculus`` subprocess per job, on fixture files.

    All 13 commands at d=2 and d=4 (plus the negative verdicts of
    ``dominate``, ``derivative`` and ``cmin``), and four d=16 jobs: two
    parse-heavy (a map with 128 Kraus operators) and two render-heavy
    (``choi`` and ``compose``, about 4.8 MB of JSON each).
    """

    tail_pct = 90
    yard_every = 6
    yardstick = Interpreter()

    def __init__(self, seed, max_dim, workdir):
        self.seed = seed
        self.max_dim = max_dim
        self.dir = Path(workdir)
        self.jobs = []
        self.digests = {}
        self.child_peak_kb = 0
        self.tracer = None
        self.child_imports = []

    def peak_rss_mb(self):
        return self.child_peak_kb / 1024.0

    def setup(self):
        """Write the fixture files; the same invocations repeat every round."""
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 0])
        self.jobs = []
        for d in (2, 4):
            if d <= self.max_dim:
                self.jobs += self._small(rng, d)
        if self.max_dim >= 16:
            self.jobs += self._heavy(rng)

    def round(self):
        return self.jobs

    def warmup(self):
        return self.jobs[:1]

    def _write(self, name, obj):
        path = self.dir / name
        gen.write_json(path, obj)
        return str(path)

    def _job(self, size, argv, code, check=None):
        key = " ".join(argv)

        def verify(value, error):
            """Full oracle check on first sight; later runs of the same
            invocation must print byte-identical stdout."""
            if error is not None or value[0] != code:
                return False
            out = value[1]
            digest = hashlib.sha256(out).hexdigest()
            if key not in self.digests:
                good = out == b"" if check is None else bool(check(json.loads(out)))
                self.digests[key] = (digest, good)
            return self.digests[key] == (digest, True)

        return Job(argv[0], size, lambda: self._spawn(argv), verify)

    def _spawn(self, argv):
        """Run one command; with a tracer set, run it traced and merge its spans."""
        out_path = self.dir / f"out-{os.getpid()}.json"
        spans_path = self.dir / f"spans-{os.getpid()}.json"
        cmd = [sys.executable] + (["-O"] if sys.flags.optimize else [])
        if self.tracer is None:
            cmd += ["-m", "cp_calculus"]
        else:
            cmd += [str(BENCH_DIR / "cli_child.py"), str(spans_path)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        spans_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            proc = subprocess.Popen(cmd + argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        if self.tracer is not None:
            doc = json.loads(spans_path.read_text())
            self.child_imports.append(doc.pop("imports"))
            self.tracer.merge(doc, self.tracer.job_id)
        return proc.returncode, out_path.read_bytes()

    def _small(self, rng, d):
        lbl = f"d{d}"
        k = max(1, d * d // 4)
        a = gen.rand_cp_map(rng, d, d, k)
        b = gen.rand_cp_map(rng, d, d, k)
        t = cp.add(a, b)
        s = cp.scale(a, float(rng.uniform(0.3, 0.9)))
        bad = gen.rand_cp_map(rng, d, d, d * d)
        u = gen.rand_channel(rng, d, d, 2)
        # the fast pair classes of Bracket.CLASSES, with their steady cost
        p1, p2 = conjugate_pair(rng, d, 1 if d == 2 else d * d)
        kraus3 = gen.channel_kraus(rng, d, d, 3)
        f = float(rng.uniform(0.5, 0.9))
        chain_ops = [[np.sqrt(f) * v for v in kraus3[:j]] for j in (1, 2, 3)]
        povm = gen.rand_povm(rng, d, 3)
        state = gen.rand_state(rng, d)
        a_mat = gen.rand_complex(rng, d, d)
        check_rng = np.random.default_rng(rng.integers(2**31))

        P = {
            name: self._write(f"{lbl}-{name}.json", obj)
            for name, obj in (
                ("t", t), ("s", s), ("bad", bad), ("u", u), ("p1", p1), ("p2", p2),
                ("povm", povm), ("state", state), ("a", a_mat),
            )
        }
        chain_paths = [
            self._write(f"{lbl}-c{j}.json", cp.CpMap(d, d, tuple(c)))
            for j, c in enumerate(chain_ops)
        ]
        ct, cs, cbad = (orc.choi(orc.ops(x), d) for x in (t, s, bad))

        def naimark(doc):
            iso = _mat(doc["isometry"])
            return all(
                orc.close(iso.conj().T @ _mat(p) @ iso, el)
                for p, el in zip(doc["pvm"], povm)
            ) and len(doc["pvm"]) == len(povm)

        def bounds(doc):
            return doc["restarts"] == 8 and orc.bracket(
                orc.ops(p1), orc.ops(p2), d, doc["lower"], doc["upper_rn"],
                doc["upper_dilation"], doc["cb_exact"],
            )

        def faithful(doc):
            ref = orc.faithful(orc.ops(t), state.p, state.basis)
            return orc.close(_mat(doc["matrix"]), ref) and orc.close(
                doc["constant"], np.linalg.norm(ref, 2)
            )

        def chain(doc):
            projs = [_mat(p) for p in doc["projections"]]
            return orc.chain_ok(check_rng, _mat(doc["isometry"]), projs, chain_ops, d)

        r8 = ["--restarts", "8"]
        return [
            self._job(lbl, ["validate", P["t"]], 0, lambda doc: doc == {
                "valid": True, "kind": "cp_map", "dim_in": d, "dim_out": d,
                "kraus_count": 2 * k}),
            self._job(lbl, ["choi", P["t"]], 0, lambda doc: orc.close(_mat(doc["matrix"]), ct)),
            self._job(lbl, ["canonical", P["t"]], 0, lambda doc: orc.close(
                orc.choi([_mat(v) for v in doc["kraus"]], d), ct)),
            self._job(lbl, ["apply", P["t"], P["a"]], 0, lambda doc: orc.close(
                _mat(doc), orc.heis(orc.ops(t), a_mat))),
            self._job(lbl, ["dominate", P["s"], P["t"]], 0,
                      lambda doc: doc == {"dominates": True}),
            self._job(lbl, ["dominate", P["bad"], P["t"]], 1,
                      lambda doc: doc == {"dominates": False}),
            self._job(lbl, ["derivative", P["s"], P["t"]], 0, lambda doc: doc["env_dim"] == 2 * k
                      and orc.same_spectrum(_mat(doc["matrix"]), orc.density(ct, cs))),
            self._job(lbl, ["derivative", P["bad"], P["t"]], 3),
            self._job(lbl, ["cmin", P["s"], P["t"]], 0, lambda doc: doc["finite"]
                      and orc.cmin_ok(doc["c_min"], ct, cs)),
            self._job(lbl, ["cmin", P["bad"], P["t"]], 1, lambda doc: doc == {
                "c_min": None, "finite": False, "attained": False}
                and orc.leak(ct, cbad) > 1e-6),
            self._job(lbl, ["chain", *chain_paths], 0, chain),
            self._job(lbl, ["naimark", P["povm"]], 0, naimark),
            self._job(lbl, ["compose", P["u"], P["t"]], 0, lambda doc: orc.close(
                _mat(doc["matrix"]), orc.choi(orc.compose_kraus(orc.ops(t), orc.ops(u)), d))),
            self._job(lbl, ["diamond", P["p1"], P["p2"], *r8], 0,
                      lambda doc: 0.0 < doc["diamond_lower"] <= 2.0 + 1e-9),
            self._job(lbl, ["bounds", P["p1"], P["p2"], *r8], 0, bounds),
            self._job(lbl, ["faithful", P["t"], P["state"]], 0, faithful),
        ]

    def _heavy(self, rng):
        d = 16
        many = gen.rand_cp_map(rng, d, d, 128)
        t = gen.rand_cp_map(rng, d, d, 8)
        u = gen.rand_channel(rng, d, d, 4)
        p_many = self._write("d16-many.json", many)
        p_t = self._write("d16-t.json", t)
        p_u = self._write("d16-u.json", u)
        c_many = orc.choi(orc.ops(many), d)
        c_t = orc.choi(orc.ops(t), d)
        c_ut = orc.choi(orc.compose_kraus(orc.ops(t), orc.ops(u)), d)
        return [
            self._job("d16-parse", ["validate", p_many], 0, lambda doc: doc["kraus_count"] == 128),
            self._job("d16-parse", ["canonical", p_many], 0, lambda doc: orc.close(
                orc.choi([_mat(v) for v in doc["kraus"]], d), c_many)),
            self._job("d16-render", ["choi", p_t], 0, lambda doc: orc.close(_mat(doc["matrix"]), c_t)),
            self._job("d16-render", ["compose", p_u, p_t], 0,
                      lambda doc: orc.close(_mat(doc["matrix"]), c_ut)),
        ]


WORKLOADS = {"bracket": Bracket, "calculus": Calculus, "cli": Cli}

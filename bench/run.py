"""Benchmark of cp-calculus: end-to-end metrics untraced, per-layer traced.

    python3 bench/run.py --workload {bracket,calculus,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``.  ``--trace 0`` measures the workload for S seconds
and prints the end-to-end metrics; ``--trace 1`` runs every job twice,
untraced and traced in alternating order, then the same rounds traced
under ``python -O``, and prints the per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, tail percentile, failure and reuse shares, per-size job
counts, the ``-O`` breakdown) goes to ``.bench_out/`` in the checkout.
``--max-dim 2`` restricts every workload to d=2 inputs (see smoke.py).
"""

import os

# One client, one job at a time: BLAS threads would only add noise on a
# small shared machine.  Set before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

if not (SRC / "cp_calculus" / "__init__.py").is_file():
    sys.exit(f"error: no cp_calculus package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cp_calculus as cp  # noqa: E402
from spans import LAYERS, Tracer, breakdown  # noqa: E402
from workloads import WORKLOADS, gap_probe  # noqa: E402

if Path(cp.__file__).resolve().parent != SRC / "cp_calculus":
    sys.exit(f"error: imported cp_calculus from {cp.__file__}, not from {SRC}")

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_yardstick": "1/yardstick",
    "job_yardsticks_p50": "yardstick",
    "job_yardsticks_tail": "yardstick",
    "peak_rss_mb": "MB",
    "bracket_gap": "norm",
}

# metric -> unit; all but the last four are read from the traced breakdown
PER_LAYER_UNITS = {
    "numerics.calls": "calls/job",
    "numerics.self_s": "s/job",
    "numerics.herm_eig.calls": "calls/job",
    "numerics.herm_eig.self_s": "s/job",
    "numerics.herm_eig.n3_sum": "n3/job",
    "numerics.op_norm.calls": "calls/job",
    "numerics.op_norm.self_s": "s/job",
    "cpmap.calls": "calls/job",
    "cpmap.self_s": "s/job",
    "cpmap.canonicalize.calls": "calls/job",
    "cpmap.to_choi.calls": "calls/job",
    "cpmap.post_init.self_s": "s/job",
    "radon.calls": "calls/job",
    "radon.self_s": "s/job",
    "radon.rn_derivative.calls": "calls/job",
    "radon.rn_derivative.self_s": "s/job",
    "order.calls": "calls/job",
    "order.self_s": "s/job",
    "order.order_chain_dilation.self_s": "s/job",
    "duality.calls": "calls/job",
    "duality.self_s": "s/job",
    "duality.jam_forward.self_s": "s/job",
    "norms.calls": "calls/job",
    "norms.self_s": "s/job",
    "norms.ascent_iterations": "iters/job",
    "serialize.calls": "calls/job",
    "serialize.self_s": "s/job",
    "serialize.parse_input.self_s": "s/job",
    "serialize.dumps.self_s": "s/job",
    "serialize.bytes_in": "B/job",
    "serialize.bytes_out": "B/job",
    "cli.self_s": "s/job",
    "norms.iter_cap_frac": "frac",
    "cli.import_s": "s",
    "bench.self_s": "s/job",
    "trace.overhead_frac": "frac",
}


@dataclass
class Record:
    kind: str
    size: str
    round: int
    slot: int
    seconds: float
    good: bool
    error: str | None
    iterations: float | None
    reused: bool


def run_job(job, rnd, slot, seen, tracer=None, job_id=None):
    """Time one job; any exception is an outcome for the oracle to judge."""
    if tracer is not None:
        tracer.job_id = job_id
    value = error = None
    t0 = perf_counter()
    try:
        value = job.call()
    except Exception as exc:  # noqa: BLE001
        error = type(exc).__name__
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.job_id = None
    try:
        good = bool(job.check(value, error))
    except Exception:  # noqa: BLE001 - a malformed result is a failed job
        good = False
    reused = job.dominator is not None and id(job.dominator) in seen
    if job.dominator is not None:
        seen.add(id(job.dominator))
    iterations = None
    if isinstance(value, cp.NormReport):
        iterations = value.iterations / value.restarts
    return Record(job.kind, job.size, rnd, slot, seconds, good, error, iterations, reused)


def run_rounds(wl, seconds=None, rounds=None, tracer=None, yard=None):
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds``.

    With a dict as ``yard``, the workload's yardstick runs once before the
    first job and after each block of ``yard_every`` jobs; the times just
    before and just after a block are stored under (round, block).
    """
    records = []
    before = wl.yardstick() if yard is not None else None
    start = perf_counter()
    r = 0
    while r < rounds if rounds is not None else (r == 0 or perf_counter() - start < seconds):
        seen = set()
        jobs = wl.round()
        for slot, job in enumerate(jobs):
            records.append(run_job(job, r, slot, seen, tracer, len(records)))
            block, pos = divmod(slot, wl.yard_every)
            if yard is not None and (pos == wl.yard_every - 1 or slot == len(jobs) - 1):
                after = wl.yardstick()
                yard[r, block] = (before, after)
                before = after
        r += 1
    return records, r


@contextmanager
def tracing(tracer, wl):
    """Patch the layers (and switch cli jobs to the traced child) meanwhile."""
    tracer.install()
    wl.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        wl.tracer = None


def prepare(wl):
    """Set-up: fixtures, one round of input generation, warm-up jobs and
    a warm-up of the yardstick."""
    wl.setup()
    wl.round()
    for job in wl.warmup():
        run_job(job, 0, 0, set())
    wl.yardstick()


def run_self(args, *extra, optimize=False):
    cmd = [sys.executable] + (["-O"] if optimize else []) + [str(BENCH_DIR / "run.py")]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--max-dim", str(args.max_dim)]
    return subprocess.run(cmd + list(extra), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def setup_seconds(args):
    """Median wall time of a full set-up in a fresh interpreter."""
    samples = []
    for i in range(SETUP_REPEATS):
        workdir = OUT / f"probe-{os.getpid()}-{i}"
        t0 = perf_counter()
        run_self(args, "--setup-probe", "--workdir", str(workdir))
        samples.append(perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(samples), samples


def import_seconds():
    """Median ``import cp_calculus.cli`` time on top of a bare numpy import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "cli_child.py"), "--imports"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True,
        ).stdout
        runs.append(json.loads(out))
    return {k: statistics.median(r[k] for r in runs) for k in ("numpy_s", "cli_s")}


def job_costs(records, unit):
    """Per job: the median over rounds of its time over ``unit(record)``."""
    costs = {}
    for rec in records:
        costs.setdefault(rec.slot, []).append(rec.seconds / unit(rec))
    return np.array(sorted(statistics.median(v) for v in costs.values()))


def summarize(records, rounds, tail_pct, yard=None, yard_every=1):
    """Throughput, median and tail over the jobs of one round.

    Every round runs the same jobs on the same inputs, so a job has one
    time per round, and its cost is the median of them.  In ``*_ms``
    that is wall time.  Given the run's yardstick times as ``yard``, each
    job time is first divided by the mean of the two yardstick times taken
    just before and just after the job's block, which gives the
    ``*_yardsticks`` figures (see yardstick.py).
    """
    ms = job_costs(records, lambda rec: 1e-3)
    cut = float(np.percentile(ms, tail_pct))
    beyond = int(np.sum(ms > cut))
    detail = {
        "jobs": len(records),
        "rounds": rounds,
        "jobs_per_s": 1e3 * len(ms) / ms.sum(),
        "p50_ms": float(np.median(ms)),
        "tail_pct": tail_pct,
        "tail_ms": cut,
        "tail_beyond_jobs": beyond,
        "tail_beyond_runs": beyond * rounds,
    }
    if yard is not None:
        unit = {key: statistics.fmean(pair) for key, pair in yard.items()}
        costs = job_costs(records, lambda rec: unit[rec.round, rec.slot // yard_every])
        detail.update(
            jobs_per_yardstick=len(costs) / costs.sum(),
            p50_yardsticks=float(np.median(costs)),
            tail_yardsticks=float(np.percentile(costs, tail_pct)),
            yardstick_ms=[[r, b, 1e3 * s, 1e3 * t] for (r, b), (s, t) in yard.items()],
        )
    per_round, by_job = {}, {}
    for rec in records:
        per_round.setdefault(rec.round, []).append(round(rec.seconds * 1e3, 3))
        by_job.setdefault(f"{rec.size} {rec.kind}", []).append(rec.seconds * 1e3)
    iters = [rec.iterations for rec in records if rec.iterations is not None]
    detail.update(
        ms_by_round=list(per_round.values()),
        failed=sum(not rec.good for rec in records),
        jobs_per_size=dict(Counter(rec.size for rec in records)),
        median_ms_by_job={k: statistics.median(v) for k, v in sorted(by_job.items())},
        dominator_reuse_frac=sum(rec.reused for rec in records) / len(records),
        iterations_per_restart=statistics.fmean(iters) if iters else None,
        capped_job_frac=sum(i >= 200 for i in iters) / len(iters) if iters else None,
        errors=dict(Counter(rec.error for rec in records if rec.error)),
        failed_kinds=dict(Counter(rec.kind for rec in records if not rec.good)),
    )
    return detail


def measure(args, wl):
    """--trace 0: untraced closed loop for --seconds, end-to-end metrics."""
    setup_s, setup_samples = setup_seconds(args)
    prepare(wl)
    yard = {}
    records, rounds = run_rounds(wl, seconds=args.seconds, yard=yard)
    peak_rss_mb = wl.peak_rss_mb()
    detail = summarize(records, rounds, wl.tail_pct, yard, wl.yard_every)
    gap, gap_failed = gap_probe(args.seed, args.max_dim)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_yardstick": detail["jobs_per_yardstick"],
        "job_yardsticks_p50": detail["p50_yardsticks"],
        "job_yardsticks_tail": detail["tail_yardsticks"],
        "peak_rss_mb": peak_rss_mb,
        "bracket_gap": gap,
    }
    detail.update(
        setup_samples_s=setup_samples,
        failed_frac=detail["failed"] / len(records),
        gap_probe_failed=gap_failed,
    )
    ok = detail["failed"] == 0 and gap_failed == 0
    return ok, len(records), detail["failed"], metrics, END_TO_END_UNITS, detail


def per_layer(layers, jobs_wall, jobs, overhead, import_s):
    out = {name: layers.get(name, 0.0) for name in PER_LAYER_UNITS}
    restarts = layers.get("norms.restarts", 0.0)
    out["norms.iter_cap_frac"] = layers.get("norms.capped_restarts", 0.0) / restarts if restarts else 0.0
    out["cli.import_s"] = import_s
    layer_self = sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    out["bench.self_s"] = jobs_wall / jobs - layer_self
    out["trace.overhead_frac"] = overhead
    return out


def measure_traced(args, wl):
    """--trace 1: every job twice, untraced then traced; then -O traced.

    Interleaving the two copies puts them under the same machine load, so
    their difference is the tracing overhead; which copy runs first
    alternates, because a repeat of the same computation runs warmer.
    Both copies are generated separately from the same seed.
    """
    prepare(wl)
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < args.seconds / 3:
        seen_plain, seen_traced = set(), set()
        jobs = zip(wl.round(), wl.round())
        for slot, (job, copy) in enumerate(jobs):
            if slot % 2:
                plain.append(run_job(job, rounds, slot, seen_plain))
            with tracing(tracer, wl):
                traced.append(run_job(copy, rounds, slot, seen_traced, tracer, len(traced)))
            if not slot % 2:
                plain.append(run_job(job, rounds, slot, seen_plain))
        rounds += 1
    plain_s = sum(rec.seconds for rec in plain)
    traced_s = sum(rec.seconds for rec in traced)
    layers = breakdown(tracer, len(traced))
    imports = import_seconds()
    opt_path = OUT / f"optimized-{os.getpid()}.json"
    run_self(args, "--trace-child", str(rounds), "--out", str(opt_path), optimize=True)
    optimized = json.loads(opt_path.read_text())
    opt_path.unlink()
    metrics = per_layer(layers, traced_s, len(traced), traced_s / plain_s - 1.0, imports["cli_s"])
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(spans_path)
    attempted = len(plain) + len(traced) + optimized["jobs"]
    failed = sum(not rec.good for rec in plain + traced) + optimized["failed"]
    detail = {
        "untraced": summarize(plain, rounds, wl.tail_pct),
        "traced": summarize(traced, rounds, wl.tail_pct),
        "breakdown": layers,
        "optimized_breakdown": optimized["layers"],
        "optimized_job_seconds": optimized["job_seconds"],
        "imports_s": imports,
        "cli_child_imports_s": getattr(wl, "child_imports", []),
        "spans": str(spans_path.relative_to(ROOT)),
        "failed_frac": failed / attempted,
    }
    return failed == 0, attempted, failed, metrics, PER_LAYER_UNITS, detail


def trace_child(args, wl):
    """Internal: traced rounds in this (``-O``) interpreter, for the parent."""
    prepare(wl)
    tracer = Tracer()
    with tracing(tracer, wl):
        records, _ = run_rounds(wl, rounds=args.trace_child, tracer=tracer)
    doc = {
        "jobs": len(records),
        "failed": sum(not rec.good for rec in records),
        "job_seconds": sum(rec.seconds for rec in records),
        "layers": breakdown(tracer, len(records)),
    }
    Path(args.out).write_text(json.dumps(doc))


def environment(args):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        cpu = platform.processor() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "interpreter_mode": "-O" if sys.flags.optimize else "default",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_dim": args.max_dim,
        "git_commit": commit,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-dim", type=int, default=16, help="largest dimension used")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--trace-child", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = Path(args.workdir) if args.workdir else OUT / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, args.max_dim, workdir)
    try:
        if args.setup_probe:
            prepare(wl)
            return 0
        if args.trace_child:
            trace_child(args, wl)
            return 0
        run = measure_traced if args.trace else measure
        ok, attempted, failed, values, units, detail = run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {k: {"value": float(values[k]), "unit": unit} for k, unit in units.items()}
    record = {"environment": environment(args), "metrics": metrics, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

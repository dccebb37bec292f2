"""Smoke run of the benchmark: all three workloads at d=2, untraced and traced.

    python3 bench/smoke.py

Checks that every metric named in BENCHMARK.json comes out with its unit
and that no job failed (failed_frac = 0).  Takes about a minute; timings
are not checked.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload['name']} --trace {trace}"
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--max-dim", "2"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if run.returncode != 0:
                problems.append(f"{name}: exit {run.returncode}\n{run.stderr[-2000:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name}: metrics {sorted(set(got) ^ set(want))} differ")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name}: {result['failed']} of {result['attempted']} jobs failed")
            print(f"{name}: {result['attempted']} jobs, failed_frac "
                  f"{result['failed'] / max(1, result['attempted'])}")
    for problem in problems:
        print("FAIL", problem)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run ``cp_calculus.cli.main`` in a fresh interpreter with tracing on.

    python bench/cli_child.py SPANS_JSON COMMAND [ARGS...]
    python bench/cli_child.py --imports

The first form behaves like ``python -m cp_calculus COMMAND ARGS`` (same
stdout and exit code) and writes its spans, counters and import times to
SPANS_JSON.  The second only times ``import numpy`` and then
``import cp_calculus.cli`` in this fresh interpreter and prints both.
``PYTHONPATH`` must point at the package's ``src`` directory.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import numpy  # noqa: E402,F401

t1 = perf_counter()
import cp_calculus.cli  # noqa: E402

t2 = perf_counter()
imports = {"numpy_s": t1 - t0, "cli_s": t2 - t1}

if __name__ == "__main__":
    if sys.argv[1] == "--imports":
        print(json.dumps(imports))
        sys.exit(0)
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.job_id = 0
    code = cp_calculus.cli.main(sys.argv[2:])
    sys.stdout.flush()
    tracer.uninstall()
    doc = tracer.dump()
    doc["imports"] = imports
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    sys.exit(code)

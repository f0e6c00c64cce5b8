"""One benchmark sample in a fresh interpreter, so every memo starts cold.

    python bench/child.py WORKLOAD SEED {setup,timed,traced}

``setup`` only sets up; ``timed`` also runs the workload with tracing off;
``traced`` runs it under ``tracing.traced``.  The last line of standard
output is one JSON object: ``setup_s``, and after a run its ``outputs``,
``peak_rss_mb`` and either ``wall_s``/``cpu_s`` or the per-layer metrics.
A run that raises reports ``error`` in place of outputs.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads  # imports no repro module, so set-up times the import

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workload = workloads.WORKLOADS[name]
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import repro.experiments.registry  # noqa: F401

    workload.setup(seed)
    record: dict = {"setup_s": time.perf_counter() - start}

    if mode != "setup":
        try:
            if mode == "traced":
                outputs, record["layers"] = tracing.traced(lambda: workload.run(seed))
            else:
                cpu0, wall0 = time.process_time(), time.perf_counter()
                outputs = workload.run(seed)
                record["wall_s"] = time.perf_counter() - wall0
                record["cpu_s"] = time.process_time() - cpu0
            record["outputs"] = outputs
        except Exception:
            record["error"] = traceback.format_exc()
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

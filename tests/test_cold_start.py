"""The size-only timing paths never load numpy.

numpy is needed only where a run draws a random number (fault streams, the
NPB verification data) or moves an array payload.  Importing the registry
and running the paper's timing skeletons must leave it unloaded: its import
is most of a cold start's set-up time and adds ~14 MB to every worker.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

_TIMING_PATHS = """
import sys

import repro.experiments.registry  # noqa: F401
from repro.experiments.environments import get_environment
from repro.experiments.npb_runs import npb_time
from repro.experiments.pingpong_common import run_curve_shard
from repro.experiments.table6 import run_ray2mesh_shard

get_environment("fully_tuned")
assert npb_time("mg", "openmpi", "grid4", cls="S") > 0
assert run_curve_shard("grid", "fully_tuned", "mpich2", fast=True)["points"]
assert run_ray2mesh_shard("rennes", fast=True)["total_time"] > 0
print("numpy" in sys.modules)
"""


def test_timing_paths_do_not_import_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _TIMING_PATHS],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

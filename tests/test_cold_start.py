"""The experiments' timing paths never load numpy.

numpy is needed only for the NPB verification data and array payloads; the
fault injector's losses and jitter come from :mod:`repro.sim.rng`'s
pure-Python PCG64.  Importing the registry, running the paper's timing
skeletons and running lossy and jittered fault shards must leave it
unloaded: its import is most of a cold start's set-up time and adds ~14 MB
to every worker.
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
from repro.experiments.faults import run_cg_jitter_shard, run_loss_curve_shard
from repro.experiments.npb_runs import npb_time
from repro.experiments.pingpong_common import run_curve_shard
from repro.experiments.table6 import run_ray2mesh_shard

get_environment("fully_tuned")
assert npb_time("mg", "openmpi", "grid4", cls="S") > 0
assert run_curve_shard("grid", "fully_tuned", "mpich2", fast=True)["points"]
assert run_ray2mesh_shard("rennes", fast=True)["total_time"] > 0
goodput = run_loss_curve_shard("tcp", fast=True)["goodput"]
assert goodput["0.1"] < goodput["0"]  # the injected losses were drawn
clean = run_cg_jitter_shard("mpich2", 0.0, fast=True)["time"]
assert run_cg_jitter_shard("mpich2", 0.25, fast=True)["time"] > clean
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


_NUMPY_BLOCKED = """
import sys

sys.modules["numpy"] = None

from repro.impls import get_implementation
from repro.mpi import MpiJob
from repro.net import build_pair_testbed
from repro.sim import RngRegistry

net = build_pair_testbed(nodes_per_site=2)
job = MpiJob(net, get_implementation("mpich2"), net.clusters["rennes"].nodes)
for read in (lambda: RngRegistry(seed=1).stream("x"), lambda: job.contexts[0].rng):
    try:
        read()
    except ModuleNotFoundError as exc:
        print(exc.name, "pip install 'repro[test]'" in str(exc))
"""


def test_a_numpy_stream_without_numpy_names_the_extra():
    """numpy is in the ``[test]`` extra only: a numpy stream
    (``RngRegistry.stream``, and so ``RankContext.rng``) says where to get it."""
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_BLOCKED],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "True", "numpy", "True"]

"""Experiment-layer tests: every table/figure runs (fast mode) and keeps
the paper's qualitative claims (``tests/paper_claims.py``), and the
ablations isolate the mechanisms the paper credits."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps.pingpong import mpi_pingpong, mpi_stream
from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments.environments import (
    cluster_placement,
    get_environment,
    grid_placement,
    pingpong_pair,
)
from repro.impls import get_implementation
from repro.npb import run_npb
from repro.runner import ExperimentSpec, run_campaign
from repro.tcp import TUNED_MAX_ONLY_SYSCTLS, TUNED_SYSCTLS
from repro.tcp.sysctl import SysctlConfig
from repro.units import KB, MB
from tests import paper_claims

SRC = Path(repro.__file__).resolve().parent.parent


def test_registry_covers_every_table_and_figure():
    expected = {
        "table1", "table2", "table3", "table4", "table5", "table6", "table7",
        "fig3", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13",
        "faults_pingpong", "faults_cg", "coll_hier",
    }
    assert set(EXPERIMENTS) == expected


def test_unknown_experiment():
    with pytest.raises(ExperimentError):
        get_experiment("fig99")


# --- environments ---------------------------------------------------------------
def test_environments():
    default = get_environment("default")
    tuned = get_environment("fully_tuned")
    assert default.sysctls.tcp_rmem.max_bytes == 174760
    assert tuned.sysctls.tcp_rmem.max_bytes == 4 * MB
    assert default.impl("openmpi").buffer_policy.sndbuf == 128 * 1024
    assert tuned.impl("openmpi").buffer_policy.sndbuf == 4 * MB
    assert tuned.impl("mpich2").eager_threshold == 65 * MB
    assert tuned.impl("openmpi").eager_threshold == 32 * MB
    with pytest.raises(ExperimentError):
        get_environment("casually_tuned")


def test_placements():
    net, nodes = grid_placement(8)
    assert len(nodes) == 8
    assert {n.cluster.name for n in nodes} == {"rennes", "nancy"}
    net, nodes = cluster_placement(4)
    assert {n.cluster.name for n in nodes} == {"rennes"}
    with pytest.raises(ExperimentError):
        grid_placement(5)
    with pytest.raises(ExperimentError):
        pingpong_pair("moon")


# --- the paper's claims (tests/paper_claims.py) on fast rows -----------------------
@pytest.fixture(scope="module")
def fast_runs(tmp_path_factory):
    """One uncached two-worker fast campaign of every experiment with a claim.

    Shards shared by experiments (fig10/12/13's grid16 NPB runs, table6/7's
    ray2mesh runs) run once; the JSON artifacts land under ``out``."""
    out = tmp_path_factory.mktemp("fast")
    campaign = run_campaign(
        [ExperimentSpec(eid, fast=True) for eid in paper_claims.CLAIMS],
        jobs=2,
        use_cache=False,
        out_dir=out,
    )
    assert campaign.ok, campaign.summary()
    return {run.experiment_id: run.rows for run in campaign.runs}, out


def _claims_hold(fast_runs, experiment_id):
    rows, _ = fast_runs
    paper_claims.CLAIMS[experiment_id](rows[experiment_id], fast=True)


def test_table1_rows(fast_runs):
    _claims_hold(fast_runs, "table1")


def test_table2_fast(fast_runs):
    _claims_hold(fast_runs, "table2")


def test_table3_rows(fast_runs):
    _claims_hold(fast_runs, "table3")


def test_table4_matches_paper_within_2us(fast_runs):
    _claims_hold(fast_runs, "table4")


def test_table5_fast(fast_runs):
    _claims_hold(fast_runs, "table5")


def test_fig3_collapse(fast_runs):
    _claims_hold(fast_runs, "fig3")


def test_fig5_cluster_plateau(fast_runs):
    _claims_hold(fast_runs, "fig5")


def test_fig6_tcp_tuned(fast_runs):
    _claims_hold(fast_runs, "fig6")


def test_fig7_fully_tuned(fast_runs):
    _claims_hold(fast_runs, "fig7")


def test_fig9_fast(fast_runs):
    _claims_hold(fast_runs, "fig9")


def test_fig10_gridmpi_wins_collectives(fast_runs):
    _claims_hold(fast_runs, "fig10")


def test_fig11_keeps_fig10s_order(fast_runs):
    _claims_hold(fast_runs, "fig11")


def test_fig12_shape(fast_runs):
    _claims_hold(fast_runs, "fig12")


def test_fig13_grid_is_worth_it(fast_runs):
    _claims_hold(fast_runs, "fig13")


def test_fig13_asserts_cg_at_class_b(fast_runs):
    # fast is class A, where CG does not gain; the full-scale check asserts it
    rows, _ = fast_runs
    with pytest.raises(AssertionError, match="'bench': 'cg'"):
        paper_claims.fig13(rows["fig13"], fast=False)


def test_table6_sophia_leads(fast_runs):
    _claims_hold(fast_runs, "table6")


def test_table7_placement_insensitive(fast_runs):
    _claims_hold(fast_runs, "table7")


def test_claims_script_passes_on_the_artifacts_without_pytest_or_numpy(fast_runs):
    """CI runs the script in a job that installs neither."""
    _, out = fast_runs
    script = (
        "import runpy, sys; sys.modules['numpy'] = sys.modules['pytest'] = None; "
        "sys.argv[:] = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')"
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", script, paper_claims.__file__,
            *sorted(str(p) for p in (out / "json").glob("*.json")),
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    claims = len(paper_claims.CLAIMS)
    assert proc.stdout.splitlines()[-1] == f"{claims}/{claims} experiments keep the paper's claims"


def test_claims_script_fails_on_an_edited_row_or_a_missing_artifact(
    fast_runs, tmp_path, capsys
):
    _, out = fast_runs
    for artifact in (out / "json").glob("*.json"):
        (tmp_path / artifact.name).write_text(artifact.read_text(encoding="utf-8"))
    fig6 = tmp_path / "fig6.json"
    document = json.loads(fig6.read_text(encoding="utf-8"))
    next(row for row in document["rows"] if row["nbytes"] == 64 * MB)["TCP"] = 849.0
    fig6.write_text(json.dumps(document), encoding="utf-8")
    (tmp_path / "table7.json").unlink()
    assert paper_claims.main(sorted(str(p) for p in tmp_path.glob("*.json"))) == 1
    printed = capsys.readouterr().out
    assert "FAIL fig6 (fast): assert big[\"TCP\"] >= 850, big" in printed
    assert "no artifact for: table7" in printed


# --- ablations: each mechanism the paper credits, isolated -------------------------------
def test_van_de_geijn_bcast_wins_ft_on_the_grid():
    """GridMPI's FT win disappears with a binomial broadcast."""
    env = get_environment("fully_tuned")
    gridmpi = env.impl("gridmpi")

    def ft_time(impl):
        network, placement = grid_placement(16)
        return run_npb(
            "ft", "A", network, impl, placement, sysctls=env.sysctls, sample_iters=3
        ).time

    assert ft_time(gridmpi) < ft_time(gridmpi.with_collective("bcast", "binomial"))


def test_pacing_reaches_500_mbps_first():
    """Paced GridMPI vs an unpaced stack: time to 500 Mbps on a 1 MB stream
    (Fig. 9's mechanism isolated)."""
    net, a, b = pingpong_pair("grid")

    def time_to_500(impl):
        samples = mpi_stream(net, impl, a, b, nbytes=MB, count=250, sysctls=TUNED_SYSCTLS)
        return next((s.time for s in samples if s.bandwidth_mbps >= 500), math.inf)

    unpaced = get_implementation("mpich2").with_eager_threshold(65 * MB)
    assert time_to_500(get_implementation("gridmpi")) < time_to_500(unpaced)


def test_buffer_sweep_saturates_above_the_bdp():
    """Bandwidth vs socket buffer size: monotone, saturating above the
    ~1.45 MB bandwidth-delay product."""
    net, a, b = pingpong_pair("grid")
    impl = get_implementation("mpich2").with_eager_threshold(65 * MB)
    sizes_kb = [128, 512, 2048, 4096]
    bandwidths = []
    for kb in sizes_kb:
        sysctls = SysctlConfig().with_buffer_max(kb * KB).with_buffer_default(kb * KB)
        curve = mpi_pingpong(net, impl, a, b, sizes=[16 * MB], repeats=12, sysctls=sysctls)
        bandwidths.append(curve.max_bandwidth_mbps)
    assert bandwidths == sorted(bandwidths)
    assert bandwidths[-1] > 2.5 * bandwidths[0]


def test_middle_value_matters_for_gridmpi():
    """§4.2.1: raising only the sysctl maxima fixes MPICH2 but not GridMPI."""
    net, a, b = pingpong_pair("grid")

    def bandwidth(impl_name, sysctls):
        impl = get_implementation(impl_name)
        curve = mpi_pingpong(net, impl, a, b, sizes=[16 * MB], repeats=12, sysctls=sysctls)
        return curve.max_bandwidth_mbps

    gridmpi_max_only = bandwidth("gridmpi", TUNED_MAX_ONLY_SYSCTLS)
    # GridMPI's window stays at the 87 kB default receive buffer
    assert bandwidth("mpich2", TUNED_MAX_ONLY_SYSCTLS) > 3 * gridmpi_max_only
    assert bandwidth("gridmpi", TUNED_SYSCTLS) > 5 * gridmpi_max_only

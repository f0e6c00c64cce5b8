"""Experiment-layer tests: every table/figure runs (fast mode) and shows
the paper's qualitative shape."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.environments import (
    cluster_placement,
    get_environment,
    grid_placement,
    pingpong_pair,
)
from repro.runner import ExperimentSpec, run_campaign
from repro.units import MB


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


# --- static tables -----------------------------------------------------------------
def test_table1_rows():
    result = run_experiment("table1")
    assert len(result.rows) == 6  # the paper lists all six implementations
    assert "GridMPI" in result.text


def test_table3_rows():
    result = run_experiment("table3")
    assert any("Opteron 248" in str(r.values()) for r in result.rows)
    assert "BIC + Sack" in result.text


# --- measured tables ----------------------------------------------------------------
def test_table4_matches_paper_within_2us():
    result = run_experiment("table4", fast=True)
    for row in result.rows:
        assert row["cluster_us"] == pytest.approx(row["paper_cluster_us"], abs=2)
        assert row["grid_us"] == pytest.approx(row["paper_grid_us"], abs=3)


def test_table5_fast():
    result = run_experiment("table5", fast=True)
    by_name = {r["implementation"]: r for r in result.rows}
    assert by_name["gridmpi"]["measured_cluster"] is None  # never rendezvous
    assert by_name["mpich2"]["measured_grid"] == 65 * MB
    assert by_name["openmpi"]["measured_grid"] == 32 * MB


# --- pingpong figures -------------------------------------------------------------------
def test_fig3_collapse():
    result = run_experiment("fig3", fast=True)
    for row in result.rows:
        for label, bw in row.items():
            if label == "nbytes":
                continue
            # The paper: nothing above 120 Mbps.  Our fluid model shows a
            # short burst hump where the message size crosses the default
            # buffer size (~128-256 kB, a single line-rate burst); allow it
            # but require the collapse everywhere else.
            limit = 170 if 64 * 1024 <= row["nbytes"] <= 256 * 1024 else 130
            assert bw <= limit, (label, row)


def test_fig5_cluster_plateau():
    result = run_experiment("fig5", fast=True)
    big = next(r for r in result.rows if r["nbytes"] == 64 * MB)
    for label, bw in big.items():
        if label != "nbytes":
            assert 800 <= bw <= 945, label


def test_fig6_tcp_tuned():
    result = run_experiment("fig6", fast=True)
    big = next(r for r in result.rows if r["nbytes"] == 64 * MB)
    # TCP and GridMPI reach ~900; the rendezvous-bound stacks lag at 64 MB
    # (their threshold is still the default).
    assert big["TCP"] >= 800
    assert big["GridMPI"] >= 750
    # the Fig. 6 threshold dip: at 256 kB Madeleine (128 kB threshold) is
    # already paying the WAN rendezvous, GridMPI (threshold ∞) is not
    dip = next(r for r in result.rows if r["nbytes"] == 256 * 1024)
    assert dip["GridMPI"] > 1.5 * dip["MPICH-Madeleine"]


def test_fig7_fully_tuned():
    result = run_experiment("fig7", fast=True)
    big = next(r for r in result.rows if r["nbytes"] == 64 * MB)
    for label, bw in big.items():
        if label == "nbytes":
            continue
        assert bw >= 700, label
    # OpenMPI is the slowest of the four at 64 MB (Fig. 7)
    impls = {k: v for k, v in big.items() if k not in ("nbytes", "TCP")}
    assert min(impls, key=impls.get) == "OpenMPI"


def test_fig9_fast():
    result = run_experiment("fig9", fast=True)
    by_stack = {r["stack"]: r for r in result.rows}
    assert 500 <= by_stack["TCP"]["peak_mbps"] <= 640
    # paced beats unpaced to 500 Mbps
    assert by_stack["GridMPI"]["t500_s"] < by_stack["MPICH2"]["t500_s"]


def _campaign_runs(*experiment_ids):
    """One uncached two-worker campaign: shards shared by the experiments run
    once.  The tests read rows, which do not depend on ``jobs``."""
    campaign = run_campaign(
        [ExperimentSpec(eid, fast=True) for eid in experiment_ids], jobs=2, use_cache=False
    )
    assert campaign.ok, campaign.summary()
    return campaign.runs


# --- NPB figures (class A fast mode, shared grid16 shards) ---------------------------------
@pytest.fixture(scope="module")
def npb_results():
    return _campaign_runs("fig10", "fig12", "fig13")


def test_fig10_gridmpi_wins_collectives(npb_results):
    fig10, _, _ = npb_results
    rows = {r["bench"]: r for r in fig10.rows}
    assert rows["ft"]["gridmpi"] > 1.3
    assert rows["is"]["gridmpi"] > 1.0
    # MPICH2 is the best on LU (nobody beats the reference clearly)
    assert rows["lu"]["gridmpi"] <= 1.1
    assert rows["lu"]["madeleine"] < 1.0
    # Madeleine DNFs on BT and SP
    assert rows["bt"]["madeleine"] == 0.0
    assert rows["sp"]["madeleine"] == 0.0


def test_fig12_shape(npb_results):
    _, fig12, _ = npb_results
    rows = {r["bench"]: r for r in fig12.rows}
    # EP barely affected; CG and MG hit hardest (small messages).
    assert rows["ep"]["gridmpi"] > 0.8
    assert rows["cg"]["gridmpi"] < 0.6
    assert rows["mg"]["gridmpi"] < 0.75
    assert rows["lu"]["mpich2"] > rows["cg"]["mpich2"]


def test_fig13_grid_is_worth_it(npb_results):
    _, _, fig13 = npb_results
    rows = {r["bench"]: r for r in fig13.rows}
    # At the paper's class B every benchmark gains; the fast mode runs
    # class A where the latency-bound CG/IS legitimately do not, so the
    # all-gain assertion is restricted to the compute-heavy kernels here
    # (the full-scale check lives in benchmarks/test_fig13...).
    for bench in ("ep", "mg", "lu", "sp", "bt", "ft"):
        assert rows[bench]["gridmpi"] > 1.0, bench
    # ...LU close to the ideal 4, CG far from it.
    assert rows["lu"]["gridmpi"] > 2.0
    assert rows["cg"]["gridmpi"] < rows["lu"]["gridmpi"]


# --- ray2mesh tables ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def ray_tables():
    return _campaign_runs("table6", "table7")


def test_table6_sophia_leads(ray_tables):
    table6, _ = ray_tables
    rows = {r["cluster"]: r for r in table6.rows}
    for master in ("nancy", "rennes", "sophia", "toulouse"):
        per_master = {c: rows[c][f"master_{master}"] for c in rows}
        assert max(per_master, key=per_master.get) == "sophia"


def test_table7_placement_insensitive(ray_tables):
    _, table7 = ray_tables
    totals = [r["total_s"] for r in table7.rows]
    assert max(totals) / min(totals) < 1.05


def test_table2_fast():
    result = run_experiment("table2", fast=True)
    rows = {r["bench"]: r for r in result.rows}
    assert rows["is"]["type"] == "Collective"
    assert rows["lu"]["type"] == "P. to P."
    # LU's dominant size is ~1 kB (Table 2)
    lu_sizes = [s for s, _ in rows["lu"]["dominant_sizes"]]
    assert any(500 <= s <= 1500 for s in lu_sizes)

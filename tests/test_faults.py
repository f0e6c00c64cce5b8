"""Deterministic WAN fault injection: profiles, TCP invariants.

Everything here revolves around two properties:

* *determinism* — the same profile + seed reproduces transfers
  byte-for-byte (same ``TransferStats``, same curves), which is what lets
  faulted experiments live in the result cache and CI;
* *isolation* — a ``None`` or clean profile leaves every result
  bit-identical to a build without the faults subsystem, so the committed
  goldens never move.
"""

import dataclasses

import pytest

from repro.apps.pingpong import tcp_pingpong
from repro.errors import FaultConfigError
from repro.experiments.environments import get_environment, pingpong_pair
from repro.faults import FaultProfile
from repro.sim import Environment
from repro.tcp import Fabric, TUNED_SYSCTLS, TcpOptions
from repro.tcp.congestion import INITIAL_WINDOW, MSS, CongestionState
from repro.units import MB

SEED = 1234


# --- profile configuration ----------------------------------------------------------
def test_profile_validation():
    with pytest.raises(FaultConfigError):
        FaultProfile(loss_prob=1.0)
    with pytest.raises(FaultConfigError):
        FaultProfile(loss_prob=-0.1)
    with pytest.raises(FaultConfigError):
        FaultProfile(jitter_frac=-1.0)
    with pytest.raises(FaultConfigError):
        FaultProfile(rtt_inflation=0.5)


def test_profile_activity_and_scope():
    clean = FaultProfile()
    assert not clean.active
    assert not clean.applies_to(inter_site=True)
    lossy = FaultProfile(loss_prob=0.1)
    assert lossy.active
    assert lossy.applies_to(inter_site=True)
    assert not lossy.applies_to(inter_site=False)  # inter-site routes only


# --- TCP-level effects --------------------------------------------------------------
def _grid_curve(profile, nbytes=8 * MB, repeats=6):
    env = get_environment("tcp_tuned")
    net, a, b = pingpong_pair("grid")
    return tcp_pingpong(
        net,
        a,
        b,
        sizes=(nbytes,),
        repeats=repeats,
        sysctls=env.sysctls,
        options=TcpOptions(fault_profile=profile),
    )


def _faulted_transfer_stats(profile, where="grid", repeats=6, nbytes=4 * MB):
    """Run a one-way transfer loop; returns the sender's TransferStats."""
    env = Environment()
    net, a, b = pingpong_pair(where)
    fabric = Fabric(env, net, TUNED_SYSCTLS)
    conn = fabric.connect(a, b, TcpOptions(fault_profile=profile))

    def runner():
        yield from conn.connect()
        for _ in range(repeats):
            arrival = yield from conn.transmit(a, nbytes)
            yield env.timeout(max(0.0, arrival - env.now))

    env.process(runner())
    env.run()
    return dataclasses.replace(conn.direction(a).stats)


def test_same_seed_runs_are_byte_identical():
    profile = FaultProfile(seed=SEED, loss_prob=0.05, jitter_frac=0.2)
    first = _faulted_transfer_stats(profile)
    second = _faulted_transfer_stats(profile)
    assert first == second
    assert first.injected_losses > 0
    curve_a = _grid_curve(profile)
    curve_b = _grid_curve(profile)
    assert curve_a.points == curve_b.points


def test_different_seeds_diverge():
    losses = {
        seed: _faulted_transfer_stats(FaultProfile(seed=seed, loss_prob=0.3))
        for seed in (1, 2, 3)
    }
    assert len({stats.injected_losses for stats in losses.values()}) > 1 or len(
        {stats.window_rounds for stats in losses.values()}
    ) > 1


def test_clean_profile_changes_nothing():
    baseline = _grid_curve(profile=None)
    assert baseline.points == _grid_curve(FaultProfile()).points
    assert _faulted_transfer_stats(None) == _faulted_transfer_stats(FaultProfile())


def test_injected_loss_degrades_goodput():
    clean = _grid_curve(None).points[0]
    lossy = _grid_curve(FaultProfile(seed=SEED, loss_prob=0.1)).points[0]
    assert lossy.mean_bandwidth_mbps < clean.mean_bandwidth_mbps
    stats = _faulted_transfer_stats(FaultProfile(seed=SEED, loss_prob=0.1))
    assert 0 < stats.injected_losses <= stats.losses


def test_rtt_inflation_scales_latency():
    clean = _grid_curve(None, nbytes=1024, repeats=3).points[0]
    slow = _grid_curve(
        FaultProfile(seed=SEED, rtt_inflation=2.0), nbytes=1024, repeats=3
    ).points[0]
    # Small messages are pure latency: doubling the WAN RTT roughly
    # doubles the round trip (stack overheads keep it just under 2x).
    assert 1.8 < slow.min_rtt / clean.min_rtt <= 2.0


def test_jitter_delays_mean_not_min():
    clean = _grid_curve(None, nbytes=1024, repeats=20).points[0]
    jittery = _grid_curve(
        FaultProfile(seed=SEED, jitter_frac=0.5), nbytes=1024, repeats=20
    ).points[0]
    assert jittery.mean_rtt > clean.mean_rtt
    # min is the best-case draw: it may escape nearly unscathed
    assert jittery.min_rtt < jittery.mean_rtt


def test_profile_leaves_cluster_path_clean():
    profile = FaultProfile(seed=SEED, loss_prob=0.2, jitter_frac=0.5)
    assert _faulted_transfer_stats(profile, where="cluster") == _faulted_transfer_stats(
        None, where="cluster"
    )
    # A profile never even arms the fault hooks intra-cluster.
    env = Environment()
    net, a, b = pingpong_pair("cluster")
    fabric = Fabric(env, net, TUNED_SYSCTLS)
    conn = fabric.connect(a, b, TcpOptions(fault_profile=profile))
    assert conn.direction(a).faults is None


# --- congestion-control invariants (under faults and otherwise) ---------------------
def test_window_never_exceeds_buffer_caps_under_faults(monkeypatch):
    from repro.tcp import connection as conn_mod

    observed: list[tuple[float, float]] = []
    original = conn_mod._Direction._on_window_round

    def checked(self, now):
        original(self, now)
        observed.append((self.window(), min(self.sndbuf, self.rcvbuf)))

    monkeypatch.setattr(conn_mod._Direction, "_on_window_round", checked)
    _faulted_transfer_stats(FaultProfile(seed=SEED, loss_prob=0.1), repeats=10)
    assert observed  # the loop actually exercised window rounds
    assert all(window <= cap for window, cap in observed)


def test_bic_binary_search_converges_to_last_max():
    cc = CongestionState(algorithm="bic")
    cc.cwnd = 4000 * MSS
    cc.ssthresh = 1.0  # force congestion avoidance
    cc.on_loss()
    target = cc.last_max
    assert target == 4000 * MSS
    previous = cc.cwnd
    for _ in range(200):
        if cc.cwnd >= target:
            break
        cc.on_round()
        step = cc.cwnd - previous
        assert 0 < step <= 32 * MSS  # clamped binary-search step
        # each step closes at least half the remaining gap (up to clamps)
        previous = cc.cwnd
    assert cc.cwnd >= target - MSS  # converged onto the old maximum


def test_slow_start_exits_exactly_at_ssthresh():
    cc = CongestionState(algorithm="bic")
    cc.ssthresh = 40 * MSS
    assert cc.cwnd == INITIAL_WINDOW
    while cc.in_slow_start:
        before = cc.cwnd
        cc.on_round()
        assert cc.cwnd <= cc.ssthresh  # doubling is capped, never overshoots
        assert cc.cwnd >= before
    assert cc.cwnd == cc.ssthresh


def test_injected_loss_cuts_window_like_congestion():
    cc = CongestionState(algorithm="bic")
    cc.cwnd = 100 * MSS
    cc.ssthresh = 1.0
    cc.on_loss()
    assert cc.cwnd == pytest.approx(80 * MSS)  # BIC beta = 0.8
    assert cc.ssthresh == cc.cwnd
    assert cc.last_max == 100 * MSS


# --- the degradation experiments ----------------------------------------------------
def test_faults_pingpong_experiment_degrades_monotonically():
    from repro.experiments.faults import LOSS_RATES
    from repro.experiments.registry import run_experiment

    result = run_experiment("faults_pingpong", fast=True)
    assert [row["loss_prob"] for row in result.rows] == list(LOSS_RATES)
    for label in ("TCP", "MPICH2", "GridMPI", "MPICH-Madeleine", "OpenMPI"):
        goodputs = [row[label] for row in result.rows]
        assert all(a >= b for a, b in zip(goodputs, goodputs[1:]))
        assert goodputs[-1] < 0.8 * goodputs[0]  # 10% loss visibly hurts


def test_faults_cg_experiment_slows_with_jitter():
    from repro.experiments.faults import JITTER_FRACS
    from repro.experiments.registry import run_experiment

    result = run_experiment("faults_cg", fast=True)
    assert [row["jitter_frac"] for row in result.rows] == list(JITTER_FRACS)
    for name in ("mpich2", "gridmpi", "madeleine", "openmpi"):
        times = [row["times"][name] for row in result.rows]
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert times[-1] > times[0]  # +50% jitter is never free
    worst = result.rows[-1]["slowdown"]
    assert all(slowdown > 1.0 for slowdown in worst.values())

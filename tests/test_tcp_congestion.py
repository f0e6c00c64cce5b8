"""Tests for congestion window dynamics."""

from dataclasses import fields

import pytest

from repro.errors import TcpError
from repro.tcp import MSS, CongestionState
from repro.tcp.congestion import BIC_BETA, BIC_SMAX_SEGMENTS, INITIAL_WINDOW


def test_initial_state():
    cc = CongestionState()
    assert cc.cwnd == INITIAL_WINDOW == 3 * MSS
    assert cc.in_slow_start
    assert cc.losses == 0


def test_slow_start_doubles():
    cc = CongestionState()
    cc.on_round()
    assert cc.cwnd == 2 * INITIAL_WINDOW
    cc.on_round()
    assert cc.cwnd == 4 * INITIAL_WINDOW


def test_slow_start_capped_at_ssthresh():
    cc = CongestionState(ssthresh=10 * MSS)
    cc.cwnd = 8 * MSS
    cc.on_round()
    assert cc.cwnd == 10 * MSS  # not 16


def test_loss_multiplicative_decrease_bic():
    cc = CongestionState()
    cc.cwnd = 100 * MSS
    cc.on_loss()
    assert cc.cwnd == pytest.approx(BIC_BETA * 100 * MSS)
    assert cc.ssthresh == cc.cwnd
    assert cc.last_max == 100 * MSS
    assert not cc.in_slow_start
    assert cc.losses == 1


def test_loss_reno_halves():
    cc = CongestionState(algorithm="reno")
    cc.cwnd = 100 * MSS
    cc.on_loss()
    assert cc.cwnd == pytest.approx(50 * MSS)


def test_loss_floor_two_segments():
    cc = CongestionState()
    cc.cwnd = float(2 * MSS)
    cc.on_loss()
    assert cc.cwnd == 2 * MSS


def test_reno_linear_growth():
    cc = CongestionState(algorithm="reno")
    cc.cwnd = 100 * MSS
    cc.on_loss()
    before = cc.cwnd
    cc.on_round()
    assert cc.cwnd == before + MSS


def test_bic_binary_search_towards_last_max():
    cc = CongestionState()
    cc.cwnd = 200 * MSS
    cc.on_loss()  # cwnd = 160 MSS, last_max = 200 MSS
    cc.on_round()
    # increment = (200-160)/2 = 20 MSS
    assert cc.cwnd == pytest.approx(180 * MSS)
    cc.on_round()
    # increment = (200-180)/2 = 10 MSS
    assert cc.cwnd == pytest.approx(190 * MSS)


def test_bic_increment_clamped_to_smax():
    cc = CongestionState()
    cc.cwnd = 1000 * MSS
    cc.on_loss()  # cwnd = 800 MSS, gap 200 MSS -> raw increment 100 > Smax 32
    before = cc.cwnd
    cc.on_round()
    assert cc.cwnd == before + BIC_SMAX_SEGMENTS * MSS


def test_bic_max_probing_accelerates():
    cc = CongestionState()
    cc.cwnd = 10 * MSS
    cc.on_loss()  # last_max = 10 MSS, cwnd = 8 MSS
    # Climb back over last_max, then probe.
    increments = []
    for _ in range(12):
        before = cc.cwnd
        cc.on_round()
        increments.append(cc.cwnd - before)
    probing = [i for i in increments[3:] if i > 0]
    # Accelerating (non-decreasing) and bounded by Smax.
    assert all(b >= a - 1e-9 for a, b in zip(probing, probing[1:]))
    assert max(probing) <= BIC_SMAX_SEGMENTS * MSS + 1e-9


def test_idle_restart():
    cc = CongestionState()
    cc.cwnd = 500 * MSS
    cc.on_loss()
    ssthresh = cc.ssthresh
    cc.on_idle_restart()
    assert cc.cwnd == INITIAL_WINDOW
    assert cc.ssthresh == ssthresh  # preserved: ramp back is fast
    assert cc.in_slow_start


def test_clamp():
    cc = CongestionState()
    cc.cwnd = 500 * MSS
    cc.clamp(100 * MSS)
    assert cc.cwnd == 100 * MSS
    with pytest.raises(TcpError):
        cc.clamp(0)


def test_copy_carries_every_field_and_is_independent():
    cc = CongestionState("reno", 5.0 * MSS, 9.0 * MSS, 7.0 * MSS, 3.0 * MSS, 2)
    default = CongestionState()
    twin = cc.copy()
    assert twin is not cc
    for f in fields(CongestionState):
        assert getattr(twin, f.name) == getattr(cc, f.name) != getattr(default, f.name)
    twin.on_round()
    assert twin.cwnd != cc.cwnd


def test_unknown_algorithm_rejected():
    with pytest.raises(TcpError):
        CongestionState(algorithm="vegas")


def test_slow_start_then_avoidance_cycle():
    """A full lifecycle: slow start, loss, BIC climb back past the max."""
    cc = CongestionState()
    rounds_in_ss = 0
    while cc.in_slow_start and cc.cwnd < 100 * MSS:
        cc.on_round()
        rounds_in_ss += 1
    assert rounds_in_ss <= 7  # exponential: 3 MSS -> >100 MSS in ~6 doublings
    cc.on_loss()
    target = cc.last_max
    rounds_in_ca = 0
    while cc.cwnd < target and rounds_in_ca < 1000:
        cc.on_round()
        rounds_in_ca += 1
    assert cc.cwnd >= target
    assert rounds_in_ca > 2  # distinctly slower than slow start

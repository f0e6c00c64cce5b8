"""Degradation experiments: the paper's headline measurements under faults.

The paper benchmarks a *dedicated* 1 Gbps Grid'5000 path; this family asks
how its conclusions erode when the WAN is not clean.  Two sweeps, both
driven by :mod:`repro.faults` profiles seeded with :data:`FAULTS_SEED`:

``faults_pingpong``
    Extends Fig. 6 (grid pair, ``tcp_tuned``): mean goodput of a large
    pingpong as the per-round injected WAN loss probability grows.  The
    zero-loss column is the clean simulation — byte-identical inputs to
    the committed Fig. 6 goldens.

``faults_cg``
    Extends Fig. 11 (NPB on the 2+2 grid): CG — the kernel the paper
    singles out as dominated by tightly-coupled small exchanges — under
    one-way WAN delay jitter, per implementation, with slowdown relative
    to the clean run.

Both experiments run as shard plans: one shard per curve / per
(implementation, jitter) cell.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from repro.apps.pingpong import mpi_pingpong, tcp_pingpong
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import (
    get_environment,
    grid_placement,
    pingpong_pair,
)
from repro.experiments.npb_runs import npb_fast_config
from repro.faults import FaultProfile
from repro.impls import IMPLEMENTATION_ORDER, get_implementation
from repro.npb import run_npb
from repro.report import Table, line_chart
from repro.tcp.connection import TcpOptions
from repro.units import MB, fmt_bytes

#: fixed seed of every fault profile used by these experiments (arbitrary
#: but stable: changing it changes the committed goldens)
FAULTS_SEED = 20071126

#: injected loss probability per window-limited RTT round (faults_pingpong)
LOSS_RATES = (0.0, 0.01, 0.02, 0.05, 0.1)
#: one-way delay jitter fractions (faults_cg)
JITTER_FRACS = (0.0, 0.1, 0.25, 0.5)

_PINGPONG_WHERE = "grid"
_PINGPONG_ENV = "tcp_tuned"
_CG_PLACEMENT = "grid4"
_CG_ENV = "fully_tuned"
_TCP = "tcp"


def _loss_profile(loss_prob: float) -> Optional[FaultProfile]:
    if loss_prob == 0.0:
        return None  # the clean path, bit-identical to no faults module
    return FaultProfile(seed=FAULTS_SEED, loss_prob=loss_prob)


def _jitter_profile(jitter_frac: float) -> Optional[FaultProfile]:
    if jitter_frac == 0.0:
        return None
    return FaultProfile(seed=FAULTS_SEED, jitter_frac=jitter_frac)


# --- faults_pingpong: goodput vs injected WAN loss ---------------------------------
def _pingpong_probe(fast: bool) -> tuple[int, int]:
    """(message size, repeats): one large message, averaged over repeats.

    The probe must span many window-limited rounds, or per-round loss
    injection quantises too coarsely to separate the low loss rates.
    """
    return (32 * MB, 10) if fast else (64 * MB, 20)


def run_loss_curve_shard(curve: str, fast: bool = False) -> dict:
    """Worker-side shard: one goodput-vs-loss curve (``"tcp"`` or an
    implementation registry name).

    Each loss rate runs in its own simulation ``Environment`` with an
    explicit :class:`FaultProfile`, so the points are independent and the
    shard reproduces bit-identically in any process (same argument as
    :func:`repro.experiments.pingpong_common.run_curve_shard`).
    """
    size, repeats = _pingpong_probe(fast)
    goodput: dict[str, float] = {}
    for loss in LOSS_RATES:
        profile = _loss_profile(loss)
        env = get_environment(_PINGPONG_ENV)
        net, a, b = pingpong_pair(_PINGPONG_WHERE)
        if curve == _TCP:
            result = tcp_pingpong(
                net,
                a,
                b,
                sizes=(size,),
                repeats=repeats,
                sysctls=env.sysctls,
                options=TcpOptions(fault_profile=profile),
            )
        else:
            impl = env.impl(curve)
            if profile is not None:
                impl = impl.with_fault_profile(profile)
            result = mpi_pingpong(
                net, impl, a, b, sizes=(size,), repeats=repeats, sysctls=env.sysctls
            )
        goodput[f"{loss:g}"] = result.points[0].mean_bandwidth_mbps
    return {"goodput": goodput}


def _pingpong_labels() -> list[tuple[str, str]]:
    """(shard label, legend label) pairs in the figures' legend order."""
    return [(_TCP, "TCP")] + [
        (name, get_implementation(name).display_name) for name in IMPLEMENTATION_ORDER
    ]


def _pingpong_result(curves: dict[str, dict[str, float]], fast: bool) -> ExperimentResult:
    size, repeats = _pingpong_probe(fast)
    title = "Pingpong goodput vs injected WAN loss"
    table = Table(
        ["loss/round"] + list(curves),
        title=f"{title} — {fmt_bytes(size)} x {repeats}, mean goodput (Mbps)",
    )
    rows = []
    for loss in LOSS_RATES:
        key = f"{loss:g}"
        cells: list = [key]
        row: dict = {"loss_prob": loss}
        for label, goodput in curves.items():
            cells.append(goodput[key])
            row[label] = goodput[key]
        table.add_row(cells)
        rows.append(row)
    chart = line_chart(
        {
            label: [(loss, goodput[f"{loss:g}"]) for loss in LOSS_RATES]
            for label, goodput in curves.items()
        },
        title=title,
        x_labels=[f"{loss:g}" for loss in LOSS_RATES],
        y_label="Mbps",
    )
    note = (
        "degradation sweep beyond the paper: its dedicated path saw no loss "
        "(Fig. 6 shows ~900 Mbps); injected WAN drops cut the congestion "
        "window and goodput collapses with the loss rate. The 0-loss column "
        "is the clean simulation."
    )
    text = "\n".join([table.render(), "", chart, "", f"paper: {note}"])
    return ExperimentResult(
        experiment_id="faults_pingpong",
        title=title,
        paper_ref="fault-injection extension of Figure 6, §4.2.1",
        rows=rows,
        text=text,
    )


def _pingpong_task_id(label: str) -> str:
    return f"faults/pingpong/{_PINGPONG_WHERE}/{_PINGPONG_ENV}/{label}"


def _pingpong_shards(fast: bool = False) -> list[ShardSpec]:
    return [
        ShardSpec(
            task_id=_pingpong_task_id(label),
            runner="repro.experiments.faults:run_loss_curve_shard",
            params={"curve": label},
        )
        for label, _ in _pingpong_labels()
    ]


def _merge_pingpong(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    curves = {
        legend: payloads[_pingpong_task_id(label)]["goodput"]
        for label, legend in _pingpong_labels()
    }
    return _pingpong_result(curves, fast)


# --- faults_cg: NPB CG under WAN delay jitter --------------------------------------
def run_cg_jitter_shard(impl_name: str, jitter: float, fast: bool = False) -> dict:
    """Worker-side shard: one (implementation, jitter) CG execution."""
    cls, sample = npb_fast_config(fast)
    env = get_environment(_CG_ENV)
    network, placement = grid_placement(4)
    impl = env.impl(impl_name)
    profile = _jitter_profile(jitter)
    if profile is not None:
        impl = impl.with_fault_profile(profile)
    result = run_npb(
        "cg", cls, network, impl, placement, sysctls=env.sysctls, sample_iters=sample
    )
    return {"time": result.time}


def _cg_task_id(impl_name: str, jitter: float) -> str:
    return f"faults/cg/{_CG_PLACEMENT}/{impl_name}/jitter-{jitter:g}"


def _cg_result(times: dict[str, dict[str, float]], fast: bool) -> ExperimentResult:
    cls, _ = npb_fast_config(fast)
    title = "NPB CG under WAN delay jitter"
    table = Table(
        ["jitter"]
        + [get_implementation(name).display_name for name in IMPLEMENTATION_ORDER],
        title=f"{title} — class {cls}, 2+2 grid, time in s (slowdown vs clean)",
    )
    rows = []
    for jitter in JITTER_FRACS:
        key = f"{jitter:g}"
        cells: list = ["clean" if jitter == 0.0 else f"+{jitter:.0%}"]
        row: dict = {"jitter_frac": jitter, "times": {}, "slowdown": {}}
        for name in IMPLEMENTATION_ORDER:
            t = times[name][key]
            clean = times[name][f"{JITTER_FRACS[0]:g}"]
            row["times"][name] = t
            if jitter == 0.0:
                cells.append(f"{t:.4g}")
            else:
                slowdown = t / clean if clean > 0 else float("inf")
                row["slowdown"][name] = slowdown
                cells.append(f"{t:.4g} (x{slowdown:.2f})")
        table.add_row(cells)
        rows.append(row)
    note = (
        "degradation sweep beyond the paper: §4.3 finds CG the most "
        "latency-bound kernel (tight halo exchanges), so uniform one-way "
        "delay jitter on the WAN slows it roughly in proportion to the "
        "mean added delay, for every implementation. The clean row matches "
        "Fig. 11's CG column."
    )
    text = "\n".join([table.render(), "", f"paper: {note}"])
    return ExperimentResult(
        experiment_id="faults_cg",
        title=title,
        paper_ref="fault-injection extension of Figure 11, §4.3",
        rows=rows,
        text=text,
    )


def _cg_shards(fast: bool = False) -> list[ShardSpec]:
    return [
        ShardSpec(
            task_id=_cg_task_id(name, jitter),
            runner="repro.experiments.faults:run_cg_jitter_shard",
            params={"impl_name": name, "jitter": jitter},
        )
        for name in IMPLEMENTATION_ORDER
        for jitter in JITTER_FRACS
    ]


def _merge_cg(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    times = {
        name: {
            f"{jitter:g}": payloads[_cg_task_id(name, jitter)]["time"]
            for jitter in JITTER_FRACS
        }
        for name in IMPLEMENTATION_ORDER
    }
    return _cg_result(times, fast)


# The registry consumes ``shards``/``merge`` attributes per experiment id;
# these namespaces let one module host both sweeps.
faults_pingpong = SimpleNamespace(shards=_pingpong_shards, merge=_merge_pingpong)
faults_cg = SimpleNamespace(shards=_cg_shards, merge=_merge_cg)

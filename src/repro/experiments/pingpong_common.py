"""Shared machinery of the four pingpong bandwidth figures (3, 5, 6, 7)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.pingpong import PingPongCurve, PingPongPoint, mpi_pingpong, tcp_pingpong
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import GridEnvironment, get_environment, pingpong_pair
from repro.faults import FaultProfile
from repro.impls import IMPLEMENTATION_ORDER
from repro.net.topology import Network, Node
from repro.report import Table, line_chart
from repro.tcp.connection import TcpOptions
from repro.units import KB, MB, fmt_bytes, log2_sizes

#: the paper's full x axis
FULL_SIZES = tuple(log2_sizes(KB, 64 * MB))
#: CI subset: one point per decade-ish, keeping the 128 kB dip region
FAST_SIZES = (KB, 16 * KB, 128 * KB, 256 * KB, MB, 8 * MB, 64 * MB)


def figure_result(
    experiment_id: str,
    title: str,
    paper_ref: str,
    curves: dict[str, PingPongCurve],
    paper_note: str,
) -> ExperimentResult:
    sizes = next(iter(curves.values())).sizes
    table = Table(
        ["size"] + list(curves), title=f"{title} — MPI bandwidth (Mbps)"
    )
    rows = []
    for nbytes in sizes:
        cells = [fmt_bytes(nbytes)]
        row = {"nbytes": nbytes}
        for label, curve in curves.items():
            bw = curve.bandwidth_at(nbytes)
            cells.append(bw)
            row[label] = bw
        table.add_row(cells)
        rows.append(row)
    chart = line_chart(
        {
            label: [(p.nbytes, p.max_bandwidth_mbps) for p in curve.points]
            for label, curve in curves.items()
        },
        title=title,
        x_labels=[fmt_bytes(s) for s in sizes],
        y_label="Mbps",
    )
    text = "\n".join([table.render(), "", chart, "", f"paper: {paper_note}"])
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        paper_ref=paper_ref,
        rows=rows,
        text=text,
    )


#: label of the raw-TCP reference curve, beside the implementations' names
TCP_CURVE = "tcp"


def pingpong_curve(
    env: GridEnvironment,
    curve: str,
    network: Network,
    node_a: Node,
    node_b: Node,
    sizes: Sequence[int],
    repeats: int,
    fault_profile: Optional[FaultProfile] = None,
) -> PingPongCurve:
    """One pingpong sweep in environment ``env``: raw TCP (``curve`` is
    :data:`TCP_CURVE`) or the implementation registered as ``curve``, with
    ``fault_profile`` on its connections when one is given."""
    if curve == TCP_CURVE:
        options = TcpOptions(fault_profile=fault_profile)
        return tcp_pingpong(
            network, node_a, node_b, sizes, repeats, sysctls=env.sysctls, options=options
        )
    impl = env.impl(curve)
    if fault_profile is not None:
        impl = impl.with_fault_profile(fault_profile)
    return mpi_pingpong(network, impl, node_a, node_b, sizes, repeats, sysctls=env.sysctls)


# --- sharding (see repro.experiments.base) ---------------------------------------
def run_curve_shard(
    where: str,
    env_name: str,
    curve: str,
    fast: bool = False,
) -> dict:
    """Worker-side shard: one bandwidth curve (``curve`` is
    :data:`TCP_CURVE` or an implementation registry name).

    The curve runs in its own simulation ``Environment`` on a fresh
    ``pingpong_pair`` topology, so its points do not depend on which
    process computes it, nor on which curves ran before.
    """
    sizes = FAST_SIZES if fast else FULL_SIZES
    repeats = 20 if fast else 100
    env = get_environment(env_name)
    net, a, b = pingpong_pair(where)
    result = pingpong_curve(env, curve, net, a, b, sizes, repeats)
    return {
        "label": result.label,
        "points": [[p.nbytes, p.min_rtt, p.max_bandwidth_mbps] for p in result.points],
    }


def curve_from_payload(payload: dict) -> PingPongCurve:
    return PingPongCurve(
        payload["label"],
        [PingPongPoint(int(n), rtt, bw) for n, rtt, bw in payload["points"]],
    )


@dataclass(frozen=True)
class PingPongFigure:
    """Descriptor backing one bandwidth figure: its shard hooks."""

    experiment_id: str
    title: str
    paper_ref: str
    where: str
    env_name: str
    paper_note: str

    def shards(self, fast: bool = False) -> list[ShardSpec]:
        labels = (TCP_CURVE, *IMPLEMENTATION_ORDER)
        return [
            ShardSpec(
                task_id=f"pingpong/{self.where}/{self.env_name}/{label}",
                runner="repro.experiments.pingpong_common:run_curve_shard",
                params={"where": self.where, "env_name": self.env_name, "curve": label},
            )
            for label in labels
        ]

    def merge(self, payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
        # Legend order: TCP first, then the implementations in paper order.
        curves: dict[str, PingPongCurve] = {}
        for label in (TCP_CURVE, *IMPLEMENTATION_ORDER):
            task_id = f"pingpong/{self.where}/{self.env_name}/{label}"
            curve = curve_from_payload(payloads[task_id])
            curves[curve.label] = curve
        return figure_result(
            self.experiment_id, self.title, self.paper_ref, curves, self.paper_note
        )

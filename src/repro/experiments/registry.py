"""Experiment registry: id -> runner, and every experiment's shard plan.

An experiment with ``shards``/``merge`` hooks is its own plan.  One that
defines ``run`` is a one-shard plan, ``experiment/<id>``, whose runner
(:func:`run_whole`) runs it whole, so the campaign runner knows a single
kind of task: the shard.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ExperimentError
from repro.experiments import (
    coll_hier,
    faults,
    fig3,
    fig5,
    fig6,
    fig7,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.obs import runtime as _obs

#: id -> defining module (or module-like namespace: ``experiments.faults``
#: hosts two experiments).  An entry either defines ``run`` (a one-shard
#: plan) or the ``shards``/``merge`` hooks (its own shard plan).
MODULES: dict[str, Any] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "fig3": fig3,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "faults_pingpong": faults.faults_pingpong,
    "faults_cg": faults.faults_cg,
    "coll_hier": coll_hier,
}


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    try:
        return EXPERIMENTS[experiment_id.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; have {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(experiment_id: str, fast: bool = False) -> ExperimentResult:
    return get_experiment(experiment_id)(fast=fast)


def clear_memos() -> None:
    """No-op: no experiment keeps an in-process memo any more.

    Kept only because ``bench/tests/test_bench.py`` still calls it; the
    next change to the benchmark harness drops that call and this with it.
    """


@dataclass(frozen=True)
class ShardPlan:
    """Shard decomposition of one experiment (see repro.experiments.base)."""

    experiment_id: str
    shards: tuple[ShardSpec, ...]
    #: ``merge(payloads, fast=...) -> ExperimentResult``; runs in the parent
    merge: Callable[..., ExperimentResult]


def run_whole(experiment_id: str, fast: bool = False) -> dict[str, Any]:
    """Shard runner of an experiment that defines ``run``: the whole run."""
    result = get_experiment(experiment_id)(fast=fast)
    return {
        "title": result.title,
        "paper_ref": result.paper_ref,
        "rows": result.rows,
        "text": result.text,
    }


def _merge_whole(
    experiment_id: str, payloads: dict[str, Any], fast: bool = False
) -> ExperimentResult:
    return ExperimentResult(experiment_id, **payloads[f"experiment/{experiment_id}"])


def get_shard_plan(experiment_id: str, fast: bool = False) -> ShardPlan:
    """The experiment's shard decomposition.

    A module with ``shards``/``merge`` hooks (see
    :mod:`repro.experiments.base`) is its own plan.  Every other
    experiment — one defining ``run``, or one tests register directly in
    :data:`EXPERIMENTS` — is one shard, ``experiment/<id>``, that runs it
    whole.
    """
    experiment_id = experiment_id.lower()
    module = MODULES.get(experiment_id)
    shards = getattr(module, "shards", None)
    if shards is not None:
        return ShardPlan(experiment_id, tuple(shards(fast=fast)), module.merge)
    get_experiment(experiment_id)  # raise ExperimentError for unknown ids
    whole = ShardSpec(
        task_id=f"experiment/{experiment_id}",
        runner=f"{__name__}:run_whole",
        params={"experiment_id": experiment_id},
    )
    return ShardPlan(
        experiment_id, (whole,), functools.partial(_merge_whole, experiment_id)
    )


def run_plan(experiment_id: str, fast: bool = False) -> ExperimentResult:
    """Run an experiment's shard plan in this process: every shard, then merge.

    Each shard records telemetry into the track named after its
    ``task_id`` — the track a campaign's shard worker records into.
    """
    plan = get_shard_plan(experiment_id, fast)
    payloads: dict[str, Any] = {}
    for shard in plan.shards:
        with _obs.track(shard.task_id):
            payloads[shard.task_id] = shard.resolve()(fast=fast, **shard.params)
    return plan.merge(payloads, fast=fast)


#: id -> ``fn(fast=False) -> ExperimentResult``
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    experiment_id: getattr(module, "run", None)
    or functools.partial(run_plan, experiment_id)
    for experiment_id, module in MODULES.items()
}

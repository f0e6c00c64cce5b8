"""Experiment registry: id -> runner, plus the shard-plan lookup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

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
    npb_runs,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.npb import suite as npb_suite

#: id -> defining module (or module-like namespace: ``experiments.faults``
#: hosts two experiments); the entry's ``run`` is the experiment, and its
#: optional ``shards``/``merge`` hooks are the sharding protocol
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

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    experiment_id: module.run for experiment_id, module in MODULES.items()
}


def experiment_module(experiment_id: str) -> Optional[str]:
    """Dotted module defining ``experiment_id`` — the dependency root for
    its cache key — or ``None`` for ids injected directly into
    :data:`EXPERIMENTS` (tests), which fall back to whole-tree digests.

    Works for both real modules (``fig3``) and module-like namespaces
    (``experiments.faults`` hosts two experiments whose ``run`` functions
    carry the defining module).
    """
    entry = MODULES.get(experiment_id.lower())
    if entry is None:
        return None
    name = getattr(entry, "__name__", None)
    if isinstance(name, str) and "." in name:
        return name
    run = getattr(entry, "run", None)
    return getattr(run, "__module__", None)


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
    """Drop every in-process memo: each experiment module's and the shared
    NPB ones (``clear_memo`` hooks).

    The sanitizers call this before each instrumented run: a warm memo
    replays no simulation, so a trace or schedule projection captured over
    a memo hit would be vacuously empty and diverge from a cold run's
    (see ``table6.ray2mesh_results``).  Campaign runners never call this —
    serial table7 reusing table6's memo is intentional.
    """
    for module in (*MODULES.values(), npb_runs, npb_suite):
        clear = getattr(module, "clear_memo", None)
        if clear is not None:
            clear()


@dataclass(frozen=True)
class ShardPlan:
    """Shard decomposition of one experiment (see repro.experiments.base)."""

    experiment_id: str
    shards: tuple[ShardSpec, ...]
    #: ``merge(payloads, fast=...) -> ExperimentResult``; runs in the parent
    merge: Callable[..., ExperimentResult]


def get_shard_plan(experiment_id: str, fast: bool = False) -> Optional[ShardPlan]:
    """The experiment's shard decomposition, or ``None`` if it only runs whole.

    An experiment opts in by defining module-level ``shards``/``merge``
    hooks next to its ``run`` (see :mod:`repro.experiments.base`).
    Experiments registered directly in :data:`EXPERIMENTS` (tests do this)
    have no module entry and run whole.
    """
    get_experiment(experiment_id)  # raise ExperimentError for unknown ids
    module = MODULES.get(experiment_id.lower())
    shards = getattr(module, "shards", None)
    merge = getattr(module, "merge", None)
    if shards is None or merge is None:
        return None
    return ShardPlan(
        experiment_id=experiment_id.lower(),
        shards=tuple(shards(fast=fast)),
        merge=merge,
    )

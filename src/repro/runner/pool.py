"""Experiment orchestrator: shard plans over a fork-context process pool.

Execution model
---------------
A campaign is a list of :class:`ExperimentSpec`.  Every experiment
contributes the shards of its plan
(:func:`repro.experiments.registry.get_shard_plan`) as tasks,
deduplicated campaign-wide by ``task_id`` (table6 and table7 share the
four ray2mesh runs; figs 10/12/13 share the grid16 NPB points).  An
experiment that defines ``run`` is one shard, ``experiment/<id>``.  Each
shard is looked up in the result cache; only the misses run.  Shards
merge back in the parent, so an experiment is merged from its shards
every time, cached or not; it counts as cached when every one of its
shards hit.  That plan is the same at every ``jobs``; only the executor
differs.  ``jobs <= 1`` runs the tasks one after another in this
process; ``jobs > 1`` submits them, longest-estimated first, to one
:class:`concurrent.futures.ProcessPoolExecutor` of ``jobs`` forked
workers, each of which runs shard after shard.

The shard is the only thing the cache holds.  A shard is stored by the
function that computed it — the parent passes its cache root and source
digest down (the digest is computed exactly once per campaign) — so a
completed shard survives even a parent crash and is never recomputed.

Every unit of work runs under :func:`repro.sim.core.trace_capture`, the
same hook the determinism sanitizer uses, so each artifact carries an
event-trace hash.  An experiment records the canonical combination of
its shard hashes and its rendered text (:func:`_combine_trace_hashes`),
so the hash is the same at every ``jobs``.

Failures
--------
A shard that raises fails only the experiments that depend on it; its
exception is surfaced as ``Type: message`` and the rest of the campaign
completes.  Nothing times out: a hung shard hangs the campaign at every
``jobs``.  A worker that dies without reporting (segfault, ``os._exit``,
an out-of-memory kill) breaks the pool: every shard still unfinished
then fails with a message that says a worker died, while the shards
that had finished keep their results.  A shard is deterministic, so it
is never retried.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.experiments.base import ShardSpec
from repro.obs.runtime import TelemetryConfig, merge_payloads
from repro.obs.runtime import session as telemetry_session
from repro.runner.cache import ResultCache
from repro.sim.core import EventTraceHasher, trace_capture

#: fork keeps workers cheap and lets tests inject registry entries; fall
#: back to the platform default where fork does not exist (Windows).
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None


@dataclass(frozen=True)
class ExperimentSpec:
    """One requested experiment run."""

    experiment_id: str
    fast: bool = False

    @property
    def key(self) -> tuple[str, bool]:
        return (self.experiment_id, self.fast)


@dataclass
class ExperimentRun:
    """Outcome of one experiment within a campaign."""

    experiment_id: str
    fast: bool
    ok: bool
    #: every shard of the experiment hit the cache in this campaign
    cached: bool = False
    #: aggregate task seconds: the sum over the experiment's shards,
    #: including shards shared with other experiments
    wall_s: float = 0.0
    text: str = ""
    rows: list = field(default_factory=list)
    title: str = ""
    paper_ref: str = ""
    trace_hash: str = ""
    trace_events: int = 0
    error: Optional[str] = None
    #: merged telemetry payload (``repro.obs``); present only when the
    #: campaign ran with telemetry enabled.  Deliberately NOT part of
    #: :meth:`artifact`: the written artifacts must stay byte-identical
    #: with telemetry on or off.
    telemetry: Optional[dict] = None
    #: compact span-analytics summary (``repro.obs.aggregate.rollup``)
    #: derived from ``telemetry``; recorded into the campaign manifest so
    #: traced campaigns leave a greppable footprint of where the ticks
    #: went.  Like ``telemetry``, never part of :meth:`artifact`.
    rollup: Optional[dict] = None

    def artifact(self) -> dict[str, Any]:
        """The structured JSON artifact written under ``<out>/json/``."""
        return {
            "experiment_id": self.experiment_id,
            "fast": self.fast,
            "ok": self.ok,
            "wall_s": round(self.wall_s, 3),
            "trace_hash": self.trace_hash,
            "trace_events": self.trace_events,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "rows": self.rows,
            "text": self.text,
            "error": self.error,
        }


@dataclass
class CampaignResult:
    """Everything one ``run_campaign`` call did."""

    runs: list[ExperimentRun]
    wall_s: float
    jobs: int
    cache_enabled: bool
    #: the campaign recorded telemetry (and therefore bypassed the cache)
    telemetry_enabled: bool = False
    #: per-shard worker wall seconds, by task_id (cached shards report the
    #: wall of the run that originally computed them) — the cost model's
    #: training data, recorded into the manifest
    shard_walls: dict[str, float] = field(default_factory=dict)
    #: result-cache traffic: parent-side lookups plus every store the
    #: campaign performed (including worker-side shard stores)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0

    @property
    def failures(self) -> list[ExperimentRun]:
        return [run for run in self.runs if not run.ok]

    @property
    def cached(self) -> list[ExperimentRun]:
        return [run for run in self.runs if run.cached]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        done = len(self.runs) - len(self.failures)
        parts = [
            f"{done}/{len(self.runs)} experiments ok",
            f"{len(self.cached)} cached",
            f"jobs={self.jobs}",
            f"{self.wall_s:.1f}s wall",
        ]
        if self.failures:
            failed = ", ".join(run.experiment_id for run in self.failures)
            parts.append(f"FAILED: {failed}")
        return "; ".join(parts)

    def cache_summary(self) -> str:
        """One-line cache traffic report (printed by ``repro run``)."""
        if not self.cache_enabled:
            return "cache: disabled"
        return (
            f"cache: {self.cache_hits} hit{'s' if self.cache_hits != 1 else ''}, "
            f"{self.cache_misses} miss{'es' if self.cache_misses != 1 else ''}, "
            f"{self.cache_stores} stored"
        )


# --- task functions (module-level: picklable by reference) ---------------------
def _shard_worker(
    shard: ShardSpec,
    fast: bool,
    cache_root: str = "",
    cache_digest: str = "",
    cache_enabled: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
) -> dict:
    """Execute one shard under trace capture; returns its artifact.

    With ``telemetry`` set, a session records the shard into the track
    named after its task_id — the track ``registry.run_plan`` switches to.
    When the parent hands down its cache coordinates, the artifact is
    stored *here*, where it was computed — the parent passes its
    already-computed source digest (computed once per campaign), and a
    completed shard survives even if the parent dies before collecting it.
    """
    runner = shard.resolve()
    started = time.monotonic()  # host-side timing, not sim state  # repro: noqa=DET002
    sess = None
    with trace_capture() as hasher:
        if telemetry is None:
            payload = runner(fast=fast, **shard.params)
        else:
            with telemetry_session(telemetry, default_track=shard.task_id) as sess:
                payload = runner(fast=fast, **shard.params)
    elapsed = time.monotonic() - started  # repro: noqa=DET002
    artifact = {
        "payload": payload,
        "wall_s": round(elapsed, 3),
        "trace_hash": hasher.hexdigest(),
        "trace_events": hasher.events,
    }
    if sess is not None:
        artifact["telemetry"] = sess.to_payload()
    if cache_enabled and cache_root:
        cache = ResultCache(root=cache_root, digest=cache_digest, enabled=True)
        cache.store(shard.task_id, fast, artifact)
    return artifact


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _attempt(target: Callable[..., Any], args: tuple) -> tuple[str, Any]:
    """Run one task where it is executed: ``("ok", result)``, or
    ``("error", "Type: message")`` when it raises.

    On the pool the exception becomes text inside the worker, so one that
    would not pickle back cannot break the pool.
    """
    try:
        return ("ok", target(*args))
    except Exception as exc:  # noqa: BLE001 - surfaced in the campaign result
        return ("error", _describe_error(exc))


@dataclass
class _Task:
    """One unit of work: one shard, keyed ``(task_id, fast)``."""

    key: tuple
    target: Callable[..., Any]
    args: tuple
    label: str


# --- the two executors -----------------------------------------------------------
def _run_inline(tasks: list[_Task]) -> dict[tuple, tuple[str, Any]]:
    """The ``jobs <= 1`` executor: every task in this process, in order."""
    return {task.key: _attempt(task.target, task.args) for task in tasks}


#: the outcome of every shard a dead worker left unfinished
_WORKER_DIED = (
    "error",
    "a worker process died before the shard finished (BrokenProcessPool)",
)


def _run_pool(tasks: list[_Task], jobs: int) -> dict[tuple, tuple[str, Any]]:
    """The ``jobs > 1`` executor: ``tasks`` on ``jobs`` forked workers.

    Outcomes have :func:`_run_inline`'s shape.  The pool dispatches in
    submission order, so the caller's longest-first order is kept.  A
    worker that dies breaks the pool, and every task still unfinished
    then reports :data:`_WORKER_DIED`.
    """
    context = multiprocessing.get_context(_START_METHOD)
    outcomes: dict[tuple, tuple[str, Any]] = {}
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        futures = {}
        try:
            for task in tasks:
                futures[task.key] = pool.submit(_attempt, task.target, task.args)
        except BrokenProcessPool:
            pass  # a worker died already: the unsubmitted tasks fail below
        for task in tasks:
            future = futures.get(task.key)
            try:
                outcome = future.result() if future is not None else _WORKER_DIED
            except BrokenProcessPool:
                outcome = _WORKER_DIED
            except Exception as exc:  # noqa: BLE001 - e.g. a result that will not pickle
                outcome = ("error", _describe_error(exc))
            outcomes[task.key] = outcome
    return outcomes


# --- orchestration ---------------------------------------------------------------
def _failed_run(spec: ExperimentSpec, error: str) -> ExperimentRun:
    return ExperimentRun(
        experiment_id=spec.experiment_id, fast=spec.fast, ok=False, error=error
    )


def _order_by_cost(tasks: list[_Task], estimates: dict[str, float]) -> None:
    """Longest-estimated-first (LPT) dispatch order, in place.

    With FIFO submission the 4-worker makespan was hostage to whichever
    heavyweight (fig10, fig12, the ray2mesh shards) happened to land last;
    sorting by historical wall estimates starts the long poles first so
    the short tail packs in behind them.  Tasks with no history sort
    before everything (an unknown might *be* the long pole); ties break on
    the label so the order is deterministic for a given manifest.
    """
    tasks.sort(key=lambda task: (-estimates.get(task.key[0], math.inf), task.label))


def _run_plans(
    specs: list[ExperimentSpec],
    cache: ResultCache,
    jobs: int,
    progress: Optional[Callable[[str], None]],
    telemetry: Optional[TelemetryConfig] = None,
    estimates: "dict[str, float] | None" = None,
) -> tuple[dict[tuple[str, bool], ExperimentRun], dict[str, float]]:
    """Every experiment's plan: load each shard (deduplicated across the
    campaign), run the misses, then merge each experiment from its shards."""
    from repro.experiments.registry import ShardPlan, get_shard_plan

    runs: dict[tuple[str, bool], ExperimentRun] = {}
    plans: dict[tuple[str, bool], ShardPlan] = {}
    tasks: list[_Task] = []
    submitted: set[tuple] = set()
    #: (shard task_id, fast) -> completed shard artifact
    shard_results: dict[tuple[str, bool], dict] = {}

    for spec in specs:
        try:
            plan = get_shard_plan(spec.experiment_id, spec.fast)
        except Exception as exc:  # noqa: BLE001
            runs[spec.key] = _failed_run(spec, _describe_error(exc))
            continue
        plans[spec.key] = plan
        for shard in plan.shards:
            shard_key = (shard.task_id, spec.fast)
            if shard_key in shard_results or shard_key in submitted:
                continue  # deduplicated across experiments
            cached = cache.load(
                shard.task_id, spec.fast, module=shard.module, spec=shard.cache_spec()
            )
            if cached is not None:
                shard_results[shard_key] = cached
                continue
            submitted.add(shard_key)
            tasks.append(
                _Task(
                    key=shard_key,
                    target=_shard_worker,
                    # The task stores its own artifact: the parent
                    # resolves the shard's dependency-aware digest once and
                    # ships it down, so a worker never walks the tree.
                    args=(
                        shard,
                        spec.fast,
                        str(cache.root),
                        cache.effective_digest(
                            module=shard.module, spec=shard.cache_spec()
                        ),
                        cache.enabled,
                        telemetry,
                    ),
                    label=shard.task_id,
                )
            )

    _order_by_cost(tasks, estimates or {})
    outcomes = _run_inline(tasks) if jobs <= 1 else _run_pool(tasks, jobs)

    for shard_key, (status, payload) in outcomes.items():
        shard_results[shard_key] = (
            payload if status == "ok" else {"error": payload}
        )
        if status == "ok" and cache.enabled:
            # The task stored its own artifact; account for it here so
            # the campaign's store counter covers shard traffic too.
            cache.stores += 1

    shard_walls = {
        task_id: round(float(artifact["wall_s"]), 3)
        for (task_id, _fast), artifact in sorted(shard_results.items())
        if "wall_s" in artifact
    }

    for spec in specs:
        if spec.key not in runs:
            plan = plans[spec.key]
            run = _merge_plan(spec, plan, shard_results)
            # Cached: every shard of the plan hit, none ran in this campaign.
            run.cached = run.ok and submitted.isdisjoint(
                (shard.task_id, spec.fast) for shard in plan.shards
            )
            runs[spec.key] = run
        run = runs[spec.key]
        if progress is not None:
            state = "failed" if not run.ok else ("cached" if run.cached else "ok")
            progress(f"{spec.experiment_id}: {run.wall_s:7.1f}s [{state}]")
    return runs, shard_walls


def _combine_trace_hashes(named_digests: dict[str, str], text: str) -> str:
    """Canonical digest over per-shard digests.

    The shard digests are folded in *sorted shard-key order* (never
    completion order), then the merged rendered text, so the combined hash
    is independent of worker scheduling and value-level divergence in the
    report changes it too.
    """
    hasher = EventTraceHasher()
    for key in sorted(named_digests):
        hasher.update_text(f"{key}|{named_digests[key]}\n")
    if text:
        hasher.update_text(text)
    return hasher.hexdigest()


def _merge_plan(
    spec: ExperimentSpec,
    plan: "Any",
    shard_results: dict[tuple[str, bool], dict],
) -> ExperimentRun:
    payloads: dict[str, Any] = {}
    shard_hashes: dict[str, str] = {}
    shard_telemetry: dict[str, dict] = {}
    wall = 0.0
    events = 0
    failed: list[str] = []
    for shard in plan.shards:
        artifact = shard_results.get((shard.task_id, spec.fast), {})
        if "payload" not in artifact:
            failed.append(f"{shard.task_id} ({artifact.get('error', 'missing')})")
            continue
        payloads[shard.task_id] = artifact["payload"]
        shard_hashes[shard.task_id] = artifact.get("trace_hash", "")
        if artifact.get("telemetry"):
            shard_telemetry[shard.task_id] = artifact["telemetry"]
        wall += float(artifact.get("wall_s", 0.0))
        events += int(artifact.get("trace_events", 0))
    if failed:
        return _failed_run(spec, "shard failure: " + "; ".join(failed))
    try:
        result = plan.merge(payloads, fast=spec.fast)
    except Exception as exc:  # noqa: BLE001
        return _failed_run(spec, f"merge failed: {_describe_error(exc)}")
    return ExperimentRun(
        experiment_id=spec.experiment_id,
        fast=spec.fast,
        ok=True,
        # Shared shard walls are counted into every consumer's wall_s.
        wall_s=wall,
        text=result.text,
        rows=result.rows,
        title=result.title,
        paper_ref=result.paper_ref,
        trace_hash=_combine_trace_hashes(shard_hashes, result.text),
        trace_events=events,
        # Sorted task_id order, independent of shard completion order —
        # the byte-identity of exports across ``jobs`` relies on it.
        telemetry=(
            merge_payloads(
                shard_telemetry[task_id] for task_id in sorted(shard_telemetry)
            )
            if shard_telemetry
            else None
        ),
    )


def run_campaign(
    specs: list[ExperimentSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    out_dir: "Path | str | None" = None,
    progress: Optional[Callable[[str], None]] = None,
    telemetry: Optional[TelemetryConfig] = None,
    estimates: "dict[str, float] | None" = None,
) -> CampaignResult:
    """Run a campaign; never raises for individual experiment failures.

    ``cache`` may be injected (tests use a tmp root / pinned digest);
    otherwise a default :class:`ResultCache` under ``.repro-cache/`` is
    built with ``enabled=use_cache``.  ``jobs <= 1`` runs every task in
    this process; ``jobs > 1`` runs them on a pool of ``jobs`` workers.

    ``estimates`` maps shard ``task_id``s to historical wall seconds; the
    worker pool dispatches longest-estimated-first so the makespan is not
    hostage to a heavyweight landing last.  ``None`` loads the history recorded in
    ``BENCH_experiments.json`` (missing file: every task is unknown and
    the order degrades to the deterministic label order).

    ``telemetry`` turns on the ``repro.obs`` recorder in every task and
    attaches the merged payload to each :class:`ExperimentRun`.  Telemetry
    campaigns bypass the result cache entirely — cached artifacts carry no
    telemetry, and a half-cached campaign would return half-empty traces.
    """
    started = time.monotonic()  # host-side timing, not sim state  # repro: noqa=DET002
    if telemetry is not None:
        cache = ResultCache(enabled=False, digest="")
    elif cache is None:
        cache = ResultCache(enabled=use_cache, digest="" if not use_cache else None)
    if estimates is None and jobs > 1:
        from repro.runner.manifest import load_task_estimates

        estimates = load_task_estimates()

    runs, shard_walls = _run_plans(
        list(dict.fromkeys(specs)), cache, jobs, progress, telemetry, estimates
    )

    ordered = [runs[spec.key] for spec in specs]
    if telemetry is not None and telemetry.spans:
        from repro.obs.aggregate import rollup as span_rollup

        for run in ordered:
            if run.telemetry is not None:
                run.rollup = span_rollup(run.telemetry)
    elapsed = time.monotonic() - started  # repro: noqa=DET002
    campaign = CampaignResult(
        runs=ordered,
        wall_s=elapsed,
        jobs=jobs,
        cache_enabled=cache.enabled,
        telemetry_enabled=telemetry is not None,
        shard_walls=shard_walls,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_stores=cache.stores,
    )
    if cache.enabled:
        cache.write_stats(
            {
                "jobs": jobs,
                "experiments": len(campaign.runs),
                "cached_experiments": len(campaign.cached),
            }
        )
    if out_dir is not None:
        write_reports(campaign, Path(out_dir))
    return campaign


def write_reports(campaign: CampaignResult, out_dir: Path) -> None:
    """``<id>.txt`` rendered reports + ``json/<id>.json`` artifacts.

    The text format (report, blank line, wall/fast footer) is the one the
    committed goldens under ``results/`` use; CI diffs these files with
    the footer line ignored.
    """
    import json

    json_dir = out_dir / "json"
    json_dir.mkdir(parents=True, exist_ok=True)
    for run in campaign.runs:
        text_path = out_dir / f"{run.experiment_id}.txt"
        json_path = json_dir / f"{run.experiment_id}.json"
        if not run.ok:
            # Drop whatever a previous run left behind, so a failure never
            # leaves a stale report that looks current.
            text_path.unlink(missing_ok=True)
            json_path.unlink(missing_ok=True)
            continue
        text_path.write_text(
            run.text + f"\n\n[{run.wall_s:.1f}s wall, fast={run.fast}]\n",
            encoding="utf-8",
        )
        json_path.write_text(
            json.dumps(run.artifact(), indent=1), encoding="utf-8"
        )

"""Runner subsystem: cache semantics, parallel/serial identity, failures.

The fake experiments below are injected into the live registry dict; the
pool uses the fork start method (skipped where unavailable), so worker
processes inherit the injected entries without pickling the functions.
"""

import json
import logging
import multiprocessing
import os
import sys
import time

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import get_shard_plan
from repro.runner import (
    ExperimentSpec,
    ResultCache,
    record_campaign,
    run_campaign,
)
from repro.runner.cache import runtime_salt, source_digest

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests require the fork start method",
)


def _tiny_experiment(fast=False):
    return ExperimentResult("tiny", "Tiny", "Table 0", [{"x": 1}], "tiny report")


def _raising_experiment(fast=False):
    raise RuntimeError("synthetic experiment failure")


def _crashing_experiment(fast=False):
    os._exit(3)  # simulate a worker segfault: no exception, no cleanup


@pytest.fixture()
def tiny(monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "tiny", _tiny_experiment)
    return "tiny"


# --- cache semantics --------------------------------------------------------------
def test_cache_miss_then_hit(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    specs = [ExperimentSpec(tiny, fast=True)]

    first = run_campaign(specs, cache=cache)
    assert first.ok and not first.runs[0].cached
    assert first.runs[0].trace_hash  # sanitizer hook ran

    second = run_campaign(specs, cache=cache)
    assert second.ok and second.runs[0].cached
    assert second.runs[0].text == first.runs[0].text
    assert second.runs[0].trace_hash == first.runs[0].trace_hash


def test_source_digest_invalidates_cache(tmp_path, tiny):
    specs = [ExperimentSpec(tiny, fast=True)]
    run_campaign(specs, cache=ResultCache(root=tmp_path, digest="digest-a"))
    # Same tree, same digest -> hit; changed source digest -> miss.
    hit = run_campaign(specs, cache=ResultCache(root=tmp_path, digest="digest-a"))
    miss = run_campaign(specs, cache=ResultCache(root=tmp_path, digest="digest-b"))
    assert hit.runs[0].cached
    assert not miss.runs[0].cached


def test_fast_flag_is_part_of_the_key(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    full = run_campaign([ExperimentSpec(tiny, fast=False)], cache=cache)
    assert not full.runs[0].cached


def test_disabled_cache_never_hits(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a", enabled=False)
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    again = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert not again.runs[0].cached
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_cache_roundtrips_infinities(tmp_path):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    cache.store("npb/test/point", True, {"payload": {"times": {"a": float("inf")}}})
    loaded = cache.load("npb/test/point", True)
    assert loaded["payload"]["times"]["a"] == float("inf")


def test_source_digest_changes_with_content(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    before = source_digest(tmp_path)
    (tmp_path / "m.py").write_text("x = 2\n")
    assert source_digest(tmp_path) != before


def test_runtime_salt_is_the_interpreter_minor_version():
    # No shard result depends on numpy, so its version is not part of a key.
    assert runtime_salt() == f"py={sys.version_info[0]}.{sys.version_info[1]}"


# --- parallel == serial -----------------------------------------------------------
@needs_fork
def test_sharded_parallel_output_is_byte_identical_to_serial(tmp_path):
    serial = run_campaign(
        [ExperimentSpec("fig6", fast=True)], jobs=1, use_cache=False
    ).runs[0]
    campaign = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        jobs=4,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        out_dir=tmp_path / "out",
    )
    run = campaign.runs[0]
    assert serial.ok and run.ok
    assert serial.text == run_experiment("fig6", fast=True).text
    # One execution path: --jobs 1 records what --jobs 4 records.
    assert serial.trace_events > 0
    assert (run.text, run.trace_hash, run.trace_events) == (
        serial.text,
        serial.trace_hash,
        serial.trace_events,
    )
    # the written report is the golden format: text + wall/fast footer
    written = (tmp_path / "out" / "fig6.txt").read_text()
    body, footer = written.rsplit("\n\n", 1)
    assert body == serial.text
    assert footer.startswith("[") and "s wall, fast=True]" in footer
    # warm-cache replay returns the same bytes
    warm = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        jobs=4,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert warm.runs[0].cached and warm.runs[0].text == serial.text


#: task_ids the shared-shard runner below was called with (in-process only)
_SHARED_CALLS: list[str] = []


def _shared_shard(tag: str, fast: bool = False) -> dict:
    _SHARED_CALLS.append(tag)
    return {"tag": tag}


def _plan_entry(experiment_id: str, tags: tuple[str, ...]):
    """A sharded registry entry whose shards are ``shared/<tag>``."""
    from types import SimpleNamespace

    from repro.experiments.base import ShardSpec

    def shards(fast=False):
        return [
            ShardSpec(
                task_id=f"shared/{tag}",
                runner=f"{__name__}:_shared_shard",
                params={"tag": tag},
            )
            for tag in tags
        ]

    def merge(payloads, fast=False):
        text = " ".join(payloads[f"shared/{tag}"]["tag"] for tag in tags)
        return ExperimentResult(experiment_id, experiment_id, "-", [], text)

    return SimpleNamespace(shards=shards, merge=merge)


@needs_fork
def test_serial_campaign_runs_a_shared_shard_once(monkeypatch):
    from repro.experiments import registry

    monkeypatch.setitem(registry.MODULES, "left", _plan_entry("left", ("a", "b")))
    monkeypatch.setitem(registry.MODULES, "right", _plan_entry("right", ("b", "c")))
    specs = [ExperimentSpec("left", fast=True), ExperimentSpec("right", fast=True)]

    _SHARED_CALLS.clear()
    serial = run_campaign(specs, jobs=1, use_cache=False)
    assert serial.ok, serial.summary()
    assert sorted(_SHARED_CALLS) == ["a", "b", "c"]  # "b" ran once, for both
    assert [run.text for run in serial.runs] == ["a b", "b c"]

    parallel = run_campaign(specs, jobs=2, use_cache=False)
    assert parallel.ok, parallel.summary()
    assert sorted(serial.shard_walls) == sorted(parallel.shard_walls) == [
        "shared/a",
        "shared/b",
        "shared/c",
    ]
    for ours, theirs in zip(serial.runs, parallel.runs):
        assert (ours.text, ours.trace_hash) == (theirs.text, theirs.trace_hash)


def test_merge_renders_json_round_tripped_payloads_identically():
    """A cached shard payload has been through JSON; merging it must render
    what merging the in-memory payload renders, ``inf`` (a DNF) included."""
    from repro.experiments import fig10, fig12, fig13, npb_runs, table6, table7
    from repro.impls import IMPLEMENTATION_ORDER

    npb_payloads = {
        f"npb/{placement}/{bench}": {
            "times": {
                name: float("inf") if (i, j) == (2, 3) else 10.0 + i + 0.1 * j
                for j, name in enumerate(IMPLEMENTATION_ORDER)
            }
        }
        for placement in ("grid16", "cluster16", "cluster4")
        for i, bench in enumerate(npb_runs.NPB_ORDER)
    }
    ray_payloads = {
        f"ray2mesh/{site}": {
            "rays_per_cluster": {s: 1000 + 10 * i + j for j, s in enumerate(table6.SITES)},
            "comp_time": 100.0 + i,
            "merge_time": 50.0 + i,
            "total_time": 150.0 + 2 * i,
        }
        for i, site in enumerate(table6.SITES)
    }
    for modules, payloads in (
        ((fig10, fig12, fig13), npb_payloads),
        ((table6, table7), ray_payloads),
    ):
        round_tripped = json.loads(json.dumps(payloads))
        for module in modules:
            merged = module.merge(payloads, fast=True).text
            assert module.merge(round_tripped, fast=True).text == merged
    dnf = fig10.merge(npb_payloads, fast=True).rows[2][IMPLEMENTATION_ORDER[3]]
    assert dnf == 0.0  # the inf time rendered as a DNF


def test_npb_merge_is_identical_to_serial(monkeypatch):
    # Fake the per-point NPB time so neither path simulates anything; the
    # test pins merge() over cached (JSON round-tripped) shard payloads to
    # the serial in-process run, value for value.
    from repro.experiments import fig10, fig12, npb_runs
    from repro.impls import IMPLEMENTATION_ORDER

    def fake_time(bench, impl_name, placement_kind, **kwargs):
        i = npb_runs.NPB_ORDER.index(bench)
        j = IMPLEMENTATION_ORDER.index(impl_name)
        return float("inf") if (i, j) == (2, 3) else 10.0 + i + 0.1 * j

    monkeypatch.setattr(npb_runs, "npb_time", fake_time)

    for experiment_id, module in (("fig10", fig10), ("fig12", fig12)):
        payloads = {
            shard.task_id: npb_runs.run_npb_point_shard(fast=True, **shard.params)
            for shard in module.shards(fast=True)
        }
        # JSON round-trip, as the shard cache would do
        payloads = json.loads(json.dumps(payloads))
        serial = run_experiment(experiment_id, fast=True)
        assert module.merge(payloads, fast=True).text == serial.text


def test_ray2mesh_merge_is_identical_to_serial(monkeypatch):
    from types import SimpleNamespace

    from repro.experiments import table6, table7

    fake = {
        site: SimpleNamespace(
            rays_per_cluster={s: 1000 + 10 * i + j for j, s in enumerate(table6.SITES)},
            comp_time=100.0 + i,
            merge_time=50.0 + i,
            total_time=150.0 + 2 * i,
        )
        for i, site in enumerate(table6.SITES)
    }
    monkeypatch.setattr(
        table6, "run_ray2mesh", lambda impl, master_site, **kwargs: fake[master_site]
    )
    payloads = {
        f"ray2mesh/{site}": {
            "rays_per_cluster": fake[site].rays_per_cluster,
            "comp_time": fake[site].comp_time,
            "merge_time": fake[site].merge_time,
            "total_time": fake[site].total_time,
        }
        for site in table6.SITES
    }
    payloads = json.loads(json.dumps(payloads))
    assert table6.merge(payloads, fast=True).text == run_experiment("table6", fast=True).text
    assert table7.merge(payloads, fast=True).text == run_experiment("table7", fast=True).text


def test_shard_plans_dedupe_across_experiments():
    t6 = [s.task_id for s in get_shard_plan("table6", fast=True).shards]
    t7 = [s.task_id for s in get_shard_plan("table7", fast=True).shards]
    assert t6 == t7  # one ray2mesh run per site feeds both tables

    grid16 = {s.task_id for s in get_shard_plan("fig10", fast=True).shards}
    assert grid16 <= {s.task_id for s in get_shard_plan("fig12", fast=True).shards}
    assert grid16 <= {s.task_id for s in get_shard_plan("fig13", fast=True).shards}


def test_every_experiment_is_a_shard_plan(tiny):
    from repro.experiments import registry

    for experiment_id in sorted(EXPERIMENTS):
        plan = get_shard_plan(experiment_id, fast=True)
        assert plan.experiment_id == experiment_id and plan.shards, experiment_id
        if hasattr(registry.MODULES.get(experiment_id), "run"):
            task_ids = tuple(shard.task_id for shard in plan.shards)
            assert task_ids == (f"experiment/{experiment_id}",)
    # An entry injected into the registry dict alone runs as a one-shard
    # plan too, and its merge rebuilds the experiment's own result.
    plan = get_shard_plan(tiny, fast=True)
    (shard,) = plan.shards
    assert shard.task_id == "experiment/tiny"
    payload = shard.resolve()(fast=True, **shard.params)
    merged = plan.merge({shard.task_id: payload}, fast=True)
    assert (merged.title, merged.paper_ref, merged.rows, merged.text) == (
        "Tiny",
        "Table 0",
        [{"x": 1}],
        "tiny report",
    )


# --- failure surfacing ------------------------------------------------------------
def test_raising_experiment_fails_without_aborting_campaign(tmp_path, monkeypatch, tiny):
    monkeypatch.setitem(EXPERIMENTS, "boom", _raising_experiment)
    campaign = run_campaign(
        [ExperimentSpec("boom", fast=True), ExperimentSpec(tiny, fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert not campaign.ok
    boom, tiny_run = campaign.runs
    assert not boom.ok and "RuntimeError" in boom.error
    assert tiny_run.ok  # the loop kept going
    assert "FAILED: boom" in campaign.summary()
    # failures are never cached
    rerun = run_campaign(
        [ExperimentSpec("boom", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert not rerun.runs[0].cached


@needs_fork
def test_raising_experiment_fails_on_the_pool_too(tmp_path, monkeypatch, tiny):
    monkeypatch.setitem(EXPERIMENTS, "boom", _raising_experiment)
    campaign = run_campaign(
        [ExperimentSpec("boom", fast=True), ExperimentSpec(tiny, fast=True)],
        jobs=2,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert not campaign.ok
    assert "RuntimeError" in campaign.runs[0].error
    assert campaign.runs[1].ok


@needs_fork
def test_worker_crash_surfaces_as_failure_not_hang(tmp_path, monkeypatch, tiny):
    monkeypatch.setitem(EXPERIMENTS, "crash", _crashing_experiment)
    campaign = run_campaign(
        [ExperimentSpec("crash", fast=True), ExperimentSpec(tiny, fast=True)],
        jobs=2,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    # The campaign returns: the dead worker broke the pool, and every
    # shard it left unfinished fails instead of hanging.
    assert not campaign.ok
    crash, tiny_run = campaign.runs
    assert "experiment/crash" in crash.error  # BrokenProcessPool, surfaced as text
    assert "worker process died" in crash.error
    # The healthy shard either finished first or failed as collateral.
    assert tiny_run.ok or "worker process died" in tiny_run.error


@needs_fork
def test_workers_store_with_the_parent_digest(tmp_path, tiny):
    # The parent computes source_digest() once and ships it to workers; a
    # worker recomputing its own digest would be both slow and racy.
    cache = ResultCache(root=tmp_path, digest="pinned-digest")
    campaign = run_campaign([ExperimentSpec(tiny, fast=True)], jobs=2, cache=cache)
    assert campaign.ok
    assert _shard_path(cache, tiny).exists()
    rerun = run_campaign([ExperimentSpec(tiny, fast=True)], jobs=2, cache=cache)
    assert rerun.runs[0].cached


def _shard_path(cache, experiment_id, tag=None):
    """Where ``cache`` keeps a shard of the experiment's fast plan: its only
    shard, or the one whose task id ends in ``/<tag>``."""
    shards = get_shard_plan(experiment_id, fast=True).shards
    (shard,) = [s for s in shards if tag is None or s.task_id.endswith(f"/{tag}")]
    return cache.path(shard.task_id, True, module=shard.module, spec=shard.cache_spec())


# --- cache corruption: miss + evict + warn ----------------------------------------
def test_corrupt_cache_entry_is_a_miss_and_gets_evicted(tmp_path, caplog):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    cache.store("experiment/tiny", True, {"ok": True})
    path = cache.path("experiment/tiny", True)
    path.write_text("{ truncated garbage", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
        assert cache.load("experiment/tiny", True) is None
    assert not path.exists()  # evicted, cannot shadow the recomputed entry
    assert "evicted corrupt cache entry" in caplog.text
    assert "malformed JSON" in caplog.text
    # the slot is reusable immediately
    cache.store("experiment/tiny", True, {"ok": True})
    assert cache.load("experiment/tiny", True) == {"ok": True}


def test_wrong_shape_cache_document_is_evicted(tmp_path, caplog):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    path = cache.path("experiment/tiny", True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": 1, "artifact": "not a dict"}))
    with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
        assert cache.load("experiment/tiny", True) is None
    assert not path.exists()
    assert "unexpected document shape" in caplog.text


def test_corrupt_entry_forces_recompute_then_reheals(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    _shard_path(cache, tiny).write_text("not json at all")
    rerun = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert rerun.runs[0].ok
    assert not rerun.runs[0].cached  # corruption degraded to a recompute
    healed = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert healed.runs[0].cached


# --- front-ends -------------------------------------------------------------------
def test_cli_run_reports_failures_with_exit_code(tmp_path, monkeypatch, tiny, capsys):
    from repro.cli import main

    monkeypatch.setitem(EXPERIMENTS, "boom", _raising_experiment)
    monkeypatch.chdir(tmp_path)  # manifest + cache land in the tmp dir
    # A stale report from an earlier run must not survive the failure.
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "boom.txt").write_text("stale report\n")
    rc = main(["run", "boom", tiny, "--full", "--out", str(tmp_path / "out")])
    assert rc == 1  # non-zero, but the sweep kept going
    captured = capsys.readouterr()
    assert "[tiny:" in captured.out
    assert "[boom: FAILED" in captured.err and "RuntimeError" in captured.err
    assert (tmp_path / "out" / "tiny.txt").exists()
    assert not (tmp_path / "out" / "boom.txt").exists()
    assert not (tmp_path / "BENCH_experiments.json").exists()  # no --bench


def test_cli_run_fast_is_uniform(tmp_path, monkeypatch, tiny):
    """--fast applies to every experiment of the campaign, so ``repro run
    all --fast --out results/fast`` regenerates the goldens CI diffs."""
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["run", "table1", tiny, "--fast", "--out", "out"]) == 0
    for report in ("table1.txt", "tiny.txt"):
        assert "fast=True]" in (tmp_path / "out" / report).read_text()


def test_cli_run_writes_a_manifest_only_under_bench(tmp_path, monkeypatch, tiny):
    """Neither several ids nor ``--out`` touch the timing manifest: a
    verification campaign run from a checkout leaves it as committed."""
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["run", "table1", tiny, "--fast", "--out", "out"]) == 0
    assert (tmp_path / "out" / "table1.txt").exists()
    assert not (tmp_path / "BENCH_experiments.json").exists()


def test_cli_run_runs_a_repeated_id_once(tmp_path, monkeypatch, tiny, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["run", tiny, tiny, "--no-cache"]) == 0
    assert capsys.readouterr().out.count("[tiny:") == 1


def test_cli_run_with_jobs_out_and_bench(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main(["run", "table1", "--jobs", "2", "--out", "o", "--bench", "b.json"])
    assert rc == 0
    assert "[table1:" in capsys.readouterr().out
    assert (tmp_path / "o" / "table1.txt").exists()
    assert (tmp_path / "o" / "json" / "table1.json").exists()
    assert "table1" in json.loads((tmp_path / "b.json").read_text())["runs"][-1]["experiments"]


# --- manifest ---------------------------------------------------------------------
def test_manifest_records_serial_and_parallel_runs(tmp_path, tiny):
    bench = tmp_path / "BENCH.json"
    cache = ResultCache(root=tmp_path / "cache", digest="digest-a", enabled=False)
    serial = run_campaign([ExperimentSpec(tiny, fast=True)], jobs=1, cache=cache)
    record_campaign(serial, path=bench, label="serial")
    parallel = run_campaign([ExperimentSpec(tiny, fast=True)], jobs=8, cache=cache)
    record_campaign(parallel, path=bench, label="parallel")

    document = json.loads(bench.read_text())
    assert [entry["label"] for entry in document["runs"]] == ["serial", "parallel"]
    assert [entry["jobs"] for entry in document["runs"]] == [1, 8]
    for entry in document["runs"]:
        assert entry["ok"] and "tiny" in entry["experiments"]


# --- cache pruning ----------------------------------------------------------------
def _seed_cache_entry(root, name, *, size=100, age=0.0):
    root.mkdir(exist_ok=True)
    path = root / f"{name}.json"
    path.write_text("x" * size)
    stamp = time.time() - age
    os.utime(path, (stamp, stamp))
    return path


def test_prune_size_cap_evicts_oldest_first(tmp_path):
    from repro.runner.cache import prune_cache

    old = _seed_cache_entry(tmp_path, "old", age=300)
    mid = _seed_cache_entry(tmp_path, "mid", age=200)
    new = _seed_cache_entry(tmp_path, "new", age=100)
    report = prune_cache(tmp_path, max_bytes=250)
    assert report.removed == [old]
    assert not old.exists() and mid.exists() and new.exists()
    assert report.kept == 2 and report.kept_bytes == 200


def test_prune_max_age(tmp_path):
    from repro.runner.cache import prune_cache

    stale = _seed_cache_entry(tmp_path, "stale", age=7200)
    fresh = _seed_cache_entry(tmp_path, "fresh", age=60)
    report = prune_cache(tmp_path, max_age_seconds=3600)
    assert report.removed == [stale]
    assert not stale.exists() and fresh.exists()


def test_prune_always_removes_stray_tmp_files(tmp_path):
    from repro.runner.cache import prune_cache

    kept = _seed_cache_entry(tmp_path, "kept")
    stray = tmp_path / "entry.json.tmp1234"
    stray.write_text("partial write")
    report = prune_cache(tmp_path, max_bytes=10**9)
    assert report.removed_tmp == 1
    assert not stray.exists() and kept.exists()


def test_prune_dry_run_deletes_nothing(tmp_path):
    from repro.runner.cache import prune_cache

    old = _seed_cache_entry(tmp_path, "old", age=300)
    _seed_cache_entry(tmp_path, "new", age=100)
    report = prune_cache(tmp_path, max_bytes=150, dry_run=True)
    assert report.dry_run and report.removed == [old]
    assert old.exists()
    assert "would remove" in report.render()


def test_prune_missing_root_is_a_noop(tmp_path):
    from repro.runner.cache import prune_cache

    report = prune_cache(tmp_path / "absent")
    assert report.removed == [] and report.kept == 0


def test_result_cache_prune_wrapper(tmp_path, tiny):
    from repro.runner.cache import STATS_NAME, entry_files

    cache = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert entry_files(tmp_path)
    report = cache.prune(max_bytes=0)
    assert report.kept == 0
    # Only the stats file, which is not an entry, may survive a full prune.
    survivors = {p.name for p in tmp_path.glob("*.json")}
    assert survivors <= {STATS_NAME}


# --- shared-shard wall attribution (tables 6/7 share the ray2mesh shards) ---------
def test_merge_attributes_shared_shard_wall_to_every_consumer(tmp_path, monkeypatch):
    """Regression: table7 used to record wall_s=0.0 because all shard wall
    time landed on table6; every consumer must count the shared shards."""
    from types import SimpleNamespace

    from repro.experiments import registry
    from repro.experiments.base import ExperimentResult, ShardSpec
    from repro.runner.pool import _merge_plan

    shards = tuple(
        ShardSpec(task_id=f"ray2mesh/{site}", runner="unused:unused")
        for site in ("nancy", "rennes")
    )
    plan = SimpleNamespace(
        shards=shards,
        merge=lambda payloads, fast: ExperimentResult(
            "table7", "T7", "Table 7", [], "merged"
        ),
    )
    shard_results = {
        ("ray2mesh/nancy", True): {"payload": {}, "wall_s": 10.0, "trace_hash": "a"},
        ("ray2mesh/rennes", True): {"payload": {}, "wall_s": 2.5, "trace_hash": "b"},
    }
    run = _merge_plan(ExperimentSpec("table7", fast=True), plan, shard_results)
    assert run.ok
    assert run.wall_s == pytest.approx(12.5)

    # A warm campaign merges the same attribution from the cached shards.
    cache = ResultCache(root=tmp_path, digest="digest-a")
    for shard in shards:
        cache.store(
            shard.task_id,
            True,
            shard_results[(shard.task_id, True)],
            module=shard.module,
            spec=shard.cache_spec(),
        )
    monkeypatch.setitem(
        registry.MODULES,
        "table7",
        SimpleNamespace(shards=lambda fast=False: shards, merge=plan.merge),
    )
    (warm,) = run_campaign([ExperimentSpec("table7", fast=True)], cache=cache).runs
    assert warm.ok and warm.cached
    assert warm.wall_s == pytest.approx(12.5)
    assert warm.trace_hash == run.trace_hash


# --- cost-model scheduling --------------------------------------------------------
def test_order_by_cost_longest_first():
    from repro.runner.pool import _Task, _order_by_cost

    def noop():
        pass

    tasks = [
        _Task(key=("a", True), target=noop, args=(), label="a"),
        _Task(key=("b", True), target=noop, args=(), label="b"),
        _Task(key=("experiment/x", True), target=noop, args=(), label="experiment/x"),
        _Task(key=("new", True), target=noop, args=(), label="new"),
    ]
    estimates = {"a": 1.0, "b": 30.0, "experiment/x": 5.0}
    _order_by_cost(tasks, estimates)
    # Unknown history first (it might be the long pole), then descending.
    assert [t.label for t in tasks] == ["new", "b", "experiment/x", "a"]


def test_order_by_cost_without_history_is_label_order():
    from repro.runner.pool import _Task, _order_by_cost

    tasks = [
        _Task(key=(n, True), target=None, args=(), label=n) for n in ("c", "a", "b")
    ]
    _order_by_cost(tasks, {})
    assert [t.label for t in tasks] == ["a", "b", "c"]


def test_load_task_estimates_latest_wins(tmp_path):
    from repro.runner.manifest import load_task_estimates

    manifest = tmp_path / "bench.json"
    manifest.write_text(json.dumps({"schema": 1, "runs": [
        {
            "shards": {"npb/grid16/ft": 9.0, "experiment/table1": 2.0},
            "experiments": {"table1": {"ok": True, "wall_s": 2.0}},
        },
        {
            "shards": {"npb/grid16/ft": 4.5, "experiment/table1": 1.0},
            "experiments": {
                "table1": {"ok": True, "wall_s": 7.0},
                "fig10": {"ok": True, "wall_s": 30.0},
            },
        },
    ]}), encoding="utf-8")
    # The newest entry wins, and whole-task walls come from ``shards``: an
    # experiment's own wall (a sum over its shards) is never an estimate.
    assert load_task_estimates(manifest) == {
        "npb/grid16/ft": 4.5,
        "experiment/table1": 1.0,
    }


def test_load_task_estimates_missing_manifest(tmp_path):
    from repro.runner.manifest import load_task_estimates

    assert load_task_estimates(tmp_path / "absent.json") == {}


# --- cache counters / stats --------------------------------------------------------
def test_campaign_counts_hits_and_misses(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    first = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    # A cold whole experiment misses and stores once: its one shard,
    # ``experiment/tiny``.
    assert first.cache_misses == 1 and first.cache_hits == 0
    assert first.cache_stores == 1
    assert first.cache_summary() == "cache: 0 hits, 1 miss, 1 stored"

    cache2 = ResultCache(root=tmp_path, digest="digest-a")
    second = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache2)
    assert second.cache_hits == 1 and second.cache_stores == 0
    assert second.cache_summary().startswith("cache: 1 hit")


def test_cache_stats_counts_one_entry_per_shard(tmp_path, monkeypatch, tiny):
    from repro.experiments import registry
    from repro.runner import cache_stats

    monkeypatch.setitem(registry.MODULES, "left", _plan_entry("left", ("a", "b")))
    cache = ResultCache(root=tmp_path, digest="digest-a")
    specs = [ExperimentSpec(tiny, fast=True), ExperimentSpec("left", fast=True)]
    assert run_campaign(specs, cache=cache).ok
    # ``experiment/tiny``, ``shared/a`` and ``shared/b``; no experiment entry.
    assert cache_stats(tmp_path).entries == 3


def test_warm_rerun_recomputes_only_a_deleted_shard(tmp_path, monkeypatch):
    """An experiment is merged from its shards on every run, so losing one
    shard entry costs exactly that shard, and the merge still matches."""
    from repro.experiments import registry

    monkeypatch.setitem(registry.MODULES, "left", _plan_entry("left", ("a", "b")))
    specs = [ExperimentSpec("left", fast=True)]
    cache = ResultCache(root=tmp_path, digest="digest-a")
    (cold,) = run_campaign(specs, cache=cache).runs
    assert cold.ok and not cold.cached

    _shard_path(cache, "left", "b").unlink()
    _SHARED_CALLS.clear()
    warm = run_campaign(specs, cache=ResultCache(root=tmp_path, digest="digest-a"))
    assert _SHARED_CALLS == ["b"]
    assert (warm.cache_hits, warm.cache_misses, warm.cache_stores) == (1, 1, 1)
    (run,) = warm.runs
    assert run.ok and not run.cached
    assert (run.text, run.trace_hash) == (cold.text, cold.trace_hash)

    healed = run_campaign(specs, cache=ResultCache(root=tmp_path, digest="digest-a"))
    assert healed.runs[0].cached and healed.cache_hits == 2


def test_campaign_writes_stats_sidecar(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    document = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert document["stores"] >= 1
    assert "experiments" in document


def test_manifest_entry_records_cache_counters(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    campaign = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    path = record_campaign(campaign, path=tmp_path / "bench.json")
    entry = json.loads(path.read_text(encoding="utf-8"))["runs"][-1]
    assert entry["cache"] == {
        "hits": campaign.cache_hits,
        "misses": campaign.cache_misses,
        "stores": campaign.cache_stores,
    }


def test_disabled_cache_summary(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a", enabled=False)
    campaign = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert campaign.cache_summary() == "cache: disabled"


def test_runtime_change_misses(tmp_path, monkeypatch):
    cache = ResultCache(root=tmp_path)
    cache.store("experiment/tiny", True, {"ok": True})
    assert ResultCache(root=tmp_path).load("experiment/tiny", True) == {"ok": True}
    major, minor = sys.version_info[:2]
    monkeypatch.setattr(sys, "version_info", (major, minor + 1, 0, "final", 0))
    other = ResultCache(root=tmp_path)
    monkeypatch.undo()
    assert other.load("experiment/tiny", True) is None


def test_numpy_change_keeps_entries_warm(tmp_path, monkeypatch):
    import importlib.metadata

    cache = ResultCache(root=tmp_path)
    cache.store("experiment/tiny", True, {"ok": True})
    installed = importlib.metadata.version
    monkeypatch.setattr(
        importlib.metadata,
        "version",
        lambda dist: installed(dist) + (".post1" if dist == "numpy" else ""),
    )
    monkeypatch.setitem(sys.modules, "numpy", None)
    other = ResultCache(root=tmp_path)
    assert other.load("experiment/tiny", True) == {"ok": True}


# --- dependency-aware invalidation (end to end through the campaign runner) --------
def _deps_with_touch(module=None):
    from repro.analysis.imports import DependencyDigests, ImportGraph

    if module is None:
        return DependencyDigests()
    source = ImportGraph().source(module)
    return DependencyDigests(overlay={module: source + b"\n# touched\n"})


def test_touching_a_leaf_module_keeps_experiments_warm(tmp_path):
    specs = [ExperimentSpec("table4", fast=True)]
    cold = run_campaign(
        specs, cache=ResultCache(root=tmp_path, deps=_deps_with_touch())
    )
    assert not cold.runs[0].cached
    warm = run_campaign(
        specs,
        cache=ResultCache(
            root=tmp_path, deps=_deps_with_touch("repro.obs.report")
        ),
    )
    assert warm.runs[0].cached  # obs/report.py is outside table4's closure


def test_touching_a_dependency_goes_cold(tmp_path):
    specs = [ExperimentSpec("table4", fast=True)]
    run_campaign(specs, cache=ResultCache(root=tmp_path, deps=_deps_with_touch()))
    cold = run_campaign(
        specs,
        cache=ResultCache(
            root=tmp_path, deps=_deps_with_touch("repro.tcp.congestion")
        ),
    )
    assert not cold.runs[0].cached  # every simulation reaches the TCP stack


# --- profile recording -------------------------------------------------------------
def test_profile_report_rows_and_recording(tmp_path):
    from repro.obs.profile import profile_report
    from repro.runner.manifest import record_profile

    report = profile_report("table1", fast=True, top=5)
    assert report.rows and len(report.rows) <= 5
    assert {"function", "where", "ncalls", "tottime_s", "cumtime_s"} <= set(
        report.rows[0]
    )
    # rows are sorted by cumulative time, descending
    cums = [row["cumtime_s"] for row in report.rows]
    assert cums == sorted(cums, reverse=True)

    path = record_profile(
        report.experiment_id,
        report.fast,
        report.rows,
        report.wall_s,
        path=tmp_path / "bench.json",
    )
    document = json.loads(path.read_text(encoding="utf-8"))
    entry = document["profiles"]["table1|fast=True"]
    assert entry["top"] == report.rows
    assert entry["wall_s"] >= 0

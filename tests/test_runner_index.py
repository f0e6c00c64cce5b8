"""Artifact index: build/staleness/query semantics plus the CLI front-ends."""

import json

import pytest

from repro.cli import main
from repro.runner.cache import ResultCache
from repro.runner.index import (
    artifact_text,
    build_index,
    load_index,
    query_index,
    render_query,
)


def _experiment_artifact(experiment_id="fig7", **overrides):
    artifact = {
        "kind": "experiment",
        "experiment_id": experiment_id,
        "fast": True,
        "ok": True,
        "sharded": False,
        "wall_s": 4.2,
        "trace_hash": "abc123",
        "trace_events": 10,
        "title": "Throughput vs message size",
        "paper_ref": "Fig. 7",
        "rows": [{"impl": "madeleine", "size_kb": 128}],
        "text": "rendered fig7 report",
        "error": None,
    }
    artifact.update(overrides)
    return artifact


@pytest.fixture()
def store(tmp_path):
    """A cache root holding one experiment entry and one shard entry."""
    cache = ResultCache(root=tmp_path, digest="digest-a")
    cache.store("experiment/fig7", True, _experiment_artifact())
    cache.store(
        "npb/grid16/ft",
        True,
        {"kind": "shard", "payload": {}, "wall_s": 1.5, "trace_hash": "def456"},
    )
    return tmp_path


def test_build_index_covers_cache_entries(store):
    document = build_index(store)
    by_id = {record["task_id"]: record for record in document["records"]}
    assert set(by_id) == {"experiment/fig7", "npb/grid16/ft"}
    fig7 = by_id["experiment/fig7"]
    assert fig7["kind"] == "experiment"
    assert fig7["experiment_id"] == "fig7"
    assert fig7["wall_s"] == 4.2
    assert fig7["trace_hash"] == "abc123"
    assert fig7["source_digest"]  # provenance present
    assert "madeleine" in fig7["terms"]
    shard = by_id["npb/grid16/ft"]
    assert shard["kind"] == "shard" and shard["wall_s"] == 1.5
    assert (store / "index.json").exists()


def test_query_matches_experiment_scenario_and_impl(store):
    assert {r.task_id for r in query_index("fig7", store)} == {"experiment/fig7"}
    # implementation names from rows are searchable
    assert query_index("madeleine", store)
    # shard ids match on substring too
    assert {r.task_id for r in query_index("grid16", store)} == {"npb/grid16/ft"}
    assert query_index("nonexistent-thing", store) == []


def test_query_is_case_insensitive(store):
    assert query_index("MADELEINE", store)


def test_index_rebuilds_when_the_store_changes(store):
    build_index(store)
    cache = ResultCache(root=store, digest="digest-a")
    cache.store("experiment/fig9", True, _experiment_artifact("fig9"))
    # load_index must notice the (name, mtime, size) listing changed.
    document = load_index(store)
    ids = {record["task_id"] for record in document["records"]}
    assert "experiment/fig9" in ids


def test_stale_index_is_not_used_without_rebuild(store):
    build_index(store)
    cache = ResultCache(root=store, digest="digest-a")
    cache.store("experiment/fig9", True, _experiment_artifact("fig9"))
    document = load_index(store, rebuild=False)
    assert document["records"] == []  # stale: refuse, do not serve old data


def test_index_ignores_corrupt_entries(store):
    (store / "junk.json").write_text("{not json", encoding="utf-8")
    document = build_index(store)
    assert all(r["path"] != str(store / "junk.json") for r in document["records"])


def test_index_covers_out_dir_reports(store, tmp_path):
    out = tmp_path / "out"
    (out / "json").mkdir(parents=True)
    (out / "json" / "table4.json").write_text(
        json.dumps(_experiment_artifact("table4", rows=[{"impl": "mpich"}])),
        encoding="utf-8",
    )
    records = query_index("table4", store, out_dirs=[out])
    assert [r.kind for r in records] == ["report"]
    assert "mpich" in records[0].terms


def test_artifact_text_roundtrip(store):
    (record,) = query_index("fig7", store)
    assert artifact_text(record) == "rendered fig7 report"


def test_render_query_mentions_provenance(store):
    records = query_index("fig7", store)
    text = render_query("fig7", records)
    assert "experiment/fig7" in text
    assert "wall 4.2s" in text
    assert "digest" in text


# --- CLI front-ends -----------------------------------------------------------------
def test_cli_index_rebuild_and_query(store, capsys):
    assert main(["index", "rebuild", "--root", str(store)]) == 0
    assert "indexed 2 artifacts" in capsys.readouterr().out
    assert main(["query", "fig7", "--root", str(store)]) == 0
    out = capsys.readouterr().out
    assert "experiment/fig7" in out and "Fig. 7" in out


def test_cli_query_text_prints_the_cached_report(store, capsys):
    assert main(["query", "fig7", "--root", str(store), "--text"]) == 0
    assert "rendered fig7 report" in capsys.readouterr().out


def test_cli_query_miss_exits_nonzero(store, capsys):
    assert main(["query", "zzz-no-such-thing", "--root", str(store)]) == 1
    assert "no matches" in capsys.readouterr().out


def test_cli_cache_stats(store, capsys):
    cache = ResultCache(root=store, digest="digest-a")
    cache.hits, cache.misses, cache.stores = 3, 1, 1
    cache.write_stats()
    assert main(["cache", "stats", "--root", str(store)]) == 0
    out = capsys.readouterr().out
    assert "2 entries" in out
    assert "experiment entries: 1" in out
    assert "shard entries:      1" in out
    assert "3 hits, 1 misses, 1 stored" in out

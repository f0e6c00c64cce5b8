"""Cache lookup: ``repro cache ls`` and ``repro cache stats`` read the store
directly, matching a pattern against each entry's task id, title, paper
ref and rendered text."""

import pytest

from repro.cli import main
from repro.runner.cache import ResultCache, list_entries, render_entry


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
        "text": "rendered fig7 report: madeleine peaks at 128 kB",
        "error": None,
    }
    artifact.update(overrides)
    return artifact


@pytest.fixture()
def store(tmp_path):
    """A cache root holding one experiment entry and one shard entry."""
    cache = ResultCache(root=tmp_path, digest="closure:digest-a")
    cache.store("experiment/fig7", True, _experiment_artifact())
    cache.store(
        "npb/grid16/ft",
        True,
        {"kind": "shard", "payload": {}, "wall_s": 1.5, "trace_hash": "def456"},
    )
    return tmp_path


def _task_ids(pattern, root):
    return [document["task_id"] for _path, document in list_entries(pattern, root)]


def test_build_index_covers_cache_entries(store):
    # "/" matches every task id: experiments list first, then shards.
    entries = list_entries("/", store)
    assert [document["task_id"] for _path, document in entries] == [
        "experiment/fig7",
        "npb/grid16/ft",
    ]
    (fig7_path, fig7), (shard_path, shard) = entries
    assert fig7_path.parent == store and shard_path.parent == store
    assert fig7["source_digest"] and fig7["artifact"]["wall_s"] == 4.2
    assert shard["artifact"]["kind"] == "shard"


def test_query_matches_experiment_scenario_and_impl(store):
    assert _task_ids("fig7", store) == ["experiment/fig7"]
    # the title, the paper ref and the rendered text are searchable
    assert _task_ids("throughput", store) == ["experiment/fig7"]
    assert _task_ids("Fig. 7", store) == ["experiment/fig7"]
    assert _task_ids("madeleine", store) == ["experiment/fig7"]
    # shard ids match on substring too
    assert _task_ids("grid16", store) == ["npb/grid16/ft"]
    assert _task_ids("nonexistent-thing", store) == []


def test_query_is_case_insensitive(store):
    assert _task_ids("MADELEINE", store) == ["experiment/fig7"]
    assert _task_ids("GRID16", store) == ["npb/grid16/ft"]


def test_index_ignores_corrupt_entries(store):
    (store / "junk.json").write_text("{not json", encoding="utf-8")
    (store / "list.json").write_text("[1, 2]", encoding="utf-8")
    (store / "bare.json").write_text('{"task_id": "bare/grid16"}', encoding="utf-8")
    assert _task_ids("grid16", store) == ["npb/grid16/ft"]
    assert (store / "junk.json").exists()  # listing never evicts


def test_artifact_text_roundtrip(store):
    ((_path, document),) = list_entries("fig7", store)
    assert document["artifact"]["text"] == (
        "rendered fig7 report: madeleine peaks at 128 kB"
    )


def test_render_query_mentions_provenance(store):
    ((path, document),) = list_entries("fig7", store)
    lines = render_entry(path, document).splitlines()
    assert lines == [
        "experiment/fig7  [experiment]  fast=True  wall 4.2s  digest digest-a",
        "  Throughput vs message size (Fig. 7)",
        f"  {path}",
    ]
    ((path, document),) = list_entries("grid16", store)
    assert render_entry(path, document).splitlines() == [
        "npb/grid16/ft  [shard]  fast=True  wall 1.5s  digest digest-a",
        f"  {path}",
    ]


def test_ls_finds_an_experiment_by_its_rendered_text(store, capsys):
    """fig10's rows carry no implementation name, only its report's
    columns do: the text match still finds it."""
    cache = ResultCache(root=store, digest="closure:digest-a")
    cache.store(
        "experiment/fig10",
        True,
        _experiment_artifact(
            "fig10",
            title="NPB relative to MPICH2",
            paper_ref="Fig. 10",
            rows=[{"kernel": "bt", "ratio": 0.93}],
            text="kernel  GridMPI  MPICH-Madeleine  OpenMPI",
        ),
    )
    assert main(["cache", "ls", "madeleine", "--root", str(store)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cache ls 'madeleine': 2 matches")
    assert "experiment/fig10  [experiment]" in out


def test_ls_writes_nothing_under_the_store(store, capsys):
    before = sorted((p.name, p.stat().st_mtime_ns) for p in store.iterdir())
    assert main(["cache", "ls", "fig7", "--root", str(store)]) == 0
    assert main(["cache", "ls", "zzz", "--root", str(store)]) == 1
    assert sorted((p.name, p.stat().st_mtime_ns) for p in store.iterdir()) == before


@pytest.mark.parametrize(
    "command", [["index", "rebuild"], ["query", "fig7"]], ids=["index", "query"]
)
def test_index_and_query_commands_are_gone(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# --- CLI front-ends -----------------------------------------------------------------
def test_cli_query_text_prints_the_cached_report(store, capsys):
    assert main(["cache", "ls", "fig7", "--root", str(store), "--text"]) == 0
    out = capsys.readouterr().out
    assert "experiment/fig7" in out and "Fig. 7" in out
    assert out.rstrip().endswith("rendered fig7 report: madeleine peaks at 128 kB")


def test_cli_query_miss_exits_nonzero(store, capsys):
    assert main(["cache", "ls", "zzz-no-such-thing", "--root", str(store)]) == 1
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

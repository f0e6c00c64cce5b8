"""Cache lookup: ``repro cache ls`` and ``repro cache stats`` read the store
directly.  ``cache ls`` matches a pattern against each shard entry's task
id; an experiment id also lists the entries of its shard plans."""

import pytest

from repro.cli import main
from repro.runner.cache import ResultCache, list_entries, render_entry

#: fig7's fast shard plan: one ping-pong sweep per implementation
FIG7_SHARDS = [
    f"pingpong/grid/fully_tuned/{impl}"
    for impl in ("gridmpi", "madeleine", "mpich2", "openmpi", "tcp")
]


def _shard_artifact(payload=None, wall_s=1.5, trace_hash="def456"):
    """The artifact a shard worker stores."""
    return {
        "payload": payload if payload is not None else {},
        "wall_s": wall_s,
        "trace_hash": trace_hash,
        "trace_events": 10,
    }


@pytest.fixture()
def store(tmp_path):
    """A cache root holding fig7's five shards, an NPB point and the one
    shard of table2, which runs whole."""
    cache = ResultCache(root=tmp_path, digest="closure:digest-a")
    for task_id in FIG7_SHARDS:
        cache.store(task_id, True, _shard_artifact({"sizes": [1, 2]}))
    cache.store("npb/grid16/ft", True, _shard_artifact())
    cache.store(
        "experiment/table2",
        True,
        _shard_artifact(
            {
                "title": "Madeleine tuning",
                "paper_ref": "Table 2",
                "rows": [],
                "text": "rendered table2 report: madeleine",
            },
            wall_s=4.2,
        ),
    )
    return tmp_path


def _task_ids(pattern, root, plan_ids=frozenset()):
    return [
        document["task_id"]
        for _path, document in list_entries(pattern, root, plan_ids=plan_ids)
    ]


def test_build_index_covers_cache_entries(store):
    # "/" matches every task id; entries sort by task id.
    entries = list_entries("/", store)
    assert [document["task_id"] for _path, document in entries] == [
        "experiment/table2",
        "npb/grid16/ft",
        *FIG7_SHARDS,
    ]
    for path, document in entries:
        assert path.parent == store
        assert document["source_digest"] and "payload" in document["artifact"]
    assert entries[0][1]["artifact"]["wall_s"] == 4.2


def test_query_matches_experiment_scenario_and_impl(store):
    assert _task_ids("grid16", store) == ["npb/grid16/ft"]
    assert _task_ids("madeleine", store) == ["pingpong/grid/fully_tuned/madeleine"]
    assert _task_ids("fully_tuned", store) == FIG7_SHARDS
    # only the task id is matched: not a whole shard's title or rendered text
    assert _task_ids("Table 2", store) == []
    assert _task_ids("rendered", store) == []
    assert _task_ids("nonexistent-thing", store) == []
    # entries named in plan_ids are listed whatever the pattern
    assert _task_ids("fig7", store) == []
    assert _task_ids("fig7", store, frozenset(FIG7_SHARDS[:2])) == FIG7_SHARDS[:2]


def test_query_is_case_insensitive(store):
    assert _task_ids("MADELEINE", store) == ["pingpong/grid/fully_tuned/madeleine"]
    assert _task_ids("GRID16", store) == ["npb/grid16/ft"]


def test_index_ignores_corrupt_entries(store):
    (store / "junk.json").write_text("{not json", encoding="utf-8")
    (store / "list.json").write_text("[1, 2]", encoding="utf-8")
    (store / "bare.json").write_text('{"task_id": "bare/grid16"}', encoding="utf-8")
    assert _task_ids("grid16", store) == ["npb/grid16/ft"]
    assert (store / "junk.json").exists()  # listing never evicts


def test_artifact_text_roundtrip(store):
    ((_path, document),) = list_entries("experiment/table2", store)
    assert document["artifact"]["payload"]["text"] == (
        "rendered table2 report: madeleine"
    )


def test_render_query_mentions_provenance(store):
    ((path, document),) = list_entries("table2", store)
    assert render_entry(path, document).splitlines() == [
        "experiment/table2  fast=True  wall 4.2s  digest digest-a",
        f"  {path}",
    ]
    ((path, document),) = list_entries("grid16", store)
    assert render_entry(path, document).splitlines() == [
        "npb/grid16/ft  fast=True  wall 1.5s  digest digest-a",
        f"  {path}",
    ]


def test_ls_experiment_id_lists_its_shard_plan_entries(store, capsys):
    """No task id contains "fig7": its entries are found through its plan."""
    assert main(["cache", "ls", "FIG7", "--root", str(store)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cache ls 'FIG7': 5 matches\n")
    listed = [line.split()[0] for line in out.splitlines()[1:] if not line[0].isspace()]
    assert listed == FIG7_SHARDS


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
def test_cli_ls_has_no_text_option(store, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "ls", "fig7", "--root", str(store), "--text"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --text" in capsys.readouterr().err


def test_cli_query_miss_exits_nonzero(store, capsys):
    assert main(["cache", "ls", "zzz-no-such-thing", "--root", str(store)]) == 1
    assert "no matches" in capsys.readouterr().out


def test_cli_cache_stats(store, capsys):
    cache = ResultCache(root=store, digest="digest-a")
    cache.hits, cache.misses, cache.stores = 3, 1, 1
    cache.write_stats()
    assert main(["cache", "stats", "--root", str(store)]) == 0
    out = capsys.readouterr().out
    # one line: every entry is a shard, so there is no split to report
    assert out.splitlines() == [
        f"cache {store}: 7 entries, {_entry_bytes(store)} bytes, "
        "last campaign: 3 hits, 1 misses, 1 stored"
    ]


def _entry_bytes(root):
    from repro.runner.cache import entry_files

    return sum(path.stat().st_size for path in entry_files(root))

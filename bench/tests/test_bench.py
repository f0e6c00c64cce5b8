"""Tests of the benchmark harness: ``python -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SITES = ("nancy", "rennes", "sophia", "toulouse")


# --- goldens -----------------------------------------------------------------------
def test_strip_footer_removes_blank_line_and_wall_footer():
    assert workloads.strip_footer("a\nb\n\n[109.9s wall, fast=True]\n") == "a\nb"
    assert workloads.strip_footer("a\n\n[6.8s wall, fast=False]\n") == "a"
    assert workloads.strip_footer("a\nb\n") == "a\nb"
    assert workloads.strip_footer("a\n[not a footer]\n") == "a\n[not a footer]"


def test_every_golden_the_workloads_read_ends_without_footer():
    for w in workloads.WORKLOADS.values():
        for text in w.golden(0).values():
            assert text and "s wall, fast=" not in text


@pytest.mark.parametrize("site", SITES)
def test_ray2mesh_column_and_row_parse_each_site(site):
    table6 = workloads.read_golden("fast/table6.txt")
    table7 = workloads.read_golden("fast/table7.txt")
    assert workloads.ray2mesh_column(table6, site) == (
        "nancy=3000 rennes=3000 sophia=3500 toulouse=3000"
    )
    cells = workloads.ray2mesh_row(table7, site).split()
    assert len(cells) == 3 and all(float(c) > 0 for c in cells)
    assert workloads.site_of(SITES.index(site)) == workloads.site_of(SITES.index(site) + 4) == site
    assert workloads.WORKLOADS["ray2mesh"].period == len(SITES)


def test_ray2mesh_outputs_render_like_the_goldens():
    # nancy's committed row: 21.15 / 151 / 181.2, and 3000/3000/3500/3000 rays per node
    payload = {
        "rays_per_cluster": {"nancy": 24000, "rennes": 24000, "sophia": 28000, "toulouse": 24000},
        "comp_time": 21.1512,
        "merge_time": 151.0004,
        "total_time": 181.2,
    }
    golden = workloads.WORKLOADS["ray2mesh"].golden(0)
    assert workloads.ray2mesh_outputs(payload) == golden
    payload["comp_time"] = 21.2
    assert workloads.WORKLOADS["ray2mesh"].check(workloads.ray2mesh_outputs(payload), 0) == {
        "table6": True,
        "table7": False,
    }


def test_a_run_that_raised_fails_every_output():
    assert workloads.WORKLOADS["pingpong"].check(None, 0) == dict.fromkeys(
        workloads.PINGPONG_IDS, False
    )


# --- layers ------------------------------------------------------------------------
@pytest.mark.parametrize(
    "filename, layer",
    [
        ("/x/src/repro/sim/core.py", "sim"),
        ("/x/src/repro/tcp/connection.py", "tcp"),
        ("/x/src/repro/npb/cg.py", "apps"),
        ("/x/src/repro/apps/pingpong.py", "apps"),
        ("/x/src/repro/units.py", "other"),
        ("/x/src/repro/obs/runtime.py", "other"),
        ("/usr/lib/python3.11/heapq.py", "other"),
        ("~", "other"),
        (str(BENCH / "child.py"), None),
    ],
)
def test_layer_of_maps_pstats_paths(filename, layer):
    assert tracing.layer_of(filename) == layer


def test_layer_self_times_sum_tottime_with_builtins_in_other():
    stats = {
        ("/x/src/repro/net/fluid.py", 10, "_recompute"): (3, 3, 2.0, 2.5, {}),
        ("/x/src/repro/net/topology.py", 5, "route"): (1, 1, 0.5, 0.5, {}),
        ("~", 0, "<built-in method _heapq.heappush>"): (9, 9, 1.0, 1.0, {}),
        (str(BENCH / "tracing.py"), 1, "sink"): (9, 9, 4.0, 4.0, {}),
    }
    self_s = tracing.layer_self_times(stats)
    assert self_s["net"] == 2.5 and self_s["other"] == 1.0
    assert sum(self_s.values()) == 3.5


def test_units_and_exactness():
    assert tracing.unit_of("sim.events") == "count"
    assert tracing.unit_of("sim.events_per_msg") == "count/msg"
    assert tracing.unit_of("tcp.wakeups_per_flow") == "count/flow"
    assert tracing.unit_of("tcp.useful_wakeup_frac") == "fraction"
    assert tracing.unit_of("sim.self_s") == "s"
    assert tracing.unit_of("trace.overhead") == "x"
    assert tracing.is_exact("tcp.useful_wakeup_frac") and tracing.is_exact("mpi.messages")
    assert not tracing.is_exact("net.self_frac") and not tracing.is_exact("trace.wall_s")


# --- statistics --------------------------------------------------------------------
def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.quartiles(values) == (1.5, 3.0, 4.5)
    assert run.quartiles(values)[1] == statistics.median(values)
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


# --- compare -----------------------------------------------------------------------
E2E = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]


def _report(wall: float, events: int, self_s: float = 1.0) -> dict:
    return {
        "workloads": {
            "pingpong": {
                "fail_frac": 0.0,
                "end_to_end": {
                    "wall_s": {"unit": "s", "median": wall, "p25": wall, "p75": wall, "n": 5}
                },
                "per_layer": {
                    "sim.events": {"value": events, "unit": "count"},
                    "sim.self_s": {"value": self_s, "unit": "s"},
                },
            }
        }
    }


def test_compare_flags_a_regression_beyond_the_bound():
    lines, bad = compare.compare(_report(10.0, 7), _report(11.5, 7), E2E)
    assert bad and any("REGRESSION" in line for line in lines)


def test_compare_accepts_a_change_within_the_bound():
    lines, bad = compare.compare(_report(10.0, 7), _report(10.8, 7, self_s=1.3), E2E)
    assert not bad and not any("REGRESSION" in line or "changed" in line for line in lines)
    assert compare.verdict(10.0, 8.0, "lower", 0.1) == "improved"


def test_compare_reports_a_count_mismatch_as_program_changed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_report(10.0, 7)))
    b.write_text(json.dumps(_report(10.0, 8)))
    lines, bad = compare.compare(json.loads(a.read_text()), json.loads(b.read_text()), E2E)
    assert bad and any("sim.events" in line and "program changed" in line for line in lines)
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0


# --- harness -----------------------------------------------------------------------
@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_harness_refuses_env_switches_that_select_another_program(monkeypatch, var):
    monkeypatch.setenv(var, "1")
    assert run.main(["--workloads", "npb_grid16", "--samples", "1"]) == 2


def test_two_traced_runs_give_identical_counts():
    from repro.experiments import registry

    def traced_fig9():
        registry.clear_memos()
        return tracing.traced(lambda: registry.run_experiment("fig9", fast=True))

    (first, a), (second, b) = traced_fig9(), traced_fig9()
    assert first.text == second.text
    assert a["sim.events"] > 0
    assert {m: v for m, v in a.items() if tracing.is_exact(m)} == {
        m: v for m, v in b.items() if tracing.is_exact(m)
    }


def test_benchmark_json_lists_what_the_harness_reports():
    from repro.experiments import registry

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    _result, layers = tracing.traced(lambda: registry.run_experiment("table4", fast=True))
    names = [*layers, "trace.overhead"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit_of(name) for name in names
    }

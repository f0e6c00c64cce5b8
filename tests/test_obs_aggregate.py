"""Span analytics (``repro.obs.aggregate`` / ``repro.obs.flame``).

Contracts under test:

* episode splitting at ``mpi.job.begin`` markers (jobs restart the
  virtual clock, so containment only makes sense per episode);
* containment-forest building over completion-ordered records, including
  the zero-duration-span boundary rule;
* tick-exact self/cumulative frame accounting and collapsed stacks;
* the site-pair WAN matrix over site-tagged spans;
* the critical-path walk (descend into the last-finishing child);
* renderer determinism (collapsed text and SVG);
* permutation invariance of every aggregate in the payload merge order
  (the property that makes serial and ``--jobs N`` campaigns agree);
* the new NPB phase spans exist, nest the collectives, and do not
  perturb the simulation;
* ``explain fig10`` renders deterministically and names the dominant
  phase and top WAN pair.
"""

import json
import multiprocessing

import pytest

from repro.obs import TelemetryConfig, merge_payloads
from repro.obs.aggregate import (
    Frame,
    build_forest,
    collapsed_stacks,
    critical_path,
    frame_stats,
    job_makespans,
    npb_phase_totals,
    rollup,
    site_pair_matrix,
    split_episodes,
    ticks,
)
from repro.obs.flame import render_collapsed, render_svg
from repro.obs.runtime import session

from tests.conftest import make_cluster_job, make_grid_job

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests require the fork start method",
)


def _begin(impl="openmpi", nprocs=2):
    return ("i", 0.0, 0.0, "mpi.job.begin", "mpi", "job", {"impl": impl, "nprocs": nprocs})


def _payload(tracks):
    return {
        "schema": 1,
        "config": {"spans": True, "metrics": True},
        "tracks": {name: {"events": list(events)} for name, events in tracks.items()},
    }


#: one job episode in completion order: an allreduce inside a compute
#: phase inside the rank lane, plus the closing whole-job span
_EPISODE = [
    _begin("openmpi"),
    ("X", 1.0, 2.0, "coll.allreduce", "mpi.collective", "rank0", None),
    ("X", 0.0, 4.0, "npb.phase.compute", "npb.phase", "rank0", None),
    ("X", 0.0, 5.0, "mpi.job", "mpi", "job", None),
]


# --- episodes ----------------------------------------------------------------------
def test_split_episodes_cuts_at_job_begin_and_keeps_preamble():
    pre = ("X", 0.0, 1.0, "tcp.transmit", "tcp", "tcp:a", None)
    events = [pre] + _EPISODE + [_begin("mpich2"), ("X", 0.0, 3.0, "mpi.job", "mpi", "job", None)]
    episodes = split_episodes(events)
    assert [e.impl for e in episodes] == ["", "openmpi", "mpich2"]
    assert episodes[0].records == [pre]
    assert len(episodes[1].records) == 3
    assert [e.index for e in episodes] == [0, 1, 2]


def test_split_episodes_drops_empty_episodes():
    events = [_begin("a"), _begin("b"), ("X", 0.0, 1.0, "mpi.job", "mpi", "job", None)]
    episodes = split_episodes(events)
    assert [e.impl for e in episodes] == ["b"]


# --- forest building ---------------------------------------------------------------
def test_build_forest_adopts_contained_suffix_in_completion_order():
    roots = build_forest(_EPISODE)  # merged view: all lanes
    assert [r.name for r in roots] == ["mpi.job"]
    (job,) = roots
    assert [c.name for c in job.children] == ["npb.phase.compute"]
    assert [c.name for c in job.children[0].children] == ["coll.allreduce"]


def test_build_forest_lane_filter_keeps_cross_lane_spans_as_roots():
    roots = build_forest(_EPISODE, lane="rank0")
    assert [r.name for r in roots] == ["npb.phase.compute"]
    assert [c.name for c in roots[0].children] == ["coll.allreduce"]


def test_zero_duration_span_on_a_start_boundary_stays_a_root():
    # The zero-width span completed *before* the phase began (same
    # timestamp): adopting it would claim it happened inside.
    records = [
        ("X", 2.0, 0.0, "coll.barrier", "mpi.collective", "rank0", None),
        ("X", 2.0, 3.0, "npb.phase.compute", "npb.phase", "rank0", None),
    ]
    roots = build_forest(records)
    assert [r.name for r in roots] == ["coll.barrier", "npb.phase.compute"]
    # ... but a zero-duration span strictly inside is adopted.
    records = [
        ("X", 2.5, 0.0, "coll.barrier", "mpi.collective", "rank0", None),
        ("X", 2.0, 3.0, "npb.phase.compute", "npb.phase", "rank0", None),
    ]
    (phase,) = build_forest(records)
    assert [c.name for c in phase.children] == ["coll.barrier"]


# --- frame accounting --------------------------------------------------------------
def test_frame_stats_tick_accounting_is_exact():
    frames = frame_stats(_payload({"t": _EPISODE}))
    compute = frames["npb.phase.compute"]
    assert (compute.calls, compute.cum_ticks, compute.self_ticks) == (1, 4_000_000, 2_000_000)
    leaf = frames["npb.phase.compute;coll.allreduce"]
    assert (leaf.cum_ticks, leaf.self_ticks) == (2_000_000, 2_000_000)
    # Per-lane trees: the job lane's span does not absorb the rank lane.
    assert frames["mpi.job"].self_ticks == 5_000_000
    assert ticks(2.0) == 2_000_000


def test_collapsed_stacks_keep_only_positive_self_ticks():
    events = [
        ("X", 0.0, 2.0, "coll.bcast", "mpi.collective", "rank0", None),
        ("X", 0.0, 2.0, "npb.phase.compute", "npb.phase", "rank0", None),  # self == 0
    ]
    stacks = collapsed_stacks(_payload({"t": events}))
    assert stacks == {"npb.phase.compute;coll.bcast": 2_000_000}


def test_npb_phase_totals_and_makespans_key_on_track_and_impl():
    two_jobs = _EPISODE + [
        _begin("mpich2"),
        ("X", 0.0, 1.5, "npb.phase.compute", "npb.phase", "rank0", None),
        ("X", 0.0, 2.0, "mpi.job", "mpi", "job", None),
    ]
    payload = _payload({"npb/grid16/cg": two_jobs})
    assert npb_phase_totals(payload) == {
        ("npb/grid16/cg", "openmpi", "compute"): 4_000_000,
        ("npb/grid16/cg", "mpich2", "compute"): 1_500_000,
    }
    assert job_makespans(payload) == {
        ("npb/grid16/cg", "openmpi"): 5_000_000,
        ("npb/grid16/cg", "mpich2"): 2_000_000,
    }


# --- WAN matrix --------------------------------------------------------------------
def _wan_events(impl="openmpi"):
    return [
        _begin(impl),
        ("X", 0.0, 0.5, "tcp.transmit", "tcp", "tcp:a->b",
         {"bytes": 1000, "src_site": "rennes", "dst_site": "nancy", "retransmits": 2}),
        ("X", 0.5, 0.25, "tcp.transmit", "tcp", "tcp:a->b",
         {"bytes": 500, "src_site": "rennes", "dst_site": "nancy", "retransmits": 0}),
        ("X", 0.0, 0.1, "rndv.handshake", "mpi.rndv", "rank0->1",
         {"bytes": 1000, "src_site": "rennes", "dst_site": "nancy"}),
        ("X", 0.0, 0.2, "tcp.transmit", "tcp", "tcp:c->c",
         {"bytes": 800, "src_site": "rennes", "dst_site": "rennes", "retransmits": 0}),
    ]


def test_site_pair_matrix_aggregates_transmit_and_handshake_spans():
    matrix = site_pair_matrix(_payload({"t": _wan_events()}))
    wan = matrix[("rennes", "nancy")]
    assert (wan.transfers, wan.bytes, wan.transmit_ticks) == (2, 1500, 750_000)
    assert (wan.retransmits, wan.handshakes, wan.handshake_ticks) == (2, 1, 100_000)
    lan = matrix[("rennes", "rennes")]
    assert (lan.transfers, lan.handshakes) == (1, 0)


def test_site_pair_matrix_impl_filter_selects_episodes():
    events = _wan_events("openmpi") + _wan_events("mpich2")
    payload = _payload({"t": events})
    assert site_pair_matrix(payload, impl="openmpi")[("rennes", "nancy")].transfers == 2
    assert site_pair_matrix(payload)[("rennes", "nancy")].transfers == 4
    assert site_pair_matrix(payload, impl="nonesuch") == {}


# --- critical path -----------------------------------------------------------------
def test_critical_path_descends_into_the_last_finishing_child():
    events = [
        _begin(),
        ("X", 0.0, 3.0, "npb.phase.compute", "npb.phase", "rank0", None),  # ends at 3
        ("X", 1.0, 3.5, "npb.phase.compute", "npb.phase", "rank1", None),  # ends at 4.5
        ("X", 0.0, 5.0, "mpi.job", "mpi", "job", None),
    ]
    chain = critical_path(_payload({"t": events}))
    assert [(hop["name"], hop["lane"], hop["depth"]) for hop in chain] == [
        ("mpi.job", "job", 0),
        ("npb.phase.compute", "rank1", 1),  # the later finisher gates the job
    ]
    assert chain[0]["ticks"] == 5_000_000 and chain[0]["track"] == "t"
    assert critical_path({"schema": 1, "tracks": {}}) == []


# --- rollup ------------------------------------------------------------------------
def test_rollup_summarises_spans_and_wan_pairs():
    payload = _payload({"t": _EPISODE + _wan_events()[1:]})
    summary = rollup(payload, top=2)
    assert summary["spans"] == 7
    assert len(summary["top_self"]) == 2
    assert summary["top_self"][0][0] == "mpi.job"
    assert set(summary["wan"]) == {"rennes->nancy"}  # same-site pairs excluded
    assert summary["wan"]["rennes->nancy"]["bytes"] == 1500
    assert json.dumps(summary)  # manifest-serialisable


# --- renderers ---------------------------------------------------------------------
def test_render_collapsed_is_sorted_and_stable():
    stacks = {"b;c": 2, "a": 1}
    text = render_collapsed(stacks)
    assert text == "a 1\nb;c 2\n"
    assert render_collapsed(dict(reversed(list(stacks.items())))) == text


def test_render_svg_is_deterministic_and_self_contained():
    stacks = collapsed_stacks(_payload({"t": _EPISODE}))
    first = render_svg(stacks, title="t <&>")
    assert first == render_svg(dict(reversed(list(stacks.items()))), title="t <&>")
    assert first.startswith("<svg ") and first.endswith("</svg>\n")
    assert "npb.phase.compute" in first
    assert "t &lt;&amp;&gt;" in first  # titles are escaped
    assert "script" not in first


def test_render_svg_of_an_empty_payload_says_so():
    svg = render_svg({})
    assert "(no spans recorded)" in svg
    assert svg.startswith("<svg ")


# --- permutation invariance (merge order) ------------------------------------------
def test_aggregates_are_invariant_under_merge_order_and_track_collisions():
    # Two shard payloads with one colliding track name: merging [a, b]
    # vs [b, a] concatenates the colliding track's events in a different
    # order, but every aggregate is a keyed sum over episodes — the
    # flamegraph, matrix and rollup must not notice.
    shard_a = _payload({"shared": _EPISODE, "only/a": _wan_events()})
    shard_b = _payload({"shared": _wan_events("mpich2"), "only/b": _EPISODE})
    ab = merge_payloads([shard_a, shard_b])
    ba = merge_payloads([shard_b, shard_a])
    assert ab["tracks"]["shared"]["events"] != ba["tracks"]["shared"]["events"]
    assert collapsed_stacks(ab) == collapsed_stacks(ba)
    assert render_collapsed(collapsed_stacks(ab)) == render_collapsed(collapsed_stacks(ba))
    assert render_svg(collapsed_stacks(ab)) == render_svg(collapsed_stacks(ba))
    assert site_pair_matrix(ab) == site_pair_matrix(ba)
    assert npb_phase_totals(ab) == npb_phase_totals(ba)
    assert rollup(ab) == rollup(ba)
    stats_ab, stats_ba = frame_stats(ab), frame_stats(ba)
    assert {k: (f.calls, f.cum_ticks, f.self_ticks) for k, f in stats_ab.items()} == {
        k: (f.calls, f.cum_ticks, f.self_ticks) for k, f in stats_ba.items()
    }
    assert isinstance(next(iter(stats_ab.values())), Frame)


def test_duplicate_span_names_do_not_collapse_distinct_episodes():
    # The same program run twice by the same impl: calls double, ticks sum.
    events = _EPISODE + _EPISODE
    frames = frame_stats(_payload({"t": events}))
    assert frames["npb.phase.compute"].calls == 2
    assert frames["npb.phase.compute"].cum_ticks == 8_000_000


# --- live instrumentation ----------------------------------------------------------
def _npb_program():
    # A tiny CG-shaped program: phases around a collective.
    from repro.npb.common import phase

    def program(ctx):
        def work():
            # 1 MB: above every eager threshold, so the grid run crosses
            # the WAN with rendezvous + window-limited TCP transfers.
            yield from ctx.comm.allreduce(nbytes=1024 * 1024)

        yield from phase(ctx, "residual", work())

    return program


def test_phase_wrapper_records_spans_and_nests_the_collective():
    job = make_grid_job(impl_name="openmpi", nprocs=2)
    with session(TelemetryConfig(), default_track="npb/grid16/cg") as sess:
        job.run(_npb_program())
    payload = sess.to_payload()
    names = sess.span_names()
    assert names.get("npb.phase.residual", 0) == 2  # one per rank
    stacks = collapsed_stacks(payload)
    assert any(key.startswith("npb.phase.residual;coll.allreduce") for key in stacks)
    totals = npb_phase_totals(payload)
    assert list(totals) == [("npb/grid16/cg", "openmpi", "residual")]
    assert totals[("npb/grid16/cg", "openmpi", "residual")] > 0


def test_phase_wrapper_is_a_passthrough_when_telemetry_is_off():
    from repro.npb.common import phase

    class _Ctx:
        pass

    body = iter([1, 2])
    assert phase(_Ctx(), "compute", body) is body


def test_tcp_and_rndv_spans_carry_site_tags_on_the_grid():
    job = make_grid_job(impl_name="openmpi", nprocs=2)
    with session(TelemetryConfig()) as sess:
        job.run(_npb_program())
    payload = sess.to_payload()
    matrix = site_pair_matrix(payload)
    assert matrix, "no site-tagged spans recorded"
    assert all(src and dst for src, dst in matrix)
    assert any(src != dst for src, dst in matrix), "grid job crossed no site boundary"
    assert sum(cell.transfers for cell in matrix.values()) > 0


def test_job_begin_instant_marks_each_job_with_its_impl():
    job = make_cluster_job(impl_name="mpich2", nprocs=2)
    with session(TelemetryConfig()) as sess:
        job.run(_npb_program())
        job.run(_npb_program())
    (track_data,) = sess.to_payload()["tracks"].values()
    episodes = split_episodes(track_data["events"])
    assert [e.impl for e in episodes] == ["mpich2", "mpich2"]
    assert {e.meta["nprocs"] for e in episodes} == {2}


def test_phase_spans_do_not_perturb_the_event_schedule():
    from repro.sim.core import trace_capture

    def run_once(telemetry):
        job = make_grid_job(impl_name="openmpi", nprocs=2)
        with trace_capture() as hasher:
            if telemetry:
                with session(TelemetryConfig()):
                    job.run(_npb_program())
            else:
                job.run(_npb_program())
        return hasher.hexdigest()

    assert run_once(False) == run_once(True)


# --- explain fig10 + campaign integration ------------------------------------------
def _fig10_style_payload():
    def episode(compute_s, comm_s):
        return [
            _begin("openmpi"),
            ("X", 0.0, compute_s, "npb.phase.compute", "npb.phase", "rank0", None),
            ("X", compute_s, comm_s, "npb.phase.transpose", "npb.phase", "rank0", None),
            ("X", 0.0, compute_s + comm_s, "mpi.job", "mpi", "job", None),
        ]

    payload = _payload(
        {
            "npb/grid16/cg": episode(1.0, 4.0),     # communication-bound on the grid
            "npb/cluster16/cg": episode(1.0, 0.5),
            "npb/grid16/mg": episode(2.0, 1.0),
            "npb/cluster16/mg": episode(2.0, 0.4),
        }
    )
    payload["tracks"]["npb/grid16/cg"]["events"].extend(_wan_events()[1:])
    return payload


def test_explain_fig10_names_dominant_phase_and_top_wan_pair():
    from repro.obs.report import explain_fig10

    payload = _fig10_style_payload()
    first = explain_fig10(payload=payload)
    assert explain_fig10(payload=payload) == first
    assert "Fig. 10 explained" in first
    assert "Diagnosis:" in first
    # cg's grid time is communication-bound: transpose dominates at 80%.
    assert "* cg: dominant phase 'transpose' (80.0% of 5.000 s rank-time)" in first
    assert "* dominant phase overall: cg 'transpose'" in first
    assert "* top WAN site pair: rennes -> nancy (81.0% of all tracked wire time" in first
    assert "x8.00" in first  # grid/cluster ratio of the transpose row


def test_explain_dispatches_fig10_and_rejects_unknown():
    from repro.errors import ReproError
    from repro.obs import report

    seen = {}

    def fake(fast=True, jobs=1, payload=None):
        seen["args"] = (fast, jobs)
        return "ok"

    original = report.explain_fig10
    report.explain_fig10 = fake
    try:
        assert report.explain("fig10", fast=True, jobs=3) == "ok"
    finally:
        report.explain_fig10 = original
    assert seen["args"] == (True, 3)
    with pytest.raises(ReproError):
        report.explain("fig99")


def test_empty_session_exports_are_valid(tmp_path):
    # A traced run that records no spans still produces loadable
    # artifacts: a schema-valid Chrome trace and a headed CSV.
    from repro.obs import (
        render_chrome_trace,
        render_metrics_csv,
        validate_chrome_trace,
    )

    with session(TelemetryConfig()) as sess:
        pass  # telemetry on, nothing instrumented ran
    payload = sess.to_payload()
    assert payload["tracks"] == {}
    document = json.loads(render_chrome_trace(payload, label="empty"))
    assert validate_chrome_trace(document) == []
    assert document["traceEvents"][0]["name"] == "trace_label"
    assert render_metrics_csv(payload) == "track,kind,name,labels,bin,value\n"
    assert render_collapsed(collapsed_stacks(payload)) == ""
    assert "(no spans recorded)" in render_svg(collapsed_stacks(payload))


@needs_fork
def test_flame_outputs_are_byte_identical_serial_vs_parallel(telemetry_run):
    def outputs(jobs):
        run = telemetry_run("fig11", jobs)
        stacks = collapsed_stacks(run.telemetry)
        return (
            render_collapsed(stacks),
            render_svg(stacks, title="fig11"),
            json.dumps(run.rollup, sort_keys=True),
        )

    serial = outputs(1)
    parallel = outputs(4)
    assert serial[0] == parallel[0]  # collapsed stacks
    assert serial[1] == parallel[1]  # SVG
    assert serial[2] == parallel[2]  # manifest rollup
    assert "npb.phase." in serial[0]


def test_campaign_rollup_lands_in_the_manifest_entry(tmp_path):
    from repro.runner import ExperimentSpec, ResultCache, run_campaign
    from repro.runner.manifest import campaign_entry

    campaign = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        telemetry=TelemetryConfig(),
    )
    run = campaign.runs[0]
    assert run.rollup is not None and run.rollup["spans"] > 0
    assert "rollup" not in run.artifact()  # never cached
    entry = campaign_entry(campaign, label="test")
    assert entry["experiments"]["fig6"]["rollup"] == run.rollup

    untraced = run_campaign(
        [ExperimentSpec("table1", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-b"),
    )
    assert untraced.runs[0].rollup is None
    assert "rollup" not in campaign_entry(untraced)["experiments"]["table1"]

"""The telemetry subsystem (``repro.obs``).

Contracts under test:

* enabling telemetry never perturbs a simulation (identical event-trace
  hashes with the recorder on and off);
* the message lifecycle is observable (eager/rendezvous spans, collective
  spans, cwnd samples, metrics);
* exports are byte-deterministic, schema-valid, and identical between a
  serial and a ``--jobs 4`` campaign;
* the diagnosis reports render deterministically.
"""

import json
import multiprocessing

import pytest

from repro.faults import FaultProfile
from repro.impls import get_implementation
from repro.obs import (
    TelemetryConfig,
    merge_payloads,
    render_chrome_trace,
    render_metrics_csv,
    render_metrics_json,
    validate_chrome_trace,
)
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import TelemetrySession, session
from repro.runner import ExperimentSpec, ResultCache, run_campaign
from repro.sim.core import trace_capture
from repro.tcp.connection import _Direction

from tests.conftest import make_cluster_job, make_grid_job

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests require the fork start method",
)


def _pingpong(nbytes, repeats=3):
    def program(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            for _ in range(repeats):
                yield from comm.send(1, nbytes=nbytes)
                yield from comm.recv(1)
        else:
            for _ in range(repeats):
                yield from comm.recv(0)
                yield from comm.send(0, nbytes=nbytes)

    return program


def _bcast_program(nbytes):
    def program(ctx):
        payload = "data" if ctx.rank == 0 else None
        yield from ctx.comm.bcast(payload, nbytes=nbytes, root=0)

    return program


# --- zero perturbation -------------------------------------------------------------
def test_telemetry_does_not_perturb_the_event_schedule():
    def run_once(telemetry):
        job = make_grid_job(impl_name="openmpi", nprocs=2)
        with trace_capture() as hasher:
            if telemetry:
                with session(TelemetryConfig()):
                    job.run(_pingpong(1024 * 1024))
            else:
                job.run(_pingpong(1024 * 1024))
        return hasher.hexdigest()

    assert run_once(False) == run_once(True)


def test_session_restored_even_when_the_block_raises():
    assert obs_runtime.ACTIVE is None
    with pytest.raises(RuntimeError):
        with session(TelemetryConfig()):
            assert obs_runtime.ACTIVE is not None
            raise RuntimeError("boom")
    assert obs_runtime.ACTIVE is None


# --- lifecycle instrumentation -----------------------------------------------------
def test_rendezvous_message_records_handshake_spans_and_metrics():
    job = make_grid_job(impl_name="openmpi", nprocs=2)
    with session(TelemetryConfig()) as sess:
        job.run(_pingpong(1024 * 1024))  # far above OpenMPI's 64 kB threshold
    names = sess.span_names()
    for span in ("rndv.announce", "rndv.ack", "rndv.handshake", "rndv.data", "mpi.job"):
        assert names.get(span, 0) > 0, f"missing span {span}: {names}"
    assert sess.counter_total("mpi.rndv_handshakes") > 0
    assert sess.counter_total("mpi.rndv_handshake_seconds") > 0
    assert sess.counter_value("mpi.sends", impl="openmpi", proto="rndv",
                              wan=True, context="p2p") > 0


def test_eager_message_records_eager_span_only():
    job = make_cluster_job(impl_name="mpich2", nprocs=2)
    with session(TelemetryConfig()) as sess:
        job.run(_pingpong(1024))  # well below the eager threshold
    names = sess.span_names()
    assert names.get("mpi.send.eager", 0) > 0
    assert "rndv.handshake" not in names


def test_collective_span_carries_the_selected_algorithm():
    job = make_grid_job(impl_name="gridmpi", nprocs=4)
    with session(TelemetryConfig()) as sess:
        job.run(_bcast_program(256 * 1024))
    names = sess.span_names()
    assert names.get("coll.bcast", 0) == 4  # one span per rank
    assert sess.counter_total("mpi.collective_calls") == 4.0


def test_tcp_layer_records_cwnd_samples_and_window_rounds():
    job = make_grid_job(impl_name="gridmpi", nprocs=2)
    with session(TelemetryConfig()) as sess:
        job.run(_pingpong(8 * 1024 * 1024, repeats=2))
    cwnd = sess.samples("tcp.cwnd")
    assert cwnd, "no congestion-window samples recorded"
    assert all(value > 0 for _, value in cwnd)
    assert sess.counter_total("tcp.window_rounds") > 0
    assert sess.counter_total("tcp.transfers") > 0


def _lossy_grid_job():
    """A two-rank GridMPI job whose WAN connections take 2% injected loss
    per window round."""
    lossy = FaultProfile(seed=20071126, loss_prob=0.02)
    impl = get_implementation("gridmpi").with_fault_profile(lossy)
    return make_grid_job(impl=impl, nprocs=2)


def _tcp_records(sess):
    """Per lane, the ``tcp.cwnd`` samples and TCP instants, record order."""
    lanes: dict[str, list] = {}
    for track in sess.tracks.values():
        for kind, ts, _dur, name, cat, lane, value in track.events:
            if name == "tcp.cwnd" or (kind == "i" and cat == "tcp"):
                lanes.setdefault(lane, []).append((ts, name, value))
    return lanes


def _record_rounds(monkeypatch, make_job, drive=None):
    """Run an 8 MB pingpong of ``make_job()`` traced, under ``drive`` (None:
    the real window driver); returns the session and its TCP records."""
    with monkeypatch.context() as patch:
        if drive is not None:
            patch.setattr(_Direction, "_drive", drive)
        job = make_job()
        with session(TelemetryConfig()) as sess:
            job.run(_pingpong(8 * 1024 * 1024, repeats=2))
    return sess, _tcp_records(sess)


def test_window_rounds_record_at_their_own_time(monkeypatch):
    """The driver replays skipped rounds on waking, yet every round still
    records one ``tcp.cwnd`` sample (and its loss / slow-start instants)
    at the round's own time: exactly what the per-RTT polling driver
    recorded, in time order within each lane."""
    from tests.test_tcp_window_driver import polling_drive

    sess, lanes = _record_rounds(monkeypatch, _lossy_grid_job)
    _, reference = _record_rounds(monkeypatch, _lossy_grid_job, polling_drive)
    assert lanes == reference
    samples = [r for records in lanes.values() for r in records if r[1] == "tcp.cwnd"]
    assert len(samples) == sess.counter_total("tcp.window_rounds") > 0
    assert sess.counter_value("tcp.losses", kind="injected", wan=True) > 0
    for records in lanes.values():
        times = [ts for ts, _, _ in records]
        assert times == sorted(times)


def test_held_rounds_record_like_the_polling_driver(monkeypatch):
    """On a clean path with untuned buffers the window soon outgrows the
    buffers and every later round is held: counted in one step on waking,
    yet recorded round by round exactly as the per-RTT polling driver
    recorded them."""
    from tests.test_tcp_window_driver import polling_drive

    def untuned_job():
        return make_grid_job(impl_name="gridmpi", nprocs=2, tuned=False)

    sess, lanes = _record_rounds(monkeypatch, untuned_job)
    ref_sess, reference = _record_rounds(monkeypatch, untuned_job, polling_drive)
    assert lanes == reference
    rounds = sess.counter_total("tcp.window_rounds")
    assert rounds == ref_sess.counter_total("tcp.window_rounds") > 0
    assert sess.counter_total("tcp.losses") == 0


def test_telemetry_does_not_perturb_a_lossy_window_limited_transfer():
    def run_once(telemetry):
        job = _lossy_grid_job()
        with trace_capture() as hasher:
            if telemetry:
                with session(TelemetryConfig()) as sess:
                    job.run(_pingpong(8 * 1024 * 1024, repeats=2))
                assert sess.counter_total("tcp.losses") > 0
            else:
                job.run(_pingpong(8 * 1024 * 1024, repeats=2))
        return hasher.hexdigest()

    assert run_once(False) == run_once(True)


def test_metrics_only_config_skips_spans():
    job = make_grid_job(impl_name="openmpi", nprocs=2)
    with session(TelemetryConfig(spans=False)) as sess:
        job.run(_pingpong(1024 * 1024))
    assert sess.span_names() == {}
    assert sess.counter_total("mpi.rndv_handshakes") > 0


# --- session mechanics -------------------------------------------------------------
def test_tracks_partition_records_and_empty_tracks_are_dropped():
    sess = TelemetrySession(TelemetryConfig())
    sess.count("x")
    with sess.track("a"):
        sess.count("x")
        with sess.track("b"):
            sess.count("x", inc=2.0)
        sess.count("x")
    with sess.track("empty"):
        pass
    payload = sess.to_payload()
    assert sorted(payload["tracks"]) == ["a", "b", "main"]
    by_track = {name: data["counters"][0][2] for name, data in payload["tracks"].items()}
    assert by_track == {"main": 1.0, "a": 2.0, "b": 2.0}


def test_histogram_bins_are_powers_of_two():
    sess = TelemetrySession(TelemetryConfig())
    for value in (0, 1, 3, 1024, 1025):
        sess.observe("bytes", value)
    payload = sess.to_payload()
    ((_, _, bins),) = payload["tracks"]["main"]["histograms"]
    assert bins == [[0, 1], [1, 1], [2, 1], [1024, 2]]


def test_merge_payloads_sums_counters_and_merges_histograms():
    def one(value):
        sess = TelemetrySession(TelemetryConfig())
        sess.count("n", inc=value, kind="a")
        sess.gauge("g", value)
        sess.observe("h", 8)
        return sess.to_payload()

    merged = merge_payloads([one(1.0), one(2.0)])
    track = merged["tracks"]["main"]
    assert track["counters"] == [["n", [["kind", "a"]], 3.0]]
    assert track["gauges"] == [["g", [], 2.0]]
    assert track["histograms"] == [["h", [], [[8, 2]]]]


# --- exporters ---------------------------------------------------------------------
def _record_sample_session():
    job = make_grid_job(impl_name="openmpi", nprocs=2)
    with session(TelemetryConfig(), default_track="test/grid") as sess:
        job.run(_pingpong(1024 * 1024))
    return sess.to_payload()


def test_chrome_trace_is_valid_and_byte_deterministic():
    first = render_chrome_trace(_record_sample_session(), label="t")
    second = render_chrome_trace(_record_sample_session(), label="t")
    assert first == second
    document = json.loads(first)
    assert validate_chrome_trace(document) == []
    phases = {event["ph"] for event in document["traceEvents"]}
    assert phases <= {"X", "i", "C", "M"}
    assert any(event["ph"] == "X" for event in document["traceEvents"])


def test_metric_dumps_are_byte_deterministic():
    payload = _record_sample_session()
    assert render_metrics_json(payload) == render_metrics_json(
        _record_sample_session()
    )
    csv = render_metrics_csv(payload)
    lines = csv.splitlines()
    assert lines[0] == "track,kind,name,labels,bin,value"
    assert any("mpi.rndv_handshakes" in line for line in lines)


def test_validator_flags_malformed_documents():
    assert validate_chrome_trace([]) == ["trace document is not a JSON object"]
    assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]
    errors = validate_chrome_trace(
        {
            "traceEvents": [
                {"ph": "Z", "pid": 1, "tid": 1, "ts": 0, "name": "x"},
                {"ph": "X", "pid": "one", "tid": 1, "ts": 0, "name": "x", "dur": -1},
                {"ph": "C", "pid": 1, "tid": 1, "ts": 0, "name": "x",
                 "args": {"value": "NaNish"}},
            ]
        }
    )
    assert len(errors) == 4  # bad phase, bad pid, bad dur, bad C args


# --- campaign integration ----------------------------------------------------------
def test_campaign_attaches_telemetry_and_bypasses_the_cache(tmp_path):
    campaign = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        jobs=1,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        telemetry=TelemetryConfig(),
    )
    assert campaign.ok and campaign.telemetry_enabled
    assert not campaign.cache_enabled
    run = campaign.runs[0]
    assert run.telemetry is not None
    assert any(name.startswith("pingpong/") for name in run.telemetry["tracks"])
    # Telemetry never leaks into the cacheable artifact.
    assert "telemetry" not in run.artifact()
    # The cache was bypassed: nothing was stored under the injected root.
    assert list(tmp_path.rglob("*.json")) == []


def test_campaign_without_telemetry_attaches_none(tmp_path):
    campaign = run_campaign(
        [ExperimentSpec("table1", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert campaign.ok and not campaign.telemetry_enabled
    assert campaign.runs[0].telemetry is None


@needs_fork
@pytest.mark.parametrize(
    "experiment_id",
    [
        "fig6",  # pingpong sweep, sharded per curve
        "fig11",  # NPB figure, sharded per benchmark point
        "faults_pingpong",  # fault sweep, sharded per curve
        "fig9",  # a whole experiment: the one shard experiment/fig9
    ],
)
def test_parallel_telemetry_exports_are_byte_identical_to_serial(
    telemetry_run, experiment_id
):
    def exports(jobs):
        run = telemetry_run(experiment_id, jobs)
        return (
            run.text,
            render_chrome_trace(run.telemetry, label=experiment_id),
            render_metrics_json(run.telemetry, label=experiment_id),
            render_metrics_csv(run.telemetry),
        )

    serial = exports(1)
    parallel = exports(4)
    assert serial[0] == parallel[0]  # the report itself
    assert serial[1] == parallel[1]  # the Chrome trace
    assert serial[2] == parallel[2]  # the metrics JSON
    assert serial[3] == parallel[3]  # the metrics CSV


def test_direct_run_records_the_campaign_tracks(telemetry_run):
    """``run_experiment`` runs a sharded experiment's plan with each shard
    under its task_id track, so a session around it exports what a
    campaign's merged shard sessions export."""
    from repro.experiments import run_experiment

    with session(TelemetryConfig()) as sess:
        text = run_experiment("fig6", fast=True).text
    run = telemetry_run("fig6", 1)
    assert text == run.text
    direct = sess.to_payload()
    assert sorted(direct["tracks"]) == sorted(run.telemetry["tracks"])
    assert render_chrome_trace(direct, label="fig6") == render_chrome_trace(
        run.telemetry, label="fig6"
    )
    assert render_metrics_json(direct, label="fig6") == render_metrics_json(
        run.telemetry, label="fig6"
    )


def test_telemetry_leaves_the_report_text_unchanged(tmp_path):
    with_telemetry = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        telemetry=TelemetryConfig(),
    )
    without = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-b"),
    )
    assert with_telemetry.runs[0].text == without.runs[0].text
    assert with_telemetry.runs[0].trace_hash == without.runs[0].trace_hash


# --- CLI + reports -----------------------------------------------------------------
def test_cli_trace_and_metrics_flags_write_valid_exports(tmp_path, capsys):
    from repro.cli import main

    trace_dir = tmp_path / "traces"
    metrics_dir = tmp_path / "metrics"
    assert (
        main(
            [
                "run", "fig7", "--fast",
                "--trace", str(trace_dir),
                "--metrics-out", str(metrics_dir),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "telemetry on" in err
    document = json.loads((trace_dir / "fig7.trace.json").read_text())
    assert validate_chrome_trace(document) == []
    names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert "rndv.handshake" in names
    metrics = json.loads((metrics_dir / "fig7.metrics.json").read_text())
    assert metrics["totals"]["counters"]
    assert (metrics_dir / "fig7.metrics.csv").read_text().startswith("track,kind")


def test_explain_fig7_is_deterministic_and_tells_the_threshold_story():
    from repro.obs.report import explain

    first = explain("fig7", fast=True)
    assert explain("fig7", fast=True) == first
    assert "rndv" in first and "OpenMPI" in first
    assert "128k" in first


def test_explain_fig9_is_deterministic_and_reports_slow_start():
    from repro.obs.report import explain

    first = explain("fig9", fast=True)
    assert explain("fig9", fast=True) == first
    assert "GridMPI" in first and "cwnd" in first


def test_explain_rejects_unknown_figures():
    from repro.errors import ReproError
    from repro.obs.report import explain

    with pytest.raises(ReproError):
        explain("fig3")


def test_profile_renders_a_hotspot_table():
    from repro.obs.profile import profile_report

    text = profile_report("table1", fast=True, top=5).text
    assert "table1" in text
    assert "cumulative" in text


def test_trace_schema_catalog_lists_exactly_the_registered_collectives():
    """``scripts/validate_trace.py --schema`` accepts a ``coll.<op>`` span
    for every registered collective operation and for no other, and its
    ``coll.<op>.hier.*`` phases for exactly the ops with a hierarchical
    variant."""
    import importlib.util
    import pathlib

    from repro.mpi.collectives import ALGORITHMS

    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "validate_trace.py"
    spec = importlib.util.spec_from_file_location("validate_trace", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert set(module._COLL_OPS.split("|")) == set(ALGORITHMS)
    hierarchical = {op for op, table in ALGORITHMS.items() if "hierarchical" in table}
    assert set(module._HIER_OPS.split("|")) == hierarchical

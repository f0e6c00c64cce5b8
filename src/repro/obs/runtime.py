"""The ambient telemetry session: span tracer + metrics registry.

Design
------
* **Ambient, zero-cost when off.**  Instrumentation sites throughout the
  simulator read the module global :data:`ACTIVE` and bail on ``None`` —
  one global load and an identity test, no function call.  Telemetry
  never creates simulation events, never yields and never reads the wall
  clock, so enabling it cannot change an experiment's event schedule (the
  determinism sanitizer's trace hash is identical with telemetry on and
  off; asserted by ``tests/test_obs.py``).

* **Sim-time-stamped.**  Every record carries the virtual time of the
  :class:`~repro.sim.core.Environment` that produced it, passed in
  explicitly by the instrumentation site (``env.now``); the session never
  holds a clock of its own because one experiment builds many
  environments.

* **Tracks.**  Records land in the session's *current track* — a named
  bucket such as ``pingpong/grid/fully_tuned/openmpi``.  Tracks are the
  unit of parallel merging: an experiment records each of its shards into
  the track named after its shard ``task_id`` while the serial path
  switches tracks at the same boundaries, so the exported telemetry is
  byte-identical between a serial run and a ``--jobs N`` run (exporters
  iterate tracks in sorted order, never completion order).

* **Aggregation.**  Metrics are counters (monotonic sums), gauges (last
  write wins) and histograms (power-of-two bins), keyed by name plus a
  sorted label tuple; memory stays O(distinct keys) over a full campaign.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

#: the installed session (``None`` = telemetry off).  Hot paths read this
#: directly: ``sess = runtime.ACTIVE`` / ``if sess is not None: ...``.
ACTIVE: Optional["TelemetrySession"] = None

#: name of the track records land in before any ``track()`` switch
DEFAULT_TRACK = "main"

#: one ``sim.queue_depth`` sample is recorded every this many events
SIM_SAMPLE_EVERY = 2048


@dataclass(frozen=True)
class TelemetryConfig:
    """What the session records.

    ``spans`` enables the event tracer (spans / instants / counter
    samples — everything the Chrome trace exporter consumes); ``metrics``
    enables the aggregating registry.  ``repro run --trace`` turns both
    on, ``--metrics-out`` alone only the registry.
    """

    spans: bool = True
    metrics: bool = True


def _labels_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_key(name: str, **labels: Any) -> tuple:
    """Precompute the registry key for a metric name + label set.

    Hot instrumentation sites (one `tcp.transfers` count per message, one
    `tcp.window_rounds` count per RTT) burn most of their telemetry budget
    stringifying and sorting the same one-label dict millions of times.
    Computing the key once at setup and recording through
    :meth:`TelemetrySession.count_key` / :meth:`~TelemetrySession.observe_key`
    leaves only a dict upsert on the hot path.  The key is exactly what the
    ``**labels`` forms produce, so handle-recorded and label-recorded
    metrics aggregate together.
    """
    return (name, _labels_key(labels))


def _hist_bin(value: float) -> int:
    """Power-of-two floor bin (0 for values below 1)."""
    v = int(value)
    if v < 1:
        return 0
    return 1 << (v.bit_length() - 1)


class TrackData:
    """Everything recorded under one track name."""

    __slots__ = ("events", "counters", "gauges", "histograms", "sample_countdown")

    def __init__(self) -> None:
        #: event records, in record (= simulation) order:
        #: ``("X", ts, dur, name, cat, lane, args)`` completed spans,
        #: ``("i", ts, 0,   name, cat, lane, args)`` instants,
        #: ``("C", ts, 0,   name, "",  lane, value)`` counter samples.
        self.events: list[tuple] = []
        self.counters: dict[tuple, float] = {}
        self.gauges: dict[tuple, float] = {}
        self.histograms: dict[tuple, dict[int, int]] = {}
        #: steps until the next queue-depth sample (counts down from
        #: :data:`SIM_SAMPLE_EVERY`, so samples land on the same every-Nth
        #: step positions as the old modulo scheme at a decrement's cost).
        #: Per *track*, not per session: a serial campaign (one session,
        #: many tracks) and a parallel one (one session per shard) then
        #: sample at the same offsets, which the serial==parallel export
        #: byte-identity contract relies on.
        self.sample_countdown = SIM_SAMPLE_EVERY

    @property
    def empty(self) -> bool:
        return not (self.events or self.counters or self.gauges or self.histograms)


class TelemetrySession:
    """One recording session (one experiment, one shard, one report)."""

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        default_track: str = DEFAULT_TRACK,
    ) -> None:
        self.config = config or TelemetryConfig()
        #: hot-path guards, hoisted out of the config object
        self.spans = self.config.spans
        self.metrics = self.config.metrics
        self.tracks: dict[str, TrackData] = {}
        self._current = self._track(default_track)

    # -- tracks -----------------------------------------------------------------
    def _track(self, name: str) -> TrackData:
        data = self.tracks.get(name)
        if data is None:
            data = self.tracks[name] = TrackData()
        return data

    @contextmanager
    def track(self, name: str) -> Iterator[None]:
        """Route records to track ``name`` for the duration of the block."""
        previous = self._current
        self._current = self._track(name)
        try:
            yield
        finally:
            self._current = previous

    # -- the tracer -------------------------------------------------------------
    def complete(
        self,
        ts: float,
        dur: float,
        name: str,
        cat: str,
        lane: str,
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed span (start time + duration, sim seconds)."""
        self._current.events.append(("X", ts, dur, name, cat, lane, args))

    def instant(
        self,
        ts: float,
        name: str,
        cat: str,
        lane: str,
        args: Optional[dict] = None,
    ) -> None:
        self._current.events.append(("i", ts, 0.0, name, cat, lane, args))

    def sample(self, ts: float, name: str, lane: str, value: float) -> None:
        """One point of a counter time series (Chrome ``ph: C``)."""
        self._current.events.append(("C", ts, 0.0, name, "", lane, value))

    def sim_step(self, now: float, queue_depth: int) -> None:
        """Called by ``Environment.step``; samples the queue depth sparsely."""
        current = self._current
        remaining = current.sample_countdown - 1
        if remaining:
            current.sample_countdown = remaining
        else:
            current.sample_countdown = SIM_SAMPLE_EVERY
            current.events.append(
                ("C", now, 0.0, "sim.queue_depth", "", "sim", float(queue_depth))
            )

    # -- the metrics registry ---------------------------------------------------
    def count(self, name: str, inc: float = 1.0, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        counters = self._current.counters
        counters[key] = counters.get(key, 0.0) + inc

    def count_key(self, key: tuple, inc: float = 1.0) -> None:
        """Like :meth:`count` with a :func:`metric_key` precomputed key."""
        counters = self._current.counters
        counters[key] = counters.get(key, 0.0) + inc

    def observe_key(self, key: tuple, value: float) -> None:
        """Like :meth:`observe` with a :func:`metric_key` precomputed key."""
        hists = self._current.histograms
        hist = hists.get(key)
        if hist is None:
            hist = hists[key] = {}
        b = _hist_bin(value)
        hist[b] = hist.get(b, 0) + 1

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self._current.gauges[(name, _labels_key(labels))] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        hist = self._current.histograms.get(key)
        if hist is None:
            hist = self._current.histograms[key] = {}
        b = _hist_bin(value)
        hist[b] = hist.get(b, 0) + 1

    # -- queries (used by the diagnosis reports) --------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        """Sum of one counter across every track (labels must match exactly)."""
        key = (name, _labels_key(labels))
        return sum(t.counters.get(key, 0.0) for t in self.tracks.values())

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label sets and tracks."""
        return sum(
            value
            for t in self.tracks.values()
            for (n, _), value in t.counters.items()
            if n == name
        )

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        key = (name, _labels_key(labels))
        for t in self.tracks.values():
            if key in t.gauges:
                return t.gauges[key]
        return None

    def samples(self, name: str, lane_prefix: str = "") -> list[tuple[float, float]]:
        """All ``(ts, value)`` counter samples of ``name``, every track,
        record order, optionally filtered by a lane prefix."""
        out: list[tuple[float, float]] = []
        for track_name in sorted(self.tracks):
            for record in self.tracks[track_name].events:
                if record[0] != "C" or record[3] != name:
                    continue
                if lane_prefix and not str(record[5]).startswith(lane_prefix):
                    continue
                out.append((record[1], float(record[6])))
        return out

    def span_names(self) -> dict[str, int]:
        """Span/instant name -> occurrence count (diagnostics, tests)."""
        names: dict[str, int] = {}
        for t in self.tracks.values():
            for record in t.events:
                if record[0] in ("X", "i"):
                    names[record[3]] = names.get(record[3], 0) + 1
        return dict(sorted(names.items()))

    # -- serialization ----------------------------------------------------------
    def to_payload(self) -> dict:
        """Canonical JSON-serialisable form (sorted; empty tracks dropped)."""
        tracks = {}
        for name in sorted(self.tracks):
            data = self.tracks[name]
            if data.empty:
                continue
            tracks[name] = {
                "events": [list(r) for r in data.events],
                "counters": [
                    [n, [list(p) for p in labels], data.counters[(n, labels)]]
                    for n, labels in sorted(data.counters)
                ],
                "gauges": [
                    [n, [list(p) for p in labels], data.gauges[(n, labels)]]
                    for n, labels in sorted(data.gauges)
                ],
                "histograms": [
                    [
                        n,
                        [list(p) for p in labels],
                        [[b, c] for b, c in sorted(data.histograms[(n, labels)].items())],
                    ]
                    for n, labels in sorted(data.histograms)
                ],
            }
        return {
            "schema": 1,
            "config": {"spans": self.spans, "metrics": self.metrics},
            "tracks": tracks,
        }


@contextmanager
def session(
    config: Optional[TelemetryConfig] = None,
    default_track: str = DEFAULT_TRACK,
) -> Iterator[TelemetrySession]:
    """Install a fresh session as the ambient one for the block.

    Sessions nest by save/restore; the previous session (usually ``None``)
    is reinstated on exit even when the block raises.
    """
    global ACTIVE
    sess = TelemetrySession(config, default_track=default_track)
    previous = ACTIVE
    ACTIVE = sess
    try:
        yield sess
    finally:
        ACTIVE = previous


@contextmanager
def track(name: str) -> Iterator[None]:
    """Module-level track switch: a no-op when telemetry is off."""
    sess = ACTIVE
    if sess is None:
        yield
        return
    with sess.track(name):
        yield


def merge_payloads(payloads: Iterable[dict]) -> dict:
    """Merge per-shard telemetry payloads into one canonical payload.

    Callers must pass payloads in a deterministic order (the runner uses
    sorted shard ``task_id`` order).  Track collisions — possible only for
    the default track — merge by concatenating events and summing
    counters/histogram bins; gauges are last-write-wins.
    """
    merged_config = {"spans": False, "metrics": False}
    tracks: dict[str, dict] = {}
    for payload in payloads:
        if not payload:
            continue
        cfg = payload.get("config", {})
        merged_config["spans"] = merged_config["spans"] or bool(cfg.get("spans"))
        merged_config["metrics"] = merged_config["metrics"] or bool(cfg.get("metrics"))
        for name, data in payload.get("tracks", {}).items():
            into = tracks.get(name)
            if into is None:
                tracks[name] = {
                    "events": list(data.get("events", [])),
                    "counters": [list(e) for e in data.get("counters", [])],
                    "gauges": [list(e) for e in data.get("gauges", [])],
                    "histograms": [list(e) for e in data.get("histograms", [])],
                }
                continue
            into["events"].extend(data.get("events", []))
            into["counters"] = _merge_sums(into["counters"], data.get("counters", []))
            into["gauges"] = _merge_last(into["gauges"], data.get("gauges", []))
            into["histograms"] = _merge_hists(
                into["histograms"], data.get("histograms", [])
            )
    return {
        "schema": 1,
        "config": merged_config,
        "tracks": {name: tracks[name] for name in sorted(tracks)},
    }


def _entry_key(entry: list) -> tuple:
    return (entry[0], tuple(tuple(p) for p in entry[1]))


def _merge_sums(base: list, extra: Iterable[list]) -> list:
    table = {_entry_key(e): e[2] for e in base}
    for entry in extra:
        key = _entry_key(entry)
        table[key] = table.get(key, 0.0) + entry[2]
    return [
        [name, [list(p) for p in labels], table[(name, labels)]]
        for name, labels in sorted(table)
    ]


def _merge_last(base: list, extra: Iterable[list]) -> list:
    table = {_entry_key(e): e[2] for e in base}
    for entry in extra:
        table[_entry_key(entry)] = entry[2]
    return [
        [name, [list(p) for p in labels], table[(name, labels)]]
        for name, labels in sorted(table)
    ]


def _merge_hists(base: list, extra: Iterable[list]) -> list:
    table: dict[tuple, dict[int, int]] = {
        _entry_key(e): {int(b): int(c) for b, c in e[2]} for e in base
    }
    for entry in extra:
        bins = table.setdefault(_entry_key(entry), {})
        for b, c in entry[2]:
            bins[int(b)] = bins.get(int(b), 0) + int(c)
    return [
        [
            name,
            [list(p) for p in labels],
            [[b, c] for b, c in sorted(table[(name, labels)].items())],
        ]
        for name, labels in sorted(table)
    ]

"""Diagnosis reports: the *why* behind the paper's headline figures.

``repro explain fig7`` and ``repro explain fig9`` re-run small, targeted
simulations with the telemetry recorder on and render what the metrics
say about the mechanism:

* **fig7** — the 128 kB bandwidth dip of Figure 6 is the eager→rendezvous
  threshold: every message above it pays one extra grid round trip for
  the handshake.  The report measures the handshake count and cost per
  message around each implementation's threshold, untuned (``tcp_tuned``,
  the Fig. 6 configuration) versus Table-5-tuned (``fully_tuned``,
  Fig. 7), and shows the dip disappearing.
* **fig9** — the seconds-long bandwidth ramp of Figure 9 is TCP slow
  start.  The report replays the 1 MB message stream per stack and lines
  up the congestion-window samples, slow-start exit times and loss
  counts next to the time each stack needs to reach 500 Mbps.
* **fig10** — where the grid's NPB slowdown lives.  The report replays
  the Figure 12 campaign (grid16 *and* cluster16, all implementations)
  with spans on and aggregates the new ``npb.phase.*`` instrumentation
  into a phase × placement breakdown plus the per-site-pair WAN-time
  matrix (``repro.obs.aggregate``): which phase of each kernel blows up
  on the grid, and which site pair's wire time pays for it.
* **coll_hier** — why the site-hierarchical collectives win (and where
  they don't): per-call WAN-crossing and WAN-byte counts for the flat
  and hierarchical variants, from the message trace of the ``coll_hier``
  experiment's single-call probes.

Reports are deterministic: they are derived purely from simulation state
(the same experiment + seed renders byte-identical text), which the test
suite asserts.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.obs.runtime import TelemetryConfig, session
from repro.report import Table, line_chart
from repro.units import KB, MB, fmt_bytes

#: sizes bracketing every implementation's eager threshold (Table 5)
_FIG7_SIZES_FAST = (64 * KB, 128 * KB, 256 * KB, 1 * MB)
_FIG7_SIZES_FULL = (32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB, 1 * MB, 4 * MB)


def explain(figure: str, fast: bool = True, jobs: int = 1) -> str:
    """Render the diagnosis report for ``figure`` (``fig7``, ``fig9``,
    ``fig10`` or ``coll_hier``).  ``jobs`` parallelises the fig10
    diagnosis campaign (the report is byte-identical for any value)."""
    if figure == "fig7":
        return explain_fig7(fast=fast)
    if figure == "fig9":
        return explain_fig9(fast=fast)
    if figure == "fig10":
        return explain_fig10(fast=fast, jobs=jobs)
    if figure == "coll_hier":
        return explain_coll_hier(fast=fast)
    raise ReproError(
        f"no diagnosis report for {figure!r} "
        "(available: fig7, fig9, fig10, coll_hier)"
    )


def _fmt_threshold(value: float) -> str:
    return "inf" if value == float("inf") else fmt_bytes(value)


def explain_fig7(fast: bool = True) -> str:
    """Why Fig. 6 dips at 128 kB — and why Fig. 7 does not."""
    from repro.apps.pingpong import mpi_pingpong
    from repro.experiments.environments import get_environment, pingpong_pair
    from repro.impls import IMPLEMENTATION_ORDER

    sizes = _FIG7_SIZES_FAST if fast else _FIG7_SIZES_FULL
    repeats = 3 if fast else 10

    table = Table(
        [
            "implementation",
            "threshold",
            "size",
            "proto",
            "handshakes",
            "handshake ms",
            "Mbps",
            "tuned Mbps",
        ],
        title="Fig. 7 explained: the eager→rendezvous threshold on the grid",
    )
    lines: list[str] = []
    for name in IMPLEMENTATION_ORDER:
        impl_by_env = {}
        bandwidth = {}
        handshake_stats = {}
        for env_name in ("tcp_tuned", "fully_tuned"):
            env = get_environment(env_name)
            impl = env.impl(name)
            impl_by_env[env_name] = impl
            net, a, b = pingpong_pair("grid")
            for nbytes in sizes:
                with session(TelemetryConfig(spans=False, metrics=True)) as sess:
                    curve = mpi_pingpong(
                        net,
                        impl,
                        a,
                        b,
                        sizes=(nbytes,),
                        repeats=repeats,
                        sysctls=env.sysctls,
                    )
                messages = 2.0 * repeats  # both directions of the pingpong
                handshakes = sess.counter_total("mpi.rndv_handshakes")
                seconds = sess.counter_total("mpi.rndv_handshake_seconds")
                bandwidth[(env_name, nbytes)] = curve.points[0].max_bandwidth_mbps
                handshake_stats[(env_name, nbytes)] = (
                    handshakes / messages,
                    (seconds / handshakes * 1e3) if handshakes else 0.0,
                )
        untuned = impl_by_env["tcp_tuned"]
        tuned = impl_by_env["fully_tuned"]
        for nbytes in sizes:
            per_msg, ms = handshake_stats[("tcp_tuned", nbytes)]
            table.add_row(
                [
                    untuned.display_name,
                    _fmt_threshold(untuned.eager_threshold),
                    fmt_bytes(nbytes),
                    "rndv" if per_msg else "eager",
                    per_msg,
                    ms,
                    bandwidth[("tcp_tuned", nbytes)],
                    bandwidth[("fully_tuned", nbytes)],
                ]
            )
        tuned_rndv = [
            fmt_bytes(s)
            for s in sizes
            if handshake_stats[("fully_tuned", s)][0] > 0
        ]
        lines.append(
            f"* {untuned.display_name}: threshold "
            f"{_fmt_threshold(untuned.eager_threshold)} -> "
            f"{_fmt_threshold(tuned.eager_threshold)}"
            + (
                f" (rendezvous remains at {', '.join(tuned_rndv)})"
                if tuned_rndv
                else " (rendezvous eliminated at these sizes)"
            )
        )

    header = (
        "Every message above the eager threshold opens with a rendezvous\n"
        "handshake: request out, acknowledgement back — one extra round trip\n"
        "before a byte of payload moves.  Negligible in a cluster (~58 us),\n"
        "ruinous on the grid (~11.6 ms RTT, paper §4.2.2): at 128 kB the\n"
        "handshake costs as much as the transfer itself, which is the dip of\n"
        "Fig. 6.  Table 5 raises the thresholds; Fig. 7 shows the dip gone.\n"
        "Measured below ('handshakes' = per message; 'Mbps' = untuned\n"
        "tcp_tuned environment, 'tuned Mbps' = fully_tuned):"
    )
    footer = "Threshold tuning applied (Table 5):\n" + "\n".join(lines)
    return "\n".join([header, "", table.render(), "", footer])


def explain_fig9(fast: bool = True) -> str:
    """Why every stack needs seconds to reach full grid bandwidth."""
    from repro.apps.pingpong import mpi_stream, tcp_stream
    from repro.experiments.environments import get_environment, pingpong_pair
    from repro.impls import IMPLEMENTATION_ORDER

    # Match the fig9 experiment's stream length so t500 lines up with the
    # committed golden.
    count = 80 if fast else 250
    env = get_environment("fully_tuned")

    table = Table(
        [
            "stack",
            "peak Mbps",
            "t500 (s)",
            "cwnd start",
            "cwnd peak",
            "ss exit (s)",
            "losses",
        ],
        title="Fig. 9 explained: TCP slow start under a 1 MB message stream",
    )
    cwnd_series: dict[str, list[tuple[float, float]]] = {}
    for label in ("TCP", *IMPLEMENTATION_ORDER):
        net, a, b = pingpong_pair("grid")
        with session(TelemetryConfig(spans=True, metrics=True)) as sess:
            if label == "TCP":
                samples = tcp_stream(net, a, b, nbytes=MB, count=count, sysctls=env.sysctls)
                display = "TCP"
            else:
                impl = env.impl(label)
                samples = mpi_stream(
                    net, impl, a, b, nbytes=MB, count=count, sysctls=env.sysctls
                )
                display = impl.display_name

        peak = max(s.bandwidth_mbps for s in samples)
        t500 = next((s.time for s in samples if s.bandwidth_mbps >= 500), float("inf"))
        cwnd = sess.samples("tcp.cwnd")
        exits = [
            value
            for track in sess.tracks.values()
            for (metric, _), value in sorted(track.gauges.items())
            if metric == "tcp.slowstart_exit_s"
        ]
        losses = sess.counter_total("tcp.losses")
        table.add_row(
            [
                display,
                peak,
                t500,
                fmt_bytes(cwnd[0][1]) if cwnd else "-",
                fmt_bytes(max(v for _, v in cwnd)) if cwnd else "-",
                min(exits) if exits else float("inf"),
                int(losses),
            ]
        )
        if cwnd:
            stride = max(1, len(cwnd) // 48)
            cwnd_series[display] = [
                (ts, value / KB) for ts, value in cwnd[::stride]
            ]

    header = (
        "A fresh TCP connection probes for bandwidth: the congestion window\n"
        "starts near one MSS and doubles per round trip (slow start) until\n"
        "the first loss, then grows linearly.  With an 11.6 ms grid RTT the\n"
        "probe alone takes seconds — every stack's 1 MB stream ramps slowly\n"
        "(paper §4.2.3, Fig. 9).  'ss exit' is when the window left slow\n"
        "start; pacing (GridMPI) tames the burst losses of the ramp:"
    )
    chart = line_chart(
        cwnd_series,
        title="congestion window ramp (kB) vs time (s)",
        y_label="kB",
    )
    return "\n".join([header, "", table.render(), "", chart])


#: the NPB kernels carrying ``npb.phase.*`` instrumentation
_FIG10_BENCHES = ("cg", "mg", "sp", "bt", "is")


def explain_fig10(fast: bool = True, jobs: int = 1, payload=None) -> str:
    """Where the grid's NPB slowdown lives: phase × site-pair aggregates.

    ``payload`` short-circuits the campaign (tests inject a pre-collected
    one); otherwise the fig12 experiment — grid16 and cluster16, every
    implementation — runs under the campaign runner with spans on.  The
    rendered report is a pure function of the merged payload, hence
    byte-identical serial vs ``--jobs N``.
    """
    from repro.obs import aggregate as _agg

    if payload is None:
        from repro.obs.flame import experiment_payload

        payload = experiment_payload("fig12", fast=fast, jobs=jobs)

    phase_totals = _agg.npb_phase_totals(payload)

    def bench_phases(placement: str, bench: str) -> dict[str, int]:
        track = f"npb/{placement}/{bench}"
        merged: dict[str, int] = {}
        for (tr, _impl, phase), t in phase_totals.items():
            if tr == track:
                merged[phase] = merged.get(phase, 0) + t
        return merged

    table = Table(
        [
            "bench",
            "phase",
            "grid s",
            "grid share",
            "cluster s",
            "grid/cluster",
        ],
        title="Fig. 10 explained: NPB phase breakdown, grid16 vs cluster16",
    )
    dominant: dict[str, tuple[str, int, int]] = {}  # bench -> (phase, ticks, total)
    for bench in _FIG10_BENCHES:
        grid = bench_phases("grid16", bench)
        cluster = bench_phases("cluster16", bench)
        total = sum(grid.values())
        if not total:
            continue
        for phase in sorted(grid, key=lambda p: (-grid[p], p)):
            g, c = grid[phase], cluster.get(phase, 0)
            table.add_row(
                [
                    bench,
                    phase,
                    f"{g / 1e6:.3f}",
                    f"{100.0 * g / total:.1f}%",
                    f"{c / 1e6:.3f}",
                    f"x{g / c:.2f}" if c else "-",
                ]
            )
        top = max(grid, key=lambda p: (grid[p], p))
        dominant[bench] = (top, grid[top], total)

    grid_tracks = {
        track for track in payload.get("tracks", {}) if track.startswith("npb/grid16/")
    }
    matrix = _agg.site_pair_matrix(payload, tracks=grid_tracks)
    wall = {
        pair: cell.transmit_ticks + cell.handshake_ticks
        for pair, cell in matrix.items()
    }
    total_wall = sum(wall.values())
    wan_table = Table(
        [
            "site pair",
            "transfers",
            "bytes",
            "transmit s",
            "retransmits",
            "handshakes",
            "handshake s",
            "wall share",
        ],
        title="WAN-time matrix (grid16, all implementations)",
    )
    for pair in sorted(matrix, key=lambda p: (-wall[p], p)):
        cell = matrix[pair]
        wan_table.add_row(
            [
                f"{pair[0]} -> {pair[1]}",
                cell.transfers,
                fmt_bytes(cell.bytes),
                f"{cell.transmit_ticks / 1e6:.3f}",
                cell.retransmits,
                cell.handshakes,
                f"{cell.handshake_ticks / 1e6:.3f}",
                f"{100.0 * wall[pair] / total_wall:.1f}%" if total_wall else "-",
            ]
        )

    header = (
        "The paper's Fig. 10/12 story: on the 8+8 grid the NPB kernels pay\n"
        "for every inter-site message.  The phase spans below say *where*:\n"
        "per kernel, the rank-time of each phase (summed over ranks and\n"
        "implementations, in virtual seconds) on the grid versus the same\n"
        "16 ranks in one cluster.  The WAN matrix then prices the wire: the\n"
        "window-limited transfer time, congestion losses and rendezvous\n"
        "handshakes per (source site -> destination site) pair:"
    )

    lines = []
    for bench in _FIG10_BENCHES:
        if bench not in dominant:
            continue
        phase, t, total = dominant[bench]
        lines.append(
            f"* {bench}: dominant phase '{phase}' "
            f"({100.0 * t / total:.1f}% of {total / 1e6:.3f} s rank-time)"
        )
    if dominant:
        all_bench, (all_phase, all_ticks, _) = max(
            dominant.items(), key=lambda kv: (kv[1][1], kv[0])
        )
        grand_total = sum(total for _, _, total in dominant.values())
        lines.append(
            f"* dominant phase overall: {all_bench} '{all_phase}' "
            f"({100.0 * all_ticks / grand_total:.1f}% of all instrumented "
            f"rank-time, {all_ticks / 1e6:.3f} s)"
        )
    wan_pairs = {p: w for p, w in wall.items() if p[0] != p[1]}
    if wan_pairs and total_wall:
        top_pair = max(wan_pairs, key=lambda p: (wan_pairs[p], p))
        lines.append(
            f"* top WAN site pair: {top_pair[0]} -> {top_pair[1]} "
            f"({100.0 * wan_pairs[top_pair] / total_wall:.1f}% of all "
            f"tracked wire time, {wan_pairs[top_pair] / 1e6:.3f} s)"
        )
    footer = "Diagnosis:\n" + "\n".join(lines)
    return "\n".join([header, "", table.render(), "", wan_table.render(), "", footer])


def explain_coll_hier(fast: bool = True) -> str:
    """Why the hierarchy helps: count what actually crosses the WAN."""
    from repro.experiments import run_experiment

    result = run_experiment("coll_hier", fast)
    table = Table(
        [
            "collective",
            "size",
            "flat WAN msgs",
            "hier WAN msgs",
            "flat WAN bytes",
            "hier WAN bytes",
            "speedup",
        ],
        title="coll_hier explained: per-call WAN crossings, flat vs hierarchical",
    )
    for row in result.rows:
        table.add_row(
            [
                f"{row['op']} ({row['flat_algorithm']})",
                fmt_bytes(row["nbytes"]),
                int(row["wan_msgs_flat"]),
                int(row["wan_msgs_hier"]),
                fmt_bytes(row["wan_bytes_flat"]),
                fmt_bytes(row["wan_bytes_hier"]),
                f"x{row['speedup']:.2f}",
            ]
        )
    header = (
        "A flat collective schedules its tree over rank numbers, blind to\n"
        "sites: under the cyclic rank placement almost every tree edge is a\n"
        "WAN edge, so O(P) full payloads cross the 11.6 ms path per call.\n"
        "The hierarchical variants elect one leader per site (lowest rank;\n"
        "the root's site keeps the root) and only leaders talk across the\n"
        "WAN.  For reduce/allreduce the partials combine *before* crossing,\n"
        "cutting WAN bytes by the site fan-in — that is the large-message\n"
        "speedup.  Gather's bytes are irreducible (everything must reach the\n"
        "root), so its single aggregated transfer saves crossings but loses\n"
        "the flat tree's parallel WAN streams once bandwidth dominates:"
    )
    return "\n".join([header, "", table.render()])

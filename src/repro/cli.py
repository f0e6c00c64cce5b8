"""Command-line interface: ``repro list`` / ``run`` / ``explain`` /
``flame`` / ``profile`` / ``cache`` / ``lint`` / ``sanitize``.

Examples::

    repro list
    repro run table4
    repro run fig7 --full
    repro run all --fast
    repro run fig6 fig9 --fast      # several experiments, one campaign
    repro run all --fast --jobs 8   # parallel orchestrator + result cache
    repro run all --full --out results   # regenerate the paper-scale goldens
    repro run fig7 --fast --trace   # record telemetry; Chrome trace to traces/
    repro run all --metrics-out m   # metric dumps (JSON + CSV) to m/
    repro explain fig7              # why the 128 kB rendezvous dip happens
    repro explain fig9              # the slow-start ramp, stack by stack
    repro explain fig10             # NPB phase x site-pair grid diagnosis
    repro flame fig10               # span analytics: frames, WAN matrix, path
    repro flame fig10 --collapsed   # collapsed stacks for external tools
    repro flame fig10 --svg --out f.svg   # deterministic flamegraph SVG
    repro profile table7            # cProfile hotspot table of one experiment
    repro profile fig9 --record     # also log the top rows to the manifest
    repro cache ls fig7             # fig7's cached shards + provenance, no re-run
    repro cache stats               # entry count, bytes, last campaign hits
    repro lint                      # lint src/repro for determinism hazards
    repro lint --rules              # print the rule catalog
    repro sanitize fig3             # double-run trace-hash determinism check
    repro sanitize fig7 --perturb   # adversarial same-timestamp reordering
    repro cache prune --max-size 256MB   # bound .repro-cache/, oldest first
"""

from __future__ import annotations

import argparse
import math
import sys

from repro._version import __version__


def _jobs_count(value: str) -> int:
    """``--jobs`` values: a strictly positive worker count.

    Rejecting 0/negative up front beats silently clamping: a caller asking
    for ``--jobs 0`` expected *something* ("auto"?), and quietly running
    serial would mask the misunderstanding.
    """
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1, got {jobs} "
            "(use --jobs 1 for a serial in-process run)"
        )
    return jobs


def _age_days(value: str) -> float:
    """``--max-age-days`` values: a finite, non-negative number of days.

    A negative age would evict every entry and ``nan`` none, each silently.
    """
    try:
        days = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not 0 <= days < math.inf:
        raise argparse.ArgumentTypeError(
            f"age must be a finite number of days >= 0, got {value!r}"
        )
    return days


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Comparison and tuning of MPI implementations "
            "in a grid context' (Hablot et al., 2007) on a simulated Grid'5000."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible tables and figures")

    run = sub.add_parser("run", help="run experiments (or 'all') as one campaign")
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="experiment",
        help="experiment ids, e.g. table4 fig7, or 'all'",
    )
    mode = run.add_mutually_exclusive_group()
    mode.add_argument(
        "--fast",
        action="store_true",
        help="reduced repeats/problem class (default)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="paper-scale configuration (slow: class B, 100+ repeats)",
    )
    run.add_argument(
        "--jobs",
        "-j",
        type=_jobs_count,
        default=1,
        metavar="N",
        help="worker processes (>= 1); 1 (the default) runs every task "
        "in-process, N > 1 on a pool of worker processes",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the .repro-cache/ result cache",
    )
    run.add_argument(
        "--out",
        metavar="DIR",
        help="also write <id>.txt reports and json/<id>.json artifacts to DIR",
    )
    run.add_argument(
        "--bench",
        metavar="PATH",
        default=None,
        help="append the campaign's timing entry to the manifest at PATH "
        "(without it, no manifest is written)",
    )
    run.add_argument(
        "--trace",
        nargs="?",
        const="traces",
        default=None,
        metavar="DIR",
        help="record telemetry and write a Chrome trace-event JSON per "
        "experiment to DIR (default traces/; open in Perfetto or "
        "about:tracing).  Telemetry runs bypass the result cache.",
    )
    run.add_argument(
        "--metrics-out",
        metavar="DIR",
        default=None,
        help="record telemetry metrics and write <id>.metrics.json and "
        "<id>.metrics.csv per experiment to DIR",
    )

    lint = sub.add_parser(
        "lint", help="static determinism/unit-safety analysis of the source tree"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to enable exclusively (e.g. DET001,UNIT003)",
    )
    lint.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )

    explain = sub.add_parser(
        "explain",
        help="diagnosis report: what the telemetry says about a figure",
    )
    explain.add_argument(
        "figure",
        choices=("fig7", "fig9", "fig10", "coll_hier"),
        help="figure/experiment to explain",
    )
    explain.add_argument(
        "--full", action="store_true", help="paper-scale probe runs (slower)"
    )
    explain.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        metavar="N",
        help="worker processes for the fig10 diagnosis campaign "
        "(the report is byte-identical for any value)",
    )

    flame = sub.add_parser(
        "flame",
        help="span analytics of one traced experiment: flamegraph, "
        "WAN-time matrix, critical path",
    )
    flame.add_argument("experiment", help="experiment id, e.g. fig10")
    flame.add_argument(
        "--full", action="store_true", help="paper-scale configuration (slow)"
    )
    flame.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        metavar="N",
        help="worker processes (the output is byte-identical for any value)",
    )
    flame_mode = flame.add_mutually_exclusive_group()
    flame_mode.add_argument(
        "--collapsed",
        action="store_true",
        help="emit collapsed stacks (`a;b;c ticks`) for external flamegraph tools",
    )
    flame_mode.add_argument(
        "--svg",
        action="store_true",
        help="emit a self-contained deterministic flamegraph SVG",
    )
    flame_mode.add_argument(
        "--site-pairs",
        action="store_true",
        help="emit only the per-site-pair WAN-time matrix",
    )
    flame.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the output to PATH instead of stdout",
    )

    profile = sub.add_parser(
        "profile", help="cProfile hotspot table of one experiment"
    )
    profile.add_argument("experiment", help="experiment id, e.g. table7")
    profile.add_argument(
        "--full", action="store_true", help="paper-scale configuration (slow)"
    )
    profile.add_argument(
        "--top",
        type=int,
        default=25,
        metavar="N",
        help="number of functions to list (default 25)",
    )
    profile.add_argument(
        "--record",
        nargs="?",
        const="BENCH_experiments.json",
        default=None,
        metavar="PATH",
        help="also record the hotspot rows into the timing manifest "
        "(default BENCH_experiments.json)",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="runtime determinism check: run an experiment twice, compare trace hashes",
    )
    sanitize.add_argument("experiment", help="experiment id, e.g. fig3")
    sanitize.add_argument(
        "--runs", type=int, default=2, help="number of instrumented runs (default 2)"
    )
    sanitize.add_argument(
        "--full", action="store_true", help="paper-scale configuration (slow)"
    )
    sanitize.add_argument(
        "--perturb",
        action="store_true",
        help="re-run with adversarially permuted same-timestamp event ordering "
        "and require byte-identical results (schedule-sensitivity check)",
    )
    sanitize.add_argument(
        "--seeds",
        type=int,
        default=3,
        metavar="N",
        help="number of permutation seeds for --perturb (default 3)",
    )
    sanitize.add_argument(
        "--write-result",
        metavar="PATH",
        default=None,
        help="with --perturb: write the unperturbed run's rendered result to "
        "PATH (for golden diffs) and a .json report alongside",
    )
    sanitize.add_argument(
        "--result-only",
        action="store_true",
        help="with --perturb: gate on rendered-result byte-identity only, "
        "reporting (but not failing on) schedule-projection drift — for "
        "experiments whose timing tail legitimately depends on "
        "same-timestamp matching order (table6/table7)",
    )

    cache = sub.add_parser("cache", help="manage the .repro-cache/ result store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    ls = cache_sub.add_parser(
        "ls",
        help="look up cached shard entries and their provenance without "
        "re-running",
    )
    ls.add_argument(
        "pattern",
        help="substring of a shard task id (e.g. ray2mesh, grid16), or an "
        "experiment id, which also lists its shard plan's entries (e.g. fig7)",
    )
    ls.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="cache directory (default .repro-cache/)",
    )
    stats = cache_sub.add_parser(
        "stats",
        help="entry count, on-disk bytes, and the last campaign's hit/miss "
        "counters",
    )
    stats.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="cache directory (default .repro-cache/)",
    )
    prune = cache_sub.add_parser(
        "prune",
        help="drop old entries: stale source digests accumulate forever otherwise",
    )
    prune.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="cache directory (default .repro-cache/)",
    )
    prune.add_argument(
        "--max-size",
        metavar="SIZE",
        default=None,
        help="size cap, oldest entries evicted first (e.g. 64MB; default 256MB "
        "when no --max-age-days is given)",
    )
    prune.add_argument(
        "--max-age-days",
        type=_age_days,
        default=None,
        metavar="D",
        help="also drop entries not written in the last D days",
    )
    prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    return parser


def _split_rules(text: "str | None") -> "list[str] | None":
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_lint(args) -> int:
    from repro.analysis.linter import RULE_CATALOG, lint_paths, render_report

    if args.rules:
        for rule, description in sorted(RULE_CATALOG.items()):
            print(f"{rule}  {description}")
        return 0
    violations = lint_paths(
        args.paths or None,
        select=_split_rules(args.select),
        ignore=_split_rules(args.ignore),
    )
    print(render_report(violations))
    return 1 if violations else 0


def _cmd_sanitize(args) -> int:
    if args.perturb:
        from repro.analysis.perturb import perturb

        report = perturb(
            args.experiment,
            fast=not args.full,
            seeds=tuple(range(1, max(1, args.seeds) + 1)),
            require_projection=not args.result_only,
        )
        print(report.render())
        if args.write_result:
            import json
            from pathlib import Path

            out = Path(args.write_result)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(report.result_text + "\n", encoding="utf-8")
            json_path = out.with_suffix(out.suffix + ".perturb.json")
            json_path.write_text(
                json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
            )
            print(f"[result: {out}, report: {json_path}]", file=sys.stderr)
        return 0 if report.passed else 1

    from repro.analysis.sanitizer import sanitize

    report = sanitize(args.experiment, fast=not args.full, runs=args.runs)
    print(report.render())
    return 0 if report.deterministic else 1


def _plan_task_ids(experiment_id: str) -> frozenset[str]:
    """The task ids of the experiment's fast and full shard plans; empty
    when ``experiment_id`` names no experiment."""
    from repro.experiments.registry import EXPERIMENTS, get_shard_plan

    if experiment_id.lower() not in EXPERIMENTS:
        return frozenset()
    return frozenset(
        shard.task_id
        for fast in (True, False)
        for shard in get_shard_plan(experiment_id, fast).shards
    )


def _cmd_cache(args) -> int:
    from repro.runner.cache import (
        cache_stats,
        list_entries,
        prune_cache,
        render_entry,
    )
    from repro.units import parse_size

    if args.cache_command == "stats":
        print(cache_stats(root=args.root).render())
        return 0
    if args.cache_command == "ls":
        entries = list_entries(
            args.pattern, root=args.root, plan_ids=_plan_task_ids(args.pattern)
        )
        n = len(entries)
        print(f"cache ls {args.pattern!r}: {n or 'no'} match{'' if n == 1 else 'es'}")
        for path, document in entries:
            print(render_entry(path, document))
        return 0 if entries else 1

    try:
        max_bytes = parse_size(args.max_size) if args.max_size else None
    except ValueError as exc:
        print(f"repro cache prune: {exc}", file=sys.stderr)
        return 2
    if max_bytes is not None and max_bytes < 0:
        print(
            f"repro cache prune: size must be >= 0, got {args.max_size!r}",
            file=sys.stderr,
        )
        return 2
    max_age = args.max_age_days * 86400.0 if args.max_age_days is not None else None
    report = prune_cache(
        root=args.root,
        max_bytes=max_bytes,
        max_age_seconds=max_age,
        dry_run=args.dry_run,
    )
    print(report.render())
    return 0


def _cmd_explain(args) -> int:
    from repro.obs.report import explain

    print(explain(args.figure, fast=not args.full, jobs=args.jobs))
    return 0


def _cmd_flame(args) -> int:
    from repro.experiments import get_experiment
    from repro.obs import aggregate as agg
    from repro.obs.flame import experiment_payload, render_collapsed, render_svg
    from repro.report import Table
    from repro.units import fmt_bytes

    get_experiment(args.experiment)  # unknown ids raise before simulating
    payload = experiment_payload(args.experiment, fast=not args.full, jobs=args.jobs)
    stacks = agg.collapsed_stacks(payload)

    if args.collapsed:
        text = render_collapsed(stacks)
    elif args.svg:
        text = render_svg(stacks, title=f"{args.experiment} span flamegraph")
    elif args.site_pairs:
        text = _flame_site_pairs(agg, payload, fmt_bytes, Table) + "\n"
    else:
        frames = agg.frame_stats(payload)
        top = Table(
            ["stack", "calls", "self s", "cum s"],
            title=f"{args.experiment}: top frames by self time "
            "(virtual seconds; one tick = 1 us)",
        )
        ranked = sorted(frames.values(), key=lambda f: (-f.self_ticks, f.key))
        for frame in ranked[:20]:
            top.add_row(
                [
                    frame.key,
                    frame.calls,
                    f"{frame.self_ticks / agg.SPAN_TICKS_PER_SECOND:.3f}",
                    f"{frame.cum_ticks / agg.SPAN_TICKS_PER_SECOND:.3f}",
                ]
            )
        chain = agg.critical_path(payload)
        crit = Table(
            ["depth", "span", "lane", "s"],
            title="critical path (longest last-finishing chain)",
        )
        for hop in chain:
            crit.add_row(
                [
                    hop["depth"],
                    hop["name"],
                    hop["lane"],
                    f"{hop['ticks'] / agg.SPAN_TICKS_PER_SECOND:.3f}",
                ]
            )
        text = "\n\n".join(
            [
                top.render(),
                _flame_site_pairs(agg, payload, fmt_bytes, Table),
                crit.render(),
            ]
        ) + "\n"

    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"[flame output: {out}]", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _flame_site_pairs(agg, payload, fmt_bytes, table_cls) -> str:
    matrix = agg.site_pair_matrix(payload)
    table = table_cls(
        [
            "site pair",
            "transfers",
            "bytes",
            "transmit s",
            "retransmits",
            "handshakes",
            "handshake s",
        ],
        title="WAN-time matrix (site-tagged tcp.transmit / rndv spans)",
    )
    for pair in sorted(matrix):
        cell = matrix[pair]
        table.add_row(
            [
                f"{pair[0]} -> {pair[1]}",
                cell.transfers,
                fmt_bytes(cell.bytes),
                f"{cell.transmit_ticks / agg.SPAN_TICKS_PER_SECOND:.3f}",
                cell.retransmits,
                cell.handshakes,
                f"{cell.handshake_ticks / agg.SPAN_TICKS_PER_SECOND:.3f}",
            ]
        )
    return table.render()


def _cmd_profile(args) -> int:
    from repro.experiments import get_experiment
    from repro.obs.profile import profile_report

    get_experiment(args.experiment)  # unknown ids raise before profiling
    report = profile_report(args.experiment, fast=not args.full, top=args.top)
    print(report.text)
    if args.record is not None:
        from repro.runner.manifest import record_profile

        path = record_profile(
            report.experiment_id,
            report.fast,
            report.rows,
            report.wall_s,
            path=args.record,
        )
        print(f"[profile recorded: {path}]", file=sys.stderr)
    return 0


def _write_telemetry(campaign, trace_dir, metrics_dir) -> None:
    """Write per-experiment trace / metric exports for a telemetry campaign."""
    from pathlib import Path

    from repro.obs import (
        render_chrome_trace,
        render_metrics_csv,
        render_metrics_json,
    )

    for run in campaign.runs:
        if not run.ok or run.telemetry is None:
            continue
        if trace_dir is not None:
            out = Path(trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{run.experiment_id}.trace.json"
            path.write_text(
                render_chrome_trace(run.telemetry, label=run.experiment_id),
                encoding="utf-8",
            )
            print(f"[trace: {path}]", file=sys.stderr)
        if metrics_dir is not None:
            out = Path(metrics_dir)
            out.mkdir(parents=True, exist_ok=True)
            json_path = out / f"{run.experiment_id}.metrics.json"
            json_path.write_text(
                render_metrics_json(run.telemetry, label=run.experiment_id),
                encoding="utf-8",
            )
            csv_path = out / f"{run.experiment_id}.metrics.csv"
            csv_path.write_text(render_metrics_csv(run.telemetry), encoding="utf-8")
            print(f"[metrics: {json_path}, {csv_path}]", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "flame":
        return _cmd_flame(args)
    if args.command == "profile":
        return _cmd_profile(args)

    from repro.experiments import EXPERIMENTS, get_experiment

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    from repro.runner import ExperimentSpec, record_campaign, run_campaign

    fast = not args.full
    wants_all = any(experiment_id.lower() == "all" for experiment_id in args.experiments)
    ids = sorted(EXPERIMENTS) if wants_all else list(dict.fromkeys(args.experiments))
    for experiment_id in ids:
        get_experiment(experiment_id)  # unknown ids raise before any work runs

    telemetry = None
    if args.trace is not None or args.metrics_out is not None:
        from repro.obs import TelemetryConfig

        # --metrics-out alone records only the registry; --trace records
        # spans too (the registry is always on, so one flag gives both exports).
        telemetry = TelemetryConfig(spans=args.trace is not None)
        print("[telemetry on: result cache bypassed]", file=sys.stderr)

    campaign = run_campaign(
        [ExperimentSpec(experiment_id, fast=fast) for experiment_id in ids],
        jobs=args.jobs,
        use_cache=not args.no_cache,
        out_dir=args.out,
        telemetry=telemetry,
    )
    if telemetry is not None:
        _write_telemetry(campaign, args.trace, args.metrics_out)
    for run in campaign.runs:
        if not run.ok:
            continue
        print(run.text)
        suffix = ", cached" if run.cached else ""
        print(f"[{run.experiment_id}: {run.wall_s:.1f}s wall{suffix}]")
        print()
    for run in campaign.failures:
        print(f"[{run.experiment_id}: FAILED — {run.error}]", file=sys.stderr)
    print(f"[{campaign.cache_summary()}]", file=sys.stderr)
    if args.bench is not None:
        record_campaign(campaign, path=args.bench, label="repro run")
    return 0 if campaign.ok else 1


if __name__ == "__main__":
    sys.exit(main())

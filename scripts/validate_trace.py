#!/usr/bin/env python
"""Validate Chrome trace-event exports (CI telemetry smoke).

    python scripts/validate_trace.py traces/*.trace.json
    python scripts/validate_trace.py --require-span rndv.handshake traces/fig7.trace.json
    python scripts/validate_trace.py --schema traces/fig10.trace.json

Checks each file against the trace-event schema (`repro.obs.
validate_chrome_trace`) so a malformed export fails the build loudly
instead of silently refusing to load in Perfetto.  ``--require-span``
additionally asserts that at least one complete ("X") span with the
given name is present — CI uses it to pin the acceptance criterion that
a traced fig7 run contains rendezvous-handshake spans.  ``--schema``
checks every span/instant name against the simulator's span catalog
below and that site-tagged spans actually carry their required args, so
a renamed span or a dropped ``src_site`` tag cannot slip past CI and
silently empty the flamegraph / WAN-matrix aggregations.
"""

import argparse
import json
import re
import sys

#: every collective operation the simulator registers, and those with a
#: ``hierarchical`` variant (a tier-1 test pins both lists to
#: ``repro.mpi.collectives.ALGORITHMS``)
_COLL_OPS = "barrier|bcast|reduce|allreduce|gather|allgather|alltoallv"
_HIER_OPS = "reduce|allreduce|gather"

#: every complete-span ("X") name the simulator can emit
SPAN_CATALOG = [
    r"mpi\.job",
    r"mpi\.send\.eager",
    r"rndv\.(announce|handshake|data|ack)",
    rf"coll\.({_COLL_OPS})",
    rf"coll\.({_HIER_OPS})\.hier\.(lan|wan)",
    r"bcast\.vdg\.(scatter|allgather)",
    r"allreduce\.rab\.(reduce_scatter|allgather)",
    r"npb\.phase\.[a-z][a-z0-9_]*",
    r"tcp\.transmit",
]

#: every instant ("i") name the simulator can emit
INSTANT_CATALOG = [
    r"mpi\.job\.begin",
    r"tcp\.loss\.[a-z][a-z0-9_]*",
    r"tcp\.slowstart\.exit",
    r"tcp\.idle_restart",
]

#: span-name regex -> args the span must carry (feeds an aggregation)
REQUIRED_ARGS = [
    (r"tcp\.transmit", ("src_site", "dst_site", "bytes")),
    (r"rndv\.(announce|handshake|data|ack)", ("src_site", "dst_site")),
    (rf"coll\.({_HIER_OPS})\.hier\.(lan|wan)", ("bytes", "sites")),
]


def _full_match(patterns, name: str) -> bool:
    return any(re.fullmatch(pattern, name) for pattern in patterns)


def check_span_schema(events: list) -> list:
    """Span-catalog violations in a Chrome trace's event list."""
    errors = []
    seen: set = set()
    for event in events:
        if not isinstance(event, dict):
            continue
        phase, name = event.get("ph"), str(event.get("name", ""))
        if (phase, name) in seen:
            continue  # one report per (phase, name), not per event
        if phase == "X":
            if not _full_match(SPAN_CATALOG, name):
                errors.append(f"unknown span name {name!r}")
                seen.add((phase, name))
            args = event.get("args") or {}
            for pattern, required in REQUIRED_ARGS:
                if re.fullmatch(pattern, name):
                    missing = [key for key in required if key not in args]
                    if missing:
                        errors.append(
                            f"span {name!r} missing required args {missing}"
                        )
                        seen.add((phase, name))
        elif phase == "i":
            if not _full_match(INSTANT_CATALOG, name):
                errors.append(f"unknown instant name {name!r}")
                seen.add((phase, name))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="*.trace.json files to validate")
    parser.add_argument(
        "--require-span",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless every file contains an X span with this name "
        "(repeatable)",
    )
    parser.add_argument(
        "--schema",
        action="store_true",
        help="check every span/instant name against the simulator's span "
        "catalog and site-tagged spans for their required args",
    )
    args = parser.parse_args(argv)

    from repro.obs import validate_chrome_trace

    failed = False
    for path in args.paths:
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})")
            failed = True
            continue
        errors = validate_chrome_trace(document)
        events = document.get("traceEvents", []) if isinstance(document, dict) else []
        spans = {e.get("name") for e in events if isinstance(e, dict) and e.get("ph") == "X"}
        for name in args.require_span:
            if name not in spans:
                errors.append(f"required span {name!r} not present")
        if args.schema:
            errors.extend(check_span_schema(events))
        if errors:
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  - {error}")
            failed = True
        else:
            print(f"{path}: ok ({len(events)} events, {len(spans)} span names)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Message tracing: the instrumented-MPI view the paper used for Table 2.

The trace aggregates — it never stores per-message records — so tracing a
full NAS run (10^6 messages) costs O(distinct sizes) memory.  Counters are
kept separately for user point-to-point traffic and for the messages
generated inside collective algorithms, plus a counter of logical
collective calls per primitive, which is exactly the decomposition of the
paper's Table 2 ("P. to P." vs "Collective" benchmarks).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.mpi.constants import COLLECTIVE_CONTEXT, POINT_TO_POINT_CONTEXT
from repro.units import fmt_bytes


@dataclass
class TrafficSummary:
    """Aggregated view of one context's traffic."""

    messages: int
    bytes: float
    min_size: int
    max_size: int

    @property
    def mean_size(self) -> float:
        return self.bytes / self.messages if self.messages else 0.0


class MessageTrace:
    """Aggregating message statistics for one MPI job."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Counter[(context, nbytes)] -> message count
        self.size_counts: Counter = Counter()
        #: Counter[collective primitive name] -> call count (per rank calls)
        self.collective_calls: Counter = Counter()
        #: messages crossing a WAN link, and the payload bytes they carry
        self.inter_site_messages: int = 0
        self.inter_site_bytes: int = 0

    # -- recording -------------------------------------------------------------
    def record_p2p(self, nbytes: int, context: str) -> None:
        if self.enabled:
            self.size_counts[(context, nbytes)] += 1

    def record_inter_site(self, nbytes: int) -> None:
        if self.enabled:
            self.inter_site_messages += 1
            self.inter_site_bytes += nbytes

    def record_collective(self, op: str) -> None:
        if self.enabled:
            self.collective_calls[op] += 1

    # -- queries ------------------------------------------------------------------
    def summary(self, context: str) -> TrafficSummary:
        sizes = {
            size: count
            for (ctx, size), count in self.size_counts.items()
            if ctx == context
        }
        if not sizes:
            return TrafficSummary(0, 0.0, 0, 0)
        messages = sum(sizes.values())
        total = sum(size * count for size, count in sizes.items())
        return TrafficSummary(messages, total, min(sizes), max(sizes))

    def p2p_summary(self) -> TrafficSummary:
        return self.summary(POINT_TO_POINT_CONTEXT)

    def collective_summary(self) -> TrafficSummary:
        return self.summary(COLLECTIVE_CONTEXT)

    @property
    def total_messages(self) -> int:
        return sum(self.size_counts.values())

    @property
    def total_bytes(self) -> float:
        return float(sum(size * count for (_, size), count in self.size_counts.items()))

    def size_histogram(self, context: str, bins: int = 8) -> list[tuple[int, int, int]]:
        """Messages per size band: list of ``(lo, hi, count)`` with
        power-of-two bands covering the observed sizes."""
        sizes = [
            (size, count)
            for (ctx, size), count in self.size_counts.items()
            if ctx == context and count
        ]
        if not sizes:
            return []
        bands: Counter = Counter()
        for size, count in sizes:
            lo = 1
            while lo * 2 <= max(size, 1):
                lo *= 2
            bands[lo] += count
        return [(lo, lo * 2 - 1, bands[lo]) for lo in sorted(bands)]

    def dominant_sizes(self, context: str, top: int = 4) -> list[tuple[int, int]]:
        """The ``top`` most frequent message sizes: ``[(nbytes, count)]`` —
        this is the paper's Table 2 notation ("126479 * 8 B + ...")."""
        sizes = Counter()
        for (ctx, size), count in self.size_counts.items():
            if ctx == context:
                sizes[size] += count
        return sizes.most_common(top)

    def describe(self, context: str = POINT_TO_POINT_CONTEXT) -> str:
        """Human-readable Table-2-style line."""
        parts = [
            f"{count} * {fmt_bytes(size)}"
            for size, count in sorted(self.dominant_sizes(context))
        ]
        return " + ".join(parts) if parts else "(no traffic)"

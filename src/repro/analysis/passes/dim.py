"""DIM rules: unit-dimension conflicts found by abstract interpretation.

Built on :mod:`repro.analysis.dataflow`.  Where the UNIT rules of PR 1
pattern-match single call sites, these rules *propagate* dimensions
through assignments and arithmetic, so ``t = usec(58); total = t + size``
is caught even though neither statement is suspicious on its own.

The paper's tables mix µs RTTs, kB thresholds and Mbps/Gbps rates; the
planned integer-µs event-core rewrite (ROADMAP) turns every silent
seconds↔µs or bytes↔bits mix into corrupted goldens.  These rules are the
pre-flight check for that migration.
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.analysis.dataflow import DimFinding, DimInterpreter
from repro.analysis.passes.base import LintPass, ModuleContext, Violation

#: finding kind (from the interpreter) -> rule id
_KIND_RULES: Dict[str, str] = {
    "mix": "DIM001",
    "time-scale": "DIM002",
    "data-scale": "DIM003",
    "ambiguous-return": "DIM004",
    "negative-delay": "DIM005",
}

_HINTS: Dict[str, str] = {
    "DIM001": "convert one operand so both sides share a dimension",
    "DIM002": "convert with units.usec()/units.to_usec() before combining",
    "DIM003": "convert with *8 (bytes->bits) or units.bytes_per_second() first",
    "DIM004": "pick one dimension per function; convert at the call sites",
    "DIM005": "delays must be >= 0; Environment._schedule raises ValueError",
}


class DimDataflowPass(LintPass):
    rules = {
        "DIM001": "arithmetic mixes two unrelated dimensions (e.g. seconds + bytes)",
        "DIM002": "seconds and microseconds mixed without an explicit conversion",
        "DIM003": "bytes and bits (or bits/s and bytes/s) mixed without *8 conversion",
        "DIM004": "function returns different dimensions on different paths",
        "DIM005": "literal negative delay passed to timeout()/schedule()",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        try:
            findings = DimInterpreter(ctx).analyze()
        except RecursionError:  # pathological nesting: skip, don't crash the driver
            return
        for finding in findings:
            yield self._violation(ctx, finding)

    def _violation(self, ctx: ModuleContext, finding: DimFinding) -> Violation:
        rule = _KIND_RULES[finding.kind]
        return Violation(
            ctx.path,
            finding.line,
            rule,
            finding.message,
            _HINTS[rule],
        )


__all__ = ["DimDataflowPass"]

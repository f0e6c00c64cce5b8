"""Correctness tooling: static lint and runtime sanitizer.

The determinism/unit-safety/dataflow linter (:mod:`repro.analysis.linter`
+ :mod:`repro.analysis.passes`; inline ``# repro: noqa=<RULE>`` pragmas are
the only suppression), the runtime determinism sanitizer
(:mod:`repro.analysis.sanitizer`) and its schedule-perturbation counterpart
(:mod:`repro.analysis.perturb`), surfaced as ``repro lint`` /
``repro sanitize [--perturb]`` and as the pytest session gate
(:mod:`repro.analysis.pytest_plugin`).
"""

from repro.analysis.linter import (
    RULE_CATALOG,
    Linter,
    Violation,
    lint_paths,
    lint_source,
)
from repro.analysis.perturb import PerturbReport, perturb, perturbation_ranker
from repro.analysis.sanitizer import SanitizeReport, sanitize, trace_experiment

__all__ = [
    "Linter",
    "PerturbReport",
    "RULE_CATALOG",
    "SanitizeReport",
    "Violation",
    "lint_paths",
    "lint_source",
    "perturb",
    "perturbation_ranker",
    "sanitize",
    "trace_experiment",
]

"""Analysis tooling: result post-processing, static lint, runtime sanitizer.

Two halves live here:

* **result analysis** — curve metrics (:mod:`repro.analysis.curves`) and
  JSON exports (:mod:`repro.analysis.export`) over finished experiments;
* **correctness tooling** — the determinism/unit-safety/dataflow linter
  (:mod:`repro.analysis.linter` + :mod:`repro.analysis.passes`; inline
  ``# repro: noqa=<RULE>`` pragmas are the only suppression), the runtime
  determinism sanitizer (:mod:`repro.analysis.sanitizer`) and its
  schedule-perturbation counterpart (:mod:`repro.analysis.perturb`),
  surfaced as ``repro lint`` / ``repro sanitize [--perturb]`` and as the
  pytest session gate (:mod:`repro.analysis.pytest_plugin`).
"""

from repro.analysis.curves import (
    crossover_size,
    half_bandwidth_size,
    plateau_bandwidth,
    relative_series,
)
from repro.analysis.export import experiment_to_dict, experiment_to_json
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
    "crossover_size",
    "experiment_to_dict",
    "experiment_to_json",
    "half_bandwidth_size",
    "lint_paths",
    "lint_source",
    "perturb",
    "perturbation_ranker",
    "plateau_bandwidth",
    "relative_series",
    "sanitize",
    "trace_experiment",
]

"""One experiment per table/figure of the paper's evaluation.

Every experiment is a callable ``run(fast=False)`` returning an
:class:`~repro.experiments.base.ExperimentResult` with structured rows
and a rendered text report that prints the reproduced numbers next to
the paper's.  ``fast=True`` shrinks repeats/problem classes for CI and
the tier-1 tests; the default runs the paper-scale configurations.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = ["EXPERIMENTS", "ExperimentResult", "get_experiment", "run_experiment"]

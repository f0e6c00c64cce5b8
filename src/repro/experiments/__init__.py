"""One experiment per table/figure of the paper's evaluation.

A family of figures that differ only in data is one descriptor per
figure: :class:`~repro.experiments.pingpong_common.PingPongFigure` for
the bandwidth figures (3, 5, 6, 7) and
:class:`~repro.experiments.npb_figures.NpbFigure` for the NPB ratio
figures (10-13); every other experiment has a module of its own.
:data:`~repro.experiments.registry.MODULES` lists them all.

Every experiment is a callable ``run(fast=False)`` returning an
:class:`~repro.experiments.base.ExperimentResult` with structured rows
and a rendered text report that prints the reproduced numbers next to
the paper's.  ``fast=True`` shrinks repeats/problem classes for CI and
the tier-1 tests; the default runs the paper-scale configurations.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = ["EXPERIMENTS", "ExperimentResult", "get_experiment", "run_experiment"]

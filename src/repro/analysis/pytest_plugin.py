"""Pytest gate: fail the session up front if ``src/repro`` does not lint.

Registered by ``tests/conftest.py`` (hook delegation), so the tier-1
command — plain ``pytest`` — exercises the determinism/unit-safety lint
pass before any test runs.  The whole-tree walk is a few hundred
milliseconds of ``ast.parse``; a violation aborts the session with the
standard ``file:line: RULE message`` report.

Disable for a local run with ``--no-repro-lint``.
"""

from __future__ import annotations

import pytest

_SESSION_FLAG = "_repro_lint_ran"


def pytest_addoption(parser) -> None:
    group = parser.getgroup("repro")
    group.addoption(
        "--no-repro-lint",
        action="store_true",
        default=False,
        help="skip the repro determinism/unit-safety lint gate",
    )


def pytest_sessionstart(session) -> None:
    config = session.config
    if config.getoption("--no-repro-lint", default=False):
        return
    # Guard against double registration (conftest delegation plus -p).
    if getattr(config, _SESSION_FLAG, False):
        return
    setattr(config, _SESSION_FLAG, True)

    from repro.analysis.linter import render_report, lint_paths

    violations = lint_paths()
    if violations:
        raise pytest.UsageError(
            "repro lint gate failed (run `repro lint` to reproduce, "
            "`--no-repro-lint` to bypass):\n" + render_report(violations)
        )

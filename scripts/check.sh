#!/usr/bin/env bash
# Full local CI gate: ruff + mypy (when installed) + repro lint + pytest
# (tests/ and the benchmark harness's bench/tests).
#
# Locally, ruff and mypy are optional dev tools — the container image does
# not bake them in, and the repo must not pip-install at check time — so
# each is skipped with a notice when absent.  Under CI (CI=1) a missing
# tool is a configuration error and fails the gate instead of silently
# thinning it.  `repro lint` and pytest are always run; pytest itself
# re-runs the lint pass via the conftest session gate.  The last line
# printed is the src/repro line count, for information.
#
# The exit code is the FIRST failing step's code, not the last one's.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

status=0

# run_step NAME CMD...: run a step, remember the first non-zero exit code.
run_step() {
    local name="$1"
    shift
    echo "== $name =="
    local rc=0
    "$@" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "-- $name failed (exit $rc)"
        if [ "$status" -eq 0 ]; then
            status=$rc
        fi
    fi
}

# missing_tool NAME: under CI a missing linter/typechecker fails the gate.
missing_tool() {
    if [ -n "${CI:-}" ]; then
        echo "== $1 == MISSING (CI=1 requires it installed)"
        if [ "$status" -eq 0 ]; then
            status=3
        fi
    else
        echo "== $1 == (not installed; skipped)"
    fi
}

# Hand every tool an explicitly sorted file list (LC_ALL=C for a stable
# collation) instead of directories: directory walks surface files in
# filesystem-discovery order, which differs across machines and would make
# violation output byte-unstable.  `repro lint` sorts its own worklist the
# same way internally.
mapfile -t PY_FILES < <(find src/repro tests scripts -name '*.py' | LC_ALL=C sort)

if python -m ruff --version >/dev/null 2>&1; then
    run_step "ruff" python -m ruff check "${PY_FILES[@]}"
else
    missing_tool "ruff"
fi

if python -m mypy --version >/dev/null 2>&1; then
    run_step "mypy (repro.analysis, warnings-as-errors)" \
        python -m mypy --warn-unused-ignores --warn-redundant-casts \
        -p repro.analysis
else
    missing_tool "mypy"
fi

run_step "repro lint" python -m repro lint
run_step "pytest" python -m pytest -x -q
# The benchmark harness keeps its own tests; `testpaths` does not reach them.
run_step "pytest bench/tests" python -m pytest bench/tests -q

# For information only, never a gate: the source size ROADMAP.md tracks.
echo "== src/repro: $(find src/repro -name '*.py' -exec cat {} + | wc -l) lines =="

exit $status

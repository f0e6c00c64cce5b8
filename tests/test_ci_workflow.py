"""CI plumbing: the workflow file parses and encodes the gate we expect,
and scripts/check.sh is syntactically valid shell.

This is the "actionlint or equivalent dry parse" gate: it cannot run
GitHub's runner, but it catches broken YAML, dropped jobs, and a check
script that would not even parse — the failure modes that silently turn
CI green.
"""

import pathlib
import shutil
import subprocess

import pytest
import yaml

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
CHECK_SH = REPO / "scripts" / "check.sh"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def _run_commands(job: dict) -> str:
    return "\n".join(step.get("run", "") for step in job["steps"])


def test_workflow_parses_with_jobs(workflow):
    assert set(workflow["jobs"]) == {"check", "experiments"}
    # `on:` parses as the YAML boolean True key
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers and "push" in triggers


def test_concurrency_cancels_superseded_runs(workflow):
    concurrency = workflow["concurrency"]
    assert concurrency["cancel-in-progress"] is True
    assert "github.ref" in concurrency["group"]


def test_check_job_matrix_and_gate(workflow):
    check = workflow["jobs"]["check"]
    assert check["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12"]
    setup = next(
        step for step in check["steps"] if "setup-python" in step.get("uses", "")
    )
    assert setup["with"]["cache"] == "pip"
    commands = _run_commands(check)
    assert "CI=1" in commands and "scripts/check.sh" in commands


def test_experiments_job_runs_parallel_smoke_and_uploads(workflow):
    experiments = workflow["jobs"]["experiments"]
    assert experiments["needs"] == "check"
    commands = _run_commands(experiments)
    assert "repro run all --fast --jobs 4" in commands
    assert "git diff --exit-code" in commands
    # Only *untracked* reports fail the golden gate: the campaign rewrites
    # every tracked golden's wall-time footer, so a tracked-modified check
    # (git status --porcelain) would always fail.
    assert "git ls-files --others --exclude-standard" in commands
    assert "git status --porcelain" not in commands
    uploads = [
        step for step in experiments["steps"] if "upload-artifact" in step.get("uses", "")
    ]
    paths = "\n".join(step["with"]["path"] for step in uploads)
    assert "BENCH_experiments.json" in paths
    assert "results/" in paths


def test_experiments_job_runs_the_telemetry_smoke(workflow):
    experiments = workflow["jobs"]["experiments"]
    commands = _run_commands(experiments)
    # A traced sweep must run, its trace must pass schema validation with
    # the rendezvous-handshake spans present...
    assert "--trace" in commands
    assert "scripts/validate_trace.py" in commands
    assert "--require-span rndv.handshake" in commands
    # ...the traced report must stay byte-identical to the committed
    # golden (telemetry never perturbs the simulation), also for fig3,
    # whose buffer-limited rounds are held and counted in one step...
    assert "results/fast/fig7.txt" in commands
    assert "repro run fig3 --fast --metrics-out /tmp/metrics --out /tmp/traced-fig3" in commands
    assert "diff -u /tmp/golden-fig3.txt /tmp/traced-fig3.txt" in commands
    # ...the diagnosis reports must render...
    assert "repro explain fig7" in commands
    assert "repro explain fig9" in commands
    # ...and the trace must be uploaded as a workflow artifact.
    uploads = [
        step for step in experiments["steps"] if "upload-artifact" in step.get("uses", "")
    ]
    assert any("/tmp/traces/" in step["with"]["path"] for step in uploads)


def test_experiments_job_runs_the_perf_gate(workflow):
    experiments = workflow["jobs"]["experiments"]
    steps = [step.get("run", "") for step in experiments["steps"]]
    gate_index = next(
        i for i, run in enumerate(steps) if "scripts/check_perf_budget.py" in run
    )
    campaign_index = next(
        i for i, run in enumerate(steps) if "repro run all --fast" in run
    )
    # The gate reads the campaign entry just appended to the manifest, so
    # it must run after the campaign step.
    assert gate_index > campaign_index


def test_experiments_job_checks_serial_and_parallel_trace_hashes_agree(workflow):
    steps = [step.get("run", "") for step in workflow["jobs"]["experiments"]["steps"]]

    def index(command: str) -> int:
        return next(i for i, run in enumerate(steps) if command in run)

    serial_campaign = "repro run all --fast --jobs 1 --no-cache --bench BENCH_experiments.json"
    serial = index(serial_campaign)
    # A plain CLI call: the job installs no numpy, so the serial campaign
    # needs no wrapper to block it.
    assert serial_campaign in steps[serial].splitlines()
    assert "sys.modules['numpy']" not in "\n".join(steps)
    # After the 4-worker campaign and the perf gate (which reads the
    # campaign's entry as the manifest's last one)...
    assert index("repro run all --fast --jobs 4") < index("check_perf_budget.py") < serial
    # ...the step compares the trace_hash of every experiment across the
    # last two entries, the 4-worker one and the serial one.
    assert "['runs'][-2:]" in steps[serial]
    assert "== [4, 1]" in steps[serial]
    assert "['experiments'][eid]['trace_hash']" in steps[serial]
    assert "for eid in sorted(EXPERIMENTS)" in steps[serial]


def test_experiments_job_installs_neither_numpy_nor_pytest(workflow):
    commands = _run_commands(workflow["jobs"]["experiments"])
    assert "python -m pip install -e .\n" in commands
    assert "[test]" not in commands


def test_experiments_job_checks_the_claims_at_paper_scale(workflow):
    steps = [step.get("run", "") for step in workflow["jobs"]["experiments"]["steps"]]
    (claims,) = [run for run in steps if "tests/paper_claims.py" in run]
    # the full campaign writes the artifacts, then the claims are checked
    # over every one of them; no --bench, so the manifest entries the perf
    # and serial-vs-parallel gates read are not disturbed
    assert claims.splitlines() == [
        "repro run all --full --jobs 4 --no-cache --out /tmp/full",
        "python tests/paper_claims.py /tmp/full/json/*.json",
    ]
    fast_campaign = next(i for i, run in enumerate(steps) if "repro run all --fast" in run)
    assert fast_campaign < steps.index(claims)


def test_warm_rerun_step_lists_the_warm_store(workflow):
    steps = [step.get("run", "") for step in workflow["jobs"]["experiments"]["steps"]]
    commands = "\n".join(steps)
    # the removed index subcommands
    assert not [name for name in ("index", "query") if f"repro {name}" in commands]
    (warm,) = [run for run in steps if "scripts/check_warm_rerun.py" in run]
    assert warm.index("scripts/check_warm_rerun.py") < warm.index("repro cache ls fig7")
    # fig7 is an experiment id: the listing is its shard plan's entries
    # (tests/test_runner_index.py), and ``--text`` is gone.
    assert "repro cache ls fig7" in warm.splitlines()


def test_check_sh_is_valid_shell():
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash not available")
    proc = subprocess.run([bash, "-n", str(CHECK_SH)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_check_sh_runs_the_benchmark_harness_tests():
    """``testpaths`` stops at ``tests/``, so the gate names ``bench/tests``."""
    assert "python -m pytest bench/tests -q" in CHECK_SH.read_text()


#: check.sh's closing line: the src/repro line count, printed not gated
LINE_COUNT = "echo \"== src/repro: $(find src/repro -name '*.py' -exec cat {} + | wc -l) lines ==\""


def test_check_sh_ends_by_printing_the_source_line_count():
    lines = [ln for ln in CHECK_SH.read_text().splitlines() if ln and not ln.startswith("#")]
    assert lines[-2:] == [LINE_COUNT, "exit $status"]
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash not available")
    proc = subprocess.run(
        [bash, "-c", LINE_COUNT], cwd=REPO, capture_output=True, text=True, check=True
    )
    total = sum(
        len(p.read_bytes().splitlines()) for p in (REPO / "src" / "repro").rglob("*.py")
    )
    assert proc.stdout.split() == ["==", "src/repro:", str(total), "lines", "=="]


def test_fast_goldens_exist_for_the_ci_diff():
    fast_dir = REPO / "results" / "fast"
    committed = sorted(p.name for p in fast_dir.glob("*.txt"))
    from repro.experiments import EXPERIMENTS

    assert committed == sorted(f"{eid}.txt" for eid in EXPERIMENTS)


def test_experiments_job_runs_the_perturbation_smoke(workflow):
    experiments = workflow["jobs"]["experiments"]
    commands = _run_commands(experiments)
    # all three smoke targets run under permuted same-timestamp ordering
    # (table6 is the sharded heavyweight: its fast mode is the CI slice of
    # the full-scale run)...
    assert "repro sanitize" in commands and "--perturb" in commands
    assert "fig7" in commands and "faults_pingpong" in commands
    # the slow-start/BIC figures, the NPB per-message path and the solo
    # flows of the cluster ping-pong, byte-exact like fig7 (no
    # --result-only: the schedule projection gates too)
    for figure in ("fig9", "fig6", "fig3", "fig10", "fig5"):
        assert (
            f"repro sanitize {figure} --perturb --seeds 3 --write-result /tmp/perturb/{figure}.txt"
            in commands
        )
    assert "for id in fig7 faults_pingpong fig9 fig6 fig3 fig10 fig5" in commands
    # the experiments whose fast projection also holds, and table7, which
    # shares table6's shards and gates on the result only
    for experiment in ("fig11", "faults_cg", "table2", "table4", "table5"):
        assert (
            f"repro sanitize {experiment} --perturb --seeds 3 --write-result "
            f"/tmp/perturb/{experiment}.txt" in commands
        )
    assert "repro sanitize table7 --perturb --seeds 3 --result-only" in commands
    assert "coll_hier fig11 faults_cg table2 table4 table5 table7; do" in commands
    assert "repro sanitize table6 --perturb" in commands
    # table6 gates on result byte-identity only: its merge-phase timing
    # tail legitimately depends on same-timestamp matching order
    assert "--result-only" in commands
    assert "--seeds 3" in commands
    # ...and the unperturbed result is diffed byte-for-byte against the
    # committed golden (wall-time footer stripped on the golden side)
    assert "--write-result" in commands
    assert "head -n -2" in commands
    uploads = [
        step for step in experiments["steps"] if "upload-artifact" in step.get("uses", "")
    ]
    assert any("perturb" in step["with"]["path"] for step in uploads)

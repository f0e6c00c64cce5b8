"""The CI perf-regression gate: budgets file and check script semantics."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
BUDGETS = REPO / "scripts" / "budgets.json"

spec = importlib.util.spec_from_file_location(
    "check_perf_budget", REPO / "scripts" / "check_perf_budget.py"
)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


@pytest.fixture(scope="module")
def budget_doc():
    return json.loads(BUDGETS.read_text())


def _manifest(tmp_path, experiments):
    path = tmp_path / "BENCH.json"
    entry = {
        "label": "test",
        "jobs": 4,
        "ok": True,
        "telemetry": False,
        "experiments": {
            eid: {"wall_s": wall, "ok": True} for eid, wall in experiments.items()
        },
    }
    path.write_text(json.dumps({"schema": 1, "runs": [entry]}))
    return path


def _budgets(tmp_path, budgets, slack=0.5, grace_s=2.0):
    path = tmp_path / "budgets.json"
    path.write_text(
        json.dumps({"schema": 1, "slack": slack, "grace_s": grace_s, "budgets": budgets})
    )
    return path


def test_budget_file_covers_every_experiment(budget_doc):
    from repro.experiments import EXPERIMENTS

    assert sorted(budget_doc["budgets"]) == sorted(EXPERIMENTS)


def test_budget_file_slack_is_generous(budget_doc):
    # The ISSUE's contract: +-50% runner-noise slack, plus an absolute
    # grace so near-zero entries (table1: ~1 ms) can never flake.
    assert budget_doc["slack"] == 0.5
    assert budget_doc["grace_s"] >= 1.0


def test_within_budget_passes(tmp_path, capsys):
    rc = gate.main(
        [
            "--manifest", str(_manifest(tmp_path, {"fig7": 2.5})),
            "--budgets", str(_budgets(tmp_path, {"fig7": 2.0})),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "PERF OK" in out


def test_regression_fails_with_before_after_table(tmp_path, capsys):
    rc = gate.main(
        [
            "--manifest", str(_manifest(tmp_path, {"fig7": 30.0})),
            "--budgets", str(_budgets(tmp_path, {"fig7": 2.0})),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    # before/after table: budget and fresh wall side by side, then verdict
    assert "2.000" in out and "30.000" in out
    assert "PERF REGRESSION: fig7" in out


def test_grace_absorbs_near_zero_noise(tmp_path):
    # 1 ms budget, 800 ms fresh wall: a huge ratio but inside the absolute
    # grace, exactly the table1/table3 interpreter-jitter case.
    rc = gate.main(
        [
            "--manifest", str(_manifest(tmp_path, {"table1": 0.8})),
            "--budgets", str(_budgets(tmp_path, {"table1": 0.001})),
        ]
    )
    assert rc == 0


def test_unbudgeted_experiment_fails(tmp_path, capsys):
    rc = gate.main(
        [
            "--manifest", str(_manifest(tmp_path, {"fig7": 1.0, "fig99": 1.0})),
            "--budgets", str(_budgets(tmp_path, {"fig7": 2.0})),
        ]
    )
    assert rc == 1
    assert "no budget" in capsys.readouterr().out


def test_experiment_missing_from_campaign_fails(tmp_path, capsys):
    rc = gate.main(
        [
            "--manifest", str(_manifest(tmp_path, {"fig7": 1.0})),
            "--budgets", str(_budgets(tmp_path, {"fig7": 2.0, "table6": 300.0})),
        ]
    )
    assert rc == 1
    assert "missing from campaign manifest" in capsys.readouterr().out


def test_committed_budgets_pass_against_seed_entry(tmp_path, budget_doc):
    # The committed budgets must accept the manifest entry they were
    # seeded from (fresh wall == budget for every experiment).
    manifest = _manifest(tmp_path, dict(budget_doc["budgets"]))
    rc = gate.main(["--manifest", str(manifest), "--budgets", str(BUDGETS)])
    assert rc == 0


def test_empty_manifest_is_a_hard_error(tmp_path):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"schema": 1, "runs": []}))
    with pytest.raises(SystemExit, match="no campaign entries"):
        gate.main(["--manifest", str(path), "--budgets", str(BUDGETS)])

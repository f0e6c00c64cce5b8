"""The CI warm-rerun gate: cached-fraction floor and wall budget."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
BUDGETS = REPO / "scripts" / "budgets.json"

spec = importlib.util.spec_from_file_location(
    "check_warm_rerun", REPO / "scripts" / "check_warm_rerun.py"
)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def _manifest(tmp_path, cached_flags, wall_s=5.0):
    path = tmp_path / "BENCH.json"
    entry = {
        "label": "warm",
        "wall_s": wall_s,
        "experiments": {
            f"exp{i}": {"ok": True, "cached": flag}
            for i, flag in enumerate(cached_flags)
        },
    }
    path.write_text(json.dumps({"schema": 1, "runs": [entry]}))
    return path


def _budgets(tmp_path, min_cached_fraction=0.8, max_wall_s=60.0):
    path = tmp_path / "budgets.json"
    path.write_text(
        json.dumps(
            {
                "warm_rerun": {
                    "min_cached_fraction": min_cached_fraction,
                    "max_wall_s": max_wall_s,
                }
            }
        )
    )
    return path


def test_fully_warm_passes(tmp_path, capsys):
    manifest = _manifest(tmp_path, [True] * 10)
    budgets = _budgets(tmp_path)
    assert gate.main(["--manifest", str(manifest), "--budgets", str(budgets)]) == 0
    assert "WARM-RERUN OK" in capsys.readouterr().out


def test_cold_fraction_fails_and_names_the_cold_ones(tmp_path, capsys):
    manifest = _manifest(tmp_path, [True, False, False, False])
    budgets = _budgets(tmp_path)
    assert gate.main(["--manifest", str(manifest), "--budgets", str(budgets)]) == 1
    out = capsys.readouterr().out
    assert "WARM-RERUN FAIL" in out
    assert "exp1" in out  # the cold experiments are listed


def test_wall_budget_fails(tmp_path, capsys):
    manifest = _manifest(tmp_path, [True] * 5, wall_s=120.0)
    budgets = _budgets(tmp_path, max_wall_s=60.0)
    assert gate.main(["--manifest", str(manifest), "--budgets", str(budgets)]) == 1
    assert "warm wall" in capsys.readouterr().out


def test_exactly_at_the_floor_passes(tmp_path):
    manifest = _manifest(tmp_path, [True] * 8 + [False] * 2)
    budgets = _budgets(tmp_path, min_cached_fraction=0.8)
    assert gate.main(["--manifest", str(manifest), "--budgets", str(budgets)]) == 0


def test_committed_budget_has_a_warm_rerun_block():
    document = json.loads(BUDGETS.read_text())
    block = document["warm_rerun"]
    assert 0.0 < block["min_cached_fraction"] <= 1.0
    assert block["max_wall_s"] > 0


def test_empty_manifest_is_a_hard_error(tmp_path):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"schema": 1, "runs": []}))
    budgets = _budgets(tmp_path)
    with pytest.raises(SystemExit):
        gate.main(["--manifest", str(path), "--budgets", str(budgets)])

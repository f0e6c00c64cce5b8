"""Example scripts: they drive the library without redundant simulation."""

import importlib.util
import math
import pathlib
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "examples" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_nas_grid_study_simulates_each_point_once(monkeypatch, capsys):
    from repro.experiments.npb_runs import NPB_ORDER
    from repro.impls import IMPLEMENTATION_ORDER

    example = _load_example("nas_grid_study")
    requests = Counter()

    def fake_npb_time(bench, impl_name, placement_kind, cls="B", **kwargs):
        requests[bench, impl_name, placement_kind, cls] += 1
        return math.inf if (bench, impl_name) == ("bt", "madeleine") else 10.0

    monkeypatch.setattr(example, "npb_time", fake_npb_time)
    monkeypatch.setattr("sys.argv", ["nas_grid_study.py"])
    example.main()

    expected = {(b, n, "grid16", "A") for b in NPB_ORDER for n in IMPLEMENTATION_ORDER}
    expected |= {(b, "gridmpi", "cluster16", "A") for b in NPB_ORDER}
    assert set(requests) == expected
    assert set(requests.values()) == {1}
    assert "benchmarks won" in capsys.readouterr().out

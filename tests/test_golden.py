"""Golden traces: the six shipped scenarios, exported as run_batch exports
them, reproduce the committed results/ byte for byte."""

from __future__ import annotations

import pathlib

import pytest

from crosswalk_sim.harness import export_plot_data, export_trace

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "results"
GOLDEN_RUNS = sorted(p.name for p in RESULTS.iterdir() if p.is_dir())


def test_golden_runs_cover_shipped_scenarios(scenario_configs):
    assert GOLDEN_RUNS == sorted(scenario_configs)


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_golden_files_identical(name, run_matrix, scenario_configs, tmp_path):
    trace = run_matrix[name]
    export_trace(trace, "csv", tmp_path / "trace.csv")
    export_plot_data(trace, tmp_path, scene=scenario_configs[name].scene)
    golden = RESULTS / name
    files = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    differing = [f for f in files if (tmp_path / f).read_bytes() != (golden / f).read_bytes()]
    assert differing == [], f"{name}: {differing} differ from results/{name}"

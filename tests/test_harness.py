"""Closed-loop harness: traces, persistence, terminations, CLI."""

from __future__ import annotations

import logging
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from crosswalk_sim import harness
from crosswalk_sim.cli import main as cli_main
from crosswalk_sim.files import (
    TRACE_FIELDS,
    ScenarioConfig,
    Trace,
    export_plot_data,
    export_trace,
    load_model_config,
    load_scenario,
)
from crosswalk_sim.harness import CONTROL_DT, run_scenario, summarize
from crosswalk_sim.pomdp import EPOCH, ModelConfig, derive_model_config
from crosswalk_sim.world import RectObstacle, Scene

from conftest import load_trace


def columns_equal(a: Trace, b: Trace, skip=()) -> bool:
    for name in TRACE_FIELDS:
        if name in skip:
            continue
        if not np.array_equal(a.columns[name], b.columns[name], equal_nan=True):
            return False
    return True


# --- trace shape and determinism ---------------------------------------------


def test_full_duration_row_count(run_matrix):
    trace = run_matrix["oracle_hidden"]
    assert trace.termination == "duration"
    assert len(trace) == 1500  # 15 s at 10 ms
    t = trace.columns["time"]
    assert t[0] == 0.0
    assert np.allclose(np.diff(t), 0.01, atol=1e-12)


def test_trace_columns_complete(run_matrix):
    for trace in run_matrix.values():
        assert set(trace.columns) == set(TRACE_FIELDS)
        n = len(trace)
        assert all(len(col) == n for col in trace.columns.values())


def test_repeated_runs_bit_identical(exposed_scene):
    cfg = ScenarioConfig(scene=exposed_scene, policy="oracle", duration=2.0)
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    assert columns_equal(first, second)
    assert first.termination == second.termination


def test_scale_ladders(run_matrix):
    pomdp_scales = run_matrix["pomdp_hidden"].columns["scale"]
    assert set(np.round(pomdp_scales * 10)) <= set(range(11))
    assert np.allclose(pomdp_scales * 10, np.round(pomdp_scales * 10), atol=1e-12)
    base_scales = run_matrix["baseline_hidden"].columns["scale"]
    assert np.allclose(base_scales * 9, np.round(base_scales * 9), atol=1e-9)
    oracle_scales = run_matrix["oracle_hidden"].columns["scale"]
    assert oracle_scales.min() >= 0.0 and oracle_scales.max() <= 1.0


def test_metadata_fields(run_matrix):
    trace = run_matrix["pomdp_hidden"]
    md = trace.metadata
    assert md["name"] == "pomdp_hidden"
    assert md["policy"] == "pomdp"
    assert md["belief_resets"] == 0
    assert 40.0 <= md["crosswalk_s"] <= 40.3
    assert md["path_length"] == pytest.approx(60.0, abs=0.1)
    assert md["control_dt"] == CONTROL_DT and md["decision_period"] == EPOCH
    oracle_md = run_matrix["oracle_hidden"].metadata
    assert np.isnan(run_matrix["oracle_hidden"].columns["p_crossing"]).all()
    assert oracle_md["policy"] == "oracle"


def test_policy_decides_once_per_model_epoch(run_matrix):
    # the loop decides every EPOCH, the epoch the model is built for
    per_decision = round(EPOCH / CONTROL_DT)
    changed = [np.flatnonzero(np.diff(t.columns["scale"])) + 1 for t in run_matrix.values()]
    assert sum(c.size for c in changed) > 0
    assert all(np.all(c % per_decision == 0) for c in changed)


# --- persistence ---------------------------------------------------------------


def test_csv_round_trip(run_matrix, tmp_path):
    trace = run_matrix["pomdp_exposed"]
    dest = tmp_path / "trace.csv"
    export_trace(trace, "csv", dest)
    loaded = load_trace(dest)
    assert columns_equal(trace, loaded)
    assert loaded.termination == trace.termination
    assert loaded.metadata["name"] == trace.metadata["name"]
    assert loaded.metadata["crosswalk_s"] == trace.metadata["crosswalk_s"]


def test_csv_round_trip_preserves_nan(run_matrix, tmp_path):
    trace = run_matrix["oracle_exposed"]
    dest = tmp_path / "trace.csv"
    export_trace(trace, "csv", dest)
    loaded = load_trace(dest)
    assert np.isnan(loaded.columns["p_crossing"]).all()
    assert columns_equal(trace, loaded)


def test_empty_trace_header_only(tmp_path):
    empty = Trace(
        columns={name: np.asarray([], dtype=float) for name in TRACE_FIELDS},
        metadata={"name": "empty"},
        termination="duration",
    )
    dest = tmp_path / "empty.csv"
    export_trace(empty, "csv", dest)
    loaded = load_trace(dest)
    assert len(loaded) == 0
    assert list(loaded.columns) == list(TRACE_FIELDS)
    data_lines = [
        ln for ln in dest.read_text().splitlines() if ln and not ln.startswith("#")
    ]
    assert data_lines == [",".join(TRACE_FIELDS)]


def test_export_requires_destination(run_matrix):
    with pytest.raises(ValueError):
        export_trace(run_matrix["oracle_hidden"], "csv", None)
    # CSV is the one trace format
    for fmt in ("xml", "json"):
        with pytest.raises(ValueError, match="fmt must be 'csv'"):
            export_trace(run_matrix["oracle_hidden"], fmt, f"out.{fmt}")


def test_export_plot_data(run_matrix, tmp_path, hidden_scene):
    trace = run_matrix["baseline_hidden"]
    written = export_plot_data(trace, tmp_path, scene=hidden_scene)
    # The outline is the one plot input trace.csv does not hold.
    assert written == [str(tmp_path / "scene_outline.csv")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene_outline.csv"]
    outline = (tmp_path / "scene_outline.csv").read_text()
    assert "obstacle" in outline and "crosswalk" in outline and "pedestrian" in outline


# --- terminations ----------------------------------------------------------------


def test_path_end_termination(run_matrix):
    trace = run_matrix["baseline_hidden"]
    assert trace.termination == "path_end"
    assert trace.columns["s"][-1] > 55.0


def test_proximity_termination(monkeypatch):
    monkeypatch.setattr(harness, "PROXIMITY_DIST", 2.5)
    scene = Scene(obstacles=(RectObstacle(center=(10.0, 2.4), size=(1.0, 1.0)),))
    cfg = ScenarioConfig(scene=scene, policy="oracle", duration=6.0)
    trace = run_scenario(cfg)
    assert trace.termination == "proximity"
    assert len(trace) < 600


def test_stuck_termination():
    scene = Scene(
        obstacles=(
            RectObstacle(center=(33.0, -1.5), size=(6.0, 1.2)),
            RectObstacle(center=(20.0, 4.8), size=(14.0, 1.0)),
        )
    )
    cfg = ScenarioConfig(scene=scene, policy="baseline", duration=8.0)
    trace = run_scenario(cfg)
    assert trace.termination == "stuck"
    assert trace.columns["ux"].max() < 3.0


def test_expected_stop_is_not_stuck(run_matrix):
    # resting before the crosswalk for a pedestrian is a success, not a fault
    assert run_matrix["pomdp_hidden"].termination == "duration"
    assert run_matrix["baseline_exposed"].termination == "duration"


# --- run summary -------------------------------------------------------------


def test_run_summaries(run_matrix, scenario_configs):
    # of the six shipped runs only the baseline crosses beside the hidden
    # pedestrian, at speed
    assert [
        summarize(trace, scenario_configs[name].scene.pedestrian.present) for name, trace in run_matrix.items()
    ] == [
        "baseline_exposed   end=duration  sim=15.00 s  max_ux= 5.39  never crossed; final s= 36.44 m (at rest)",
        "baseline_hidden    end=path_end  sim=12.34 s  max_ux= 9.98  crossed line at t=10.35 s, ux=8.89 m/s  UNSAFE",
        "oracle_exposed     end=duration  sim=15.00 s  max_ux= 9.16  never crossed; final s= 38.08 m (at rest)",
        "oracle_hidden      end=duration  sim=15.00 s  max_ux= 9.16  never crossed; final s= 38.08 m (at rest)",
        "pomdp_exposed      end=duration  sim=15.00 s  max_ux= 0.00  never crossed; final s=  0.00 m (at rest)",
        "pomdp_hidden       end=duration  sim=12.00 s  max_ux= 0.00  never crossed; final s=  0.00 m (at rest)",
    ]


def test_summary_of_moving_and_empty_runs(exposed_scene):
    # two seconds into the oracle run the car is still on its way; a
    # duration of half a control step rounds to no step at all
    moving = run_scenario(ScenarioConfig(scene=exposed_scene, duration=2.0, name="short"))
    assert summarize(moving, True) == (
        "short              end=duration  sim= 2.00 s  max_ux= 5.97  never crossed; final s=  5.94 m (moving 5.97 m/s)"
    )
    empty = run_scenario(ScenarioConfig(scene=exposed_scene, duration=CONTROL_DT / 2, name="empty"))
    assert len(empty) == 0
    assert {name: (col.dtype, col.shape) for name, col in empty.columns.items()} == {
        name: (np.dtype(float), (0,)) for name in TRACE_FIELDS
    }
    assert summarize(empty, True) == "empty              end=duration  sim= 0.00 s"


@pytest.mark.parametrize(
    ("present", "crossing_ux", "flagged"),
    [(True, 8.89, True), (True, 1.0, False), (True, 1.01, True), (False, 8.89, False)],
)
def test_summary_flags_fast_crossing_beside_pedestrian(present, crossing_ux, flagged):
    # the line at s = 40 m is crossed on the third step
    columns = {name: np.zeros(4) for name in TRACE_FIELDS}
    columns["time"] = np.arange(4) * CONTROL_DT
    columns["s"] = np.array([39.8, 39.9, 40.0, 40.1])
    columns["ux"] = np.array([9.0, 9.0, crossing_ux, 9.0])
    trace = Trace(columns=columns, metadata={"name": "fast", "crosswalk_s": 40.0}, termination="duration")
    line = summarize(trace, present)
    assert line.startswith("fast ") and f"ux={crossing_ux:.2f} m/s" in line
    assert line.endswith("  UNSAFE") == flagged


# --- config loading -----------------------------------------------------------


def test_scenario_config_validation(exposed_scene):
    with pytest.raises(ValueError):
        ScenarioConfig(scene=exposed_scene, policy="magic")
    with pytest.raises(ValueError, match="duration"):
        ScenarioConfig(scene=exposed_scene, duration=0.0)
    for bad in (-5.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="v_desired"):
            ScenarioConfig(scene=exposed_scene, v_desired=bad)
        with pytest.raises(ValueError, match="duration"):
            ScenarioConfig(scene=exposed_scene, duration=bad)
    # the model's speed bins stop at 10 m/s; other policies take any speed
    with pytest.raises(ValueError, match="v_desired.*top speed 10.0"):
        ScenarioConfig(scene=exposed_scene, policy="pomdp", v_desired=8.0)
    assert ScenarioConfig(scene=exposed_scene, policy="oracle", v_desired=8.0).v_desired == 8.0


def test_load_scenario_resolves_and_overrides(tmp_path, repo_root):
    doc = {
        "scene": str(repo_root / "configs" / "scene_exposed.yaml"),
        "policy": "baseline",
        "v_desired": 8.0,
        "duration": 4.0,
    }
    dest = tmp_path / "custom_case.yaml"
    dest.write_text(yaml.safe_dump(doc))
    cfg = load_scenario(dest)
    assert cfg.name == "custom_case"
    assert cfg.policy == "baseline"
    assert cfg.v_desired == 8.0
    assert cfg.scene.pedestrian.present


@pytest.mark.parametrize(
    "key", ["stop_margn", "kp", "control_dt", "decision_period", "vehicle", "name", "seed", "policy_file"]
)
def test_load_scenario_rejects_unknown_key(tmp_path, repo_root, key):
    doc = {
        "scene": str(repo_root / "configs" / "scene_exposed.yaml"),
        "policy": "oracle",
        key: 0.5,
    }
    dest = tmp_path / "typo.yaml"
    dest.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match=re.escape(f"{dest}: unknown scenario key '{key}'")):
        load_scenario(dest)


def test_load_scenario_rejects_empty_file(tmp_path):
    dest = tmp_path / "empty.yaml"
    dest.write_text("")
    with pytest.raises(ValueError, match="empty.yaml: empty scenario file"):
        load_scenario(dest)


def test_load_scenario_requires_scene(tmp_path):
    dest = tmp_path / "no_scene.yaml"
    dest.write_text(yaml.safe_dump({"policy": "oracle", "duration": 4.0}))
    with pytest.raises(ValueError, match="no_scene.yaml: missing scenario key 'scene'"):
        load_scenario(dest)


@pytest.mark.parametrize("policy", ["oracle", "baseline"])
@pytest.mark.parametrize("key", ["model", "policy_file"])
def test_load_scenario_rejects_unread_files(tmp_path, repo_root, policy, key):
    # only a pomdp run reads a model; elsewhere the key would be ignored,
    # so it fails to load. No run reads a policy file any more, so that key
    # fails as unknown
    refused = {
        "model": f"key 'model' is set, but policy {policy!r} reads no",
        "policy_file": "unknown scenario key 'policy_file'",
    }[key]
    doc = {
        "scene": str(repo_root / "configs" / "scene_exposed.yaml"),
        "policy": policy,
        key: str(repo_root / "configs" / "pomdp.yaml"),
    }
    dest = tmp_path / "unread.yaml"
    dest.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match=re.escape(f"{dest}: {refused}")):
        load_scenario(dest)


@pytest.mark.parametrize(
    "case", ["misspelt-key", "missing-scene", "yaml-syntax", "infeasible-solve", "infeasible-run", "off-path-crosswalk"]
)
def test_cli_config_errors_exit_2_on_one_line(tmp_path, repo_root, capsys, case):
    # a file the run cannot use ends in one stderr line naming it and exit
    # code 2, not a traceback; the missing scene is never written. A scene
    # whose occluder sits at x = 12 m leaves no room to swing around it:
    # solve names the scene file, and run names the scenario over it. A
    # crosswalk at x = 65 m lies beyond the path's end
    dest = tmp_path / "config.yaml"
    scene = yaml.safe_load((repo_root / "configs" / "scene_hidden.yaml").read_text())
    scene["obstacles"][0]["center"][0] = 12.0
    (tmp_path / "infeasible.yaml").write_text(yaml.safe_dump(scene))
    if case == "misspelt-key":
        dest.write_text(f"scene: {repo_root / 'configs' / 'scene_hidden.yaml'}\npolcy: oracle\n")
        argv = ["run", "--scenario", str(dest), "--out", str(tmp_path / "out")]
    elif case == "infeasible-solve":
        dest = tmp_path / "infeasible.yaml"
        argv = ["solve", "--scene", str(dest)]
    elif case == "off-path-crosswalk":
        scene = yaml.safe_load((repo_root / "configs" / "scene_hidden.yaml").read_text())
        scene["crosswalk"]["distance"] = scene["pedestrian"]["position"][0] = 65.0
        dest.write_text(yaml.safe_dump(scene))
        argv = ["solve", "--scene", str(dest)]
    elif case == "infeasible-run":
        dest.write_text("scene: infeasible.yaml\npolicy: oracle\n")
        argv = ["run", "--scenario", str(dest), "--out", str(tmp_path / "out")]
    else:
        if case == "yaml-syntax":
            dest.write_text("road: [1, 2\n")
        argv = ["grid-dump", "--scene", str(dest)]
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("crosswalk-sim: error: ") and err.endswith("\n")
    assert len(err.splitlines()) == 1 and str(dest) in err
    assert not (tmp_path / "out").exists()


def test_cli_internal_value_error_propagates(tmp_path, repo_root, monkeypatch, capsys):
    # only a file the run cannot use ends in exit code 2; any other
    # ValueError is an internal fault and keeps its traceback
    def broken(config):
        raise ValueError("internal fault")

    monkeypatch.setattr("crosswalk_sim.cli.run_scenario", broken)
    scenario = repo_root / "configs" / "scenarios" / "oracle_hidden.yaml"
    with pytest.raises(ValueError, match="^internal fault$"):
        cli_main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert "error:" not in capsys.readouterr().err


def test_cli_verbose_config_error_keeps_its_traceback(tmp_path, capsys):
    # --verbose re-raises, so a fault that is not the file's shows where
    # it happened
    dest = tmp_path / "config.yaml"
    dest.write_text("road: [1, 2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(dest))}: not valid YAML"):
        cli_main(["--verbose", "grid-dump", "--scene", str(dest)])
    assert "error:" not in capsys.readouterr().err


def test_shipped_scenarios_cover_matrix(scenario_configs):
    assert set(scenario_configs) == {
        "oracle_hidden",
        "oracle_exposed",
        "baseline_hidden",
        "baseline_exposed",
        "pomdp_hidden",
        "pomdp_exposed",
    }
    for name, cfg in scenario_configs.items():
        policy, placement = name.split("_")
        assert cfg.policy == policy
        ped_y = cfg.scene.pedestrian.position[1]
        assert (ped_y < -1.8) == (placement == "hidden")


def test_load_model_config_rejects_unknown_key(tmp_path):
    dest = tmp_path / "model.yaml"
    dest.write_text("discount: 0.9\nmagic_knob: 3\n")
    with pytest.raises(ValueError):
        load_model_config(dest)


def test_load_model_config_rejects_epoch(tmp_path):
    # the decision epoch is pomdp.EPOCH, shared with the closed loop
    dest = tmp_path / "model.yaml"
    dest.write_text("epoch: 0.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{dest}: unknown model key 'epoch'")):
        load_model_config(dest)


@pytest.mark.parametrize("key", ["crosswalk_bin", "occluded_bins"])
def test_load_model_config_rejects_geometry(tmp_path, key):
    # the geometry comes from each scenario's scene, never from the file
    dest = tmp_path / "model.yaml"
    dest.write_text(f"discount: 0.995\n{key}: 80\n")
    with pytest.raises(ValueError, match=re.escape(f"{dest}: unknown model key '{key}'")):
        load_model_config(dest)


def test_load_model_config_types(repo_root):
    cfg = load_model_config(repo_root / "configs" / "pomdp.yaml")
    assert cfg == ModelConfig(discount=0.995)


def test_derive_model_config(scenario_configs, hidden_scene, exposed_scene):
    # both shipped scenes give the geometry the shipped pomdp scenarios
    # load with, and the base config's discount is kept
    shipped = scenario_configs["pomdp_hidden"].model_config
    assert scenario_configs["pomdp_exposed"].model_config == shipped
    base = ModelConfig(discount=0.9, crosswalk_bin=3, occluded_bins=(7, 9))
    for scene in (hidden_scene, exposed_scene):
        derived = derive_model_config(scene, base)
        assert derived == ModelConfig(discount=0.9, crosswalk_bin=80, occluded_bins=(0, 62))
        assert derive_model_config(scene, shipped) == shipped
    # with no obstacle nothing is shadowed: the empty band lo > hi
    assert derive_model_config(Scene()).occluded_bins == (1, 0)


def test_load_scenario_derives_model_geometry(tmp_path, repo_root):
    # the hidden scene with its crosswalk and pedestrian moved to x = 30 m:
    # the planner's bins follow the scene, not a configured value
    scene = yaml.safe_load((repo_root / "configs" / "scene_hidden.yaml").read_text())
    scene["crosswalk"]["distance"] = 30.0
    scene["pedestrian"]["position"][0] = 30.0
    (tmp_path / "scene.yaml").write_text(yaml.safe_dump(scene))
    doc = {"scene": "scene.yaml", "model": str(repo_root / "configs" / "pomdp.yaml"), "policy": "pomdp"}
    dest = tmp_path / "moved.yaml"
    dest.write_text(yaml.safe_dump(doc))
    cfg = load_scenario(dest).model_config
    assert (cfg.discount, cfg.crosswalk_bin, cfg.occluded_bins) == (0.995, 60, (0, 60))


def test_harness_binds_the_names_perfbench_reads():
    # perfbench/tracer.py patches these as harness attributes and
    # perfbench/workloads.py calls them there, although the package itself
    # no longer reaches some of them through harness.
    from crosswalk_sim import control, dynamics, executor, files

    homes = {
        files: ("export_trace", "export_plot_data", "load_scenario", "load_model_config"),
        harness: ("run_scenario",),
        dynamics: ("step_dynamics",),
        control: ("steer_control", "speed_control"),
        executor: ("pomdp_step",),
    }
    for module, names in homes.items():
        for name in names:
            assert getattr(harness, name) is getattr(module, name), name
    # workloads.py skips a scenario's solve when its config has a policy
    # file, which no scenario can have any more
    assert ScenarioConfig.policy_file is None
    assert "policy_file" not in ScenarioConfig.__dataclass_fields__


def _fresh_python(probe: str, *args: str) -> str:
    """Stdout of probe run with args in a new interpreter that imports this
    checkout's crosswalk_sim."""
    import crosswalk_sim

    src = pathlib.Path(crosswalk_sim.__file__).parents[1]
    return subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout


def test_package_import_loads_every_runtime_module():
    # perfbench/run.py times a fresh `import crosswalk_sim` as the package's
    # import cost, so that import must keep loading every module a run needs;
    # scipy is not among them until the first model build
    import crosswalk_sim

    out = _fresh_python("import sys, crosswalk_sim; print(*sorted(m for m in sys.modules if m.startswith('crosswalk_sim.')))")
    runtime = {f"crosswalk_sim.{m.name}" for m in pkgutil.iter_modules(crosswalk_sim.__path__)} - {"crosswalk_sim.cli"}
    assert len(runtime) == 9
    assert set(out.split()) == runtime


def test_only_a_model_build_loads_scipy(repo_root):
    # the oracle and baseline runs and the grid sense, scale and steer only,
    # so they never pay for importing scipy's sparse solver
    probe = """
import dataclasses, pathlib, sys
from crosswalk_sim import harness, pomdp, world
from crosswalk_sim.files import load_scenario
for name in ("oracle_hidden", "baseline_hidden"):
    config = load_scenario(pathlib.Path(sys.argv[1], name + ".yaml"))
    harness.run_scenario(dataclasses.replace(config, duration=1.0))
world.build_grid(config.scene, (0.0, 0.0, 0.0))
print("scipy.sparse" in sys.modules)
pomdp.build_crosswalk_model()
print("scipy.sparse" in sys.modules)
"""
    assert _fresh_python(probe, str(repo_root / "configs" / "scenarios")).split() == ["False", "True"]


# --- command line ----------------------------------------------------------------


def test_cli_solve_and_run(tmp_path, repo_root, monkeypatch, caplog, scenario_configs):
    # solve logs the model config it solved, the same for both shipped
    # scenes, and writes nothing; a pomdp run solves its own policy
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO, logger="crosswalk_sim")
    solved = []
    for scene in ("scene_hidden.yaml", "scene_exposed.yaml"):
        caplog.clear()
        rc = cli_main(
            ["solve", "--model", str(repo_root / "configs" / "pomdp.yaml"), "--scene", str(repo_root / "configs" / scene)]
        )
        assert rc == 0
        solved += [m for m in caplog.messages if m.startswith("solved ")]
    assert solved == [f"solved {scenario_configs['pomdp_hidden'].model_config!r}"] * 2
    assert not any(tmp_path.iterdir())

    scenario = {
        "scene": str(repo_root / "configs" / "scene_exposed.yaml"),
        "model": str(repo_root / "configs" / "pomdp.yaml"),
        "policy": "pomdp",
        "duration": 1.5,
    }
    scen_file = tmp_path / "short_pomdp.yaml"
    scen_file.write_text(yaml.safe_dump(scenario))
    out_dir = tmp_path / "out"
    rc = cli_main(["run", "--scenario", str(scen_file), "--out", str(out_dir)])
    assert rc == 0
    trace = load_trace(out_dir / "trace.csv")
    assert len(trace) == 150
    assert sorted(p.name for p in out_dir.iterdir()) == ["scene_outline.csv", "trace.csv"]
    assert f"{summarize(trace, True)} -> {out_dir / 'trace.csv'}" in caplog.messages


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--model", "configs/pomdp.yaml", "--out", "policy.txt"],
        ["run", "--scenario", "configs/scenarios/oracle_hidden.yaml", "--out", "out", "--seed", "3"],
        ["run", "--scenario", "configs/scenarios/pomdp_hidden.yaml", "--out", "out", "--policy", "x"],
        ["solve", "--scene", "configs/scene_hidden.yaml", "--out", "x"],
    ],
    ids=["solve-without-scene", "run-seed", "run-policy", "solve-out"],
)
def test_cli_usage_errors(tmp_path, monkeypatch, argv):
    # solve has no crosswalk to plan for without a scene, run has no seed
    # to override, and neither reads nor writes a policy file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_cli_batch(tmp_path, repo_root, caplog):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    (scen_dir / "quick.yaml").write_text(
        yaml.safe_dump(
            {
                "scene": str(repo_root / "configs" / "scene_hidden.yaml"),
                "policy": "oracle",
                "duration": 1.0,
            }
        )
    )
    out_dir = tmp_path / "results"
    caplog.set_level(logging.INFO, logger="crosswalk_sim")
    rc = cli_main(["batch", "--dir", str(scen_dir), "--out", str(out_dir)])
    assert rc == 0
    trace = load_trace(out_dir / "quick" / "trace.csv")
    assert len(trace) == 100
    assert (out_dir / "quick" / "scene_outline.csv").exists()
    assert summarize(trace, True) in caplog.messages


def test_cli_grid_dump(tmp_path, repo_root, capsys):
    rc = cli_main(
        [
            "grid-dump",
            "--scene",
            str(repo_root / "configs" / "scene_hidden.yaml"),
            "--at",
            "0.0",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 210
    assert all(len(ln) == 48 for ln in lines)
    assert any("2" in ln for ln in lines)  # the occluder casts a shadow

    dest = tmp_path / "grid.txt"
    rc = cli_main(
        [
            "grid-dump",
            "--scene",
            str(repo_root / "configs" / "scene_hidden.yaml"),
            "--at",
            "38.0",
            "--out",
            str(dest),
        ]
    )
    assert rc == 0
    assert len(dest.read_text().strip().splitlines()) == 210


@pytest.mark.parametrize(
    "option, value", [("--at", "nan"), ("--offset", "inf"), ("--at", "-inf"), ("--offset", "NaN"), ("--at", "ahead")]
)
def test_cli_grid_dump_rejects_non_finite_pose(repo_root, capsys, option, value):
    # A NaN or infinite coordinate used to print an all-FREE grid and exit
    # 0; it is a usage error naming the option, as the config loaders
    # reject NaN and inf in a file. "--at=-inf" keeps argparse from reading
    # "-inf" as an option.
    scene = str(repo_root / "configs" / "scene_hidden.yaml")
    with pytest.raises(SystemExit) as exc:
        cli_main(["grid-dump", "--scene", scene, f"{option}={value}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: {value!r} is not a finite number" in err

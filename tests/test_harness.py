"""Closed-loop harness: traces, persistence, terminations, CLI."""

from __future__ import annotations

import math
import re

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
    load_scene,
    load_trace_csv,
)
from crosswalk_sim.harness import CONTROL_DT, run_scenario
from crosswalk_sim.pomdp import EPOCH, ModelConfig, derive_model_config
from crosswalk_sim.qmdp import load_policy, save_policy
from crosswalk_sim.world import Pedestrian, RectObstacle, Scene


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
    loaded = load_trace_csv(dest)
    assert columns_equal(trace, loaded)
    assert loaded.termination == trace.termination
    assert loaded.metadata["name"] == trace.metadata["name"]
    assert loaded.metadata["crosswalk_s"] == trace.metadata["crosswalk_s"]


def test_csv_round_trip_preserves_nan(run_matrix, tmp_path):
    trace = run_matrix["oracle_exposed"]
    dest = tmp_path / "trace.csv"
    export_trace(trace, "csv", dest)
    loaded = load_trace_csv(dest)
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
    loaded = load_trace_csv(dest)
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


def test_load_scenario_resolves_and_overrides(tmp_path, repo_root):
    doc = {
        "scene": str(repo_root / "configs" / "scene_exposed.yaml"),
        "policy": "baseline",
        "v_desired": 8.0,
        "duration": 4.0,
        "seed": 7,
    }
    dest = tmp_path / "custom_case.yaml"
    dest.write_text(yaml.safe_dump(doc))
    cfg = load_scenario(dest)
    assert cfg.name == "custom_case"
    assert cfg.policy == "baseline"
    assert cfg.v_desired == 8.0
    assert cfg.seed == 7
    assert cfg.scene.pedestrian.present


@pytest.mark.parametrize("key", ["stop_margn", "kp", "control_dt", "decision_period", "vehicle", "name"])
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


# --- command line ----------------------------------------------------------------


def test_cli_solve_and_run(tmp_path, repo_root):
    policy_file = tmp_path / "policy.txt"
    rc = cli_main(
        [
            "solve",
            "--model",
            str(repo_root / "configs" / "pomdp.yaml"),
            "--scene",
            str(repo_root / "configs" / "scene_exposed.yaml"),
            "--out",
            str(policy_file),
        ]
    )
    assert rc == 0
    solved_for = derive_model_config(
        load_scene(repo_root / "configs" / "scene_exposed.yaml"),
        load_model_config(repo_root / "configs" / "pomdp.yaml"),
    )
    policy = load_policy(policy_file, solved_for)
    assert policy.alphas.shape == (11, 2662)

    scenario = {
        "scene": str(repo_root / "configs" / "scene_exposed.yaml"),
        "model": str(repo_root / "configs" / "pomdp.yaml"),
        "policy": "pomdp",
        "duration": 1.5,
    }
    scen_file = tmp_path / "short_pomdp.yaml"
    scen_file.write_text(yaml.safe_dump(scenario))
    out_dir = tmp_path / "out"
    rc = cli_main(
        [
            "run",
            "--scenario",
            str(scen_file),
            "--out",
            str(out_dir),
            "--policy",
            str(policy_file),
        ]
    )
    assert rc == 0
    trace = load_trace_csv(out_dir / "trace.csv")
    assert len(trace) == 150
    assert sorted(p.name for p in out_dir.iterdir()) == ["scene_outline.csv", "trace.csv"]


@pytest.mark.parametrize("via", ["policy_file", "cli"])
def test_policy_for_another_geometry_is_refused(tmp_path, repo_root, policy, model_config, via):
    # a policy solved for the hidden scene (crosswalk bin 80, band (0, 62)),
    # run on the hidden scene with its crosswalk moved to x = 30 m, whose
    # scenario derives bin 60 and band (0, 60)
    policy_file = tmp_path / "hidden.policy"
    save_policy(policy, policy_file, model_config)
    scene = yaml.safe_load((repo_root / "configs" / "scene_hidden.yaml").read_text())
    scene["crosswalk"]["distance"] = 30.0
    scene["pedestrian"]["position"][0] = 30.0
    (tmp_path / "scene.yaml").write_text(yaml.safe_dump(scene))
    doc = {"scene": "scene.yaml", "model": str(repo_root / "configs" / "pomdp.yaml"), "policy": "pomdp"}
    if via == "policy_file":
        doc["policy_file"] = policy_file.name
    dest = tmp_path / "moved.yaml"
    dest.write_text(yaml.safe_dump(doc))
    derived = ModelConfig(discount=0.995, crosswalk_bin=60, occluded_bins=(0, 60))
    assert load_scenario(dest).model_config == derived
    refused = re.escape(f"{policy_file}: policy solved for {model_config}, not for {derived}")
    with pytest.raises(ValueError, match=refused):
        if via == "policy_file":
            run_scenario(load_scenario(dest))
        else:
            cli_main(["run", "--scenario", str(dest), "--out", str(tmp_path / "out"), "--policy", str(policy_file)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--model", "configs/pomdp.yaml", "--out", "policy.txt"],
        ["run", "--scenario", "configs/scenarios/oracle_hidden.yaml", "--out", "out", "--seed", "3"],
    ],
    ids=["solve-without-scene", "run-seed"],
)
def test_cli_usage_errors(tmp_path, monkeypatch, argv):
    # solve has no crosswalk to plan for without a scene, and run has no
    # seed to override
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_cli_batch(tmp_path, repo_root):
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
    rc = cli_main(["batch", "--dir", str(scen_dir), "--out", str(out_dir)])
    assert rc == 0
    trace = load_trace_csv(out_dir / "quick" / "trace.csv")
    assert len(trace) == 100
    assert (out_dir / "quick" / "scene_outline.csv").exists()


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

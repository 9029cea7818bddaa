"""Config loaders: one error rule for the scene, scenario, model and
vehicle files."""

from __future__ import annotations

import re

import pytest
import yaml

from crosswalk_sim.files import load_model_config, load_scenario, load_scene, load_vehicle_params

LOADERS = {
    "scene": load_scene,
    "scenario": load_scenario,
    "model": load_model_config,
    "vehicle": load_vehicle_params,
}

BAD_FILES = {
    "unknown-key": "magic_knob: 3\n",
    "non-mapping": "- 1.0\n- 2.0\n",
    "empty": "",
}


@pytest.mark.parametrize("case", BAD_FILES)
@pytest.mark.parametrize("what", LOADERS)
def test_bad_config_names_the_file(tmp_path, what, case):
    dest = tmp_path / f"{what}.yaml"
    dest.write_text(BAD_FILES[case])
    with pytest.raises(ValueError, match=re.escape(str(dest))):
        LOADERS[what](dest)


# A value under each loader that does not convert to its field's type, and
# the key it sits under; {scene} stands for a shipped scene file.
BAD_VALUES = [
    ("scene", "road:\n  heading: north\n", "heading"),
    ("scene", "obstacles:\n  - center: 5\n    size: [1.0, 1.0]\n", "center"),
    ("scenario", "scene: {scene}\nv_desired: fast\n", "v_desired"),
    ("model", "discount: high\n", "discount"),
    ("model", "occluded_bins: [0, 50, 60]\n", "occluded_bins"),
    ("vehicle", "mass: heavy\n", "mass"),
]


@pytest.mark.parametrize("what, text, key", BAD_VALUES, ids=[f"{w}-{k}" for w, _, k in BAD_VALUES])
def test_bad_value_names_the_file_and_key(tmp_path, repo_root, what, text, key):
    dest = tmp_path / f"{what}.yaml"
    dest.write_text(text.format(scene=repo_root / "configs" / "scene_exposed.yaml"))
    with pytest.raises(ValueError, match=re.escape(f"{dest}: bad value for key '{key}'")):
        LOADERS[what](dest)


def test_scenario_values_convert_to_their_types(tmp_path, repo_root):
    dest = tmp_path / "scenario.yaml"
    scene = repo_root / "configs" / "scene_exposed.yaml"
    dest.write_text(f"scene: {scene}\nv_desired: '10'\nduration: '15'\nseed: '3'\n")
    cfg = load_scenario(dest)
    assert (cfg.v_desired, cfg.duration, cfg.seed) == (10.0, 15.0, 3)
    assert type(cfg.v_desired) is float and type(cfg.seed) is int


def test_model_values_convert_to_their_types(tmp_path):
    dest = tmp_path / "model.yaml"
    dest.write_text("discount: '0.9'\ncrosswalk_bin: '70'\noccluded_bins: ['0', 40]\nreward_goal: 100\n")
    cfg = load_model_config(dest)
    assert (cfg.discount, cfg.crosswalk_bin, cfg.occluded_bins) == (0.9, 70, (0, 40))
    assert type(cfg.reward_goal) is float


@pytest.mark.parametrize("what", LOADERS)
def test_missing_config_file(tmp_path, what):
    with pytest.raises(FileNotFoundError):
        LOADERS[what](tmp_path / "absent.yaml")


def test_key_value_vehicle_file_is_not_a_mapping(tmp_path):
    # The retired `key = value` vehicle format reads as one YAML string.
    dest = tmp_path / "vehicle.cfg"
    dest.write_text("# vehicle\nmass = 1500.0\nfriction = 0.9\n")
    with pytest.raises(ValueError, match=re.escape(f"{dest}: vehicle must be a mapping")):
        load_vehicle_params(dest)


@pytest.mark.parametrize("key", ["scene", "vehicle", "model", "policy_file"])
def test_empty_scenario_reference_names_the_key(tmp_path, repo_root, key):
    doc = {"scene": str(repo_root / "configs" / "scene_exposed.yaml"), key: None}
    dest = tmp_path / "scenario.yaml"
    dest.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match=re.escape(f"{dest}: empty scenario key '{key}'")):
        load_scenario(dest)

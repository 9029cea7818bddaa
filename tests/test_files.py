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

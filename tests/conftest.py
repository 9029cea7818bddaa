"""Shared fixtures: scenes, solved model, and the six benchmark runs."""

from __future__ import annotations

import pathlib

import pytest

from crosswalk_sim.files import load_scenario, load_scene
from crosswalk_sim.harness import run_scenario
from crosswalk_sim.pomdp import ACTION_SCALES, build_crosswalk_model
from crosswalk_sim.qmdp import extract_alphas, value_iteration

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SCENARIOS = CONFIGS / "scenarios"


@pytest.fixture(scope="session")
def repo_root():
    return REPO


@pytest.fixture(scope="session")
def hidden_scene():
    return load_scene(CONFIGS / "scene_hidden.yaml")


@pytest.fixture(scope="session")
def exposed_scene():
    return load_scene(CONFIGS / "scene_exposed.yaml")


@pytest.fixture(scope="session")
def scenario_configs():
    """The six shipped scenario configs, keyed by name."""
    return {
        cfg.name: cfg
        for cfg in (load_scenario(p) for p in sorted(SCENARIOS.glob("*.yaml")))
    }


@pytest.fixture(scope="session")
def model_config(scenario_configs):
    cfg = scenario_configs["pomdp_hidden"].model_config
    assert cfg is not None
    return cfg


@pytest.fixture(scope="session")
def crosswalk_model(model_config):
    return build_crosswalk_model(model_config)


@pytest.fixture(scope="session")
def q_table(crosswalk_model):
    return value_iteration(crosswalk_model)


@pytest.fixture(scope="session")
def policy(q_table):
    return extract_alphas(q_table, ACTION_SCALES)


@pytest.fixture(scope="session")
def run_matrix(scenario_configs, crosswalk_model, policy):
    """Traces for all six shipped scenarios, keyed by scenario name."""
    traces = {}
    for name, cfg in scenario_configs.items():
        if cfg.policy == "pomdp":
            traces[name] = run_scenario(cfg, model=crosswalk_model, policy=policy)
        else:
            traces[name] = run_scenario(cfg)
    return traces

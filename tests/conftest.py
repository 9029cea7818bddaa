"""Shared fixtures: scenes, solved model, and the six benchmark runs; and
the helpers the tests import from here: a trace.csv reader, a model built
from dense arrays, a Q table's Bellman residual, the flat state index
of the crosswalk model and its inverse, and the tire curve at any load,
stiffness and friction."""

from __future__ import annotations

import math
import pathlib

import numpy as np
import pytest
from scipy import sparse

from crosswalk_sim.dynamics import _tire
from crosswalk_sim.files import Trace, load_scenario, load_scene
from crosswalk_sim.harness import run_scenario
from crosswalk_sim.pomdp import (
    ACTION_SCALES,
    NUM_CROSSING,
    NUM_D,
    NUM_STATES,
    NUM_V,
    PomdpModel,
    build_crosswalk_model,
)
from crosswalk_sim.qmdp import extract_alphas, value_iteration

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SCENARIOS = CONFIGS / "scenarios"


def _scalar(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load_trace(source) -> Trace:
    """Read back a trace.csv written by files.export_trace: '# key: value'
    comment lines, then a header and rows of %.17g floats, which Python's
    float reads back exactly."""
    metadata, rows = {}, []
    with open(source, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                metadata[key] = _scalar(value)
            else:
                rows.append(line.split(","))
    header, body = rows[0], rows[1:]
    columns = {name: np.array([float(row[k]) for row in body]) for k, name in enumerate(header)}
    termination = metadata.pop("termination")
    return Trace(columns=columns, metadata=metadata, termination=termination)


def dense_model(transitions, rewards, discount) -> PomdpModel:
    """A PomdpModel from a dense (A, S, S) transition array."""
    return PomdpModel(
        transitions=tuple(sparse.csr_matrix(np.asarray(t, dtype=float)) for t in transitions),
        rewards=np.asarray(rewards, dtype=float),
        discount=float(discount),
    )


def bellman_residual(model, q: np.ndarray) -> float:
    """Sup-norm Bellman residual of an (S, A) Q table: the largest
    |R + gamma T max Q - Q| over states and actions."""
    v = q.max(axis=1)
    return max(
        float(np.max(np.abs(model.rewards[:, a] + model.discount * (mat @ v) - q[:, a])))
        for a, mat in enumerate(model.transitions)
    )


def state_index(v: int, d: int, c: int) -> int:
    """Flat index of speed bin v, distance bin d, crossing flag c in the
    crosswalk model's state layout."""
    if not (0 <= v < NUM_V and 0 <= d < NUM_D and 0 <= c < NUM_CROSSING):
        raise ValueError("state component out of range")
    return (c * NUM_D + d) * NUM_V + v


def state_tuple(index: int) -> tuple[int, int, int]:
    """Inverse of state_index: (v, d, c)."""
    if not 0 <= index < NUM_STATES:
        raise ValueError("state index out of range")
    v = index % NUM_V
    d = (index // NUM_V) % NUM_D
    c = index // (NUM_V * NUM_D)
    return v, d, c


def brush_tire_lateral(alpha: float, fz: float, c_alpha: float, mu: float) -> float:
    """Lateral force of a brush tire at slip angle alpha: dynamics._tire,
    the curve the vehicle's two tires use, at any checked load, cornering
    stiffness and friction.

    Cubic below the full-slide angle, saturated at mu * fz beyond it. The
    force opposes the slip, so it is odd in alpha and bounded by friction.
    """
    if not all(map(math.isfinite, (alpha, fz, c_alpha, mu))):
        raise ValueError("tire inputs must be finite")
    if fz <= 0 or c_alpha <= 0 or mu <= 0:
        raise ValueError("fz, c_alpha and mu must be positive")
    return _tire(fz, c_alpha, mu)(alpha)


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

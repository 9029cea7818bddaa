"""The benchmark's workloads.

Each workload has a set-up step, a fixed list of input keys (one pass runs
one operation per key, in order), the timed operation and its output
check. Operations call the package's layers through their modules, so the
tracer sees them. The workloads stress different layers:

- scenario_matrix: the six shipped scenarios, as `run_batch` runs them.
  Perception, dynamics, path projection and the controllers do the work;
  the solver runs only in set-up.
- policy_solve: model build, value iteration and alpha extraction on two
  real configs. No perception or dynamics.
- cluttered_grids: perception alone, on generated scenes with several
  rotated obstacles, so shadows cover far more of the grid than in the
  shipped scenes.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from crosswalk_sim import harness, pomdp, qmdp, world
from crosswalk_sim.world import (
    Crosswalk,
    Pedestrian,
    RectObstacle,
    RoadFrame,
    Scene,
)

import checks
from tracer import CountingTransitions

SOLVE_TOL = 1e-6  # value_iteration's and `crosswalk-sim solve`'s default


class ScenarioMatrix:
    """One operation: run one shipped scenario, then export its trace and
    plot panels. The exported files must equal the committed results/."""

    name = "scenario_matrix"

    def __init__(self, root: Path, out_dir: Path, seed: int):
        self.root = root
        self.out_dir = out_dir

    def setup(self, tracer=None):
        paths = sorted((self.root / "configs" / "scenarios").glob("*.yaml"))
        self.configs = {p.stem: harness.load_scenario(p) for p in paths}
        self.golden = {
            stem: checks.read_golden(self.root / "results" / stem) for stem in self.configs
        }
        # One solve per model config, as run_batch does.
        self.setup_counters = {}
        solved = {}
        self.solved = {}
        for stem, cfg in self.configs.items():
            if cfg.policy != "pomdp" or cfg.policy_file:
                continue
            key = cfg.model_config or pomdp.ModelConfig()
            if key not in solved:
                solved[key] = solve(key, tracer)
                if tracer is not None:
                    label = "default" if key == pomdp.ModelConfig() else "shipped"
                    self.setup_counters[f"sweeps.{label}"] = solved[key][3]
            self.solved[stem] = solved[key][:2]
        self.keys = list(self.configs)

    def run(self, stem, tracer=None):
        cfg = self.configs[stem]
        model, policy = self.solved.get(stem, (None, None))
        start = time.perf_counter()
        trace = harness.run_scenario(cfg, model=model, policy=policy)
        run_s = time.perf_counter() - start
        dest = self.out_dir / stem
        dest.mkdir(parents=True, exist_ok=True)
        harness.export_trace(trace, "csv", dest / "trace.csv")
        harness.export_plot_data(trace, dest, scene=cfg.scene)
        return trace, run_s

    def check(self, stem, output, pass_index: int):
        return checks.compare_golden(self.out_dir / stem, self.golden[stem])

    def stats(self, stem, output) -> dict:
        trace, run_s = output
        steps = len(trace)
        return {
            "sim_s": steps * trace.metadata["control_dt"],
            "run_s": run_s,
            "control_steps": steps,
            "belief_resets": int(trace.metadata["belief_resets"]),
            "unobservable_cells": int(trace.column("unobservable").sum()),
            "obstacle_grids": steps * len(self.configs[stem].scene.obstacles),
        }


class PolicySolve:
    """One operation: build the model, run value iteration, extract the
    alpha vectors (the `crosswalk-sim solve` path). Alternates the shipped
    configs/pomdp.yaml (discount 0.995) and the built-in ModelConfig()
    (discount 0.95), whose time splits differently between build and
    value iteration."""

    name = "policy_solve"

    def __init__(self, root: Path, out_dir: Path, seed: int):
        self.root = root

    def setup(self, tracer=None):
        self.configs = {
            "shipped": harness.load_model_config(self.root / "configs" / "pomdp.yaml"),
            "default": pomdp.ModelConfig(),
        }
        self.keys = list(self.configs)
        self.setup_counters = {}

    def run(self, key, tracer=None):
        return solve(self.configs[key], tracer)

    def check(self, key, output, pass_index: int):
        model, policy, q, _ = output
        return checks.check_solve(model, q, policy, SOLVE_TOL)

    def stats(self, key, output) -> dict:
        sweeps = output[3]
        return {} if sweeps is None else {f"sweeps.{key}": sweeps}


class ClutteredGrids:
    """One operation: build_grid, count_unobservable and pedestrian_visible
    on one generated scene. A sampled subset of grids is compared with an
    independent per-cell reference."""

    name = "cluttered_grids"
    SCENES = 1024
    SAMPLE_EVERY = 8

    def __init__(self, root: Path, out_dir: Path, seed: int):
        self.seed = seed

    def setup(self, tracer=None):
        self.scenes = generate_scenes(self.seed, self.SCENES)
        self.keys = list(range(self.SCENES))
        self.setup_counters = {}

    def run(self, key, tracer=None):
        scene, pose = self.scenes[key]
        grid = world.build_grid(scene, pose)
        count = world.count_unobservable(grid)
        visible = world.pedestrian_visible(scene, pose)
        return grid, count, visible

    def check(self, key, output, pass_index: int):
        scene, pose = self.scenes[key]
        grid, count, visible = output
        # The sample rotates, so successive passes cover every scene.
        sample = (key + pass_index) % self.SAMPLE_EVERY == 0
        return checks.check_grid(scene, pose, grid, count, visible, reference=sample)

    def stats(self, key, output) -> dict:
        scene, _ = self.scenes[key]
        return {
            "unobservable_cells": output[1],
            "obstacle_grids": len(scene.obstacles),
        }


WORKLOADS = {w.name: w for w in (ScenarioMatrix, PolicySolve, ClutteredGrids)}


def solve(config, tracer=None):
    """Build, solve and extract as `crosswalk-sim solve` does. With a
    tracer, value iteration runs on counting transitions so the sweep count
    is exact. Returns (model, policy, q, sweeps or None)."""
    model = pomdp.build_crosswalk_model(config)
    counting = None
    solved_model = model
    if tracer is not None:
        counting = CountingTransitions(model.transitions)
        solved_model = dataclasses.replace(model, transitions=counting)
    q = qmdp.value_iteration(solved_model, tol=SOLVE_TOL)
    policy = qmdp.extract_alphas(q, pomdp.ACTION_SCALES)
    return model, policy, q, None if counting is None else counting.sweeps()


def generate_scenes(seed: int, count: int) -> list[tuple[Scene, tuple]]:
    """Random scenes: 1-3 rotated obstacles, a random road frame and ego
    pose (the distribution of the grid-oracle tests), and a present
    pedestrian inside a crosswalk band ahead."""
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(count):
        obstacles = tuple(
            RectObstacle(
                center=(float(rng.uniform(3.0, 60.0)), float(rng.uniform(-7.0, 7.0))),
                size=(float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.5, 3.0))),
                yaw=float(rng.uniform(-0.6, 0.6)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        road = RoadFrame(
            origin=(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
            heading=float(rng.uniform(-math.pi, math.pi)),
        )
        crosswalk = Crosswalk(distance=float(rng.uniform(10.0, 65.0)))
        pedestrian = Pedestrian(
            present=True,
            position=(
                crosswalk.distance + float(rng.uniform(-1.0, 1.0)) * crosswalk.width / 2,
                float(rng.uniform(-7.0, 7.0)),
            ),
        )
        scene = Scene(road=road, obstacles=obstacles, crosswalk=crosswalk, pedestrian=pedestrian)
        north, east = road.to_inertial(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        scenes.append((scene, (float(north), float(east), road.heading)))
    return scenes

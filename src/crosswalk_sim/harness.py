"""Closed-loop scenario runner.

The control loop steps every CONTROL_DT seconds; the active policy refreshes
its speed scale every pomdp.EPOCH, the model's decision epoch (zero-order
hold in between), while the tracking controllers run every step. Traces
carry one row per control step plus run metadata and a termination reason.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path as FsPath

import numpy as np

from . import world
from .control import build_avoidance_path, speed_control, steer_control
from .dynamics import VehicleState, step_dynamics
from .executor import (
    STOP_MARGIN,
    SensorReading,
    ZeroBeliefError,
    baseline_scale,
    init_belief,
    oracle_scale,
    pomdp_step,
    stopping_scale,
)

# perfbench/tracer.py patches export_trace and export_plot_data as harness
# names, and perfbench/workloads.py calls them, load_scenario and
# load_model_config through this module, so all four stay bound here.
from .files import (
    TRACE_FIELDS,
    ScenarioConfig,
    Trace,
    export_plot_data,
    export_run,
    export_trace,
    load_model_config,
    load_scenario,
)
from .pomdp import (
    ACTION_SCALES,
    EPOCH,
    NUM_D,
    NUM_V,
    ModelConfig,
    PomdpModel,
    build_crosswalk_model,
)
from .qmdp import AlphaVectorPolicy, extract_alphas, load_policy, value_iteration
from .world import Scene

log = logging.getLogger(__name__)

CONTROL_DT = 0.01  # s per control step
YIELD_GATE_DECEL = 1.5  # m/s^2 the baseline may need to engage its yield ramp
STUCK_SPEED = 0.05  # m/s below which the vehicle counts as at rest
STUCK_TIME = 3.0  # s at rest, with no stop expected, that ends a run as stuck
PROXIMITY_DIST = 1.5  # m to an obstacle ahead that ends a run


def _quantize_down(scale: float, levels: int) -> float:
    """Snap a scale onto the {k / levels} ladder, rounding toward zero."""
    return math.floor(scale * levels + 1e-12) / levels


class _BaselinePolicy:
    """Occlusion-count heuristic plus a yield-to-stop rule that engages
    only when a detected pedestrian can still be stopped for comfortably."""

    def __init__(self, v_desired: float, crosswalk_s: float):
        self.v_desired = v_desired
        self.crosswalk_s = crosswalk_s
        self.stop_s = crosswalk_s - STOP_MARGIN
        self.seen = False
        self.engaged = False

    def decide(self, state: VehicleState, reading: SensorReading) -> float:
        scale = baseline_scale(reading.unobservable_count)
        if reading.detected:
            self.seen = True
        past = state.s >= self.crosswalk_s
        if self.seen and not past and not self.engaged:
            dist = self.stop_s - state.s
            if dist > 0.0:
                needed = state.ux**2 / (2.0 * dist)
                if needed <= YIELD_GATE_DECEL:
                    self.engaged = True
        if self.engaged and not past:
            ramp = stopping_scale(self.stop_s - state.s, self.v_desired)
            scale = min(scale, _quantize_down(ramp, 9))
        return scale


def run_scenario(
    config: ScenarioConfig,
    model: PomdpModel | None = None,
    policy: AlphaVectorPolicy | None = None,
) -> Trace:
    """Run one closed-loop scenario and return its trace.

    For the pomdp policy a solved alpha-vector policy is required: pass it
    in together with the model it was solved on, point config.policy_file
    at a saved one, or leave both unset to solve it here (slowest option).
    A policy file solved for another model config than the scenario
    derives raises ValueError naming the file.
    """
    scene = config.scene
    path = build_avoidance_path(scene)
    crosswalk_s = world.crosswalk_path_distance(scene, path)

    belief = None
    if config.policy == "pomdp":
        if policy is None:
            if config.policy_file:
                policy = load_policy(config.policy_file, config.model_config)
            else:
                model, policy = solve_policy(config.model_config)
        if model is None:
            model = build_crosswalk_model(config.model_config)
        belief = init_belief(model)
    baseline = _BaselinePolicy(config.v_desired, crosswalk_s) if config.policy == "baseline" else None

    n_steps = int(round(config.duration / CONTROL_DT))
    decim = int(round(EPOCH / CONTROL_DT))
    state = VehicleState(
        psi=path.heading_at(0.0),
        north=path.north[0],
        east=path.east[0],
    )

    rows = {name: [] for name in TRACE_FIELDS}
    scale = 0.0
    p_crossing = math.nan
    stuck_elapsed = 0.0
    belief_resets = 0
    termination = "duration"

    for k in range(n_steps):
        t = k * CONTROL_DT
        pose = (state.north, state.east, state.psi)
        grid = world.build_grid(scene, pose)
        count = world.count_unobservable(grid)
        detected = world.pedestrian_visible(scene, pose)

        if k % decim == 0:
            reading = SensorReading(unobservable_count=count, detected=detected)
            if config.policy == "oracle":
                scale = oracle_scale(scene, state, crosswalk_s, config.v_desired)
            elif config.policy == "baseline":
                scale = baseline.decide(state, reading)
            else:
                try:
                    scale, belief = pomdp_step(belief, policy, reading, model)
                except ZeroBeliefError:
                    log.warning("belief collapsed at t=%.2f s; reset to uniform", t)
                    belief = init_belief(model)
                    belief_resets += 1
                    scale, belief = pomdp_step(belief, policy, reading, model)
                p_crossing = _p_crossing(belief)

        ax = speed_control(config.v_desired, scale, state.ux)
        steer = steer_control(state, path)

        rows["time"].append(t)
        rows["north"].append(state.north)
        rows["east"].append(state.east)
        rows["heading"].append(state.psi)
        rows["ux"].append(state.ux)
        rows["s"].append(state.s)
        rows["e"].append(state.e)
        rows["ax"].append(ax)
        rows["steer"].append(steer)
        rows["scale"].append(scale)
        rows["unobservable"].append(count)
        rows["detected"].append(float(detected))
        rows["p_crossing"].append(p_crossing)

        state = step_dynamics(state, steer, ax, CONTROL_DT, path)

        if state.s >= path.length - 0.5:
            termination = "path_end"
            break
        if _near_obstacle(scene, state):
            termination = "proximity"
            break
        if state.ux < STUCK_SPEED:
            stuck_elapsed += CONTROL_DT
        else:
            stuck_elapsed = 0.0
        stop_expected = scene.pedestrian.present and state.s < crosswalk_s
        if stuck_elapsed > STUCK_TIME and not stop_expected:
            termination = "stuck"
            break

    columns = {name: np.asarray(vals, dtype=float) for name, vals in rows.items()}
    metadata = {
        "name": config.name,
        "policy": config.policy,
        "seed": config.seed,
        "v_desired": config.v_desired,
        "duration": config.duration,
        "control_dt": CONTROL_DT,
        "decision_period": EPOCH,
        "crosswalk_s": crosswalk_s,
        "path_length": path.length,
        "belief_resets": belief_resets,
    }
    return Trace(columns=columns, metadata=metadata, termination=termination)


def _p_crossing(belief: np.ndarray) -> float:
    return float(belief[NUM_D * NUM_V :].sum())


def solve_policy(config: ModelConfig) -> tuple[PomdpModel, AlphaVectorPolicy]:
    """Build the crosswalk model and solve it for its QMDP alpha vectors."""
    model = build_crosswalk_model(config)
    return model, extract_alphas(value_iteration(model), ACTION_SCALES)


def _near_obstacle(scene: Scene, state: VehicleState) -> bool:
    """True when the vehicle is still short of an obstacle and closer to
    it than PROXIMITY_DIST."""
    ex, ey = scene.road.to_road(state.north, state.east)
    return any(
        float(ex) < ob.bounds[0] and ob.distance(float(ex), float(ey)) < PROXIMITY_DIST
        for ob in scene.obstacles
    )


def run_batch(config_dir, out_dir) -> list[str]:
    """Run every scenario YAML in a directory; one output folder per run."""
    config_dir = FsPath(config_dir)
    out_dir = FsPath(out_dir)
    paths = sorted(config_dir.glob("*.yaml"))
    if not paths:
        raise FileNotFoundError(f"no scenario files in {config_dir}")
    written = []
    solved: dict = {}
    for cfg_path in paths:
        config = load_scenario(cfg_path)
        model = policy = None
        if config.policy == "pomdp" and not config.policy_file:
            key = config.model_config
            if key not in solved:
                solved[key] = solve_policy(key)
            model, policy = solved[key]
        trace = run_scenario(config, model=model, policy=policy)
        dest = export_run(trace, config.scene, out_dir / cfg_path.stem)
        log.info("%s: %s after %.2f s", cfg_path.stem, trace.termination, len(trace) * CONTROL_DT)
        written.append(dest)
    return written

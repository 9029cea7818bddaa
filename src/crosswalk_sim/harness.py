"""Closed-loop scenario runner and the three speed-scale policies.

The control loop steps every CONTROL_DT seconds; the run's policy refreshes
its speed scale every pomdp.EPOCH, the model's decision epoch (zero-order
hold in between), while the tracking controllers run every step. Traces
carry one row per control step plus run metadata and a termination reason.
Each policy is built once per run; decide(state, reading) returns the
speed scale. Its p_crossing goes into the trace (NaN for the oracle and
the baseline, which keep no belief). No policy resets its belief, so the
metadata's belief_resets is 0. The QMDP policy reads its bins (v, d) from
the car's state; its belief covers the crossing flag alone, weighed by
the model's P(detected | d, c) at that d.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path as FsPath

import numpy as np

from . import world
from .control import CONTROL_DT, PATH_END_MARGIN, path_to_crosswalk, speed_control, steer_control
from .dynamics import VehicleState, step_dynamics
from .executor import STOP_MARGIN, SensorReading, pomdp_step, stopping_scale

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
    CELL_LENGTH,
    CROSSING_CHAIN,
    EPOCH,
    NUM_D,
    NUM_V,
    SPEED_UNIT,
    TERMINAL_D,
    ModelConfig,
    PomdpModel,
    build_crosswalk_model,
)
from .qmdp import AlphaVectorPolicy, extract_alphas, value_iteration
from .world import Scene

log = logging.getLogger(__name__)

YIELD_GATE_DECEL = 1.5  # m/s^2 the baseline may need to engage its yield ramp
STUCK_SPEED = 0.05  # m/s below which the vehicle counts as at rest
STUCK_TIME = 3.0  # s at rest, with no stop expected, that ends a run as stuck
PROXIMITY_DIST = 1.5  # m to an obstacle ahead that ends a run
UNSAFE_SPEED = 1.0  # m/s above which crossing the line beside a pedestrian is unsafe


class OraclePolicy:
    """Perfect perception: full speed unless a pedestrian is crossing ahead,
    then a ramp to a stop STOP_MARGIN short of the crosswalk line."""

    p_crossing = math.nan

    def __init__(self, scene: Scene, crosswalk_s: float, v_desired: float):
        self.crossing = scene.pedestrian.present
        self.crosswalk_s = crosswalk_s
        self.v_desired = v_desired

    def decide(self, state: VehicleState, reading: SensorReading) -> float:
        if not self.crossing or state.s >= self.crosswalk_s:
            return 1.0
        return stopping_scale(self.crosswalk_s - STOP_MARGIN - state.s, self.v_desired)


class BaselinePolicy:
    """Occlusion-count ladder plus a yield-to-stop ramp, snapped down onto the
    ladder, that engages only when a detected pedestrian can be stopped comfortably.
    The ladder drops one of its LEVELS steps per COUNT_STEP unobservable cells."""

    LEVELS = 9
    COUNT_STEP = 180
    p_crossing = math.nan

    def __init__(self, v_desired: float, crosswalk_s: float):
        self.v_desired = v_desired
        self.crosswalk_s = crosswalk_s
        self.stop_s = crosswalk_s - STOP_MARGIN
        self.seen = False
        self.engaged = False

    def decide(self, state: VehicleState, reading: SensorReading) -> float:
        scale = (self.LEVELS - min(reading.unobservable_count // self.COUNT_STEP, self.LEVELS)) / self.LEVELS
        if reading.detected:
            self.seen = True
        past = state.s >= self.crosswalk_s
        if self.seen and not past and not self.engaged:
            dist = self.stop_s - state.s
            if dist > 0.0 and state.ux**2 / (2.0 * dist) <= YIELD_GATE_DECEL:
                self.engaged = True
        if self.engaged and not past:
            ramp = stopping_scale(self.stop_s - state.s, self.v_desired)
            scale = min(scale, math.floor(ramp * self.LEVELS + 1e-12) / self.LEVELS)
        return scale


class QmdpPolicy:
    """QMDP under mixed observability: the car knows its bins (v, d), so the
    belief covers the crossing flag c alone, started at 0.5 and filtered on
    the crossing chain. It acts on the Q rows of (v, d, 0) and (v, d, 1)
    and weighs the detection flag by the solved model's P(detected | d, c)
    at the same d."""

    def __init__(self, model: PomdpModel, alphas: AlphaVectorPolicy):
        self.alphas = alphas
        self.detection = model.detection  # (d, c)
        self.belief = np.full(2, 0.5)
        self.p_crossing = math.nan

    def decide(self, state: VehicleState, reading: SensorReading) -> float:
        v = min(max(round(state.ux / SPEED_UNIT), 0), NUM_V - 1)
        d = min(max(math.floor(state.s / CELL_LENGTH), 0), TERMINAL_D)
        i0 = d * NUM_V + v
        rows = self.alphas.alphas[:, [i0, NUM_D * NUM_V + i0]]
        p = self.detection[d]
        prior = self.belief
        action, self.belief = pomdp_step(prior, rows, CROSSING_CHAIN, p if reading.detected else 1.0 - p)
        scale = self.alphas.scales[action]
        self.p_crossing = float(self.belief[1])
        if log.isEnabledFor(logging.DEBUG):
            runner_up, top = np.sort(rows @ prior)[-2:]
            log.debug(
                "decision at s=%.2f m, (v, d)=(%d, %d): p_crossing %.4f -> %.4f, scale %.1f, Q margin %.4g",
                state.s, v, d, prior[1], self.p_crossing, scale, top - runner_up,
            )
        return scale


def run_scenario(
    config: ScenarioConfig,
    model: PomdpModel | None = None,
    policy: AlphaVectorPolicy | None = None,
) -> Trace:
    """Run one closed-loop scenario and return its trace.

    A pomdp run acts on an alpha-vector policy solved for
    config.model_config: pass it in together with the model it was solved
    on, or leave both unset to solve it here. Raises ValueError when only
    one of the two is passed, or either for an oracle or baseline run.
    """
    if config.policy != "pomdp" and (model is not None or policy is not None):
        raise ValueError(f"a run with policy {config.policy!r} takes no model or policy; only a pomdp run acts on one")
    if policy is None and model is not None:
        raise ValueError("a model was passed without the policy solved on it")
    if model is None and policy is not None:
        raise ValueError("a policy was passed without the model it was solved on")
    scene = config.scene
    path, crosswalk_s = path_to_crosswalk(scene)

    if config.policy == "oracle":
        policy = OraclePolicy(scene, crosswalk_s, config.v_desired)
    elif config.policy == "baseline":
        policy = BaselinePolicy(config.v_desired, crosswalk_s)
    else:
        if policy is None:
            model, policy = solve_policy(config.model_config)
        policy = QmdpPolicy(model, policy)

    n_steps = int(round(config.duration / CONTROL_DT))
    decim = int(round(EPOCH / CONTROL_DT))
    state = VehicleState(
        psi=path.heading_at(0.0),
        north=path.north[0],
        east=path.east[0],
    )

    rows = []  # one tuple of TRACE_FIELDS values per control step
    scale = 0.0
    stuck_elapsed = 0.0
    termination = "duration"

    for k in range(n_steps):
        t = k * CONTROL_DT
        pose = (state.north, state.east, state.psi)
        grid = world.build_grid(scene, pose)
        count = world.count_unobservable(grid)
        detected = world.pedestrian_visible(scene, pose)

        if k % decim == 0:
            scale = policy.decide(state, SensorReading(unobservable_count=count, detected=detected))

        ax = speed_control(config.v_desired, scale, state.ux)
        steer = steer_control(state, path)

        rows.append(
            (t, state.north, state.east, state.psi, state.ux, state.s, state.e,
             ax, steer, scale, count, float(detected), policy.p_crossing)
        )

        state = step_dynamics(state, steer, ax, CONTROL_DT, path)

        if state.s >= path.length - PATH_END_MARGIN:
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

    # reshape keeps one (empty) column per field when no step ran
    table = np.array(rows, dtype=float).reshape(-1, len(TRACE_FIELDS))
    columns = dict(zip(TRACE_FIELDS, table.T.copy()))
    metadata = {
        "name": config.name,
        "policy": config.policy,
        "v_desired": config.v_desired,
        "duration": config.duration,
        "control_dt": CONTROL_DT,
        "decision_period": EPOCH,
        "crosswalk_s": crosswalk_s,
        "path_length": path.length,
        "belief_resets": 0,
    }
    return Trace(columns=columns, metadata=metadata, termination=termination)


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
    """Run every scenario YAML in a directory, each as `crosswalk-sim run`
    runs it (a pomdp run solves its own policy), into one output folder
    per run named after the file, and log each run's summary line."""
    config_dir = FsPath(config_dir)
    out_dir = FsPath(out_dir)
    paths = sorted(config_dir.glob("*.yaml"))
    if not paths:
        raise FileNotFoundError(f"no scenario files in {config_dir}")
    # every file loads before the first run, so a config error in any of
    # them ends the batch with nothing run or written
    configs = [(cfg_path.stem, load_scenario(cfg_path)) for cfg_path in paths]
    written = []
    for stem, config in configs:
        run_dir = out_dir / stem
        run_dir.mkdir(parents=True, exist_ok=True)  # before the run, as `run` makes its --out
        trace = run_scenario(config)
        dest = export_run(trace, config.scene, run_dir)
        log.info("%s", summarize(trace, config.scene.pedestrian.present))
        written.append(dest)
    return written


def summarize(trace: Trace, pedestrian_present: bool) -> str:
    """One line on what a run did: its name, termination, simulated
    seconds and top speed, then when and how fast it crossed the crosswalk
    line, or, if it never did, where it ended and whether at rest. A
    crossing above UNSAFE_SPEED in a scene whose pedestrian is present is
    marked UNSAFE."""
    time, s, ux = trace.columns["time"], trace.columns["s"], trace.columns["ux"]
    parts = [
        f"{trace.metadata['name']:<17}",
        f"end={trace.termination:<8}",
        f"sim={len(trace) * CONTROL_DT:5.2f} s",
    ]
    if not len(trace):  # a duration of at most half a control step
        return "  ".join(parts)
    parts.append(f"max_ux={ux.max():5.2f}")
    crossed = np.flatnonzero(s >= trace.metadata["crosswalk_s"])
    if crossed.size:
        i = crossed[0]
        parts.append(f"crossed line at t={time[i]:5.2f} s, ux={ux[i]:.2f} m/s")
        if pedestrian_present and ux[i] > UNSAFE_SPEED:
            parts.append("UNSAFE")
    else:
        state = "at rest" if ux[-1] < STUCK_SPEED else f"moving {ux[-1]:.2f} m/s"
        parts.append(f"never crossed; final s={s[-1]:6.2f} m ({state})")
    return "  ".join(parts)

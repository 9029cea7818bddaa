"""Closed-loop scenario runner and trace export.

The control loop runs at a fixed 0.01 s step; the active policy refreshes
its speed scale every decision period (zero-order hold in between) while
the tracking controllers run every step. Traces carry one row per control
step plus run metadata and a termination reason.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath

import numpy as np
import yaml

from . import world
from .control import build_avoidance_path, speed_control, steer_control
from .dynamics import VehicleParams, VehicleState, load_vehicle_params, step_dynamics
from .executor import (
    STOP_DECEL,
    STOP_MARGIN,
    SensorReading,
    ZeroBeliefError,
    baseline_scale,
    belief_update,
    init_belief,
    oracle_scale,
    pomdp_step,
    stopping_scale,
)
from .pomdp import (
    ACTION_SCALES,
    NUM_D,
    NUM_V,
    ModelConfig,
    PomdpModel,
    build_crosswalk_model,
    occluded_bins_from_band,
)
from .qmdp import AlphaVectorPolicy, extract_alphas, load_policy, value_iteration
from .world import Scene, load_scene

log = logging.getLogger(__name__)

POLICY_KINDS = ("oracle", "baseline", "pomdp")

YIELD_GATE_DECEL = 1.5  # m/s^2 the baseline may need to engage its yield ramp
STUCK_SPEED = 0.05  # m/s below which the vehicle counts as at rest
STUCK_TIME = 3.0  # s at rest, with no stop expected, that ends a run as stuck
PROXIMITY_DIST = 1.5  # m to an obstacle ahead that ends a run

TRACE_FIELDS = (
    "time",
    "north",
    "east",
    "heading",
    "ux",
    "s",
    "e",
    "ax",
    "steer",
    "scale",
    "unobservable",
    "detected",
    "p_crossing",
)


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one closed-loop run."""

    scene: Scene
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    policy: str = "oracle"
    v_desired: float = 10.0
    duration: float = 15.0
    control_dt: float = 0.01
    decision_period: float = 0.5
    seed: int = 0
    model_config: ModelConfig | None = None
    policy_file: str | None = None
    name: str = "scenario"

    def __post_init__(self):
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"policy must be one of {POLICY_KINDS}")
        if self.control_dt <= 0 or self.decision_period <= 0 or self.duration <= 0:
            raise ValueError("time settings must be positive")
        ratio = self.decision_period / self.control_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("decision_period must be a multiple of control_dt")


@dataclass
class Trace:
    """Column-oriented run record; every column has one entry per step."""

    columns: dict[str, np.ndarray]
    metadata: dict
    termination: str

    def __len__(self) -> int:
        return len(self.columns["time"])

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


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
            ramp = stopping_scale(self.stop_s - state.s, self.v_desired, STOP_DECEL)
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
    at a saved one, or leave both unset to solve from config.model_config
    (slowest option).
    """
    scene = config.scene
    params = config.vehicle
    path = build_avoidance_path(scene)
    crosswalk_s = world.crosswalk_path_distance(scene, path)

    belief = None
    if config.policy == "pomdp":
        if policy is None:
            if config.policy_file:
                policy = load_policy(config.policy_file)
            else:
                model, policy = solve_policy(config.model_config)
        if model is None:
            model = build_crosswalk_model(config.model_config)
        belief = init_belief(model)
    baseline = _BaselinePolicy(config.v_desired, crosswalk_s) if config.policy == "baseline" else None

    n_steps = int(round(config.duration / config.control_dt))
    decim = int(round(config.decision_period / config.control_dt))
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
        t = k * config.control_dt
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
        steer = steer_control(state, path, params)

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

        state = step_dynamics(state, steer, ax, config.control_dt, params, path)

        if state.s >= path.length - 0.5:
            termination = "path_end"
            break
        if _near_obstacle(scene, state):
            termination = "proximity"
            break
        if state.ux < STUCK_SPEED:
            stuck_elapsed += config.control_dt
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
        "control_dt": config.control_dt,
        "decision_period": config.decision_period,
        "crosswalk_s": crosswalk_s,
        "path_length": path.length,
        "belief_resets": belief_resets,
    }
    return Trace(columns=columns, metadata=metadata, termination=termination)


def _p_crossing(belief: np.ndarray) -> float:
    return float(belief[NUM_D * NUM_V :].sum())


def solve_policy(config: ModelConfig | None = None, **solver) -> tuple[PomdpModel, AlphaVectorPolicy]:
    """Build the crosswalk model, run value iteration on it and extract the
    QMDP alpha vectors. solver holds value_iteration's keyword options."""
    model = build_crosswalk_model(config)
    return model, extract_alphas(value_iteration(model, **solver), ACTION_SCALES)


def _near_obstacle(scene: Scene, state: VehicleState) -> bool:
    """True when the vehicle is still short of an obstacle and closer to
    it than PROXIMITY_DIST."""
    ex, ey = scene.road.to_road(state.north, state.east)
    return any(
        float(ex) < ob.min_road_x() and ob.distance(float(ex), float(ey)) < PROXIMITY_DIST
        for ob in scene.obstacles
    )


def export_trace(trace: Trace, fmt: str = "csv", destination=None) -> str:
    """Write a trace as CSV (metadata in comment lines) or JSON."""
    if destination is None:
        raise ValueError("destination required")
    destination = str(destination)
    if fmt == "csv":
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# termination: {trace.termination}\n")
            for key in sorted(trace.metadata):
                fh.write(f"# {key}: {trace.metadata[key]}\n")
            writer = csv.writer(fh)
            writer.writerow(TRACE_FIELDS)
            cols = [trace.columns[name] for name in TRACE_FIELDS]
            for i in range(len(trace)):
                writer.writerow([f"{col[i]:.17g}" for col in cols])
    elif fmt == "json":
        payload = {
            "metadata": trace.metadata,
            "termination": trace.termination,
            "columns": {name: trace.columns[name].tolist() for name in TRACE_FIELDS},
        }
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
    else:
        raise ValueError("fmt must be 'csv' or 'json'")
    return destination


def load_trace_csv(source) -> Trace:
    """Read back a CSV trace written by export_trace."""
    metadata: dict = {}
    termination = "unknown"
    rows = []
    with open(source, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                key = key.strip()
                val = val.strip()
                if key == "termination":
                    termination = val
                else:
                    metadata[key] = _parse_meta(val)
                continue
            rows.append(line)
    reader = csv.reader(rows)
    header = next(reader)
    data = {name: [] for name in header}
    for row in reader:
        for name, val in zip(header, row):
            data[name].append(float(val))
    columns = {name: np.asarray(vals) for name, vals in data.items()}
    return Trace(columns=columns, metadata=metadata, termination=termination)


def _parse_meta(val: str):
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            continue
    return val


def export_plot_data(trace: Trace, out_dir, scene: Scene | None = None) -> list[str]:
    """Write plot-ready CSV panels: overhead view, speed vs time and
    unobservable count vs time. Returns the written paths."""
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name, header, arrays):
        dest = out / name
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(arrays[0])):
                writer.writerow([f"{a[i]:.17g}" for a in arrays])
        written.append(str(dest))

    c = trace.columns
    _write("overhead.csv", ["north", "east", "s", "e"], [c["north"], c["east"], c["s"], c["e"]])
    _write("speed_vs_time.csv", ["time", "ux", "scale"], [c["time"], c["ux"], c["scale"]])
    _write(
        "unobservable_vs_time.csv",
        ["time", "unobservable", "detected"],
        [c["time"], c["unobservable"], c["detected"]],
    )
    if scene is not None:
        dest = out / "scene_outline.csv"
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "north", "east"])
            for ob in scene.obstacles:
                corners = ob.corners()
                for cx, cy in corners + corners[:1]:
                    n, e = scene.road.to_inertial(cx, cy)
                    writer.writerow(["obstacle", f"{float(n):.17g}", f"{float(e):.17g}"])
            for y in scene.lateral_bounds:
                for x in (0.0, 70.0):
                    n, e = scene.road.to_inertial(x, y)
                    writer.writerow(["road_edge", f"{float(n):.17g}", f"{float(e):.17g}"])
            cw = scene.crosswalk
            for y in scene.lateral_bounds:
                n, e = scene.road.to_inertial(cw.distance, y)
                writer.writerow(["crosswalk", f"{float(n):.17g}", f"{float(e):.17g}"])
            if scene.pedestrian.present:
                n, e = scene.road.to_inertial(*scene.pedestrian.position)
                writer.writerow(["pedestrian", f"{float(n):.17g}", f"{float(e):.17g}"])
        written.append(str(dest))
    return written


def derive_model_config(scene: Scene, base: ModelConfig | None = None) -> ModelConfig:
    """Fill the geometry-dependent fields of a model config from a scene:
    the crosswalk distance bin and the occluded distance band."""
    cfg = base or ModelConfig()
    path = build_avoidance_path(scene)
    crosswalk_s = world.crosswalk_path_distance(scene, path)
    crosswalk_bin = min(int(round(crosswalk_s / cfg.cell_length)), NUM_D - 1)
    band = world.crosswalk_occlusion_band(scene, path)
    if band is None:
        occluded = (1, 0)  # lo > hi: no bin is shadowed
    else:
        occluded = occluded_bins_from_band(band[0], band[1], cfg.cell_length)
    return replace(cfg, crosswalk_bin=crosswalk_bin, occluded_bins=occluded)


# Scenario YAML keys that are not plain ScenarioConfig values: file
# references and the run name. Every other key must name a field.
_SCENARIO_REFS = frozenset({"scene", "vehicle", "model", "policy_file", "name"})
_SCENARIO_SCALARS = (
    frozenset(ScenarioConfig.__dataclass_fields__) - _SCENARIO_REFS - {"model_config"}
)


def load_scenario(source) -> ScenarioConfig:
    """Load a scenario YAML; file references resolve relative to it."""
    path = FsPath(source)
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        raise ValueError(f"{path}: empty scenario file")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: scenario must be a mapping")
    kwargs = {}
    for key, val in data.items():
        if key in _SCENARIO_SCALARS:
            kwargs[key] = val
        elif key not in _SCENARIO_REFS:
            raise ValueError(f"{path}: unknown scenario key {key!r}")
    if "scene" not in data:
        raise ValueError(f"{path}: missing scenario key 'scene'")
    base = path.parent

    def _resolve(name):
        p = FsPath(data[name])
        return p if p.is_absolute() else base / p

    scene = load_scene(_resolve("scene"))
    vehicle = (
        load_vehicle_params(_resolve("vehicle")) if "vehicle" in data else VehicleParams()
    )
    model_cfg = None
    if "model" in data:
        model_cfg = load_model_config(_resolve("model"))
    policy_file = data.get("policy_file")
    if policy_file:
        policy_file = str(_resolve("policy_file"))
    return ScenarioConfig(
        scene=scene,
        vehicle=vehicle,
        model_config=model_cfg,
        policy_file=policy_file,
        name=data.get("name", path.stem),
        **kwargs,
    )


def load_model_config(source) -> ModelConfig:
    """Load a ModelConfig from YAML (plain field: value mapping)."""
    with open(source, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    fields = ModelConfig.__dataclass_fields__
    kwargs = {}
    for key, val in data.items():
        if key not in fields:
            raise ValueError(f"unknown model config key {key!r}")
        if isinstance(val, list):
            val = tuple(val)
        kwargs[key] = val
    return ModelConfig(**kwargs)


def run_batch(config_dir, out_dir, fmt: str = "csv") -> list[str]:
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
            key = config.model_config or ModelConfig()
            if key not in solved:
                solved[key] = solve_policy(key)
            model, policy = solved[key]
        trace = run_scenario(config, model=model, policy=policy)
        dest_dir = out_dir / cfg_path.stem
        dest_dir.mkdir(parents=True, exist_ok=True)
        ext = "csv" if fmt == "csv" else "json"
        dest = dest_dir / f"trace.{ext}"
        export_trace(trace, fmt, dest)
        export_plot_data(trace, dest_dir, scene=config.scene)
        log.info("%s: %s after %.2f s", cfg_path.stem, trace.termination, len(trace) * config.control_dt)
        written.append(str(dest))
    return written

"""Every file format the simulator reads or writes, except the policy file
(`qmdp`): the scene, scenario, model and vehicle YAML, and the trace and
plot-panel CSV/JSON of a run.

Every config loader goes through `_read` and `_given`, so they share one
error rule: an unknown key, an unconvertible value, a non-mapping or an
empty file raises ValueError naming the file and the key, and a missing
file raises FileNotFoundError. Every CSV goes through `_write_csv`, which
writes floats with %.17g so they read back exactly.
"""

from __future__ import annotations

import csv
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np
import yaml

from .dynamics import VehicleParams
from .pomdp import ModelConfig
from .world import Crosswalk, Pedestrian, RectObstacle, RoadFrame, Scene

POLICY_KINDS = ("oracle", "baseline", "pomdp")

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
    seed: int = 0
    model_config: ModelConfig | None = None
    policy_file: str | None = None
    name: str = "scenario"

    def __post_init__(self):
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"policy must be one of {POLICY_KINDS}")
        if not self.duration > 0:
            raise ValueError("duration must be positive")


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


# --- config YAML ------------------------------------------------------------


def _checked(data, allowed, where: str, source, required: tuple[str, ...] = ()) -> dict:
    """The mapping itself, once every key is known and every required key
    is given; raises ValueError naming the file and the first unknown or
    missing key. An empty section reads as an empty mapping."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ValueError(f"{source}: {where} must be a mapping")
    for key in data:
        if key not in allowed:
            raise ValueError(f"{source}: unknown {where} key {key!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{source}: missing {where} key {key!r}")
    return data


def _given(data: dict, source, cls, names=None) -> dict:
    """Keyword arguments for dataclass cls from the fields (or the names)
    the file gives, each converted to its annotated type, a tuple element
    by element; absent fields keep their defaults. A value that does not
    convert raises ValueError naming the file and the key."""
    kinds = typing.get_type_hints(cls)
    given = {}
    for name in (key for key in data if key in (names or kinds)):
        kind, value = kinds[name], data[name]
        try:
            if typing.get_origin(kind) is tuple:
                given[name] = tuple(k(x) for k, x in zip(typing.get_args(kind), value, strict=True))
            else:
                given[name] = kind(value)
        except (TypeError, ValueError) as err:
            raise ValueError(f"{source}: bad value for key {name!r}: {err}") from None
    return given


def _read(source, what: str, allowed, required: tuple[str, ...] = ()) -> dict:
    """The top-level mapping of a YAML config file, checked by _checked.
    An empty file raises ValueError naming the file."""
    with open(source, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        raise ValueError(f"{source}: empty {what} file")
    return _checked(data, allowed, what, source, required)


def load_scene(source) -> Scene:
    """Build a Scene from a YAML file. An obstacle needs its center and
    size; whatever else the file leaves out keeps its Scene default."""
    data = _read(source, "scene", ("road", "obstacles", "crosswalk", "pedestrian"))
    road = _checked(data.get("road"), ("origin", "heading", "bounds", "lane_width"), "road", source)
    bounds = {"lateral_bounds": tuple(road["bounds"])} if "bounds" in road else {}
    obstacles = tuple(
        RectObstacle(**_given(
            _checked(item, ("center", "size", "yaw"), "obstacle", source, ("center", "size")),
            source, RectObstacle,
        ))
        for item in data.get("obstacles") or ()
    )
    cw = _checked(data.get("crosswalk"), ("distance", "width"), "crosswalk", source)
    ped = _checked(data.get("pedestrian"), ("present", "position"), "pedestrian", source)
    return Scene(
        road=RoadFrame(**_given(road, source, RoadFrame)),
        obstacles=obstacles,
        crosswalk=Crosswalk(**_given(cw, source, Crosswalk)),
        pedestrian=Pedestrian(**_given(ped, source, Pedestrian)),
        **bounds,
        **_given(road, source, Scene, ("lane_width",)),
    )


def load_vehicle_params(source) -> VehicleParams:
    """Load VehicleParams from a YAML mapping of field: value."""
    data = _read(source, "vehicle", VehicleParams.__dataclass_fields__)
    return VehicleParams(**_given(data, source, VehicleParams))


def load_model_config(source) -> ModelConfig:
    """Load a ModelConfig from a YAML mapping of field: value."""
    data = _read(source, "model", ModelConfig.__dataclass_fields__)
    return ModelConfig(**_given(data, source, ModelConfig))


# Scenario YAML keys are the ScenarioConfig fields, with `model` (a file)
# in place of `model_config`. The references name other files and resolve
# relative to the scenario file.
_SCENARIO_REFS = ("scene", "vehicle", "model", "policy_file")
_SCENARIO_KEYS = frozenset(ScenarioConfig.__dataclass_fields__) - {"model_config"} | {"model"}


def load_scenario(source) -> ScenarioConfig:
    """Load a scenario YAML; file references resolve relative to it."""
    path = FsPath(source)
    data = _read(path, "scenario", _SCENARIO_KEYS, required=("scene",))
    for key in _SCENARIO_REFS:
        if key in data and data[key] is None:
            raise ValueError(f"{path}: empty scenario key {key!r}")
    refs = {key: path.parent / str(data[key]) for key in _SCENARIO_REFS if key in data}
    return ScenarioConfig(
        scene=load_scene(refs["scene"]),
        vehicle=load_vehicle_params(refs["vehicle"]) if "vehicle" in refs else VehicleParams(),
        model_config=load_model_config(refs["model"]) if "model" in refs else None,
        policy_file=str(refs["policy_file"]) if "policy_file" in refs else None,
        **{"name": path.stem, **_given(data, path, ScenarioConfig, _SCENARIO_KEYS - set(_SCENARIO_REFS))},
    )


# --- run output -------------------------------------------------------------


def _write_csv(dest, header, rows, comments=()) -> str:
    """Write '# '-prefixed comment lines, a header and rows; floats are
    written with %.17g, strings as they are."""
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else f"{v:.17g}" for v in row] for row in rows)
    return str(dest)


def _rows(trace: Trace, names):
    return zip(*(trace.columns[name].tolist() for name in names))


def export_trace(trace: Trace, fmt: str = "csv", destination=None) -> str:
    """Write a trace as CSV (metadata in comment lines) or JSON."""
    if destination is None:
        raise ValueError("destination required")
    if fmt == "csv":
        comments = [f"termination: {trace.termination}"]
        comments += [f"{key}: {trace.metadata[key]}" for key in sorted(trace.metadata)]
        return _write_csv(destination, TRACE_FIELDS, _rows(trace, TRACE_FIELDS), comments)
    if fmt != "json":
        raise ValueError("fmt must be 'csv' or 'json'")
    payload = {
        "metadata": trace.metadata,
        "termination": trace.termination,
        "columns": {name: trace.columns[name].tolist() for name in TRACE_FIELDS},
    }
    with open(destination, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return str(destination)


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


# Plot panels: file name and the trace columns it holds, in order.
_PANELS = (
    ("overhead.csv", ("north", "east", "s", "e")),
    ("speed_vs_time.csv", ("time", "ux", "scale")),
    ("unobservable_vs_time.csv", ("time", "unobservable", "detected")),
)


def export_plot_data(trace: Trace, out_dir, scene: Scene | None = None) -> list[str]:
    """Write plot-ready CSV panels: overhead view, speed vs time and
    unobservable count vs time, plus the scene outline when a scene is
    given. Returns the written paths."""
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [_write_csv(out / name, names, _rows(trace, names)) for name, names in _PANELS]
    if scene is not None:
        written.append(_write_csv(out / "scene_outline.csv", ("kind", "north", "east"), _outline(scene)))
    return written


def _outline(scene: Scene):
    """(kind, north, east) points of each obstacle's closed outline, the
    road edges, the crosswalk line and the pedestrian."""
    points = []
    for ob in scene.obstacles:
        corners = ob.corners()
        points += [("obstacle", x, y) for x, y in corners + corners[:1]]
    points += [("road_edge", x, y) for y in scene.lateral_bounds for x in (0.0, 70.0)]
    points += [("crosswalk", scene.crosswalk.distance, y) for y in scene.lateral_bounds]
    if scene.pedestrian.present:
        points.append(("pedestrian", *scene.pedestrian.position))
    for kind, x, y in points:
        n, e = scene.road.to_inertial(x, y)
        yield kind, float(n), float(e)


def export_run(trace: Trace, scene: Scene, out_dir, fmt: str = "csv") -> str:
    """Write a run's plot panels and its trace (trace.csv or trace.json)
    into out_dir; returns the trace path."""
    export_plot_data(trace, out_dir, scene=scene)
    return export_trace(trace, fmt, FsPath(out_dir) / f"trace.{fmt}")

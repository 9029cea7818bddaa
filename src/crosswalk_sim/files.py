"""Every file format the simulator reads or writes: the scene, scenario
and model YAML, and the trace and scene-outline CSV of a run. A solved
policy is never written; each pomdp run solves its own.

Every config loader goes through `_read`, `_given` and `_build`, so they
share one error rule: an unknown key, an unconvertible, non-finite or
out-of-range value, a non-mapping or an empty file raises ConfigError
naming the file and the key, and a missing file raises FileNotFoundError.
Every CSV goes through `_write_csv`, which writes floats with %.17g so
they read back exactly.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np
import yaml

from .control import path_to_crosswalk
from .pomdp import NUM_V, SPEED_UNIT, ModelConfig, derive_model_config
from .world import ROAD_BOUNDS, Crosswalk, Pedestrian, RectObstacle, RoadFrame, Scene

POLICY_KINDS = ("oracle", "baseline", "pomdp")


class ConfigError(ValueError):
    """A file the program cannot use; the message starts with its name."""


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
    """Everything needed to reproduce one closed-loop run. v_desired and
    duration must be finite and positive, and the scene must leave room
    for the avoidance path and put the crosswalk line on it
    (InfeasiblePathError otherwise). A pomdp run's v_desired must be the
    model's top speed bin, which its speed bins assume, and its
    model_config takes its geometry from the scene
    (pomdp.derive_model_config); any other run reads no model, so setting
    one raises ValueError."""

    scene: Scene
    policy: str = "oracle"
    v_desired: float = 10.0
    duration: float = 15.0
    model_config: ModelConfig | None = None
    name: str = "scenario"
    policy_file = None  # not a field: perfbench/workloads.py still reads it

    def __post_init__(self):
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"bad value for key 'policy': must be one of {POLICY_KINDS}")
        for key in ("v_desired", "duration"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise ValueError(f"bad value for key {key!r}: {value!r} is not finite and positive")
        if self.policy == "pomdp":
            top = (NUM_V - 1) * SPEED_UNIT
            if self.v_desired != top:
                raise ValueError(
                    f"bad value for key 'v_desired': {self.v_desired!r} is not the model's top speed {top!r} m/s"
                )
            self.model_config = derive_model_config(self.scene, self.model_config)
        elif self.model_config is not None:
            raise ValueError(f"key 'model' is set, but policy {self.policy!r} reads no model")
        else:
            path_to_crosswalk(self.scene)  # InfeasiblePathError, as derive_model_config raises


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
        raise ConfigError(f"{source}: {where} must be a mapping")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{source}: unknown {where} key {key!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{source}: missing {where} key {key!r}")
    return data


def _convert(kind, value):
    """value as type kind: a bool field takes only a YAML boolean, and a
    float field no NaN or infinity."""
    if kind is bool and not isinstance(value, bool):
        raise ValueError(f"{value!r} is not a boolean")
    converted = kind(value)
    if kind is float and not math.isfinite(converted):
        raise ValueError(f"{value!r} is not finite")
    return converted


def _given(data: dict, source, cls, fields=None) -> dict:
    """Keyword arguments for dataclass cls from the file keys in fields
    (a mapping of file key to field name; by default every field under its
    own name) that the file gives, each converted to its field's annotated
    type by _convert, a tuple element by element; absent fields keep their
    defaults. A value that does not convert raises ValueError naming the
    file and the key."""
    kinds = typing.get_type_hints(cls)
    fields = fields or {name: name for name in kinds}
    given = {}
    for key in (key for key in data if key in fields):
        name, value = fields[key], data[key]
        kind = kinds[name]
        try:
            if typing.get_origin(kind) is tuple:
                given[name] = tuple(_convert(k, x) for k, x in zip(typing.get_args(kind), value, strict=True))
            else:
                given[name] = _convert(kind, value)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"{source}: bad value for key {key!r}: {err}") from None
    return given


def _build(cls, source, kwargs: dict):
    """cls(**kwargs); a ValueError its validation raises, such as a value
    out of range, is raised again naming the file."""
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from None


def _read(source, what: str, allowed, required: tuple[str, ...] = ()) -> dict:
    """The top-level mapping of a YAML config file, checked by _checked.
    An empty file, or one that is not UTF-8 text or not valid YAML, raises
    ValueError naming the file."""
    with open(source, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or type(exc).__name__
            raise ConfigError(f"{source}: not valid YAML: {problem}{where}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"{source}: not UTF-8 text") from None
    if data is None:
        raise ConfigError(f"{source}: empty {what} file")
    return _checked(data, allowed, what, source, required)


def load_scene(source) -> Scene:
    """Build a Scene from a YAML file. An obstacle needs its center and
    size; whatever else the file leaves out keeps its Scene default."""
    data = _read(source, "scene", ("road", "obstacles", "crosswalk", "pedestrian"))
    road = _checked(data.get("road"), ("origin", "heading"), "road", source)
    obstacles = tuple(
        _build(RectObstacle, source, _given(
            _checked(item, ("center", "size", "yaw"), "obstacle", source, ("center", "size")),
            source, RectObstacle,
        ))
        for item in data.get("obstacles") or ()
    )
    cw = _checked(data.get("crosswalk"), ("distance", "width"), "crosswalk", source)
    ped = _checked(data.get("pedestrian"), ("present", "position"), "pedestrian", source)
    return _build(Scene, source, dict(
        road=RoadFrame(**_given(road, source, RoadFrame)),
        obstacles=obstacles,
        crosswalk=_build(Crosswalk, source, _given(cw, source, Crosswalk)),
        pedestrian=Pedestrian(**_given(ped, source, Pedestrian)),
    ))


def load_model_config(source) -> ModelConfig:
    """Load a ModelConfig from a YAML mapping that sets only `discount`;
    a pomdp scenario derives the geometry from its scene."""
    data = _read(source, "model", ("discount",))
    return _build(ModelConfig, source, _given(data, source, ModelConfig))


# Scenario YAML keys are the ScenarioConfig fields but `name` (the file
# stem), with `model` (a file) in place of `model_config`. The references
# name other files and resolve relative to the scenario file.
_SCENARIO_REFS = ("scene", "model")
_SCENARIO_KEYS = frozenset(ScenarioConfig.__dataclass_fields__) - {"model_config", "name"} | {"model"}
_SCENARIO_FIELDS = {key: key for key in _SCENARIO_KEYS - set(_SCENARIO_REFS)}


def load_scenario(source) -> ScenarioConfig:
    """Load a scenario YAML; file references resolve relative to it."""
    path = FsPath(source)
    data = _read(path, "scenario", _SCENARIO_KEYS, required=("scene",))
    for key in _SCENARIO_REFS:
        if key in data and data[key] is None:
            raise ConfigError(f"{path}: empty scenario key {key!r}")
    refs = {key: path.parent / str(data[key]) for key in _SCENARIO_REFS if key in data}
    fields = dict(
        scene=load_scene(refs["scene"]),
        model_config=load_model_config(refs["model"]) if "model" in refs else None,
        name=path.stem,
        **_given(data, path, ScenarioConfig, _SCENARIO_FIELDS),
    )
    return _build(ScenarioConfig, path, fields)


# --- run output -------------------------------------------------------------


def _write_csv(dest, header, rows, comments=()) -> str:
    """Write '# '-prefixed comment lines ending in LF, then a header and
    rows ending in CRLF, fields joined by commas. Floats are written with
    %.17g, strings as they are: no field may hold a comma, a quote or a
    line break, which the csv module would quote. Every row is a tuple
    with the first row's field types."""
    rows = iter(rows)
    first = next(rows, None)
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(header) + "\r\n")
        if first is not None:
            line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\r\n"
            fh.write(line % first)
            fh.writelines(line % row for row in rows)
    return str(dest)


def export_trace(trace: Trace, fmt: str, destination) -> str:
    """Write a trace as CSV, its metadata in comment lines."""
    # CSV is the one trace format; fmt stays in the signature because
    # perfbench/workloads.py calls export_trace(trace, "csv", dest).
    if fmt != "csv":
        raise ValueError("fmt must be 'csv'")
    if destination is None:
        raise ValueError("destination required")
    comments = [f"termination: {trace.termination}"]
    comments += [f"{key}: {trace.metadata[key]}" for key in sorted(trace.metadata)]
    rows = zip(*(trace.columns[name].tolist() for name in TRACE_FIELDS))
    return _write_csv(destination, TRACE_FIELDS, rows, comments)


def export_plot_data(trace: Trace, out_dir, scene: Scene) -> list[str]:
    """Write scene_outline.csv, the one plot input a trace does not hold;
    per-step plots read trace.csv's columns. Returns the written paths."""
    # trace stays in the signature because perfbench/workloads.py calls
    # export_plot_data(trace, dest, scene=...).
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [_write_csv(out / "scene_outline.csv", ("kind", "north", "east"), _outline(scene))]


def _outline(scene: Scene):
    """(kind, north, east) points of each obstacle's closed outline, the
    road edges, the crosswalk line and the pedestrian."""
    points = []
    for ob in scene.obstacles:
        corners = ob.corners()
        points += [("obstacle", x, y) for x, y in corners + corners[:1]]
    points += [("road_edge", x, y) for y in ROAD_BOUNDS for x in (0.0, 70.0)]
    points += [("crosswalk", scene.crosswalk.distance, y) for y in ROAD_BOUNDS]
    if scene.pedestrian.present:
        points.append(("pedestrian", *scene.pedestrian.position))
    for kind, x, y in points:
        n, e = scene.road.to_inertial(x, y)
        yield kind, float(n), float(e)


def export_run(trace: Trace, scene: Scene, out_dir) -> str:
    """Write a run's scene outline and its trace.csv into out_dir; returns
    the trace path."""
    export_plot_data(trace, out_dir, scene=scene)
    return export_trace(trace, "csv", FsPath(out_dir) / "trace.csv")

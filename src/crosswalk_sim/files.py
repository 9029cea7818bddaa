"""Every file format the simulator reads or writes: the scene, scenario
and model YAML, and the trace and scene-outline CSV of a run. A solved
policy is never written; each pomdp run solves its own.

Every config loader reads its file with `_read` and builds its dataclass
with `_load`, whose keys are the dataclass fields at every level, so they
share one error rule: an unknown, missing or repeated key, an
unconvertible, non-finite or out-of-range value (a boolean is no number),
a section that is not a mapping, an `obstacles` that is not a list or an
empty file raises ConfigError naming the file and the key, and a missing
file raises FileNotFoundError. A file that a scenario names but that cannot
be read, such as a directory, raises ConfigError naming the scenario and
the key.
Every CSV goes through `_write_csv`, which writes floats with %.17g so
they read back exactly.
"""

from __future__ import annotations

import dataclasses
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
MAX_DURATION = 3600.0  # s; a run holds about 0.6 kB per control step, so this long a run peaks near 220 MB


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
    duration must be finite and positive, duration at most MAX_DURATION,
    and the scene must leave room for the avoidance path and put the
    crosswalk line on it, short of where a run ends (InfeasiblePathError
    otherwise). A pomdp run's v_desired must be the model's top speed bin,
    which its speed bins assume, and its model_config takes its geometry
    from the scene (pomdp.derive_model_config); any other run reads no
    model, so setting one raises ValueError."""

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
        if self.duration > MAX_DURATION:
            raise ValueError(f"bad value for key 'duration': {self.duration!r} s is longer than {MAX_DURATION!r} s")
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


def _convert(kind, value):
    """value as type kind, a tuple element by element: a bool field takes
    only a YAML boolean and any other field no boolean, and a float field
    no NaN or infinity."""
    if typing.get_origin(kind) is tuple:
        return tuple(_convert(k, x) for k, x in zip(typing.get_args(kind), value, strict=True))
    if (kind is bool) != isinstance(value, bool):
        raise ValueError(f"{value!r} is not a {kind.__name__}")
    converted = kind(value)
    if kind is float and not math.isfinite(converted):
        raise ValueError(f"{value!r} is not finite")
    return converted


def _load(cls, data, source, where: str, keys=None, files=None, **given):
    """An instance of dataclass cls from data, its section `where` of the
    YAML file source. The section's keys are the fields of cls (only those
    in keys, if set) but the fields the caller gives, and a field with no
    default is required; an empty section reads as an empty mapping.
    files maps a key that names another file, resolved relative to source,
    to the field it fills and that file's loader; no such file opens
    before every key of the section is checked, and one that cannot be
    read, such as a directory, raises ConfigError naming source and the
    key (a missing one raises FileNotFoundError). A field typed as a
    dataclass is a section read by _load in turn, a tuple[X, ...] field a
    list of such sections (null reads as empty), and any other value goes
    through _convert. An unknown, missing or empty key, a value that does
    not convert or a ValueError that cls raises, such as a value out of
    range, raises ConfigError naming the file."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: {where} must be a mapping")
    files = files or {}
    renamed = {field: key for key, (field, _) in files.items()}
    fields = {
        renamed.get(f.name, f.name): f
        for f in dataclasses.fields(cls)
        if f.name not in given and (keys is None or f.name in keys)
    }
    for key in data:
        if key not in fields:
            raise ConfigError(f"{source}: unknown {where} key {key!r}")
    for key, f in fields.items():
        if key not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{source}: missing {where} key {key!r}")
    kinds = typing.get_type_hints(cls)
    for key, value in data.items():
        name = fields[key].name
        kind = kinds[name]
        if key in files:
            if value is None:
                raise ConfigError(f"{source}: empty {where} key {key!r}")
            try:
                given[name] = files[key][1](FsPath(source).parent / str(value))
            except FileNotFoundError:
                raise
            except OSError as err:
                raise ConfigError(f"{source}: {key}: {err}") from None
        elif dataclasses.is_dataclass(kind):
            given[name] = _load(kind, value, source, key)
        elif typing.get_origin(kind) is tuple and typing.get_args(kind)[1:] == (...,):
            if not isinstance(value, list | None):
                raise ConfigError(f"{source}: {key} must be a list")
            # an item of `obstacles` is an `obstacle`
            item = typing.get_args(kind)[0]
            given[name] = tuple(_load(item, x, source, key.removesuffix("s")) for x in value or ())
        else:
            try:
                given[name] = _convert(kind, value)
            except (TypeError, ValueError, OverflowError) as err:
                raise ConfigError(f"{source}: bad value for key {key!r}: {err}") from None
    try:
        return cls(**given)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from None


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a key given twice in one mapping, of
    which SafeLoader keeps the last. A merge key (<<) is not checked, as
    the keys it brings in may be overridden."""

    def construct_mapping(self, node, deep=False):
        pairs = list(node.value)  # before SafeLoader flattens merge keys into it
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node, _ in pairs:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return mapping


def _read(source, what: str):
    """The top-level section of a YAML config file. An empty file, or one
    that is not UTF-8 text or not valid YAML, or that gives a key twice in
    one mapping, raises ConfigError naming the file."""
    with open(source, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or type(exc).__name__
            raise ConfigError(f"{source}: not valid YAML: {problem}{where}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"{source}: not UTF-8 text") from None
    if data is None:
        raise ConfigError(f"{source}: empty {what} file")
    return data


def load_scene(source) -> Scene:
    """Build a Scene from a YAML file. An obstacle needs its center and
    size; whatever else the file leaves out keeps its Scene default."""
    return _load(Scene, _read(source, "scene"), source, "scene")


def load_model_config(source) -> ModelConfig:
    """Load a ModelConfig from a YAML mapping that sets only `discount`;
    a pomdp scenario derives the geometry from its scene."""
    return _load(ModelConfig, _read(source, "model"), source, "model", keys=("discount",))


def load_scenario(source) -> ScenarioConfig:
    """Load a scenario YAML: its keys are the ScenarioConfig fields but
    `name`, the file stem, and `scene` and `model` name the files that
    fill `scene` and `model_config`, relative to the scenario file."""
    path = FsPath(source)
    files = {"scene": ("scene", load_scene), "model": ("model_config", load_model_config)}
    return _load(ScenarioConfig, _read(path, "scenario"), path, "scenario", files=files, name=path.stem)


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

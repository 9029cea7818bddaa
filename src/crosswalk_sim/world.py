"""Scene description and simulated lidar occupancy grid.

The grid is expressed in a road-aligned frame anchored at the ego
position: axis x runs along the road heading, axis y to the left of it.
Grid cells hold one of three states (free, occupied, unobservable);
unobservable means the straight sight line from the ego to the cell
center crosses an obstacle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .path import Path

FREE = 0
OCCUPIED = 1
UNOBSERVABLE = 2

GRID_LENGTH = 210  # cells ahead of the vehicle
GRID_WIDTH = 48  # cells across
CELLS_PER_M = 3
EGO_CELL = (0, 24)  # anchor cell of the ego vehicle
FORWARD_RANGE = GRID_LENGTH / CELLS_PER_M  # 70 m
LATERAL_RANGE = GRID_WIDTH / (2 * CELLS_PER_M)  # 8 m each side

COUNT_BIN_WIDTH = 180
NUM_COUNT_BINS = 10
MAX_CELL_COUNT = GRID_LENGTH * GRID_WIDTH
CELL_SIZE = 1 / CELLS_PER_M

# Cell-centre offsets from the ego position: along the road for each row,
# across it for each column. Constant, so built once and never written.
_ROW_OFFSETS = (np.arange(GRID_LENGTH) + 0.5) / CELLS_PER_M
_COL_OFFSETS = (np.arange(GRID_WIDTH) - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M
_ROW_OFFSETS.flags.writeable = False
_COL_OFFSETS.flags.writeable = False


@dataclass(frozen=True)
class RoadFrame:
    """Straight road axis: origin and direction of travel in inertial
    coordinates. Road y is positive to the left of travel."""

    origin: tuple[float, float] = (0.0, 0.0)
    heading: float = 0.0

    def to_road(self, north, east):
        """Road (x, y) of inertial points: floats in, floats out; arrays
        in, arrays out."""
        tn, te = math.cos(self.heading), math.sin(self.heading)
        dn = north - self.origin[0]
        de = east - self.origin[1]
        x = dn * tn + de * te
        y = dn * te - de * tn
        return x, y

    def to_inertial(self, x, y):
        tn, te = math.cos(self.heading), math.sin(self.heading)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        north = self.origin[0] + x * tn + y * te
        east = self.origin[1] + x * te - y * tn
        return north, east


def _slab(q0, q1, h):
    """One axis of the slab test (Kay & Kajiya 1986) for segments from q0
    to q1 against the slab |q| <= h: (can_hit, t_entry, t_exit), with t
    clipped to [0, 1]. A segment parallel to the slab (q1 == q0) spans
    all of [0, 1] and can hit only from inside it, the zero-divisor case
    of Williams et al. (2005). When no segment is parallel, can_hit is
    True and the np.where passes are skipped."""
    d = q1 - q0
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (-h - q0) / d
        tb = (h - q0) / d
    lo = np.maximum(np.minimum(ta, tb), 0.0)
    hi = np.minimum(np.maximum(ta, tb), 1.0)
    parallel = d == 0.0
    if not parallel.any():
        return True, lo, hi
    lo = np.where(parallel, 0.0, lo)
    hi = np.where(parallel, 1.0, hi)
    return ~(parallel & (abs(q0) > h)), lo, hi


@dataclass(frozen=True)
class RectObstacle:
    """Oriented rectangle in road coordinates: center, full extents and a
    yaw angle relative to the road axis."""

    center: tuple[float, float]
    size: tuple[float, float]
    yaw: float = 0.0

    def __post_init__(self):
        if self.size[0] <= 0 or self.size[1] <= 0:
            raise ValueError("obstacle extents must be positive")

    def _to_local(self, x, y):
        """Rectangle-frame coordinates of road-frame floats or arrays;
        arrays broadcast against each other.

        A road-aligned rectangle (yaw 0) is only translated, so a row of x
        and a column of y stay a row and a column. The rotation by
        cos 0 = 1, sin 0 = 0 would change nothing but the sign of a zero,
        which no caller reads."""
        dx = x - self.center[0]
        dy = y - self.center[1]
        if self.yaw == 0.0:
            return dx, dy
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return c * dx + s * dy, -s * dx + c * dy

    def contains(self, x, y):
        lx, ly = self._to_local(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return (np.abs(lx) <= self.size[0] / 2) & (np.abs(ly) <= self.size[1] / 2)

    def distance(self, x: float, y: float) -> float:
        """Euclidean distance from a road-frame point to the rectangle."""
        lx, ly = self._to_local(x, y)
        dx = max(abs(float(lx)) - self.size[0] / 2, 0.0)
        dy = max(abs(float(ly)) - self.size[1] / 2, 0.0)
        return math.hypot(dx, dy)

    def corners(self) -> list[tuple[float, float]]:
        """Road-frame corners in outline order: rear right, rear left,
        front left, front right of the rectangle's own frame."""
        cx, cy = self.center
        hx, hy = self.size[0] / 2, self.size[1] / 2
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return [
            (cx + sx * hx * c - sy * hy * s, cy + sx * hx * s + sy * hy * c)
            for sx, sy in ((-1, -1), (-1, 1), (1, 1), (1, -1))
        ]

    def min_road_x(self) -> float:
        """Smallest along-road coordinate of the rectangle's corners."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        hx, hy = self.size[0] / 2, self.size[1] / 2
        return self.center[0] - abs(c) * hx - abs(s) * hy

    def blocks_segment(self, origin: tuple[float, float], x, y):
        """Vectorized slab test: does the segment from origin to each
        (x, y) point intersect this rectangle? Touching counts. x and y
        broadcast against each other.

        Each axis is clipped on its own (_slab) and the two are combined
        last, so for a road-aligned rectangle a row of x and a column of y
        cost one vector per axis until the final comparison. max and min
        are exact, so combining last gives the same booleans as clipping
        one axis after the other."""
        x0, y0 = self._to_local(origin[0], origin[1])
        x1, y1 = self._to_local(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        hit_x, lo_x, hi_x = _slab(x0, x1, self.size[0] / 2)
        hit_y, lo_y, hi_y = _slab(y0, y1, self.size[1] / 2)
        return (np.maximum(lo_x, lo_y) <= np.minimum(hi_x, hi_y)) & hit_x & hit_y

    def blocks_sight_line(
        self, origin: tuple[float, float], target: tuple[float, float]
    ) -> bool:
        """blocks_segment for a single target point, in Python floats.

        It performs the same IEEE operations in the same order, so the two
        always agree."""
        x0, y0 = self._to_local(origin[0], origin[1])
        x1, y1 = self._to_local(target[0], target[1])
        t_lo, t_hi = 0.0, 1.0
        for q0, q1, h in ((x0, x1, self.size[0] / 2), (y0, y1, self.size[1] / 2)):
            d = q1 - q0
            if d == 0.0:
                if abs(q0) > h:
                    return False
                continue
            ta = (-h - q0) / d
            tb = (h - q0) / d
            t_lo = max(t_lo, min(ta, tb))
            t_hi = min(t_hi, max(ta, tb))
        return t_lo <= t_hi


@dataclass(frozen=True)
class Crosswalk:
    """Band across the road at a fixed along-road distance."""

    distance: float = 40.0
    width: float = 3.0


@dataclass(frozen=True)
class Pedestrian:
    present: bool = False
    position: tuple[float, float] = (0.0, 0.0)  # road coordinates


@dataclass(frozen=True)
class Scene:
    road: RoadFrame = field(default_factory=RoadFrame)
    lateral_bounds: tuple[float, float] = (-1.8, 5.4)
    lane_width: float = 3.6
    obstacles: tuple[RectObstacle, ...] = ()
    crosswalk: Crosswalk = field(default_factory=Crosswalk)
    pedestrian: Pedestrian = field(default_factory=Pedestrian)

    def __post_init__(self):
        if self.lateral_bounds[0] >= self.lateral_bounds[1]:
            raise ValueError("lateral_bounds must be ordered")
        if self.pedestrian.present:
            px = self.pedestrian.position[0]
            half = self.crosswalk.width / 2
            if abs(px - self.crosswalk.distance) > half:
                raise ValueError("pedestrian must stand inside the crosswalk band")


def _ego_xy(scene: Scene, pose) -> tuple[float, float]:
    """Road-frame position of an ego pose (north, east, heading)."""
    return scene.road.to_road(float(pose[0]), float(pose[1]))


def _out_of_view(obstacle: RectObstacle, ex: float, ey: float) -> bool:
    """True when no sight line from the ego at (ex, ey) to a cell centre
    can reach the obstacle: its road-aligned bounding box, grown by one
    cell, lies wholly behind the ego, beyond the far edge or to one side
    of the grid."""
    c, s = abs(math.cos(obstacle.yaw)), abs(math.sin(obstacle.yaw))
    hx, hy = obstacle.size[0] / 2, obstacle.size[1] / 2
    rx = c * hx + s * hy + CELL_SIZE
    ry = s * hx + c * hy + CELL_SIZE
    dx = obstacle.center[0] - ex
    dy = obstacle.center[1] - ey
    return dx + rx < 0.0 or dx - rx > FORWARD_RANGE or abs(dy) - ry > LATERAL_RANGE


def build_grid(scene: Scene, pose: tuple[float, float, float]) -> np.ndarray:
    """Ternary occupancy grid for an ego pose (north, east, heading).

    The grid covers 70 m ahead of the ego position along the road axis and
    8 m to each side, one cell per 1/3 m. Returns a (210, 48) uint8 array
    of FREE / OCCUPIED / UNOBSERVABLE.

    Cell centres enter as a column of 210 rows and a row of 48 columns.
    For a road-aligned obstacle (yaw 0) contains and blocks_segment keep
    them a 210-vector and a 48-vector until their final comparison, so
    such an obstacle costs two vectors plus one (210, 48) compare; the
    booleans are those of the rotated full-grid test (see blocks_segment).
    """
    ex, ey = _ego_xy(scene, pose)
    grid = np.zeros((GRID_LENGTH, GRID_WIDTH), dtype=np.uint8)
    in_view = [ob for ob in scene.obstacles if not _out_of_view(ob, ex, ey)]
    if not in_view:
        return grid
    # Cell centres as a column of rows and a row of columns; every
    # per-cell expression below broadcasts them to the full grid.
    gx = (ex + _ROW_OFFSETS)[:, None]
    gy = (ey + _COL_OFFSETS)[None, :]
    occupied = np.zeros(grid.shape, dtype=bool)
    blocked = np.zeros(grid.shape, dtype=bool)
    for obstacle in in_view:
        occupied |= obstacle.contains(gx, gy)
        blocked |= obstacle.blocks_segment((ex, ey), gx, gy)
    grid[blocked] = UNOBSERVABLE
    grid[occupied] = OCCUPIED
    return grid


def count_unobservable(grid: np.ndarray) -> int:
    return int(np.count_nonzero(grid == UNOBSERVABLE))


def bin_observation(count: int) -> int:
    """Map an unobservable-cell count to one of 10 bins of width 180.

    Bins are half-open; every count of 1800 or more lands in the top bin.
    """
    count = int(count)
    if count < 0 or count > MAX_CELL_COUNT:
        raise ValueError("count outside the grid cell range")
    return min(count // COUNT_BIN_WIDTH, NUM_COUNT_BINS - 1)


def pedestrian_visible(scene: Scene, pose: tuple[float, float, float]) -> bool:
    """True when a present pedestrian inside the 70 m forward window has a
    clear sight line from the ego position."""
    if not scene.pedestrian.present:
        return False
    ego = _ego_xy(scene, pose)
    target = scene.pedestrian.position
    ahead = target[0] - ego[0]
    if ahead < 0.0 or ahead > FORWARD_RANGE:
        return False
    return not any(ob.blocks_sight_line(ego, target) for ob in scene.obstacles)


def grid_to_text(grid: np.ndarray) -> str:
    """Digit raster of a grid, one row per longitudinal cell index."""
    return "\n".join("".join(str(int(v)) for v in row) for row in grid)


CROSSWALK_SAMPLE_STEP = 0.5  # m between sampled points of the crosswalk line


def crosswalk_occlusion_band(scene: Scene, path: Path) -> tuple[float, float] | None:
    """Range of path distances from which part of the crosswalk is hidden.

    Yields (s_lo, s_hi) over the path samples where at least one point of
    the crosswalk line has its sight line cut by an obstacle, or None when
    the crosswalk is visible from everywhere. Only path points before the
    crosswalk are considered.
    """
    if not scene.obstacles:
        return None
    y_lo, y_hi = scene.lateral_bounds
    n_samples = max(int(round((y_hi - y_lo) / CROSSWALK_SAMPLE_STEP)) + 1, 2)
    cw_y = np.linspace(y_lo, y_hi, n_samples)
    cw_x = np.full_like(cw_y, scene.crosswalk.distance)
    px, py = scene.road.to_road(path.north, path.east)
    shadowed = []
    for k in range(len(px)):
        if px[k] >= scene.crosswalk.distance:
            continue
        origin = (float(px[k]), float(py[k]))
        hit = np.zeros(cw_y.shape, dtype=bool)
        for obstacle in scene.obstacles:
            hit |= obstacle.blocks_segment(origin, cw_x, cw_y)
        if hit.any():
            shadowed.append(float(path.s[k]))
    if not shadowed:
        return None
    return min(shadowed), max(shadowed)


def crosswalk_path_distance(scene: Scene, path: Path) -> float:
    """Arc length at which the path crosses the crosswalk line."""
    px, _ = scene.road.to_road(path.north, path.east)
    target = scene.crosswalk.distance
    beyond = np.nonzero(px >= target)[0]
    if len(beyond) == 0:
        return path.length
    k = int(beyond[0])
    if k == 0:
        return 0.0
    frac = (target - px[k - 1]) / (px[k] - px[k - 1])
    return float(path.s[k - 1] + frac * (path.s[k] - path.s[k - 1]))


def _checked(data, allowed: tuple[str, ...], where: str, source, required: tuple[str, ...] = ()) -> dict:
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


def _given(data: dict, **fields) -> dict:
    """Keyword arguments for the fields the file gives, each converted by
    its callable; absent fields keep their dataclass defaults."""
    return {name: convert(data[name]) for name, convert in fields.items() if name in data}


def load_scene(source) -> Scene:
    """Build a Scene from a YAML file. Unknown keys raise ValueError, and so
    do an empty file and an obstacle without its center or size; whatever
    the file leaves out keeps its Scene default."""
    with open(source, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        raise ValueError(f"{source}: empty scene file")
    data = _checked(data, ("road", "obstacles", "crosswalk", "pedestrian"), "scene", source)
    road = _checked(data.get("road"), ("origin", "heading", "bounds", "lane_width"), "road", source)
    bounds = {"lateral_bounds": tuple(road["bounds"])} if "bounds" in road else {}
    obstacles = tuple(
        RectObstacle(**_given(
            _checked(item, ("center", "size", "yaw"), "obstacle", source, ("center", "size")),
            center=tuple, size=tuple, yaw=float,
        ))
        for item in data.get("obstacles") or ()
    )
    cw = _checked(data.get("crosswalk"), ("distance", "width"), "crosswalk", source)
    ped = _checked(data.get("pedestrian"), ("present", "position"), "pedestrian", source)
    return Scene(
        road=RoadFrame(**_given(road, origin=tuple, heading=float)),
        obstacles=obstacles,
        crosswalk=Crosswalk(**_given(cw, distance=float, width=float)),
        pedestrian=Pedestrian(**_given(ped, present=bool, position=tuple)),
        **bounds,
        **_given(road, lane_width=float),
    )

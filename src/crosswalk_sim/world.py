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
from functools import cached_property

import numpy as np

from .path import Path

FREE = 0
OCCUPIED = 1
UNOBSERVABLE = 2

GRID_LENGTH = 210  # cells ahead of the vehicle
GRID_WIDTH = 48  # cells across
CELLS_PER_M = 3
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
    to q1 against the slab |q| <= h: the entry and exit (lo, hi) of each
    segment, clipped to [0, 1]. A segment meets the slab on this axis
    exactly when lo <= hi. A segment parallel to the slab (q1 == q0), the
    zero-divisor case of Williams et al. (2005), spans all of [0, 1] from
    inside the slab and gets the empty interval (1, 0) from outside it.
    When no segment is parallel, the np.where passes are skipped."""
    d = q1 - q0
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (-h - q0) / d
        tb = (h - q0) / d
    lo = np.maximum(np.minimum(ta, tb), 0.0)
    hi = np.minimum(np.maximum(ta, tb), 1.0)
    parallel = d == 0.0
    if not parallel.any():
        return lo, hi
    outside = abs(q0) > h
    lo = np.where(parallel, np.where(outside, 1.0, 0.0), lo)
    hi = np.where(parallel, np.where(outside, 0.0, 1.0), hi)
    return lo, hi


@dataclass(frozen=True)
class RectObstacle:
    """Oriented rectangle in road coordinates: center, full extents and a
    yaw angle relative to the road axis."""

    center: tuple[float, float]
    size: tuple[float, float]
    yaw: float = 0.0

    def __post_init__(self):
        if self.size[0] <= 0 or self.size[1] <= 0:
            raise ValueError(f"bad value for key 'size': {self.size!r} is not positive")

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

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        """Road-aligned bounding box (x_min, y_min, x_max, y_max): the least
        and greatest corner coordinates along and across the road."""
        xs, ys = zip(*self.corners())
        return min(xs), min(ys), max(xs), max(ys)

    def _slabs(self, origin: tuple[float, float], x, y):
        """Per-axis entry and exit (lo_x, hi_x, lo_y, hi_y) of the segments
        from origin to each (x, y) point (see _slab); a segment meets the
        rectangle exactly when max(lo_x, lo_y) <= min(hi_x, hi_y)."""
        x0, y0 = self._to_local(origin[0], origin[1])
        x1, y1 = self._to_local(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return (*_slab(x0, x1, self.size[0] / 2), *_slab(y0, y1, self.size[1] / 2))

    def blocks_segment(self, origin: tuple[float, float], x, y):
        """Vectorized slab test: does the segment from origin to each
        (x, y) point intersect this rectangle? Touching counts. x, y and
        the two origin coordinates broadcast against each other.

        Each axis is clipped on its own (_slab) and the two are combined
        last, so for a road-aligned rectangle a row of x and a column of y
        cost one vector per axis until the final comparison. max and min
        are exact, so combining last gives the same booleans as clipping
        one axis after the other."""
        lo_x, hi_x, lo_y, hi_y = self._slabs(origin, x, y)
        return np.maximum(lo_x, lo_y) <= np.minimum(hi_x, hi_y)

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

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"bad value for key 'width': {self.width!r} is not positive")


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
        if self.lane_width <= 0:
            raise ValueError(f"bad value for key 'lane_width': {self.lane_width!r} is not positive")
        if self.lateral_bounds[0] >= self.lateral_bounds[1]:
            raise ValueError(f"bad value for key 'lateral_bounds': {self.lateral_bounds!r} is not ordered")
        if self.pedestrian.present:
            px = self.pedestrian.position[0]
            half = self.crosswalk.width / 2
            if abs(px - self.crosswalk.distance) > half:
                raise ValueError(f"bad value for key 'position': {px!r} is outside the crosswalk band")


def _ego_xy(scene: Scene, pose) -> tuple[float, float]:
    """Road-frame position of an ego pose (north, east, heading)."""
    return scene.road.to_road(float(pose[0]), float(pose[1]))


def _out_of_view(obstacle: RectObstacle, ex: float, ey: float) -> bool:
    """True when no sight line from the ego at (ex, ey) to a cell centre
    can reach the obstacle: its bounding box, grown by one cell, lies
    wholly behind the ego, beyond the far edge or to one side of the
    grid."""
    x_min, y_min, x_max, y_max = obstacle.bounds
    return (
        x_max + CELL_SIZE < ex
        or x_min - CELL_SIZE - ex > FORWARD_RANGE
        or y_min - CELL_SIZE - ey > LATERAL_RANGE
        or ey - y_max - CELL_SIZE > LATERAL_RANGE
    )


def _span(a, b) -> slice:
    """Grid slice from the first to the last index where a <= b, for a and
    b that vary along one grid axis only, as a road-aligned obstacle's row
    and column vectors do; the whole axis when a varies along both, as a
    rotated obstacle's full-grid arrays do."""
    if 1 not in a.shape:
        return slice(None)
    live = np.flatnonzero(a <= b)
    return slice(live[0], live[-1] + 1) if live.size else slice(0, 0)


def _shadow(obstacle: RectObstacle, origin: tuple[float, float], gx, gy):
    """(rows, cols, blocked): a grid window and which of its cells have
    their sight line from origin cut by the obstacle, as blocks_segment
    decides. A cell can be blocked only if its row's and its column's slab
    intervals are both non-empty, since max(lo_x, lo_y) >= lo_x > hi_x >=
    min(hi_x, hi_y) otherwise; the window spans the first to the last
    such row and column. A rotated obstacle's window is the whole grid.
    The full-size slab arrays of a rotated obstacle are freed on return,
    before _body allocates its own."""
    lo_x, hi_x, lo_y, hi_y = obstacle._slabs(origin, gx, gy)
    rows, cols = _span(lo_x, hi_x), _span(lo_y, hi_y)
    return rows, cols, np.maximum(lo_x[rows], lo_y[:, cols]) <= np.minimum(hi_x[rows], hi_y[:, cols])


def _body(obstacle: RectObstacle, gx, gy):
    """(rows, cols, inside): a grid window and which of its cells lie
    inside the obstacle, those whose rectangle-frame coordinates (lx, ly)
    have |lx| <= hx and |ly| <= hy. A road-aligned obstacle's cells fill
    their window: gx - cx never decreases down the rows, since rounding is
    monotone, so the rows with |gx - cx| <= hx form one run, and so do the
    columns. A rotated obstacle's window is the whole grid."""
    lx, ly = obstacle._to_local(gx, gy)
    ax, ay = np.abs(lx), np.abs(ly)
    hx, hy = obstacle.size[0] / 2, obstacle.size[1] / 2
    if 1 not in ax.shape:
        return slice(None), slice(None), (ax <= hx) & (ay <= hy)
    return _span(ax, hx), _span(ay, hy), True


def build_grid(scene: Scene, pose: tuple[float, float, float]) -> np.ndarray:
    """Ternary occupancy grid for an ego pose (north, east, heading).

    The grid covers 70 m ahead of the ego position along the road axis and
    8 m to each side, one cell per 1/3 m. Returns a (210, 48) uint8 array
    of FREE / OCCUPIED / UNOBSERVABLE.

    Cell centres enter as a column of 210 rows and a row of 48 columns.
    For a road-aligned obstacle (yaw 0) the slab test and the inside test
    keep them a 210-vector and a 48-vector per axis (see blocks_segment),
    and each per-cell test runs only on the window of rows and columns
    that can hold a True (_shadow); the obstacle's own cells fill one
    slice (_body). Every cell outside a window is left as it is. A
    rotated obstacle's window is the whole grid. Shadows are written
    before bodies, so a cell inside any obstacle is OCCUPIED even where
    another one shadows it.
    """
    ex, ey = _ego_xy(scene, pose)
    grid = np.zeros((GRID_LENGTH, GRID_WIDTH), dtype=np.uint8)
    in_view = [ob for ob in scene.obstacles if not _out_of_view(ob, ex, ey)]
    if not in_view:
        return grid
    # Cell centres as a column of rows and a row of columns; every
    # per-cell expression below broadcasts them to the window.
    gx = (ex + _ROW_OFFSETS)[:, None]
    gy = (ey + _COL_OFFSETS)[None, :]
    bodies = []
    for obstacle in in_view:
        rows, cols, shadow = _shadow(obstacle, (ex, ey), gx, gy)
        np.copyto(grid[rows, cols], UNOBSERVABLE, where=shadow)
        bodies.append(_body(obstacle, gx, gy))
    for rows, cols, inside in bodies:
        np.copyto(grid[rows, cols], OCCUPIED, where=inside)
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
# m the crosswalk line reaches past each road edge. A pedestrian waits on the
# curb before crossing: the hidden scene's pedestrian stands at y = -2.6 m,
# 0.8 m outside the -1.8 m edge, and 1.0 m covers that with a margin.
SIDEWALK_WIDTH = 1.0


def crosswalk_occlusion_band(scene: Scene, path: Path) -> tuple[float, float] | None:
    """Range of path distances from which part of the crosswalk is hidden.

    Yields (s_lo, s_hi) over the path samples where at least one point of
    the crosswalk line, which runs across the road and SIDEWALK_WIDTH onto
    each curb, has its sight line cut by an obstacle, or None when the
    crosswalk is visible from everywhere. Only path points before the
    crosswalk are considered. The points enter blocks_segment as one
    column of origins, whose elementwise arithmetic gives each point the
    booleans a scalar origin would.
    """
    if not scene.obstacles:
        return None
    y_lo = scene.lateral_bounds[0] - SIDEWALK_WIDTH
    y_hi = scene.lateral_bounds[1] + SIDEWALK_WIDTH
    n_samples = max(int(round((y_hi - y_lo) / CROSSWALK_SAMPLE_STEP)) + 1, 2)
    cw_y = np.linspace(y_lo, y_hi, n_samples)
    cw_x = np.full_like(cw_y, scene.crosswalk.distance)
    px, py = scene.road.to_road(path.north, path.east)
    ahead = px < scene.crosswalk.distance
    origin = (px[ahead][:, None], py[ahead][:, None])
    hit = np.zeros((int(ahead.sum()), n_samples), dtype=bool)
    for obstacle in scene.obstacles:
        hit |= obstacle.blocks_segment(origin, cw_x, cw_y)
    shadowed = path.s[ahead][hit.any(axis=1)]
    if not shadowed.size:
        return None
    return float(shadowed.min()), float(shadowed.max())


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

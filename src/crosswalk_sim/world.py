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
CELL_SIZE = 1 / CELLS_PER_M

# The road's cross-section in road y (+left), the same for every scene: its
# two edges, and the ego lane's width about y = 0.
ROAD_BOUNDS = (-1.8, 5.4)
LANE_WIDTH = 3.6

# Cell-centre offsets from the ego position: along the road for each of the
# GRID_LENGTH rows, then across it for each of the GRID_WIDTH columns, as
# one array for a road-aligned obstacle's one pass over both axes
# (_aligned), and as its two halves. Constant, so built once and never
# written.
_AXIS_OFFSETS = np.concatenate((np.arange(GRID_LENGTH) + 0.5, np.arange(GRID_WIDTH) - GRID_WIDTH / 2 + 0.5))
_AXIS_OFFSETS /= CELLS_PER_M
_AXIS_OFFSETS.flags.writeable = False
_ROW_OFFSETS, _COL_OFFSETS = np.split(_AXIS_OFFSETS, [GRID_LENGTH])


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
    The division runs unguarded when no segment is parallel; otherwise it
    runs under np.errstate, and np.where gives the parallel segments their
    intervals. The bounds are written into the division results."""
    d = np.asarray(q1 - q0)  # an array for scalar inputs too, as out= needs
    parallel = d == 0.0
    if not np.count_nonzero(parallel):
        parallel = None
        ta = np.divide(-h - q0, d, out=np.empty_like(d))
        tb = np.divide(h - q0, d, out=d)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = np.divide(-h - q0, d, out=np.empty_like(d))
            tb = np.divide(h - q0, d, out=d)
    lo = np.minimum(ta, tb, out=np.empty_like(d))
    hi = np.maximum(ta, tb, out=ta)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, 1.0, out=hi)
    if parallel is None:
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
        arrays broadcast against each other, so a column of rows and a row
        of columns enter a rotated rectangle's frame as one full grid of
        each coordinate.

        A road-aligned rectangle (yaw 0) is only translated. The rotation
        by cos 0 = 1, sin 0 = 0 would change nothing but the sign of a
        zero, which no caller reads."""
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

    def _slabs(self, x0, y0, x1, y1):
        """Slab test in the rectangle's own frame: does the segment from
        (x0, y0) to each (x1, y1) meet the rectangle? Each axis is clipped
        on its own (_slab) and the two are combined last. max and min are
        exact, so combining last gives the same booleans as clipping one
        axis after the other."""
        lo_x, hi_x = _slab(x0, x1, self.size[0] / 2)
        lo_y, hi_y = _slab(y0, y1, self.size[1] / 2)
        return np.maximum(lo_x, lo_y) <= np.minimum(hi_x, hi_y)

    def blocks_segment(self, origin: tuple[float, float], x, y):
        """Vectorized slab test: does the segment from origin to each
        (x, y) point intersect this rectangle? Touching counts. x, y and
        the two origin coordinates broadcast against each other.

        The origin and the points enter the rectangle's frame once each
        (_to_local) and meet the slab test there (_slabs). build_grid does
        not call it: its kernels _aligned and _rotated give the cell
        centres' sight lines the same IEEE operations."""
        x0, y0 = self._to_local(origin[0], origin[1])
        x1, y1 = self._to_local(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self._slabs(x0, y0, x1, y1)

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
    obstacles: tuple[RectObstacle, ...] = ()
    crosswalk: Crosswalk = field(default_factory=Crosswalk)
    pedestrian: Pedestrian = field(default_factory=Pedestrian)

    def __post_init__(self):
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


def _window(mask) -> slice:
    """The slice from the first to the last True of a 1-D mask; empty if
    none is True."""
    hits = mask.nonzero()[0]
    return slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0)


def _aligned(obstacle: RectObstacle, origin: tuple[float, float]):
    """(rows, cols, blocked, body) of a road-aligned (yaw 0) obstacle from
    one call of _slab on the cell-centre offsets, the rows' along the road
    then the columns' across it (_AXIS_OFFSETS), with the ego coordinate,
    obstacle centre and half-size of each entry's axis repeated over it.

    Each entry is one axis of the slab test for that row's or column's
    sight lines from origin, and gives one axis of the inside test
    |q1| <= h; each window is taken from one half of either test's mask
    (_window). A cell can be blocked only if its row's and its column's
    intervals are both non-empty, since max(lo_x, lo_y) >= lo_x > hi_x >=
    min(hi_x, hi_y) otherwise, so blocked covers the window of rows and
    cols from the first to the last such row and column. It is computed
    with the rows as numpy's inner axis, then transposed to the window's
    shape. body is the window from the first to the last row and column
    inside the obstacle, all of which it fills: q1 never decreases along
    the rows or along the columns, since rounding is monotone, so the rows
    with |q1| <= h form one run, and so do the columns."""
    half = (obstacle.size[0] / 2, obstacle.size[1] / 2)
    ego, centre, h = np.array((origin, obstacle.center, half)).repeat((GRID_LENGTH, GRID_WIDTH), axis=1)
    q1 = (ego + _AXIS_OFFSETS) - centre
    lo, hi = _slab(ego - centre, q1, h)
    live = lo <= hi
    inside = np.abs(q1) <= h
    n = GRID_LENGTH
    rows, cols = _window(live[:n]), _window(live[n:])
    blocked = np.maximum(lo[n:][cols, None], lo[:n][rows]) <= np.minimum(hi[n:][cols, None], hi[:n][rows])
    return rows, cols, blocked.T, (_window(inside[:n]), _window(inside[n:]))


def _rotated(obstacle: RectObstacle, origin: tuple[float, float]):
    """(rows, cols, blocked, body) of a rotated obstacle, _aligned's
    contract with the full grid as the window: rows and cols select every
    cell, and body is a mask of the cells inside the obstacle.

    The cell centres enter the rectangle's frame once, as a column of rows
    and a row of columns (_to_local), and the same coordinates go to the
    slab test (_slabs) and to the inside test |lx| <= hx and |ly| <= hy."""
    x0, y0 = obstacle._to_local(origin[0], origin[1])
    lx, ly = obstacle._to_local((origin[0] + _ROW_OFFSETS)[:, None], (origin[1] + _COL_OFFSETS)[None, :])
    body = (np.abs(lx) <= obstacle.size[0] / 2) & (np.abs(ly) <= obstacle.size[1] / 2)
    return slice(None), slice(None), obstacle._slabs(x0, y0, lx, ly), body


def build_grid(scene: Scene, pose: tuple[float, float, float]) -> np.ndarray:
    """Ternary occupancy grid for an ego pose (north, east, heading).

    The grid covers 70 m ahead of the ego position along the road axis and
    8 m to each side, one cell per 1/3 m. Returns a (210, 48) uint8 array
    of FREE / OCCUPIED / UNOBSERVABLE.

    Every obstacle that _out_of_view does not cull goes through one kernel,
    chosen by its yaw, that returns a window of rows and columns, the
    shadow on that window and the obstacle's body. A road-aligned obstacle
    (yaw 0, also -0.0) takes one call of _slab over the 210 row and 48
    column offsets (_aligned), so its shadow and body windows hold only the
    rows and columns that can hold a True. A rotated obstacle's window is the
    full 210 x 48 grid, its cell centres rotated into the obstacle's frame
    once for both tests (_rotated). Cells outside a window are left as
    they are. Shadows are written before bodies, so a cell inside any
    obstacle is OCCUPIED even where another one shadows it.
    """
    ex, ey = _ego_xy(scene, pose)
    grid = np.zeros((GRID_LENGTH, GRID_WIDTH), dtype=np.uint8)
    bodies = []
    for obstacle in scene.obstacles:
        if _out_of_view(obstacle, ex, ey):
            continue
        kernel = _aligned if obstacle.yaw == 0.0 else _rotated
        rows, cols, shadow, body = kernel(obstacle, (ex, ey))
        np.copyto(grid[rows, cols], UNOBSERVABLE, where=shadow)
        bodies.append(body)
    for body in bodies:
        grid[body] = OCCUPIED
    return grid


def count_unobservable(grid: np.ndarray) -> int:
    return int(np.count_nonzero(grid == UNOBSERVABLE))


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
    y_lo = ROAD_BOUNDS[0] - SIDEWALK_WIDTH
    y_hi = ROAD_BOUNDS[1] + SIDEWALK_WIDTH
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
    """Arc length at which the path crosses the crosswalk line, for a line
    past the path's start and not beyond its end."""
    px, _ = scene.road.to_road(path.north, path.east)
    target = scene.crosswalk.distance
    k = int(np.argmax(px >= target))
    frac = (target - px[k - 1]) / (px[k] - px[k - 1])
    return float(path.s[k - 1] + frac * (path.s[k] - path.s[k - 1]))

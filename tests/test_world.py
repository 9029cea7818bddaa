"""Occupancy grid against a per-cell geometric oracle."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from crosswalk_sim import world
from crosswalk_sim.world import (
    CELL_SIZE,
    CELLS_PER_M,
    CROSSWALK_SAMPLE_STEP,
    CROSSWALK_WIDTH,
    FREE,
    GRID_LENGTH,
    GRID_WIDTH,
    OCCUPIED,
    ROAD_BOUNDS,
    SIDEWALK_WIDTH,
    UNOBSERVABLE,
    Crosswalk,
    Pedestrian,
    RectObstacle,
    RoadFrame,
    Scene,
    build_grid,
    count_unobservable,
    crosswalk_occlusion_band,
    crosswalk_path_distance,
    grid_to_text,
    pedestrian_visible,
)
from crosswalk_sim.files import load_scene
from crosswalk_sim.control import build_avoidance_path
from crosswalk_sim.path import SAMPLE_SPACING, Path


# --- independent geometry oracle -------------------------------------------
# Scalar math throughout, and segment/rectangle intersection decided with
# orientation tests rather than the implementation's slab clipping.

# Relative error bound of the float orientation determinant (Shewchuk's
# ccwerrboundA): beyond it the float sign is the exact sign.
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _orient(p, q, r):
    """Orientation of r against the line p-q, with the exact sign for the
    float inputs: the float determinant, or its exact rational value when
    the float one is within rounding of zero."""
    px, py = p
    left = (q[0] - px) * (r[1] - py)
    right = (q[1] - py) * (r[0] - px)
    det = left - right
    if abs(det) > _ORIENT_ERR * (abs(left) + abs(right)):
        return det
    p, q, r = ((Fraction(x), Fraction(y)) for x, y in (p, q, r))
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r):
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def _segments_intersect(a, b, c, d):
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return False  # c-d lies strictly on one side of the line a-b
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and 0 not in (o1, o2, o3, o4):
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def _rect_local(ob: RectObstacle, x: float, y: float):
    c, s = math.cos(ob.yaw), math.sin(ob.yaw)
    dx, dy = x - ob.center[0], y - ob.center[1]
    return c * dx + s * dy, -s * dx + c * dy


def _point_in_rect(ob: RectObstacle, x: float, y: float) -> bool:
    lx, ly = _rect_local(ob, x, y)
    return abs(lx) <= ob.size[0] / 2 and abs(ly) <= ob.size[1] / 2


def _rect_corners(ob: RectObstacle):
    c, s = math.cos(ob.yaw), math.sin(ob.yaw)
    hx, hy = ob.size[0] / 2, ob.size[1] / 2
    corners = []
    for sx, sy in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
        lx, ly = sx * hx, sy * hy
        corners.append((ob.center[0] + c * lx - s * ly, ob.center[1] + s * lx + c * ly))
    return corners


def _segment_hits_rect(ob: RectObstacle, p, q) -> bool:
    if _point_in_rect(ob, *p) or _point_in_rect(ob, *q):
        return True
    corners = _rect_corners(ob)
    return any(
        _segments_intersect(p, q, corners[k], corners[(k + 1) % 4]) for k in range(4)
    )


def oracle_grid(scene: Scene, pose) -> np.ndarray:
    """Brute-force per-cell rebuild of the ternary grid."""
    north, east, _ = pose
    hdg = scene.road.heading
    tn, te = math.cos(hdg), math.sin(hdg)
    dn, de = north - scene.road.origin[0], east - scene.road.origin[1]
    ex = dn * tn + de * te
    ey = dn * te - de * tn
    grid = np.zeros((GRID_LENGTH, GRID_WIDTH), dtype=np.uint8)
    for i in range(GRID_LENGTH):
        cx = ex + (i + 0.5) / CELLS_PER_M
        for j in range(GRID_WIDTH):
            cy = ey + (j - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M
            if any(_point_in_rect(ob, cx, cy) for ob in scene.obstacles):
                grid[i, j] = OCCUPIED
            elif any(
                _segment_hits_rect(ob, (ex, ey), (cx, cy)) for ob in scene.obstacles
            ):
                grid[i, j] = UNOBSERVABLE
    return grid


def random_scene(rng: np.random.Generator, lattice: float | None = None) -> tuple[Scene, tuple]:
    """1-3 rotated obstacles on a random road frame; with a lattice step,
    road-aligned obstacles (yaw 0.0 or -0.0) on the default road frame,
    with centres, sizes and the ego position on that lattice so that cell
    centres fall on obstacle edges. One scene in four puts the ego on a
    corner, an edge line or the centre of its first obstacle."""
    if lattice is not None:
        return _lattice_scene(rng, lattice)
    obstacles = []
    for _ in range(int(rng.integers(1, 4))):
        obstacles.append(
            RectObstacle(
                center=(float(rng.uniform(3.0, 60.0)), float(rng.uniform(-7.0, 7.0))),
                size=(float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.5, 3.0))),
                yaw=float(rng.uniform(-0.6, 0.6)),
            )
        )
    road = RoadFrame(
        origin=(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
        heading=float(rng.uniform(-math.pi, math.pi)),
    )
    scene = Scene(road=road, obstacles=tuple(obstacles))
    north, east = road.to_inertial(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    pose = (float(north), float(east), road.heading)
    return scene, pose


def _lattice_scene(rng: np.random.Generator, step: float) -> tuple[Scene, tuple]:
    def on(lo: float, hi: float) -> float:
        return int(rng.integers(round(lo / step), round(hi / step) + 1)) * step

    obstacles = tuple(
        RectObstacle(
            center=(on(1.0, 60.0), on(-7.0, 7.0)),
            size=(on(step, 6.0), on(step, 3.0)),
            yaw=(0.0, -0.0)[int(rng.integers(2))],
        )
        for _ in range(int(rng.integers(1, 4)))
    )
    ex, ey = on(-1.0, 1.0), on(-1.0, 1.0)
    if rng.integers(4) == 0:
        first = obstacles[0]
        ex = first.center[0] + int(rng.integers(-1, 2)) * first.size[0] / 2
        ey = first.center[1] + int(rng.integers(-1, 2)) * first.size[1] / 2
    scene = Scene(obstacles=obstacles)
    north, east = scene.road.to_inertial(ex, ey)
    return scene, (float(north), float(east), 0.0)


# --- exact reference --------------------------------------------------------
# The slab test as it was first written: rotate every point into the
# rectangle's frame, then clip one axis after the other with np.where. The
# implementation must give the same booleans on road-aligned obstacles,
# where it skips the rotation and keeps a row and a column apart, and on
# rotated ones, where one rotation of the cell centres serves both the slab
# and the inside test.


def _reference_blocks_segment(ob: RectObstacle, origin, x, y):
    x0, y0 = _rect_local(ob, origin[0], origin[1])
    x1, y1 = _rect_local(ob, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    hx, hy = ob.size[0] / 2, ob.size[1] / 2
    t_lo = np.zeros_like(x1, dtype=float)
    t_hi = np.ones_like(x1, dtype=float)
    hit = np.ones_like(x1, dtype=bool)
    for q0, q1, h in ((x0, x1, hx), (y0, y1, hy)):
        d = q1 - q0
        parallel = d == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (-h - q0) / d
            tb = (h - q0) / d
        lo = np.minimum(ta, tb)
        hi = np.maximum(ta, tb)
        hit &= ~(parallel & (abs(q0) > h))
        t_lo = np.where(parallel, t_lo, np.maximum(t_lo, lo))
        t_hi = np.where(parallel, t_hi, np.minimum(t_hi, hi))
    return hit & (t_lo <= t_hi)


def _reference_contains(ob: RectObstacle, x, y):
    lx, ly = _rect_local(ob, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return (np.abs(lx) <= ob.size[0] / 2) & (np.abs(ly) <= ob.size[1] / 2)


def _reference_distance(ob: RectObstacle, x: float, y: float) -> float:
    lx, ly = _rect_local(ob, x, y)
    return math.hypot(max(abs(lx) - ob.size[0] / 2, 0.0), max(abs(ly) - ob.size[1] / 2, 0.0))


# --- grid tests -------------------------------------------------------------


def test_empty_scene_all_free():
    grid = build_grid(Scene(), (0.0, 0.0, 0.0))
    assert grid.shape == (GRID_LENGTH, GRID_WIDTH)
    assert grid.dtype == np.uint8
    assert np.all(grid == FREE)
    assert count_unobservable(grid) == 0


def test_obstacle_behind_ego_invisible():
    scene = Scene(obstacles=(RectObstacle(center=(-10.0, 0.0), size=(4.0, 2.0)),))
    grid = build_grid(scene, (0.0, 0.0, 0.0))
    assert np.all(grid == FREE)


def test_single_occluder_matches_oracle():
    scene = Scene(obstacles=(RectObstacle(center=(20.0, 3.0), size=(4.5, 1.8)),))
    pose = (0.0, 0.0, 0.0)
    grid = build_grid(scene, pose)
    expected = oracle_grid(scene, pose)
    assert np.array_equal(grid, expected)
    assert count_unobservable(grid) == int((expected == UNOBSERVABLE).sum())
    assert count_unobservable(grid) > 0


def test_randomized_scenes_match_oracle():
    rng = np.random.default_rng(42)
    for _ in range(8):
        scene, pose = random_scene(rng)
        aligned = tuple(dataclasses.replace(ob, yaw=0.0) for ob in scene.obstacles)
        for case in (scene, dataclasses.replace(scene, obstacles=aligned)):
            grid = build_grid(case, pose)
            assert grid.shape == (GRID_LENGTH, GRID_WIDTH)
            assert np.array_equal(grid, oracle_grid(case, pose))


@pytest.mark.parametrize(
    "obstacle, touched",
    [
        # less than one cell behind the ego
        (RectObstacle(center=(-0.9, 0.5), size=(1.4, 2.0)), 0),
        # straddles the 70 m far edge
        (RectObstacle(center=(70.0, -1.0), size=(2.0, 3.0), yaw=0.3), 28),
        # centre beyond +8 m, one rotated corner pokes into the grid band
        (RectObstacle(center=(30.0, 9.3), size=(4.0, 1.0), yaw=0.6), 1),
        # the same box a little further out, clear of the band
        (RectObstacle(center=(30.0, 9.9), size=(4.0, 1.0), yaw=0.6), 0),
        # the ego stands inside it
        (RectObstacle(center=(0.5, 0.2), size=(3.0, 2.0), yaw=0.2), GRID_LENGTH * GRID_WIDTH),
        # road-aligned: straddles the far edge, pokes into / stays clear of
        # the +8 m side, the ego inside it
        (RectObstacle(center=(70.0, -1.0), size=(2.0, 3.0)), 30),
        (RectObstacle(center=(30.0, 8.2), size=(4.0, 1.0)), 14),
        (RectObstacle(center=(30.0, 8.6), size=(4.0, 1.0)), 0),
        (RectObstacle(center=(0.5, 0.2), size=(3.0, 2.0), yaw=-0.0), GRID_LENGTH * GRID_WIDTH),
    ],
    ids=[
        "just-behind", "far-edge", "corner-in", "corner-out", "ego-inside",
        "aligned-far-edge", "aligned-side-in", "aligned-side-out", "aligned-ego-inside",
    ],
)
def test_grid_edge_of_view_matches_oracle(obstacle, touched):
    scene = Scene(obstacles=(obstacle,))
    pose = (0.0, 0.0, 0.0)
    grid = build_grid(scene, pose)
    assert np.array_equal(grid, oracle_grid(scene, pose))
    assert np.count_nonzero(grid != FREE) == touched


def test_bounds_are_corner_extremes():
    rng = np.random.default_rng(37)
    for yaw in [0.0, -0.0, math.pi / 2, math.pi] + rng.uniform(-math.pi, math.pi, 40).tolist():
        ob = RectObstacle(
            center=(float(rng.uniform(-5.0, 60.0)), float(rng.uniform(-7.0, 7.0))),
            size=(float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.5, 3.0))),
            yaw=yaw,
        )
        xs = [x for x, _ in ob.corners()]
        ys = [y for _, y in ob.corners()]
        assert ob.bounds == (min(xs), min(ys), max(xs), max(ys))


def test_out_of_view_cull_leaves_grid_unchanged(monkeypatch):
    # Egos behind, beside and beyond yaw-0 and rotated obstacles, a third
    # of them within a cell of the grid's edges around the first
    # obstacle's bounding box: skipping the obstacles _out_of_view culls
    # must give the grid of testing every obstacle.
    rng = np.random.default_rng(41)
    culled = 0
    cases = []
    for i in range(300):
        scene, _ = random_scene(rng)
        if i % 2:
            aligned = tuple(dataclasses.replace(ob, yaw=0.0) for ob in scene.obstacles)
            scene = dataclasses.replace(scene, obstacles=aligned)
        ex, ey = float(rng.uniform(-20.0, 90.0)), float(rng.uniform(-16.0, 16.0))
        if i % 3 == 0:
            x_min, y_min, x_max, y_max = scene.obstacles[0].bounds
            edge = float(rng.uniform(-1.0, 1.0)) / CELLS_PER_M
            ex, ey = (
                (x_max + edge, ey),
                (x_min - world.FORWARD_RANGE + edge, ey),
                (ex, y_min - world.LATERAL_RANGE + edge),
                (ex, y_max + world.LATERAL_RANGE + edge),
            )[int(rng.integers(4))]
        north, east = scene.road.to_inertial(ex, ey)
        pose = (float(north), float(east), scene.road.heading)
        culled += sum(world._out_of_view(ob, *world._ego_xy(scene, pose)) for ob in scene.obstacles)
        cases.append((scene, pose, build_grid(scene, pose)))
    monkeypatch.setattr(world, "_out_of_view", lambda *args: False)
    for scene, pose, grid in cases:
        assert np.array_equal(grid, build_grid(scene, pose))
    assert culled > 100


@pytest.mark.parametrize("lattice", [1 / 3, 1 / 6], ids=["third", "sixth"])
def test_road_aligned_equals_rotated_reference(lattice):
    # Road-aligned obstacles skip the rotation and keep the grid's row and
    # column apart until the last comparison. On lattice scenes, where
    # cell centres sit on obstacle edges and sight lines run along them,
    # every result must equal the rotate-then-np.where reference exactly.
    rng = np.random.default_rng(6)
    on_edge = inside = 0
    visible = set()
    for _ in range(60):
        scene, pose = random_scene(rng, lattice)
        ex, ey = scene.road.to_road(pose[0], pose[1])
        gx = (ex + (np.arange(GRID_LENGTH) + 0.5) / CELLS_PER_M)[:, None]
        gy = (ey + (np.arange(GRID_WIDTH) - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M)[None, :]
        # lattice targets through the ego: d == 0 along each axis
        tx = (ex + np.arange(-12, 13) * lattice)[:, None]
        ty = (ey + np.arange(-12, 13) * lattice)[None, :]
        occupied = np.zeros((GRID_LENGTH, GRID_WIDTH), dtype=bool)
        blocked = np.zeros_like(occupied)
        for ob in scene.obstacles:
            cells = _reference_contains(ob, gx, gy)
            rays = _reference_blocks_segment(ob, (ex, ey), gx, gy)
            assert np.array_equal(ob.blocks_segment((ex, ey), gx, gy), rays)
            assert np.array_equal(
                ob.blocks_segment((ex, ey), tx, ty), _reference_blocks_segment(ob, (ex, ey), tx, ty)
            )
            assert ob.distance(ex, ey) == _reference_distance(ob, ex, ey)
            occupied |= cells
            blocked |= rays
            lx, ly = _rect_local(ob, gx, gy)
            on_edge += np.count_nonzero((np.abs(lx) == ob.size[0] / 2) | (np.abs(ly) == ob.size[1] / 2))
            inside += bool(_reference_contains(ob, ex, ey))
        expected = np.zeros_like(occupied, dtype=np.uint8)
        expected[blocked] = UNOBSERVABLE
        expected[occupied] = OCCUPIED
        assert np.array_equal(build_grid(scene, pose), expected)
        for k in range(8):
            # even k: the sight line runs level with the ego (d == 0 across
            # the road); k = 1, 5: straight across it (d == 0 along it)
            px = ex if k % 4 == 1 else ex + int(rng.integers(1, round(69 / lattice))) * lattice
            py = ey if k % 2 == 0 else ey + int(rng.integers(-24, 25)) * lattice
            ped = Pedestrian(present=True, position=(px, py))
            hidden = any(bool(_reference_blocks_segment(ob, (ex, ey), px, py)) for ob in scene.obstacles)
            seen = dataclasses.replace(scene, crosswalk=Crosswalk(distance=px), pedestrian=ped)
            assert pedestrian_visible(seen, pose) is not hidden
            visible.add(not hidden)
    assert on_edge and inside and visible == {False, True}


def _reference_grid(scene: Scene, pose) -> np.ndarray:
    """The grid from the rotate-then-np.where reference, one full-grid
    mask per obstacle."""
    ex, ey = scene.road.to_road(pose[0], pose[1])
    gx = (ex + (np.arange(GRID_LENGTH) + 0.5) / CELLS_PER_M)[:, None]
    gy = (ey + (np.arange(GRID_WIDTH) - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M)[None, :]
    grid = np.zeros((GRID_LENGTH, GRID_WIDTH), dtype=np.uint8)
    for ob in scene.obstacles:
        grid[_reference_blocks_segment(ob, (ex, ey), gx, gy)] = UNOBSERVABLE
    for ob in scene.obstacles:
        grid[_reference_contains(ob, gx, gy)] = OCCUPIED
    return grid


# Sight lines passing this close to an obstacle corner are left undecided
# between the float grid and the exact oracle, the tangency rule of
# perfbench/checks.py.
TANGENCY_EPS = 1e-9


def _grazing(scene: Scene, pose) -> np.ndarray:
    """Cells whose sight line from the ego passes within TANGENCY_EPS of an
    obstacle corner."""
    ex, ey = scene.road.to_road(pose[0], pose[1])
    dx = ((np.arange(GRID_LENGTH) + 0.5) / CELLS_PER_M)[:, None]
    dy = ((np.arange(GRID_WIDTH) - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M)[None, :]
    grazing = np.zeros((GRID_LENGTH, GRID_WIDTH), dtype=bool)
    for ob in scene.obstacles:
        for cx, cy in _rect_corners(ob):
            cx, cy = cx - ex, cy - ey
            t = np.clip((cx * dx + cy * dy) / (dx**2 + dy**2), 0.0, 1.0)
            grazing |= np.hypot(cx - t * dx, cy - t * dy) < TANGENCY_EPS
    return grazing


_THIRD, _SIXTH = 1 / 3, 1 / 6

# Road-aligned scenes whose shadow or body windows reach the edges of the
# grid, with the ego position and the first and last row and column that
# are not FREE.
WINDOW_CASES = {
    "row-0": ((RectObstacle((0.5, 1.0), (1.0, 1.0)),), (0.0, 0.0), (0, 46, 25, 47)),
    # body in the last row only, and no cell left to shadow behind it
    "row-209-no-shadow": ((RectObstacle((70.0, 0.0), (0.4, 2.0)),), (0.0, 0.0), (209, 209, 21, 26)),
    "col-0": ((RectObstacle((20.0, -7.5), (4.0, 2.0)),), (0.0, 0.0), (54, 79, 0, 4)),
    "col-47": ((RectObstacle((20.0, 7.5), (4.0, 2.0)),), (0.0, 0.0), (54, 79, 43, 47)),
    "both-cols": ((RectObstacle((10.0, 0.0), (2.0, 6.2)),), (0.0, 0.0), (27, 209, 0, 47)),
    "ego-in-x-span": ((RectObstacle((0.0, 3.0), (4.0, 2.0)),), (0.0, 0.0), (0, 23, 30, 47)),
    "ego-in-y-span": ((RectObstacle((10.0, 0.5), (2.0, 2.0)),), (0.0, 0.0), (27, 209, 12, 47)),
    "ego-in-both": ((RectObstacle((0.5, 0.2), (3.0, 2.0)),), (0.0, 0.0), (0, 209, 0, 47)),
    "overlapping": (
        (RectObstacle((20.0, 1.0), (4.0, 2.0)), RectObstacle((21.0, 2.0), (4.0, 2.0))),
        (0.0, 0.0),
        (54, 209, 24, 47),
    ),
    "with-rotated": (
        (RectObstacle((20.0, 1.1), (4.0, 2.0)), RectObstacle((35.0, -3.0), (3.0, 1.5), yaw=0.4)),
        (0.0, 0.0),
        (54, 209, 0, 47),
    ),
    # faces on cell centres: lattice centres, sizes and ego positions
    "faces-third": (
        (RectObstacle((10 * _THIRD, -9 * _THIRD), (9 * _THIRD, 3 * _THIRD)),), (0.0, 0.0), (5, 44, 0, 16),
    ),
    "faces-sixth": (
        (RectObstacle((27 * _SIXTH, -15 * _SIXTH), (6 * _SIXTH, 6 * _SIXTH)),), (-_SIXTH, -_SIXTH), (12, 65, 0, 18),
    ),
}


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_road_aligned_windows_match_references(case):
    # build_grid runs the per-cell tests of a road-aligned obstacle only on
    # the window of rows and columns that can hold a True; cells outside
    # it are never written, so a window cut one row or column short shows
    # as a difference at the grid's edge.
    obstacles, (ex, ey), box = WINDOW_CASES[case]
    scene = Scene(obstacles=obstacles)
    north, east = scene.road.to_inertial(ex, ey)
    pose = (float(north), float(east), 0.0)
    grid = build_grid(scene, pose)
    assert np.array_equal(grid, _reference_grid(scene, pose))
    # the exact oracle may differ where a sight line meets a corner
    grazing = _grazing(scene, pose)
    assert np.array_equal(grid[~grazing], oracle_grid(scene, pose)[~grazing])
    rows, cols = np.nonzero(grid)
    assert (rows.min(), rows.max(), cols.min(), cols.max()) == box
    if case == "row-209-no-shadow":
        assert count_unobservable(grid) == 0
    if case.startswith("faces"):
        gx = ex + (np.arange(GRID_LENGTH) + 0.5) / CELLS_PER_M
        gy = ey + (np.arange(GRID_WIDTH) - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M
        ob = obstacles[0]
        assert (np.abs(gx - ob.center[0]) == ob.size[0] / 2).any()
        assert (np.abs(gy - ob.center[1]) == ob.size[1] / 2).any()


def test_sight_lines_through_corners():
    # From the origin, 40 sight lines pass exactly through a corner in real
    # numbers, among them those to rows 70 - 3k, columns k and 47 - k
    # through (9, -3) and (9, 3). The exact oracle decides each on the float
    # cell centres; build_grid's float slab test may call a near miss of
    # about 3e-16 m a touch, as at (37, 11) and (37, 36), so those cells
    # alone may differ.
    scene = Scene(obstacles=(RectObstacle(center=(10.0, 0.0), size=(2.0, 6.0)),))
    pose = (0.0, 0.0, 0.0)
    grid = build_grid(scene, pose)
    assert np.array_equal(grid, _reference_grid(scene, pose))
    grazing = _grazing(scene, pose)
    assert grazing.sum() == 40 and grazing[37, 11] and grazing[37, 36]
    assert np.array_equal(grid[~grazing], oracle_grid(scene, pose)[~grazing])


def test_occupied_wins_over_unobservable():
    near = RectObstacle(center=(10.0, 0.0), size=(1.0, 1.0))
    far = RectObstacle(center=(20.0, 0.0), size=(2.0, 2.0))
    grid = build_grid(Scene(obstacles=(near, far)), (0.0, 0.0, 0.0))
    # cell centered at (20.167, 0.167): inside the far box, shadowed by the near one
    assert grid[60, 24] == OCCUPIED
    assert (grid == UNOBSERVABLE).any()


def _aligned_case(rng: np.random.Generator, i: int) -> tuple[Scene, tuple, str]:
    """A scene of 1-3 road-aligned obstacles (yaw 0.0 or -0.0) and an ego
    pose, with the ego ahead of, inside, beside or behind the first
    obstacle (within a cell of its rear face, so it is not culled), and a
    second obstacle overlapping the first in half of the scenes. Three
    scenes in four put centres, sizes and the ego on a lattice of 1/3,
    1/6 or 1/12 m, so cell centres fall on obstacle faces."""
    step = (None, 1 / 3, 1 / 6, 1 / 12)[i % 4]

    def on(lo: float, hi: float) -> float:
        value = float(rng.uniform(lo, hi))
        return round(value / step) * step if step else value

    def obstacle(cx: float, cy: float) -> RectObstacle:
        return RectObstacle((cx, cy), (on(0.3, 6.0), on(0.3, 3.0)), yaw=(0.0, -0.0)[int(rng.integers(2))])

    first = obstacle(on(2.0, 60.0), on(-6.0, 6.0))
    obstacles = [first]
    if rng.integers(2):
        obstacles.append(obstacle(first.center[0] + on(-2.0, 2.0), first.center[1] + on(-1.0, 1.0)))
    obstacles += [obstacle(on(2.0, 70.0), on(-8.0, 8.0)) for _ in range(int(rng.integers(3 - len(obstacles))))]
    x_min, y_min, x_max, y_max = first.bounds
    place = ("ahead", "inside", "beside", "behind")[i // 4 % 4]
    ex, ey = {
        "ahead": (on(-1.0, 1.0), on(-2.0, 2.0)),
        "inside": (on(x_min, x_max), on(y_min, y_max)),
        "beside": (on(x_min, x_max), (y_min - on(0.3, 6.0), y_max + on(0.3, 6.0))[int(rng.integers(2))]),
        "behind": (x_max + on(0.0, CELL_SIZE), on(y_min - 2.0, y_max + 2.0)),
    }[place]
    scene = Scene(obstacles=tuple(obstacles))
    north, east = scene.road.to_inertial(ex, ey)
    return scene, (float(north), float(east), 0.0), place


def test_aligned_kernel_matches_reference():
    # build_grid's one-pass kernel for road-aligned obstacles must give
    # every cell the value of the rotate-then-np.where reference, whose
    # masks cover the full grid
    rng = np.random.default_rng(18)
    places, marked = set(), {FREE: 0, OCCUPIED: 0, UNOBSERVABLE: 0}
    for i in range(320):
        scene, pose, place = _aligned_case(rng, i)
        grid = build_grid(scene, pose)
        assert np.array_equal(grid, _reference_grid(scene, pose)), (i, place, scene, pose)
        places.add(place)
        for value in marked:
            marked[value] += bool((grid == value).any())
    assert places == {"ahead", "inside", "beside", "behind"}
    assert min(marked.values()) > 100


def _rotated_case(rng: np.random.Generator, i: int) -> tuple[Scene, tuple, str, bool]:
    """A scene of 1-3 rotated obstacles and an ego pose, with the ego
    ahead of, inside, beside or behind the first obstacle (at most a cell
    past its bounding box, so it is not culled). Yaws lie within 0.6
    of 0, of +-pi/2 or of pi: some exactly on the last three, some within
    1e-6 of one of the four. One scene in three adds a road-aligned
    obstacle (yaw 0.0 or -0.0) near the first. Three scenes in four put
    centres, sizes and the ego (unless inside) on a lattice of 1/3, 1/6
    or 1/12 m on the default road frame, so cell centres can fall on the
    faces of a quarter-turned obstacle; the rest use a random road frame."""
    step = (None, 1 / 3, 1 / 6, 1 / 12)[i % 4]

    def on(lo: float, hi: float) -> float:
        value = float(rng.uniform(lo, hi))
        return round(value / step) * step if step else value

    def yaw() -> float:
        base = (0.0, math.pi / 2, -math.pi / 2, math.pi)[int(rng.integers(4))]
        spread = (0.0, 1e-6, 0.05, 0.6)[int(rng.integers(base == 0.0, 4))]
        return base + float(rng.uniform(-spread, spread))

    def obstacle(cx: float, cy: float, angle: float) -> RectObstacle:
        return RectObstacle((cx, cy), (on(0.3, 6.0), on(0.3, 3.0)), yaw=angle)

    first = obstacle(on(2.0, 60.0), on(-6.0, 6.0), yaw())
    obstacles = [first] + [obstacle(on(2.0, 70.0), on(-8.0, 8.0), yaw()) for _ in range(int(rng.integers(3)))]
    mixed = i % 3 == 0
    if mixed:
        flat = (0.0, -0.0)[int(rng.integers(2))]
        aligned = obstacle(first.center[0] + on(-2.0, 2.0), first.center[1] + on(-1.0, 1.0), flat)
        obstacles.insert(int(rng.integers(len(obstacles) + 1)), aligned)
    x_min, y_min, x_max, y_max = first.bounds
    rear_right, rear_left, _, front_right = np.array(first.corners())
    u, v = rng.uniform(0.0, 1.0, 2)
    place = ("ahead", "inside", "beside", "behind")[i // 12 % 4]
    ex, ey = {
        "ahead": (on(-1.0, 1.0), on(-2.0, 2.0)),
        "inside": rear_right + u * (rear_left - rear_right) + v * (front_right - rear_right),
        "beside": (on(x_min, x_max), (y_min - on(0.3, 6.0), y_max + on(0.3, 6.0))[int(rng.integers(2))]),
        "behind": (x_max + on(0.0, CELL_SIZE), on(y_min - 2.0, y_max + 2.0)),
    }[place]
    road = RoadFrame() if step else RoadFrame((on(-5, 5), on(-5, 5)), on(-math.pi, math.pi))
    scene = Scene(road=road, obstacles=tuple(obstacles))
    north, east = road.to_inertial(ex, ey)
    return scene, (float(north), float(east), road.heading), place, mixed


def test_rotated_kernel_matches_reference():
    # build_grid's kernel for rotated obstacles rotates the cell centres
    # once for the slab and the inside test; every cell must get the value
    # of the reference, which rotates for each test on its own
    rng = np.random.default_rng(19)
    places, mixed_scenes = set(), 0
    marked = {FREE: 0, OCCUPIED: 0, UNOBSERVABLE: 0}
    for i in range(360):
        scene, pose, place, mixed = _rotated_case(rng, i)
        first = next(ob for ob in scene.obstacles if ob.yaw != 0.0)
        assert not world._out_of_view(first, *world._ego_xy(scene, pose))
        grid = build_grid(scene, pose)
        assert np.array_equal(grid, _reference_grid(scene, pose)), (i, place, scene, pose)
        places.add(place)
        mixed_scenes += mixed
        for value in marked:
            marked[value] += bool((grid == value).any())
    assert places == {"ahead", "inside", "beside", "behind"}
    assert mixed_scenes == 120
    assert min(marked.values()) > 100


def test_axis_offsets_are_the_rows_then_the_columns():
    # _aligned's one _slab call runs over exactly the 210 row offsets and
    # then the 48 column offsets, with no padding; _rotated reads the two
    # halves, and nothing can write any of them
    rows = (np.arange(GRID_LENGTH) + 0.5) / CELLS_PER_M
    cols = (np.arange(GRID_WIDTH) - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M
    assert world._AXIS_OFFSETS.tobytes() == np.concatenate((rows, cols)).tobytes()
    assert world._ROW_OFFSETS.tobytes() == rows.tobytes()
    assert world._COL_OFFSETS.tobytes() == cols.tobytes()
    for offsets in (world._AXIS_OFFSETS, world._ROW_OFFSETS, world._COL_OFFSETS):
        assert not offsets.flags.writeable


def test_aligned_kernel_parallel_fallback(monkeypatch):
    # About 2**53 m down the road the spacing of floats is 2 m, so ex plus
    # a row offset below 1 m rounds back to ex: the sight lines of rows 0-2
    # have d == 0 along the road, so _slab must take its guarded branch,
    # whose parallel handling gives them their intervals: one obstacle has
    # the ego on the plane of its rear face, which counts as inside its
    # slab along the road; the other has the ego outside that slab but
    # inside its slab across the road (a division by zero would raise
    # under the test suite's warning filter). Each obstacle makes one call
    # on the flat row-then-column layout, with no NaN among its inputs.
    parallel = []

    def counted(q0, q1, h):
        assert all(np.isfinite(q).all() for q in (q0, q1, h))
        zero = q1 - q0 == 0.0
        parallel.append((q1.shape, np.count_nonzero(zero[:GRID_LENGTH]), np.count_nonzero(zero[GRID_LENGTH:])))
        return slab(q0, q1, h)

    slab = world._slab
    monkeypatch.setattr(world, "_slab", counted)
    ex = 2.0**53
    assert ex + 1 / 6 == ex and ex + 1.5 != ex
    scene = Scene(
        obstacles=(
            RectObstacle(center=(ex + 2.0, 3.0), size=(4.0, 2.0)),
            RectObstacle(center=(ex + 10.0, 0.5), size=(4.0, 2.0), yaw=-0.0),
        )
    )
    grid = build_grid(scene, (ex, 0.0, 0.0))
    assert parallel == [((GRID_LENGTH + GRID_WIDTH,), 3, 0)] * 2
    assert np.array_equal(grid, _reference_grid(scene, (ex, 0.0, 0.0)))
    assert (grid == UNOBSERVABLE).any() and (grid == OCCUPIED).any()


def test_slab_branches_agree_bit_for_bit():
    # _slab divides unguarded when no segment is parallel and under
    # np.errstate otherwise. On segments that mix parallel ones (inside,
    # on the face of and outside the slab) with others that enter, leave,
    # cross or miss it, the guarded call must give every other segment
    # the bits the unguarded call gives it alone, and each parallel one
    # [0, 1] from inside the slab and the empty (1, 0) from outside.
    rng = np.random.default_rng(30)
    h = np.repeat(rng.uniform(0.2, 3.0, 20), 12)
    q0 = h * rng.choice([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0], h.size)
    q1 = q0 + rng.uniform(-8.0, 8.0, h.size)
    q1[::3] = q0[::3]
    q0[::12] = q1[::12] = h[::12]  # parallel, on the face
    parallel = q1 == q0
    moving = ~parallel
    outside = np.abs(q0) > h
    assert (parallel & outside).any() and (parallel & ~outside).any() and moving.any()
    lo, hi = world._slab(q0, q1, h)
    lo_alone, hi_alone = world._slab(q0[moving], q1[moving], h[moving])
    assert lo[moving].tobytes() == lo_alone.tobytes()
    assert hi[moving].tobytes() == hi_alone.tobytes()
    assert (lo_alone <= hi_alone).any() and (lo_alone > hi_alone).any()
    assert np.array_equal(lo[parallel], np.where(outside, 1.0, 0.0)[parallel])
    assert np.array_equal(hi[parallel], np.where(outside, 0.0, 1.0)[parallel])


def test_mixed_scene_writes_shadows_before_bodies():
    # A road-aligned body inside a rotated obstacle's shadow and a rotated
    # body inside a road-aligned one's shadow. Each body is listed before
    # the obstacle that shadows it, so writing an obstacle's body right
    # after its own shadow would let the later shadow cover it.
    aligned_body = RectObstacle(center=(25.0, 0.0), size=(2.0, 1.0))
    rotated_body = RectObstacle(center=(25.0, -7.0), size=(2.0, 1.0), yaw=0.4)
    rotated_shade = RectObstacle(center=(10.0, 0.0), size=(2.0, 2.0), yaw=0.3)
    aligned_shade = RectObstacle(center=(10.0, -2.8), size=(2.0, 2.0))
    scene = Scene(obstacles=(aligned_body, rotated_body, rotated_shade, aligned_shade))
    pose = (0.0, 0.0, 0.0)
    grid = build_grid(scene, pose)
    assert np.array_equal(grid, _reference_grid(scene, pose))
    gx = ((np.arange(GRID_LENGTH) + 0.5) / CELLS_PER_M)[:, None]
    gy = ((np.arange(GRID_WIDTH) - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M)[None, :]
    for body, shade in ((aligned_body, rotated_shade), (rotated_body, aligned_shade)):
        inside = _reference_contains(body, gx, gy)
        assert inside.sum() > 10
        assert _reference_blocks_segment(shade, (0.0, 0.0), gx, gy)[inside].all()
        assert (grid[inside] == OCCUPIED).all()


def test_grid_ignores_pedestrian(hidden_scene):
    bare = dataclasses.replace(hidden_scene, pedestrian=Pedestrian())
    pose = (0.0, 0.0, 0.0)
    assert np.array_equal(build_grid(hidden_scene, pose), build_grid(bare, pose))


def test_grid_to_text_raster():
    grid = build_grid(Scene(), (0.0, 0.0, 0.0))
    text = grid_to_text(grid)
    lines = text.splitlines()
    assert len(lines) == GRID_LENGTH
    assert all(len(line) == GRID_WIDTH for line in lines)
    assert set("".join(lines)) == {"0"}


def test_count_recount_consistency(hidden_scene):
    grid = build_grid(hidden_scene, (0.0, 0.0, 0.0))
    assert count_unobservable(grid) == int(np.count_nonzero(grid == UNOBSERVABLE))
    assert count_unobservable(grid) == int((oracle_grid(hidden_scene, (0.0, 0.0, 0.0)) == UNOBSERVABLE).sum())


# --- pedestrian visibility ---------------------------------------------------


def test_visibility_quartet(hidden_scene, exposed_scene):
    start = (0.0, 0.0, 0.0)
    assert pedestrian_visible(dataclasses.replace(hidden_scene, pedestrian=Pedestrian()), start) is False
    assert pedestrian_visible(exposed_scene, start) is True
    assert pedestrian_visible(hidden_scene, start) is False
    shifted = dataclasses.replace(
        hidden_scene,
        pedestrian=Pedestrian(present=True, position=(40.0, 0.4)),
    )
    assert pedestrian_visible(shifted, start) is True


def test_visibility_window_limits(exposed_scene):
    ped = exposed_scene.pedestrian
    assert pedestrian_visible(exposed_scene, (45.0, ped.position[1], 0.0)) is False  # behind
    far = dataclasses.replace(
        exposed_scene, crosswalk=Crosswalk(distance=90.0), pedestrian=Pedestrian(True, (90.0, 1.2))
    )
    assert pedestrian_visible(far, (0.0, 0.0, 0.0)) is False  # beyond 70 m window


def test_visibility_sight_line_along_an_edge():
    # From road (0, 1) to the pedestrian at (40, 1) the sight line runs
    # exactly along the box's near edge y = 1: touching blocks, a gap of
    # 1e-9 m does not.
    pose = (0.0, -1.0, 0.0)  # road y = -east on the default road frame
    ped = Pedestrian(present=True, position=(40.0, 1.0))
    for gap, visible in ((0.0, False), (1e-9, True)):
        box = RectObstacle(center=(20.0, 2.0 + gap), size=(4.0, 2.0))
        scene = Scene(obstacles=(box,), pedestrian=ped)
        assert pedestrian_visible(scene, pose) is visible
        assert _segment_hits_rect(box, (0.0, 1.0), ped.position) is not visible
        ray = box.blocks_segment((0.0, 1.0), np.array([40.0]), np.array([1.0]))
        assert bool(ray[0]) is not visible


def test_visibility_with_several_obstacles_matches_oracle():
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(300):
        scene, pose = random_scene(rng)
        if len(scene.obstacles) < 2:
            continue
        ped = Pedestrian(
            present=True,
            position=(40.0 + float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-7.0, 7.0))),
        )
        scene = dataclasses.replace(scene, pedestrian=ped)
        ex, ey = scene.road.to_road(pose[0], pose[1])
        hits = [_segment_hits_rect(ob, (ex, ey), ped.position) for ob in scene.obstacles]
        for ob, hit in zip(scene.obstacles, hits):
            ray = ob.blocks_segment((ex, ey), np.array([ped.position[0]]), np.array([ped.position[1]]))
            assert ob.blocks_sight_line((ex, ey), ped.position) is bool(ray[0]) is hit
        assert pedestrian_visible(scene, pose) is not any(hits)
        outcomes.add(sum(hits))
    assert {0, 1, 2} <= outcomes  # clear, one blocker, two blockers


def test_visibility_appears_on_approach(hidden_scene):
    seen_at = None
    for x in np.arange(0.0, 40.0, 0.5):
        if pedestrian_visible(hidden_scene, (float(x), 0.0, 0.0)):
            seen_at = float(x)
            break
    assert seen_at is not None and 25.0 < seen_at < 36.0


# --- scene helpers -----------------------------------------------------------


def test_crosswalk_path_distance_straight(hidden_scene):
    north = np.arange(0.0, 60.1, 0.25)
    path = Path(north, np.zeros_like(north))
    assert crosswalk_path_distance(hidden_scene, path) == pytest.approx(40.0, abs=1e-9)


def test_crosswalk_path_distance_on_avoidance_path(hidden_scene):
    path = build_avoidance_path(hidden_scene)
    s_cw = crosswalk_path_distance(hidden_scene, path)
    assert 40.0 <= s_cw < 40.3  # swerving lengthens the run-up slightly


def test_occlusion_band(hidden_scene):
    path = build_avoidance_path(hidden_scene)
    band = crosswalk_occlusion_band(hidden_scene, path)
    assert band is not None
    lo, hi = band
    assert lo == 0.0
    # the line is hidden from 0 m until the curb past the right road edge,
    # where the pedestrian waits, comes into view
    assert hi == pytest.approx(30.75, abs=0.01)


@pytest.mark.parametrize("scene_file", ["scene_hidden.yaml", "scene_exposed.yaml"])
def test_occlusion_band_covers_hidden_pedestrian(repo_root, scene_file):
    # Every path point short of the crosswalk from which the pedestrian is
    # hidden must lie inside the band the model's occluded bins come from.
    scene = load_scene(repo_root / "configs" / scene_file)
    path = build_avoidance_path(scene)
    lo, hi = crosswalk_occlusion_band(scene, path)
    px, _ = scene.road.to_road(path.north, path.east)
    hidden = [
        float(s)
        for s, x, n, e in zip(path.s, px, path.north, path.east)
        if x < scene.crosswalk.distance
        and not pedestrian_visible(scene, (float(n), float(e), path.heading_at(float(s))))
    ]
    assert all(lo <= s <= hi for s in hidden), (min(hidden), max(hidden), (lo, hi))
    if scene_file == "scene_hidden.yaml":
        assert max(hidden) > 30.0  # hidden until about 30.5 m along the path


def test_occlusion_band_empty_scene():
    north = np.arange(0.0, 60.1, 0.25)
    path = Path(north, np.zeros_like(north))
    assert crosswalk_occlusion_band(Scene(), path) is None


def _reference_occlusion_band(scene: Scene, path: Path):
    """crosswalk_occlusion_band as first written: one blocks_segment call
    per path point before the crosswalk and per obstacle, with the point
    as a scalar origin."""
    if not scene.obstacles:
        return None
    y_lo = ROAD_BOUNDS[0] - SIDEWALK_WIDTH
    y_hi = ROAD_BOUNDS[1] + SIDEWALK_WIDTH
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


def test_occlusion_band_matches_per_point_reference(repo_root):
    # The shipped scenes on their avoidance paths, then seeded scenes with
    # 1-3 rotated obstacles on random road frames, each on a wiggly path
    # that may start past the crosswalk.
    cases = []
    for name in ("scene_hidden.yaml", "scene_exposed.yaml"):
        scene = load_scene(repo_root / "configs" / name)
        cases.append((scene, build_avoidance_path(scene)))
    rng = np.random.default_rng(12)
    x = np.arange(0.0, 70.0, SAMPLE_SPACING)
    for _ in range(150):
        scene, _ = random_scene(rng)
        scene = dataclasses.replace(scene, crosswalk=Crosswalk(distance=float(rng.uniform(-5.0, 65.0))))
        y = float(rng.uniform(0.5, 3.0)) * np.sin(x / float(rng.uniform(3.0, 10.0)))
        cases.append((scene, Path(*scene.road.to_inertial(x, y))))
    shadowed = 0
    for scene, path in cases:
        band = crosswalk_occlusion_band(scene, path)
        assert band == _reference_occlusion_band(scene, path)
        shadowed += band is not None
    assert shadowed >= len(cases) // 4  # most comparisons see a shadow


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(pedestrian=Pedestrian(present=True, position=(10.0, 0.0)))
    with pytest.raises(ValueError):
        RectObstacle(center=(0.0, 0.0), size=(0.0, 1.0))


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["near", "far"])
def test_pedestrian_stands_within_the_crosswalk_band(side):
    def scene(offset):
        ped = Pedestrian(present=True, position=(40.0 + side * offset, -2.6))
        return Scene(crosswalk=Crosswalk(distance=40.0), pedestrian=ped)

    scene(CROSSWALK_WIDTH / 2)  # on the band's edge
    with pytest.raises(ValueError, match="bad value for key 'position': .* is outside the crosswalk band"):
        scene(CROSSWALK_WIDTH / 2 + 0.01)


def test_crosswalk_width_is_a_constant():
    # the width is no field, so no scene sets it and a scene file's
    # `width:` is an unknown key
    assert [f.name for f in dataclasses.fields(Crosswalk)] == ["distance"]
    assert Crosswalk().width == Crosswalk(distance=10.0).width == CROSSWALK_WIDTH == 3.0


def test_load_scene_round_trip(repo_root, hidden_scene):
    loaded = load_scene(repo_root / "configs" / "scene_hidden.yaml")
    assert loaded == hidden_scene
    assert loaded.obstacles[0].center == (33.0, -1.5)
    assert loaded.pedestrian.present is True


@pytest.mark.parametrize("scene_file", ["scene_hidden.yaml", "scene_exposed.yaml"])
@pytest.mark.parametrize("key, typo", [("pedestrian", "pedestrain"), ("obstacles", "obstacle"), ("yaw", "yaww")])
def test_load_scene_rejects_unknown_key(tmp_path, repo_root, scene_file, key, typo):
    text = (repo_root / "configs" / scene_file).read_text()
    assert text.count(f"{key}:") == 1
    good = tmp_path / "good.yaml"
    good.write_text(text)
    assert load_scene(good).obstacles
    bad = tmp_path / "typo.yaml"
    bad.write_text(text.replace(f"{key}:", f"{typo}:"))
    with pytest.raises(ValueError, match=f"'{typo}'"):
        load_scene(bad)


def test_load_scene_rejects_empty_file(tmp_path):
    dest = tmp_path / "empty.yaml"
    dest.write_text("")
    with pytest.raises(ValueError, match="empty.yaml: empty scene file"):
        load_scene(dest)


def test_load_scene_requires_obstacle_extents(tmp_path):
    dest = tmp_path / "no_size.yaml"
    dest.write_text("obstacles:\n  - center: [20.0, 1.0]\n")
    with pytest.raises(ValueError, match="no_size.yaml: missing obstacle key 'size'"):
        load_scene(dest)


def test_load_scene_keeps_dataclass_defaults(tmp_path):
    # A file that gives only obstacles takes every other value from Scene().
    dest = tmp_path / "obstacles_only.yaml"
    dest.write_text("obstacles:\n  - center: [20.0, 1.0]\n    size: [4.0, 2.0]\n")
    scene = load_scene(dest)
    default = Scene()
    assert scene == dataclasses.replace(default, obstacles=(RectObstacle((20.0, 1.0), (4.0, 2.0)),))
    assert scene.crosswalk == default.crosswalk == Crosswalk()


def test_rect_obstacle_corners_in_outline_order():
    for ob in (
        RectObstacle(center=(33.0, -1.5), size=(6.0, 1.2)),
        RectObstacle(center=(12.0, 2.0), size=(4.0, 1.5), yaw=0.6),
    ):
        oracle = _rect_corners(ob)  # front left, front right, rear right, rear left
        expected = [oracle[2], oracle[3], oracle[0], oracle[1]]
        assert ob.corners() == [pytest.approx(p, abs=1e-12) for p in expected]


def test_road_frame_round_trip():
    frame = RoadFrame(origin=(3.0, -2.0), heading=0.7)
    x, y = 12.5, -4.2
    north, east = frame.to_inertial(x, y)
    bx, by = frame.to_road(north, east)
    assert float(bx) == pytest.approx(x, abs=1e-12)
    assert float(by) == pytest.approx(y, abs=1e-12)

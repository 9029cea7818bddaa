"""Occupancy grid against a per-cell geometric oracle."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from crosswalk_sim.world import (
    CELLS_PER_M,
    FREE,
    GRID_LENGTH,
    GRID_WIDTH,
    OCCUPIED,
    UNOBSERVABLE,
    Crosswalk,
    Pedestrian,
    RectObstacle,
    RoadFrame,
    Scene,
    bin_observation,
    build_grid,
    count_unobservable,
    crosswalk_occlusion_band,
    crosswalk_path_distance,
    grid_to_text,
    pedestrian_visible,
)
from crosswalk_sim.files import load_scene
from crosswalk_sim.control import build_avoidance_path
from crosswalk_sim.path import Path


# --- independent geometry oracle -------------------------------------------
# Scalar math throughout, and segment/rectangle intersection decided with
# orientation tests rather than the implementation's slab clipping.


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r):
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def _segments_intersect(a, b, c, d):
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
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


# --- reference for the road-aligned case -----------------------------------
# The slab test as it was first written: rotate every point into the
# rectangle's frame, then clip one axis after the other with np.where. The
# implementation must give the same booleans on road-aligned obstacles,
# where it skips the rotation and keeps a row and a column apart.


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
            assert np.array_equal(ob.contains(gx, gy), cells)
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


def test_occupied_wins_over_unobservable():
    near = RectObstacle(center=(10.0, 0.0), size=(1.0, 1.0))
    far = RectObstacle(center=(20.0, 0.0), size=(2.0, 2.0))
    grid = build_grid(Scene(obstacles=(near, far)), (0.0, 0.0, 0.0))
    # cell centered at (20.167, 0.167): inside the far box, shadowed by the near one
    assert grid[60, 24] == OCCUPIED
    assert (grid == UNOBSERVABLE).any()


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


# --- binning ----------------------------------------------------------------


def test_bin_observation_examples():
    assert bin_observation(0) == 0
    assert bin_observation(179) == 0
    assert bin_observation(180) == 1
    assert bin_observation(900) == 5
    assert bin_observation(2500) == 9
    assert bin_observation(GRID_LENGTH * GRID_WIDTH) == 9


def test_bin_observation_rejects_out_of_range():
    with pytest.raises(ValueError):
        bin_observation(-1)
    with pytest.raises(ValueError):
        bin_observation(GRID_LENGTH * GRID_WIDTH + 1)


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
    assert 20.0 < hi < 26.0


def test_occlusion_band_empty_scene():
    north = np.arange(0.0, 60.1, 0.25)
    path = Path(north, np.zeros_like(north))
    assert crosswalk_occlusion_band(Scene(), path) is None


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(lateral_bounds=(2.0, -2.0))
    with pytest.raises(ValueError):
        Scene(pedestrian=Pedestrian(present=True, position=(10.0, 0.0)))
    with pytest.raises(ValueError):
        RectObstacle(center=(0.0, 0.0), size=(0.0, 1.0))


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
    assert (scene.lateral_bounds, scene.lane_width) == (default.lateral_bounds, default.lane_width)
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

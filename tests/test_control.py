"""Speed/steer controllers and the avoidance path builder."""

from __future__ import annotations

import numpy as np
import pytest

from crosswalk_sim import control
from crosswalk_sim.control import (
    AVOID_MARGIN,
    AX_LIMIT,
    LEAD_GAP,
    LEAD_IN,
    PATH_LENGTH,
    RETURN_LENGTH,
    SPEED_GAIN,
    InfeasiblePathError,
    _blend,
    build_avoidance_path,
    speed_control,
    steer_control,
)
from crosswalk_sim.dynamics import MAX_STEER, VehicleState, step_dynamics
from crosswalk_sim.path import Path, resample_by_arc
from crosswalk_sim.world import RectObstacle, Scene

from conftest import straight_path


def road_y(scene: Scene, path: Path) -> np.ndarray:
    _, ys = scene.road.to_road(path.north, path.east)
    return np.asarray(ys)


# --- speed control -----------------------------------------------------------


def test_speed_control_zero_error():
    assert speed_control(0.5, 5.0) == 0.0


def test_speed_control_proportional_region():
    assert speed_control(0.8, 7.5) == pytest.approx(0.5 * SPEED_GAIN)
    assert speed_control(0.8, 8.5) == pytest.approx(-0.5 * SPEED_GAIN)


def test_speed_control_saturates():
    assert speed_control(0.0, 5.0) == -AX_LIMIT
    assert speed_control(1.0, 2.0) == AX_LIMIT


# --- steering ------------------------------------------------------------------


def test_steer_zero_on_path():
    path = straight_path(100.0)
    state = VehicleState(ux=5.0, north=10.0, east=0.0, s=10.0, e=0.0)
    assert steer_control(state, path) == 0.0


def test_steer_sign_corrects_left_offset():
    # left of a northbound path means east < 0; positive steer turns east
    path = straight_path(100.0)
    state = VehicleState(ux=5.0, north=10.0, east=-1.0, s=10.0, e=1.0)
    assert steer_control(state, path) > 0.0
    mirrored = VehicleState(ux=5.0, north=10.0, east=1.0, s=10.0, e=-1.0)
    assert steer_control(mirrored, path) < 0.0


def test_steer_clamped_to_vehicle_limit():
    path = straight_path(100.0)
    state = VehicleState(ux=5.0, north=10.0, east=-8.0, s=10.0, e=8.0)
    assert abs(steer_control(state, path)) <= MAX_STEER


def test_steer_at_path_end_is_finite():
    path = straight_path(20.0)
    state = VehicleState(ux=3.0, north=20.0, east=0.0, s=20.0, e=0.0)
    assert steer_control(state, path) == 0.0


def test_closed_loop_lane_change_tracking(hidden_scene):
    # Drive the avoidance path at 5 m/s, scale 0.5 of V_DESIRED; lateral
    # error stays inside 0.3 m.
    path = build_avoidance_path(hidden_scene)
    state = VehicleState(ux=5.0)
    errors = []
    for _ in range(1150):
        steer = steer_control(state, path)
        ax = speed_control(0.5, state.ux)
        state = step_dynamics(state, steer, ax, path)
        errors.append(abs(state.e))
        if state.s >= path.length - 1.0:
            break
    assert state.s > 50.0  # actually completed the maneuver
    assert max(errors) < 0.3


# --- avoidance path --------------------------------------------------------------


def test_straight_path_without_blocking_obstacle():
    clear = Scene(obstacles=(RectObstacle(center=(30.0, 5.0), size=(2.0, 0.8)),))
    path = build_avoidance_path(clear)
    assert np.max(np.abs(road_y(clear, path))) <= 1e-9
    assert path.length == pytest.approx(60.0, abs=0.1)


def test_swing_clears_centered_obstacle():
    width = 2.0
    scene = Scene(obstacles=(RectObstacle(center=(35.0, 0.0), size=(4.0, width)),))
    path = build_avoidance_path(scene)
    ys = road_y(scene, path)
    assert ys.max() >= width / 2 + AVOID_MARGIN - 1e-6
    assert path.length == pytest.approx(60.0, abs=0.1)
    # returns to the lane center by the end
    assert abs(ys[-1]) < 0.05


def test_path_spacing_uniform(hidden_scene):
    path = build_avoidance_path(hidden_scene)
    gaps = np.hypot(np.diff(path.north), np.diff(path.east))
    assert np.allclose(gaps[:-1], 0.25, atol=0.01)


def test_path_curvature_bounded(hidden_scene):
    path = build_avoidance_path(hidden_scene)
    headings = np.unwrap(
        [path.heading_at(float(s)) for s in np.arange(0.25, path.length, 0.25)]
    )
    curvature = np.abs(np.diff(headings)) / 0.25
    assert curvature.max() <= 0.1


def test_offset_scales_with_margin(hidden_scene):
    # the path's widest swing is the parked vehicle's left edge plus the margin
    (parked,) = hidden_scene.obstacles
    edge = max(y for _, y in parked.corners())
    peak = road_y(hidden_scene, build_avoidance_path(hidden_scene)).max()
    assert peak == pytest.approx(edge + AVOID_MARGIN, abs=1e-9)


def test_infeasible_offset_raises():
    wall = Scene(obstacles=(RectObstacle(center=(35.0, 2.5), size=(4.0, 1.5)),))
    with pytest.raises(InfeasiblePathError):
        build_avoidance_path(wall)


def test_obstacle_too_close_to_start_raises():
    near = Scene(obstacles=(RectObstacle(center=(12.0, 0.0), size=(4.0, 1.5)),))
    with pytest.raises(InfeasiblePathError):
        build_avoidance_path(near)


def test_shipped_scenes_share_one_path(hidden_scene, exposed_scene):
    ph = build_avoidance_path(hidden_scene)
    pe = build_avoidance_path(exposed_scene)
    assert np.array_equal(ph.north, pe.north)
    assert np.array_equal(ph.east, pe.east)


def corner_path(scene: Scene):
    """The avoidance path's (north, east) samples as first written, each
    obstacle's extent read off a fresh list of its corners; None when the
    builder must raise. Reads the road cross-section where the builder
    does, so a patched one applies to both."""
    half_lane = control.LANE_WIDTH / 2
    blocking = []
    for ob in scene.obstacles:
        ys = [y for _, y in ob.corners()]
        if max(ys) > -half_lane and min(ys) < half_lane and ob.center[0] < PATH_LENGTH:
            blocking.append(ob)
    dense_x = np.arange(0.0, PATH_LENGTH + 5.0, 0.05)
    if not blocking:
        ys = np.zeros_like(dense_x)
    else:
        offset = max(max(y for _, y in ob.corners()) for ob in blocking) + AVOID_MARGIN
        x_first = min(min(x for x, _ in ob.corners()) for ob in blocking)
        x_last = max(max(x for x, _ in ob.corners()) for ob in blocking)
        ramp_start = x_first - LEAD_GAP - LEAD_IN
        if offset > control.ROAD_BOUNDS[1] - 0.2 or ramp_start < 0.0:
            return None
        back_start = x_last + LEAD_GAP
        ys = offset * _blend(dense_x, ramp_start, x_first - LEAD_GAP) * (
            1.0 - _blend(dense_x, back_start, back_start + RETURN_LENGTH)
        )
    return scene.road.to_inertial(*resample_by_arc(dense_x, ys, PATH_LENGTH))


def test_rotated_obstacles_path_matches_corner_extents_bitwise(monkeypatch):
    # Rotated obstacles in and beside the lane, on a road widened so that
    # most swings fit: the path built from each obstacle's cached bounds
    # is the one its corners give, bit for bit, and the builder raises
    # exactly where they say it must.
    monkeypatch.setattr(control, "ROAD_BOUNDS", (-1.8, 9.0))
    rng = np.random.default_rng(31)
    built = 0
    for _ in range(200):
        obstacles = tuple(
            RectObstacle(
                center=(float(rng.uniform(25.0, 65.0)), float(rng.uniform(-4.0, 4.0))),
                size=(float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.5, 3.0))),
                yaw=float(rng.uniform(-1.5, 1.5)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        scene = Scene(obstacles=obstacles)
        want = corner_path(scene)
        if want is None:
            with pytest.raises(InfeasiblePathError):
                build_avoidance_path(scene)
            continue
        path = build_avoidance_path(scene)
        assert path.north.tobytes() == want[0].tobytes()
        assert path.east.tobytes() == want[1].tobytes()
        built += 1
    assert 50 < built < 200

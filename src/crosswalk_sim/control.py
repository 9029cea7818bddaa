"""Low-level tracking controllers and the avoidance path builder."""

from __future__ import annotations

import math

import numpy as np

from .dynamics import MAX_STEER, WHEELBASE, VehicleState
from .path import SAMPLE_SPACING, Path, resample_by_arc
from .world import LANE_WIDTH, ROAD_BOUNDS, Scene, crosswalk_path_distance

AX_LIMIT = 3.0  # m/s^2, symmetric accel/brake authority
SPEED_GAIN = 2.0  # 1/s, proportional gain of the speed tracker
AVOID_MARGIN = 2.45  # m the avoidance path clears a blocking obstacle's left edge by

PATH_LENGTH = 60.0  # m
LEAD_IN = 20.0  # m over which the path ramps out to its offset
LEAD_GAP = 10.0  # m between the end of a ramp and the nearest obstacle edge
RETURN_LENGTH = 13.0  # m over which the path ramps back to the lane center

# pure-pursuit lookahead: LOOKAHEAD_GAIN * speed, clamped to [MIN, MAX] m
LOOKAHEAD_GAIN = 0.6
LOOKAHEAD_MIN = 2.0
LOOKAHEAD_MAX = 12.0


class InfeasiblePathError(ValueError):
    """The avoidance offset cannot fit inside the road bounds, or the
    path does not cross the crosswalk line."""


def speed_control(v_desired: float, scale: float, ux: float) -> float:
    """Proportional speed tracking toward scale * v_desired, saturated at
    +/- AX_LIMIT."""
    ax = SPEED_GAIN * (scale * v_desired - ux)
    return float(min(max(ax, -AX_LIMIT), AX_LIMIT))


def steer_control(state: VehicleState, path: Path) -> float:
    """Pure-pursuit steering toward a speed-proportional lookahead point.

    The lookahead target is clamped to the path end and the command to the
    vehicle's steering range.
    """
    lookahead = min(max(LOOKAHEAD_GAIN * state.ux, LOOKAHEAD_MIN), LOOKAHEAD_MAX)
    target_s = min(state.s + lookahead, path.length)
    tn, te = path.point_at(target_s)
    dn = tn - state.north
    de = te - state.east
    dist = math.hypot(dn, de)
    if dist < 1e-6:
        return 0.0
    bearing = math.atan2(de, dn)
    err = _wrap_angle(bearing - state.psi)
    curvature = 2.0 * math.sin(err) / dist
    steer = math.atan(WHEELBASE * curvature)
    return float(min(max(steer, -MAX_STEER), MAX_STEER))


def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def build_avoidance_path(scene: Scene) -> Path:
    """Fixed 60 m reference path that swings left around any obstacle
    blocking the ego lane and returns to the lane center.

    The lateral offset clears the widest blocking obstacle by AVOID_MARGIN,
    ramping with smooth cosine blends; with no blocking obstacle the path
    is straight. Raises InfeasiblePathError when the offset would leave
    the road bounds.
    """
    half_lane = LANE_WIDTH / 2
    blocking = [
        ob.bounds
        for ob in scene.obstacles
        if ob.bounds[3] > -half_lane and ob.bounds[1] < half_lane and ob.center[0] < PATH_LENGTH
    ]
    dense_x = np.arange(0.0, PATH_LENGTH + 5.0, 0.05)
    if not blocking:
        ys = np.zeros_like(dense_x)
    else:
        offset = max(y_max for _, _, _, y_max in blocking) + AVOID_MARGIN
        if offset > ROAD_BOUNDS[1] - 0.2:
            raise InfeasiblePathError(
                f"needed lateral offset {offset:.2f} m exceeds the road bounds"
            )
        x_first = min(x_min for x_min, _, _, _ in blocking)
        x_last = max(x_max for _, _, x_max, _ in blocking)
        ramp_end = x_first - LEAD_GAP
        ramp_start = ramp_end - LEAD_IN
        if ramp_start < 0.0:
            raise InfeasiblePathError("obstacle too close to the path start to swing around")
        back_start = x_last + LEAD_GAP
        back_end = back_start + RETURN_LENGTH
        ys = offset * _blend(dense_x, ramp_start, ramp_end) * (
            1.0 - _blend(dense_x, back_start, back_end)
        )
    xs, ys = resample_by_arc(dense_x, ys, SAMPLE_SPACING, PATH_LENGTH)
    north, east = scene.road.to_inertial(xs, ys)
    return Path(north, east)


def path_to_crosswalk(scene: Scene) -> tuple[Path, float]:
    """The avoidance path and the arc length at which it crosses the
    crosswalk line. Raises InfeasiblePathError as build_avoidance_path
    does, and when the line lies at or behind the path's start or beyond
    its end, where crosswalk_path_distance would clamp it."""
    path = build_avoidance_path(scene)
    px, _ = scene.road.to_road(path.north[[0, -1]], path.east[[0, -1]])
    target = scene.crosswalk.distance
    if not px[0] < target <= px[1]:
        raise InfeasiblePathError(
            f"crosswalk distance {target:g} m is off the path, which reaches x in ({px[0]:.2f}, {px[1]:.2f}] m"
        )
    return path, crosswalk_path_distance(scene, path)


def _blend(x, lo: float, hi: float):
    """Cosine step from 0 before lo to 1 after hi."""
    u = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * u))

"""Low-level tracking controllers and the avoidance path builder."""

from __future__ import annotations

import math

import numpy as np

from .dynamics import VehicleParams, VehicleState
from .path import SAMPLE_SPACING, Path, resample_by_arc
from .world import Scene

AX_LIMIT = 3.0  # m/s^2, symmetric accel/brake authority

PATH_LENGTH = 60.0  # m


class InfeasiblePathError(ValueError):
    """The avoidance offset cannot fit inside the road bounds."""


def speed_control(
    v_desired: float,
    scale: float,
    ux: float,
    kp: float = 1.0,
    ax_limit: float = AX_LIMIT,
) -> float:
    """Proportional speed tracking toward scale * v_desired, saturated at
    +/- ax_limit."""
    ax = kp * (scale * v_desired - ux)
    return float(min(max(ax, -ax_limit), ax_limit))


def steer_control(
    state: VehicleState,
    path: Path,
    params: VehicleParams,
    lookahead_gain: float = 0.6,
    lookahead_min: float = 2.0,
    lookahead_max: float = 12.0,
) -> float:
    """Pure-pursuit steering toward a speed-proportional lookahead point.

    The lookahead target is clamped to the path end and the command to the
    vehicle's steering range.
    """
    lookahead = min(max(lookahead_gain * state.ux, lookahead_min), lookahead_max)
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
    steer = math.atan(params.wheelbase * curvature)
    return float(min(max(steer, -params.max_steer), params.max_steer))


def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def build_avoidance_path(
    scene: Scene,
    margin: float = 2.45,
    lead_in: float = 20.0,
    lead_gap: float = 10.0,
    return_length: float = 13.0,
    total_length: float = PATH_LENGTH,
    spacing: float = SAMPLE_SPACING,
) -> Path:
    """Fixed 60 m reference path that swings left around any obstacle
    blocking the ego lane and returns to the lane center.

    The lateral offset clears the widest blocking obstacle by margin,
    ramping with smooth cosine blends; with no blocking obstacle the path
    is straight. Raises InfeasiblePathError when the offset would leave
    the road bounds.
    """
    half_lane = scene.lane_width / 2
    blocking = [
        ob
        for ob in scene.obstacles
        if _lane_overlap(ob, half_lane) and ob.center[0] < total_length
    ]
    dense_x = np.arange(0.0, total_length + 5.0, 0.05)
    if not blocking:
        ys = np.zeros_like(dense_x)
    else:
        offset = max(_left_edge(ob) for ob in blocking) + margin
        if offset > scene.lateral_bounds[1] - 0.2:
            raise InfeasiblePathError(
                f"needed lateral offset {offset:.2f} m exceeds the road bounds"
            )
        x_first = min(_x_span(ob)[0] for ob in blocking)
        x_last = max(_x_span(ob)[1] for ob in blocking)
        ramp_end = x_first - lead_gap
        ramp_start = ramp_end - lead_in
        if ramp_start < 0.0:
            raise InfeasiblePathError("obstacle too close to the path start to swing around")
        back_start = x_last + lead_gap
        back_end = back_start + return_length
        ys = offset * _blend(dense_x, ramp_start, ramp_end) * (
            1.0 - _blend(dense_x, back_start, back_end)
        )
    xs, ys = resample_by_arc(dense_x, ys, spacing, total_length)
    north, east = scene.road.to_inertial(xs, ys)
    return Path(north, east)


def _blend(x, lo: float, hi: float):
    """Cosine step from 0 before lo to 1 after hi."""
    u = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * u))


def _lane_overlap(obstacle, half_lane: float) -> bool:
    corners = _corners(obstacle)
    return corners[:, 1].max() > -half_lane and corners[:, 1].min() < half_lane


def _left_edge(obstacle) -> float:
    return float(_corners(obstacle)[:, 1].max())


def _x_span(obstacle) -> tuple[float, float]:
    xs = _corners(obstacle)[:, 0]
    return float(xs.min()), float(xs.max())


def _corners(obstacle) -> np.ndarray:
    cx, cy = obstacle.center
    hx, hy = obstacle.size[0] / 2, obstacle.size[1] / 2
    c, s = math.cos(obstacle.yaw), math.sin(obstacle.yaw)
    pts = []
    for sx in (-1, 1):
        for sy in (-1, 1):
            pts.append((cx + sx * hx * c - sy * hy * s, cy + sx * hx * s + sy * hy * c))
    return np.asarray(pts)

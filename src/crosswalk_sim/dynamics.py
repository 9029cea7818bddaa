"""Planar single-track vehicle model with brush-type tires.

States follow the convention [Uy, r, Ux, psi, N, E, s, e]: body-frame
lateral and longitudinal speed, yaw rate, heading measured from north
toward east, inertial position, and arc length / lateral offset relative
to a reference path. Heading grows clockwise in plan view, so positive
yaw rate and positive steer turn the vehicle toward east when driving
north, and the body lateral axis points to the right of travel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .path import Path

GRAVITY = 9.81  # m/s^2

MAX_STEP = 0.1  # s, largest integration step the fixed-step RK4 accepts
SLIP_SPEED_FLOOR = 0.5  # m/s, floor on the speed used in slip-angle kinematics


@dataclass(frozen=True)
class VehicleParams:
    """Parameters of the single-track model (SI units).

    a and b are the distances from the center of gravity to the front and
    rear axle. Drive force goes to the front axle; brake force is split
    front/rear by front_brake_fraction.
    """

    mass: float = 1500.0
    yaw_inertia: float = 2250.0
    a: float = 1.2
    b: float = 1.5
    caf: float = 110000.0  # front cornering stiffness, N/rad
    car: float = 120000.0  # rear cornering stiffness, N/rad
    friction: float = 0.9
    front_brake_fraction: float = 0.7
    max_steer: float = math.pi / 6

    def __post_init__(self):
        if min(self.mass, self.yaw_inertia, self.a, self.b, self.caf, self.car) <= 0:
            raise ValueError("masses, lengths and stiffnesses must be positive")
        if not 0.0 < self.friction <= 2.0:
            raise ValueError("friction out of range")
        if not 0.0 <= self.front_brake_fraction <= 1.0:
            raise ValueError("front_brake_fraction must lie in [0, 1]")

    @property
    def wheelbase(self) -> float:
        return self.a + self.b

    @property
    def fz_front(self) -> float:
        """Static front-axle normal load."""
        return self.mass * GRAVITY * self.b / self.wheelbase

    @property
    def fz_rear(self) -> float:
        """Static rear-axle normal load."""
        return self.mass * GRAVITY * self.a / self.wheelbase


@dataclass(frozen=True)
class VehicleState:
    """Vehicle state snapshot; see module docstring for conventions."""

    uy: float = 0.0  # lateral speed (m/s), positive right
    r: float = 0.0  # yaw rate (rad/s)
    ux: float = 0.0  # longitudinal speed (m/s), >= 0
    psi: float = 0.0  # heading (rad), from north toward east
    north: float = 0.0  # m
    east: float = 0.0  # m
    s: float = 0.0  # arc length along reference path (m)
    e: float = 0.0  # lateral path offset (m), positive left of path


def brush_tire_lateral(alpha: float, fz: float, c_alpha: float, mu: float) -> float:
    """Lateral force of a brush tire at slip angle alpha.

    Cubic below the full-slide angle, saturated at mu * fz beyond it. The
    force opposes the slip, so it is odd in alpha and bounded by friction.
    """
    if not all(map(math.isfinite, (alpha, fz, c_alpha, mu))):
        raise ValueError("tire inputs must be finite")
    if fz <= 0 or c_alpha <= 0 or mu <= 0:
        raise ValueError("fz, c_alpha and mu must be positive")
    z = math.tan(alpha)
    z_slide = 3.0 * mu * fz / c_alpha
    if abs(z) >= z_slide:
        return -math.copysign(mu * fz, z)
    return (
        -c_alpha * z
        + c_alpha**2 / (3.0 * mu * fz) * abs(z) * z
        - c_alpha**3 / (27.0 * mu**2 * fz**2) * z**3
    )


def allocate_longitudinal(ax_command: float, params: VehicleParams) -> tuple[float, float]:
    """Split a commanded acceleration into front/rear axle forces.

    Drive force is front-only (front wheel drive); brake force is split by
    params.front_brake_fraction. The forces always sum to mass * ax_command.
    """
    if not math.isfinite(ax_command):
        raise ValueError("ax_command must be finite")
    total = params.mass * ax_command
    if ax_command >= 0.0:
        return total, 0.0
    front = params.front_brake_fraction * total
    return front, total - front


def _derivatives(y, steer: float, ax_command: float, params: VehicleParams):
    uy, r, ux, psi = y[0], y[1], y[2], y[3]
    ux_eff = max(ux, 0.0)
    # Brakes hold rather than push the vehicle backwards.
    if ux_eff == 0.0 and ax_command < 0.0:
        ax_command = 0.0
    # Slip angles use a floored speed: the lateral modes stiffen as 1/ux,
    # which would destabilise fixed-step integration near standstill.
    ux_slip = max(ux_eff, SLIP_SPEED_FLOOR)
    alpha_f = math.atan2(uy + params.a * r, ux_slip) - steer
    alpha_r = math.atan2(uy - params.b * r, ux_slip)
    fyf = brush_tire_lateral(alpha_f, params.fz_front, params.caf, params.friction)
    fyr = brush_tire_lateral(alpha_r, params.fz_rear, params.car, params.friction)
    # Below the floor the tires are barely rolling; fade their lateral
    # force out linearly so standstill is an equilibrium even under steer.
    if ux_eff < SLIP_SPEED_FLOOR:
        taper = ux_eff / SLIP_SPEED_FLOOR
        fyf *= taper
        fyr *= taper
    fxf, fxr = allocate_longitudinal(ax_command, params)
    m = params.mass
    cos_d = math.cos(steer)
    sin_d = math.sin(steer)
    front_lat = fyf * cos_d + fxf * sin_d
    duy = (front_lat + fyr) / m - r * ux
    dr = (params.a * front_lat - params.b * fyr) / params.yaw_inertia
    dux = (fxf * cos_d - fyf * sin_d + fxr) / m + r * uy
    dpsi = r
    dn = ux * math.cos(psi) - uy * math.sin(psi)
    de = ux * math.sin(psi) + uy * math.cos(psi)
    return (duy, dr, dux, dpsi, dn, de)


def step_dynamics(
    state: VehicleState,
    steer: float,
    ax_command: float,
    dt: float,
    params: VehicleParams,
    path: Path,
) -> VehicleState:
    """Advance the vehicle one fixed RK4 step and re-project onto the path.

    dt must lie in (0, 0.1]. Longitudinal speed is clamped at zero so the
    model never reverses; (s, e) come from projecting the new position.
    """
    if not (0.0 < dt <= MAX_STEP):
        raise ValueError(f"dt must lie in (0, {MAX_STEP}]")
    if not all(map(math.isfinite, (steer, ax_command))):
        raise ValueError("steer and ax_command must be finite")

    y0 = (state.uy, state.r, state.ux, state.psi, state.north, state.east)
    k1 = _derivatives(y0, steer, ax_command, params)
    y1 = tuple(y0[i] + 0.5 * dt * k1[i] for i in range(6))
    k2 = _derivatives(y1, steer, ax_command, params)
    y2 = tuple(y0[i] + 0.5 * dt * k2[i] for i in range(6))
    k3 = _derivatives(y2, steer, ax_command, params)
    y3 = tuple(y0[i] + dt * k3[i] for i in range(6))
    k4 = _derivatives(y3, steer, ax_command, params)
    out = [
        y0[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        for i in range(6)
    ]
    out[2] = max(out[2], 0.0)
    proj = path.project(out[4], out[5])
    return VehicleState(
        uy=out[0],
        r=out[1],
        ux=out[2],
        psi=out[3],
        north=out[4],
        east=out[5],
        s=proj.s,
        e=proj.e,
    )

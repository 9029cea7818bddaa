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

# The one vehicle every run drives (SI units). A and B are the distances
# from the center of gravity to the front and rear axle. Drive force goes to
# the front axle; brake force is split front/rear by FRONT_BRAKE_FRACTION.
MASS = 1500.0  # kg
YAW_INERTIA = 2250.0  # kg m^2
A = 1.2  # m
B = 1.5  # m
CAF = 110000.0  # front cornering stiffness, N/rad
CAR = 120000.0  # rear cornering stiffness, N/rad
FRICTION = 0.9
FRONT_BRAKE_FRACTION = 0.7
MAX_STEER = math.pi / 6  # rad

WHEELBASE = A + B
FZ_FRONT = MASS * GRAVITY * B / WHEELBASE  # static front-axle normal load, N
FZ_REAR = MASS * GRAVITY * A / WHEELBASE  # static rear-axle normal load, N


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


def _tire(fz: float, c_alpha: float, mu: float):
    """The unchecked lateral force curve of one tire as a function of the
    slip angle, its constants worked out once. Python multiplies left to
    right, so k2 * abs(z) * z is the written-out formula's
    c_alpha**2 / (3 mu fz) * abs(z) * z to the bit, and so is k3 * z**3."""
    z_slide = 3.0 * mu * fz / c_alpha
    mu_fz = mu * fz
    k2 = c_alpha**2 / (3.0 * mu * fz)
    k3 = c_alpha**3 / (27.0 * mu**2 * fz**2)

    def lateral(alpha: float) -> float:
        z = math.tan(alpha)
        if abs(z) >= z_slide:
            return -math.copysign(mu_fz, z)
        return -c_alpha * z + k2 * abs(z) * z - k3 * z**3

    return lateral


_front_lateral = _tire(FZ_FRONT, CAF, FRICTION)
_rear_lateral = _tire(FZ_REAR, CAR, FRICTION)


def allocate_longitudinal(ax_command: float) -> tuple[float, float]:
    """Split a commanded acceleration into front/rear axle forces.

    Drive force is front-only (front wheel drive); brake force is split by
    FRONT_BRAKE_FRACTION. The forces always sum to MASS * ax_command.
    """
    if not math.isfinite(ax_command):
        raise ValueError("ax_command must be finite")
    total = MASS * ax_command
    if ax_command >= 0.0:
        return total, 0.0
    front = FRONT_BRAKE_FRACTION * total
    return front, total - front


def _derivatives(uy, r, ux, psi, steer, cos_d, sin_d, ax_command, drive):
    """(duy, dr, dux, dpsi, dn, de) at one RK4 stage; cos_d and sin_d are
    those of steer, and drive is allocate_longitudinal(ax_command)."""
    ux_eff = 0.0 if ux < 0.0 else ux  # max(ux, 0.0), -0.0 and NaN included
    # Brakes hold rather than push the vehicle backwards.
    if ux_eff == 0.0 and ax_command < 0.0:
        fxf, fxr = 0.0, 0.0  # allocate_longitudinal(0.0)
    else:
        fxf, fxr = drive
    # Slip angles use a floored speed: the lateral modes stiffen as 1/ux,
    # which would destabilise fixed-step integration near standstill.
    ux_slip = SLIP_SPEED_FLOOR if ux_eff < SLIP_SPEED_FLOOR else ux_eff
    fyf = _front_lateral(math.atan2(uy + A * r, ux_slip) - steer)
    fyr = _rear_lateral(math.atan2(uy - B * r, ux_slip))
    # Below the floor the tires are barely rolling; fade their lateral
    # force out linearly so standstill is an equilibrium even under steer.
    if ux_eff < SLIP_SPEED_FLOOR:
        taper = ux_eff / SLIP_SPEED_FLOOR
        fyf *= taper
        fyr *= taper
    front_lat = fyf * cos_d + fxf * sin_d
    cos_p = math.cos(psi)
    sin_p = math.sin(psi)
    return (
        (front_lat + fyr) / MASS - r * ux,
        (A * front_lat - B * fyr) / YAW_INERTIA,
        (fxf * cos_d - fyf * sin_d + fxr) / MASS + r * uy,
        r,
        ux * cos_p - uy * sin_p,
        ux * sin_p + uy * cos_p,
    )


def step_dynamics(
    state: VehicleState,
    steer: float,
    ax_command: float,
    dt: float,
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

    # Steer and the command hold over the step, so every stage shares them.
    cos_d, sin_d, drive = math.cos(steer), math.sin(steer), allocate_longitudinal(ax_command)
    half = 0.5 * dt
    uy, r, ux, psi, north, east = state.uy, state.r, state.ux, state.psi, state.north, state.east
    k1uy, k1r, k1ux, k1psi, k1n, k1e = _derivatives(
        uy, r, ux, psi,
        steer, cos_d, sin_d, ax_command, drive,
    )
    k2uy, k2r, k2ux, k2psi, k2n, k2e = _derivatives(
        uy + half * k1uy, r + half * k1r, ux + half * k1ux, psi + half * k1psi,
        steer, cos_d, sin_d, ax_command, drive,
    )
    k3uy, k3r, k3ux, k3psi, k3n, k3e = _derivatives(
        uy + half * k2uy, r + half * k2r, ux + half * k2ux, psi + half * k2psi,
        steer, cos_d, sin_d, ax_command, drive,
    )
    k4uy, k4r, k4ux, k4psi, k4n, k4e = _derivatives(
        uy + dt * k3uy, r + dt * k3r, ux + dt * k3ux, psi + dt * k3psi,
        steer, cos_d, sin_d, ax_command, drive,
    )
    sixth = dt / 6.0
    ux_new = ux + sixth * (k1ux + 2.0 * k2ux + 2.0 * k3ux + k4ux)
    north_new = north + sixth * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
    east_new = east + sixth * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
    proj = path.project(north_new, east_new)
    return VehicleState(
        uy=uy + sixth * (k1uy + 2.0 * k2uy + 2.0 * k3uy + k4uy),
        r=r + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
        ux=0.0 if ux_new < 0.0 else ux_new,  # max(ux_new, 0.0)
        psi=psi + sixth * (k1psi + 2.0 * k2psi + 2.0 * k3psi + k4psi),
        north=north_new,
        east=east_new,
        s=proj.s,
        e=proj.e,
    )

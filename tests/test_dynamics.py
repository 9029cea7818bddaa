"""Tire curve, force allocation, and RK4 integration checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosswalk_sim.dynamics import (
    A,
    B,
    CAF,
    CAR,
    FRICTION,
    FRONT_BRAKE_FRACTION,
    FZ_FRONT,
    FZ_REAR,
    GRAVITY,
    MASS,
    MAX_STEER,
    MAX_STEP,
    SLIP_SPEED_FLOOR,
    WHEELBASE,
    YAW_INERTIA,
    VehicleState,
    allocate_longitudinal,
    step_dynamics,
)
from conftest import brush_tire_lateral, straight_path


# --- tire curve -----------------------------------------------------------


def test_tire_zero_slip_zero_force():
    assert brush_tire_lateral(0.0, 7000.0, 110000.0, 0.9) == 0.0


def test_tire_saturates_at_friction_limit():
    fz, mu = 7000.0, 0.9
    assert brush_tire_lateral(0.5, fz, 110000.0, mu) == -mu * fz
    assert brush_tire_lateral(-0.5, fz, 110000.0, mu) == mu * fz


def test_tire_small_slip_matches_numerical_slope():
    # Oracle: central-difference slope of the curve at zero.
    fz, ca, mu = 7000.0, 110000.0, 0.9
    h = 1e-7
    slope = (
        brush_tire_lateral(h, fz, ca, mu) - brush_tire_lateral(-h, fz, ca, mu)
    ) / (2 * h)
    alpha = 1e-3
    force = brush_tire_lateral(alpha, fz, ca, mu)
    assert force == pytest.approx(slope * alpha, rel=0.01)
    assert slope == pytest.approx(-ca, rel=1e-3)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-1.2, 1.2),
    fz=st.floats(1000.0, 20000.0),
    ca=st.floats(2e4, 3e5),
    mu=st.floats(0.2, 1.5),
)
def test_tire_bounded_odd_and_opposing(alpha, fz, ca, mu):
    force = brush_tire_lateral(alpha, fz, ca, mu)
    assert abs(force) <= mu * fz + 1e-9
    mirrored = brush_tire_lateral(-alpha, fz, ca, mu)
    assert mirrored == pytest.approx(-force, abs=1e-9)
    assert force * alpha <= 1e-12  # force opposes the slip


def test_tire_input_validation():
    with pytest.raises(ValueError):
        brush_tire_lateral(math.nan, 7000.0, 110000.0, 0.9)
    with pytest.raises(ValueError):
        brush_tire_lateral(0.1, -1.0, 110000.0, 0.9)
    with pytest.raises(ValueError):
        brush_tire_lateral(0.1, 7000.0, 110000.0, 0.0)


# --- longitudinal allocation ----------------------------------------------


def test_allocation_examples():
    assert allocate_longitudinal(0.0) == (0.0, 0.0)
    # drive is front-only: +2 m/s^2 at 1500 kg -> 3000 N front
    assert allocate_longitudinal(2.0) == (3000.0, 0.0)
    # braking splits 70/30: -2 m/s^2 -> (-2100, -900)
    front, rear = allocate_longitudinal(-2.0)
    assert front == pytest.approx(-2100.0)
    assert rear == pytest.approx(-900.0)


@settings(max_examples=200, deadline=None)
@given(ax=st.floats(-8.0, 8.0))
def test_allocation_sums_to_total(ax):
    front, rear = allocate_longitudinal(ax)
    assert front + rear == pytest.approx(MASS * ax, abs=1e-9)


# --- integration ----------------------------------------------------------


def test_rest_is_an_equilibrium():
    path = straight_path(300.0)
    state = VehicleState()
    for _ in range(50):
        state = step_dynamics(state, 0.0, 0.0, 0.01, path)
    assert state == VehicleState()


def test_unit_acceleration_for_one_second():
    path = straight_path(300.0)
    state = VehicleState()
    for _ in range(100):
        state = step_dynamics(state, 0.0, 1.0, 0.01, path)
    assert state.ux == pytest.approx(1.0, abs=1e-6)
    assert state.uy == pytest.approx(0.0, abs=1e-12)
    assert state.r == pytest.approx(0.0, abs=1e-12)
    assert state.e == pytest.approx(0.0, abs=1e-9)
    assert state.north == pytest.approx(0.5, abs=1e-6)


def test_steady_state_yaw_rate_matches_kinematics():
    # Hold 5 m/s with a speed loop, apply a small constant steer, and
    # compare the settled yaw rate with Ux * delta / wheelbase.
    path = straight_path(300.0)
    state = VehicleState(ux=5.0)
    steer = 0.02
    rates = []
    for i in range(600):
        ax = 2.0 * (5.0 - state.ux)
        state = step_dynamics(state, steer, ax, 0.01, path)
        if i >= 500:
            rates.append(state.r)
    expected = 5.0 * steer / WHEELBASE
    assert np.mean(rates) == pytest.approx(expected, rel=0.05)


def test_braking_never_reverses():
    path = straight_path(300.0)
    state = VehicleState(ux=0.5)
    speeds = []
    for _ in range(100):
        state = step_dynamics(state, 0.0, -3.0, 0.01, path)
        speeds.append(state.ux)
    assert min(speeds) >= 0.0
    assert state.ux == 0.0


def test_standstill_stays_put_under_brakes_and_steer():
    # Saturated steer at rest must not excite the lateral states.
    path = straight_path(300.0)
    state = VehicleState()
    for _ in range(200):
        state = step_dynamics(state, 0.3, -2.0, 0.01, path)
    assert state.ux == 0.0
    assert abs(state.uy) < 1e-9
    assert abs(state.north) < 1e-9


def test_step_validation():
    path = straight_path(300.0)
    state = VehicleState()
    with pytest.raises(ValueError):
        step_dynamics(state, 0.0, 0.0, 0.2, path)
    with pytest.raises(ValueError):
        step_dynamics(state, 0.0, 0.0, 0.0, path)
    with pytest.raises(ValueError):
        step_dynamics(state, math.nan, 0.0, 0.01, path)


# --- bit-identity with the written-out step ------------------------------
#
# The reference below is the step as first written: the tire formula in
# full on every call, a state tuple and list comprehensions per RK4 stage.
# step_dynamics computes the tire constants once and unrolls the stages,
# and must give the same bits.


def reference_tire(alpha, fz, c_alpha, mu):
    z = math.tan(alpha)
    z_slide = 3.0 * mu * fz / c_alpha
    if abs(z) >= z_slide:
        return -math.copysign(mu * fz, z)
    return (
        -c_alpha * z
        + c_alpha**2 / (3.0 * mu * fz) * abs(z) * z
        - c_alpha**3 / (27.0 * mu**2 * fz**2) * z**3
    )


def reference_allocation(ax_command):
    total = MASS * ax_command
    if ax_command >= 0.0:
        return total, 0.0
    front = FRONT_BRAKE_FRACTION * total
    return front, total - front


def reference_derivatives(y, steer, ax_command):
    uy, r, ux, psi = y[0], y[1], y[2], y[3]
    ux_eff = max(ux, 0.0)
    if ux_eff == 0.0 and ax_command < 0.0:
        ax_command = 0.0
    ux_slip = max(ux_eff, SLIP_SPEED_FLOOR)
    alpha_f = math.atan2(uy + A * r, ux_slip) - steer
    alpha_r = math.atan2(uy - B * r, ux_slip)
    fyf = reference_tire(alpha_f, FZ_FRONT, CAF, FRICTION)
    fyr = reference_tire(alpha_r, FZ_REAR, CAR, FRICTION)
    if ux_eff < SLIP_SPEED_FLOOR:
        taper = ux_eff / SLIP_SPEED_FLOOR
        fyf *= taper
        fyr *= taper
    fxf, fxr = reference_allocation(ax_command)
    cos_d = math.cos(steer)
    sin_d = math.sin(steer)
    front_lat = fyf * cos_d + fxf * sin_d
    duy = (front_lat + fyr) / MASS - r * ux
    dr = (A * front_lat - B * fyr) / YAW_INERTIA
    dux = (fxf * cos_d - fyf * sin_d + fxr) / MASS + r * uy
    dn = ux * math.cos(psi) - uy * math.sin(psi)
    de = ux * math.sin(psi) + uy * math.cos(psi)
    return (duy, dr, dux, r, dn, de)


def reference_step(state, steer, ax_command, dt):
    """(uy, r, ux, psi, north, east) after one RK4 step."""
    y0 = (state.uy, state.r, state.ux, state.psi, state.north, state.east)
    k1 = reference_derivatives(y0, steer, ax_command)
    y1 = tuple(y0[i] + 0.5 * dt * k1[i] for i in range(6))
    k2 = reference_derivatives(y1, steer, ax_command)
    y2 = tuple(y0[i] + 0.5 * dt * k2[i] for i in range(6))
    k3 = reference_derivatives(y2, steer, ax_command)
    y3 = tuple(y0[i] + dt * k3[i] for i in range(6))
    k4 = reference_derivatives(y3, steer, ax_command)
    out = [y0[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(6)]
    out[2] = max(out[2], 0.0)
    return out


def bits(values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0


def signed_zero_or(strategy):
    return st.one_of(st.sampled_from([0.0, -0.0]), strategy)


BELOW_FLOOR = math.nextafter(SLIP_SPEED_FLOOR, 0.0)
STRAIGHT = straight_path(300.0)


@settings(max_examples=400, deadline=None)
@given(
    uy=signed_zero_or(st.floats(-6.0, 6.0)),
    r=signed_zero_or(st.floats(-2.0, 2.0)),
    ux=signed_zero_or(st.one_of(st.sampled_from([BELOW_FLOOR, SLIP_SPEED_FLOOR]), st.floats(0.0, 25.0))),
    psi=signed_zero_or(st.floats(-math.pi, math.pi)),
    north=st.floats(-5.0, 305.0),
    east=st.floats(-6.0, 6.0),
    steer=signed_zero_or(st.floats(-MAX_STEER, MAX_STEER)),
    ax=signed_zero_or(st.floats(-8.0, 8.0)),
    dt=st.one_of(st.just(0.01), st.floats(1e-4, MAX_STEP)),
)
# standstill under brakes and full steer
@example(uy=0.0, r=0.0, ux=0.0, psi=0.0, north=0.0, east=0.0, steer=0.3, ax=-2.0, dt=0.01)
# creeping just below the slip-speed floor, where the tire forces taper
@example(uy=0.1, r=0.05, ux=BELOW_FLOOR, psi=0.2, north=10.0, east=0.5, steer=0.1, ax=-1.0, dt=0.01)
# both tires saturated: |tan alpha| is far past 3 mu fz / c_alpha
@example(uy=3.0, r=-1.0, ux=1.0, psi=0.3, north=20.0, east=-1.0, steer=0.5, ax=2.0, dt=0.01)
# every component a negative zero
@example(uy=-0.0, r=-0.0, ux=-0.0, psi=-0.0, north=-0.0, east=-0.0, steer=-0.0, ax=-0.0, dt=0.01)
def test_step_matches_written_out_step_bit_for_bit(uy, r, ux, psi, north, east, steer, ax, dt):
    state = VehicleState(uy=uy, r=r, ux=ux, psi=psi, north=north, east=east)
    got = step_dynamics(state, steer, ax, dt, STRAIGHT)
    ref = reference_step(state, steer, ax, dt)
    assert bits((got.uy, got.r, got.ux, got.psi, got.north, got.east)) == bits(ref)
    proj = STRAIGHT.project(ref[4], ref[5])
    assert bits((got.s, got.e)) == bits((proj.s, proj.e))


@settings(max_examples=300, deadline=None)
@given(
    alpha=signed_zero_or(st.floats(-1.5, 1.5)),
    fz=st.floats(1000.0, 20000.0),
    ca=st.floats(2e4, 3e5),
    mu=st.floats(0.2, 1.5),
)
def test_tire_matches_written_out_formula_bit_for_bit(alpha, fz, ca, mu):
    assert bits([brush_tire_lateral(alpha, fz, ca, mu)]) == bits([reference_tire(alpha, fz, ca, mu)])


# --- parameters -----------------------------------------------------------


def test_normal_loads_sum_to_weight():
    assert FZ_FRONT + FZ_REAR == pytest.approx(MASS * GRAVITY)

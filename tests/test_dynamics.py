"""Tire curve, force allocation, and RK4 integration checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswalk_sim.dynamics import (
    VehicleParams,
    VehicleState,
    allocate_longitudinal,
    brush_tire_lateral,
    step_dynamics,
)
from crosswalk_sim.files import load_vehicle_params
from crosswalk_sim.path import Path

PARAMS = VehicleParams()


def straight_path(length: float = 300.0) -> Path:
    north = np.arange(0.0, length + 0.125, 0.25)
    return Path(north, np.zeros_like(north))


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
    assert allocate_longitudinal(0.0, PARAMS) == (0.0, 0.0)
    # drive is front-only: +2 m/s^2 at 1500 kg -> 3000 N front
    assert allocate_longitudinal(2.0, PARAMS) == (3000.0, 0.0)
    # braking splits 70/30: -2 m/s^2 -> (-2100, -900)
    front, rear = allocate_longitudinal(-2.0, PARAMS)
    assert front == pytest.approx(-2100.0)
    assert rear == pytest.approx(-900.0)


@settings(max_examples=200, deadline=None)
@given(ax=st.floats(-8.0, 8.0))
def test_allocation_sums_to_total(ax):
    front, rear = allocate_longitudinal(ax, PARAMS)
    assert front + rear == pytest.approx(PARAMS.mass * ax, abs=1e-9)


# --- integration ----------------------------------------------------------


def test_rest_is_an_equilibrium():
    path = straight_path()
    state = VehicleState()
    for _ in range(50):
        state = step_dynamics(state, 0.0, 0.0, 0.01, PARAMS, path)
    assert state == VehicleState()


def test_unit_acceleration_for_one_second():
    path = straight_path()
    state = VehicleState()
    for _ in range(100):
        state = step_dynamics(state, 0.0, 1.0, 0.01, PARAMS, path)
    assert state.ux == pytest.approx(1.0, abs=1e-6)
    assert state.uy == pytest.approx(0.0, abs=1e-12)
    assert state.r == pytest.approx(0.0, abs=1e-12)
    assert state.e == pytest.approx(0.0, abs=1e-9)
    assert state.north == pytest.approx(0.5, abs=1e-6)


def test_steady_state_yaw_rate_matches_kinematics():
    # Hold 5 m/s with a speed loop, apply a small constant steer, and
    # compare the settled yaw rate with Ux * delta / wheelbase.
    path = straight_path()
    state = VehicleState(ux=5.0)
    steer = 0.02
    rates = []
    for i in range(600):
        ax = 2.0 * (5.0 - state.ux)
        state = step_dynamics(state, steer, ax, 0.01, PARAMS, path)
        if i >= 500:
            rates.append(state.r)
    expected = 5.0 * steer / PARAMS.wheelbase
    assert np.mean(rates) == pytest.approx(expected, rel=0.05)


def test_braking_never_reverses():
    path = straight_path()
    state = VehicleState(ux=0.5)
    speeds = []
    for _ in range(100):
        state = step_dynamics(state, 0.0, -3.0, 0.01, PARAMS, path)
        speeds.append(state.ux)
    assert min(speeds) >= 0.0
    assert state.ux == 0.0


def test_standstill_stays_put_under_brakes_and_steer():
    # Saturated steer at rest must not excite the lateral states.
    path = straight_path()
    state = VehicleState()
    for _ in range(200):
        state = step_dynamics(state, 0.3, -2.0, 0.01, PARAMS, path)
    assert state.ux == 0.0
    assert abs(state.uy) < 1e-9
    assert abs(state.north) < 1e-9


def test_step_validation():
    path = straight_path()
    state = VehicleState()
    with pytest.raises(ValueError):
        step_dynamics(state, 0.0, 0.0, 0.2, PARAMS, path)
    with pytest.raises(ValueError):
        step_dynamics(state, 0.0, 0.0, 0.0, PARAMS, path)
    with pytest.raises(ValueError):
        step_dynamics(state, math.nan, 0.0, 0.01, PARAMS, path)


# --- parameters -----------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(mass=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(friction=0.0)
    with pytest.raises(ValueError):
        VehicleParams(front_brake_fraction=1.5)


def test_normal_loads_sum_to_weight():
    assert PARAMS.fz_front + PARAMS.fz_rear == pytest.approx(PARAMS.mass * 9.81)


def test_load_vehicle_params_round_trip(repo_root):
    loaded = load_vehicle_params(repo_root / "configs" / "vehicle.yaml")
    assert loaded == PARAMS


def test_load_vehicle_params_rejects_unknown_key(tmp_path):
    dest = tmp_path / "vehicle.yaml"
    dest.write_text("mass: 1500\nwingspan: 3\n")
    with pytest.raises(ValueError):
        load_vehicle_params(dest)


def test_load_vehicle_params_missing_file(repo_root):
    with pytest.raises(FileNotFoundError):
        load_vehicle_params(repo_root / "configs" / "vehicel.yaml")

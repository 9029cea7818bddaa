"""Acceptance suite: ten pass/fail checks covering solver equivalence,
filter equivalence, the full-model solve, the four scenario outcomes, the
grid oracle and the randomized invariant suite.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from crosswalk_sim.control import build_avoidance_path
from crosswalk_sim.dynamics import VehicleState, step_dynamics
from crosswalk_sim.executor import belief_update
from crosswalk_sim.files import TRACE_FIELDS, ScenarioConfig
from crosswalk_sim.harness import run_scenario
from crosswalk_sim.pomdp import build_crosswalk_model
from crosswalk_sim.qmdp import value_iteration
from crosswalk_sim.world import GRID_LENGTH, GRID_WIDTH, UNOBSERVABLE, build_grid, count_unobservable, crosswalk_occlusion_band

from conftest import brush_tire_lateral, dense_model, state_likelihoods, straight_path
from test_world import oracle_grid, random_scene


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


def rest_before_line(trace) -> bool:
    ux = trace.columns["ux"]
    s = trace.columns["s"]
    cw = trace.metadata["crosswalk_s"]
    return bool(abs(ux[-1]) < 0.05 and np.all(s < cw))


# --- 1: solver oracle equivalence ---------------------------------------------


def test_criterion_1_solver_equivalence():
    with criterion(1, "value iteration matches brute-force DP on 50 random MDPs"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(50):
            n_s = int(rng.integers(2, 11))
            n_a = int(rng.integers(1, 5))
            t = rng.dirichlet(np.ones(n_s), size=(n_a, n_s))
            r = rng.uniform(-1.0, 1.0, size=(n_s, n_a))
            model = dense_model(t, r, discount=0.9)
            q = value_iteration(model, tol=1e-7)
            rmax = float(np.abs(r).max()) or 1.0
            horizon = math.ceil(math.log(1e-7 * 0.1 / rmax) / math.log(0.9))
            oracle = np.zeros((n_s, n_a))
            for _ in range(horizon):
                v = oracle.max(axis=1)
                nxt = np.empty_like(oracle)
                for a in range(n_a):
                    nxt[:, a] = r[:, a] + 0.9 * t[a] @ v
                oracle = nxt
            assert float(np.max(np.abs(q - oracle))) <= 1e-6
        assert time.perf_counter() - start < 1.0


# --- 2: filter oracle equivalence ----------------------------------------------


def test_criterion_2_filter_equivalence():
    with criterion(2, "belief updates match exhaustive Bayes on 50 random POMDPs"):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_s = int(rng.integers(2, 9))
            n_a = int(rng.integers(1, 4))
            n_o = int(rng.integers(2, 5))
            t = rng.dirichlet(np.ones(n_s), size=(n_a, n_s))
            o = rng.dirichlet(np.ones(n_o), size=n_s)
            belief = rng.dirichlet(np.ones(n_s))
            belief /= belief.sum()
            for _ in range(20):
                action = int(rng.integers(n_a))
                predicted = t[action].T @ belief
                obs_probs = predicted @ o
                obs = int(rng.choice(n_o, p=obs_probs / obs_probs.sum()))
                got = belief_update(belief, t[action], o[:, obs])
                # exhaustive enumeration with plain loops
                pred = [0.0] * n_s
                for s in range(n_s):
                    for s2 in range(n_s):
                        pred[s2] += belief[s] * t[action][s][s2]
                weighted = [pred[s] * o[s][obs] for s in range(n_s)]
                mass = sum(weighted)
                want = np.array([w / mass for w in weighted])
                assert float(np.abs(got - want).sum()) <= 1e-12
                belief = got


# --- 3: full-model solve ---------------------------------------------------------


def test_criterion_3_full_model_solve(model_config):
    with criterion(3, "2662-state solve under 30 s with bounded alpha vectors"):
        model = build_crosswalk_model(model_config)
        start = time.perf_counter()
        q = value_iteration(model, tol=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        gamma = model_config.discount
        bound = 100.0 + 55.0 * gamma / (1.0 - gamma)
        assert np.all(np.isfinite(q))
        assert float(q.max()) <= bound


# --- 4-8: scenario outcomes -------------------------------------------------------


def test_criterion_4_oracle_yields_identically(run_matrix):
    with criterion(4, "oracle rests before the line; hidden and exposed traces match"):
        hidden = run_matrix["oracle_hidden"]
        exposed = run_matrix["oracle_exposed"]
        assert hidden.metadata["duration"] == 15.0
        assert rest_before_line(hidden)
        assert rest_before_line(exposed)
        for name in TRACE_FIELDS:
            if name == "detected":
                continue  # ground-truth visibility legitimately differs
            assert np.array_equal(
                hidden.columns[name], exposed.columns[name], equal_nan=True
            )


def test_criterion_5_baseline_hidden_unsafe(run_matrix, hidden_scene):
    with criterion(5, "baseline slows for the occlusion then crosses above 1 m/s"):
        trace = run_matrix["baseline_hidden"]
        ux = trace.columns["ux"]
        s = trace.columns["s"]
        cw = trace.metadata["crosswalk_s"]
        v_des = trace.metadata["v_desired"]
        band = crosswalk_occlusion_band(hidden_scene, build_avoidance_path(hidden_scene))
        assert band is not None
        moving = np.nonzero(ux > 1.0)[0]
        assert moving.size > 0
        k0 = int(moving[0])
        in_zone = (s >= band[0]) & (s <= band[1])
        in_zone[:k0] = False
        assert in_zone.any()
        assert float(ux[in_zone].min()) < 0.7 * v_des  # slows in the shadow
        crossed = np.nonzero(s >= cw)[0]
        assert crossed.size > 0  # reaches the crosswalk
        kc = int(crossed[0])
        assert ux[kc] > 1.0  # still moving across the line
        assert float(ux[k0:kc].min()) > 0.05  # never stops on approach


def test_criterion_6_baseline_exposed_stops(run_matrix):
    with criterion(6, "baseline stops before the line for a visible pedestrian"):
        trace = run_matrix["baseline_exposed"]
        assert trace.metadata["duration"] == 15.0
        assert trace.termination == "duration"
        assert rest_before_line(trace)


def test_criterion_7_pomdp_hidden_conservative(run_matrix, hidden_scene):
    with criterion(7, "pomdp never crosses in 12 s and obeys the occluded cap"):
        trace = run_matrix["pomdp_hidden"]
        assert trace.metadata["duration"] == 12.0
        s = trace.columns["s"]
        ux = trace.columns["ux"]
        cw = trace.metadata["crosswalk_s"]
        assert np.all(s < cw)
        band = crosswalk_occlusion_band(hidden_scene, build_avoidance_path(hidden_scene))
        occluded = (s >= band[0]) & (s <= band[1])
        assert float(ux[occluded].max()) <= 7.0


def test_criterion_8_pomdp_exposed_stops(run_matrix):
    with criterion(8, "pomdp stops before the line for a visible pedestrian"):
        trace = run_matrix["pomdp_exposed"]
        assert trace.metadata["duration"] == 15.0
        assert rest_before_line(trace)


# --- 9: grid oracle -----------------------------------------------------------------


def test_criterion_9_grid_oracle():
    with criterion(9, "20 randomized scenes match the per-cell grid oracle exactly"):
        rng = np.random.default_rng(99)
        for _ in range(20):
            scene, pose = random_scene(rng)
            grid = build_grid(scene, pose)
            assert grid.shape == (GRID_LENGTH, GRID_WIDTH)
            expected = oracle_grid(scene, pose)
            assert count_unobservable(grid) == int((expected == UNOBSERVABLE).sum())
            assert np.array_equal(grid, expected)


# --- 10: invariant suite --------------------------------------------------------------


def test_criterion_10_invariant_suite(crosswalk_model, exposed_scene):
    with criterion(10, "randomized invariants (rows, beliefs, tires, determinism)"):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)

        # stochastic rows: all 29282 transition rows sum to one
        for mat in crosswalk_model.transitions:
            sums = np.asarray(mat.sum(axis=1)).ravel()
            assert float(np.max(np.abs(sums - 1.0))) <= 1e-12

        # belief normalization over 1000 random feasible updates of the
        # full model, each state's likelihood expanded from P(detected | d, c)
        t, o = crosswalk_model.transitions, state_likelihoods(crosswalk_model.detection)
        n = crosswalk_model.num_states
        belief = np.full(n, 1 / n)
        for _ in range(1000):
            action = int(rng.integers(crosswalk_model.num_actions))
            obs = int(rng.integers(o.shape[1]))
            belief = belief_update(belief, t[action], o[:, obs])
            assert abs(float(belief.sum()) - 1.0) <= 1e-9
            if float(belief.max()) > 0.999999:
                belief = np.full(n, 1 / n)

        # tire saturation on 2000 random operating points
        for _ in range(2000):
            alpha = float(rng.uniform(-1.5, 1.5))
            fz = float(rng.uniform(500.0, 20000.0))
            ca = float(rng.uniform(1e4, 3e5))
            mu = float(rng.uniform(0.1, 1.5))
            force = brush_tire_lateral(alpha, fz, ca, mu)
            assert abs(force) <= mu * fz + 1e-9

        # determinism: 1000 repeated dynamics steps are bit-identical
        path = straight_path(100.0)
        for _ in range(1000):
            state = VehicleState(
                uy=float(rng.uniform(-1, 1)),
                r=float(rng.uniform(-0.5, 0.5)),
                ux=float(rng.uniform(0, 12)),
                psi=float(rng.uniform(-0.3, 0.3)),
                north=float(rng.uniform(0, 50)),
                east=float(rng.uniform(-3, 3)),
            )
            steer = float(rng.uniform(-0.4, 0.4))
            ax = float(rng.uniform(-3, 3))
            once = step_dynamics(state, steer, ax, path)
            twice = step_dynamics(state, steer, ax, path)
            assert once == twice

        # determinism of a full closed-loop run
        cfg = ScenarioConfig(scene=exposed_scene, policy="baseline", duration=2.0)
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        for name in TRACE_FIELDS:
            assert np.array_equal(
                first.columns[name], second.columns[name], equal_nan=True
            )

        assert time.perf_counter() - start < 60.0

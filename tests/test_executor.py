"""Belief filter against exhaustive Bayes, the stopping ramp, and the
three policies' decide rules."""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np
import pytest

from crosswalk_sim.dynamics import VehicleState
from crosswalk_sim.executor import (
    STOP_DECEL,
    SensorReading,
    ZeroBeliefError,
    belief_update,
    init_belief,
    pomdp_step,
    stopping_scale,
)
from crosswalk_sim import harness
from crosswalk_sim.harness import CONTROL_DT, BaselinePolicy, OraclePolicy, QmdpPolicy
from crosswalk_sim.pomdp import (
    ACTION_SCALES,
    CELL_LENGTH,
    CROSSING_ONSET,
    CROSSING_PERSIST,
    DETECT_GIVEN_CLEAR,
    DETECT_GIVEN_CROSSING,
    EPOCH,
    NUM_ACTIONS,
    NUM_CROSSING,
    NUM_STATES,
    NUM_V,
    SPEED_UNIT,
    TERMINAL_D,
)
from crosswalk_sim.qmdp import best_action
from crosswalk_sim.world import Scene

from conftest import dense_model, state_index


def exhaustive_bayes(belief, action, obs, t_dense, o_dense):
    """Oracle posterior by explicit double loops over the state space."""
    n = len(belief)
    predicted = [0.0] * n
    for s in range(n):
        for s2 in range(n):
            predicted[s2] += belief[s] * t_dense[action][s][s2]
    weighted = [predicted[s] * o_dense[s][obs] for s in range(n)]
    mass = sum(weighted)
    return np.array([w / mass for w in weighted])


def random_pomdp(rng, max_states=8, max_actions=3, max_obs=4):
    n_s = int(rng.integers(2, max_states + 1))
    n_a = int(rng.integers(1, max_actions + 1))
    n_o = int(rng.integers(2, max_obs + 1))
    t = rng.dirichlet(np.ones(n_s), size=(n_a, n_s))
    o = rng.dirichlet(np.ones(n_o), size=n_s)
    r = rng.uniform(-1, 1, size=(n_s, n_a))
    model = dense_model(t, r, discount=0.9, observation=o)
    return model, t, o


# --- initial belief ------------------------------------------------------------


def test_init_belief_uniform(crosswalk_model):
    b = init_belief(crosswalk_model)
    assert b.shape == (NUM_STATES,)
    assert np.all(b == 1.0 / NUM_STATES)
    assert abs(float(b.sum()) - 1.0) <= 1e-12
    entropy = -float(np.sum(b * np.log(b)))
    assert entropy == pytest.approx(math.log(NUM_STATES), abs=1e-9)


# --- belief updates ------------------------------------------------------------


def test_two_state_bayes_by_hand():
    # Identity dynamics, likelihoods 0.8 / 0.2, uniform prior: the posterior
    # is (0.8, 0.2) by direct normalization.
    t = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    o = np.array([[0.8, 0.2], [0.2, 0.8]])
    model = dense_model(t, np.zeros((2, 1)), 0.9, observation=o)
    posterior = belief_update(np.array([0.5, 0.5]), 0, 0, model)
    assert np.allclose(posterior, [0.8, 0.2], atol=1e-15)


def test_terminal_point_mass_is_fixed(crosswalk_model):
    s = state_index(0, TERMINAL_D, 0)
    b = np.zeros(NUM_STATES)
    b[s] = 1.0
    for obs in range(crosswalk_model.num_obs):
        posterior = belief_update(b, 4, obs, crosswalk_model)
        assert posterior[s] == 1.0
        assert float(posterior.sum()) == pytest.approx(1.0, abs=1e-12)


def test_random_pomdps_match_exhaustive_bayes():
    rng = np.random.default_rng(77)
    for _ in range(50):
        model, t, o = random_pomdp(rng)
        belief = rng.dirichlet(np.ones(model.num_states))
        belief /= belief.sum()
        for _ in range(20):
            action = int(rng.integers(model.num_actions))
            # sample an observation that has support under the prediction
            predicted = t[action].T @ belief
            obs_probs = predicted @ o
            obs = int(rng.choice(model.num_obs, p=obs_probs / obs_probs.sum()))
            got = belief_update(belief, action, obs, model)
            want = exhaustive_bayes(belief, action, obs, t, o)
            assert float(np.abs(got - want).sum()) <= 1e-12
            belief = got
            assert abs(float(belief.sum()) - 1.0) <= 1e-12


def test_impossible_observation_raises():
    t = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    o = np.array([[1.0, 0.0], [1.0, 0.0]])  # obs 1 can never be seen
    model = dense_model(t, np.zeros((2, 1)), 0.9, observation=o)
    with pytest.raises(ZeroBeliefError):
        belief_update(np.array([0.5, 0.5]), 0, 1, model)


def test_belief_update_validation(crosswalk_model):
    good = init_belief(crosswalk_model)
    with pytest.raises(ValueError):
        belief_update(good[:-1], 0, 0, crosswalk_model)
    with pytest.raises(ValueError):
        belief_update(good * 2.0, 0, 0, crosswalk_model)
    with pytest.raises(ValueError):
        belief_update(good, 0, crosswalk_model.num_obs, crosswalk_model)


def test_repeated_detections_raise_crossing_probability(crosswalk_model):
    belief = init_belief(crosswalk_model)
    half = NUM_STATES // 2
    p_prev = float(belief[half:].sum())
    for _ in range(20):
        belief = belief_update(belief, 0, 1, crosswalk_model)
        p_now = float(belief[half:].sum())
        if p_prev < 0.999:
            assert p_now > p_prev
        p_prev = p_now
    assert p_prev > 0.5


def test_count_bin_changes_no_belief_or_decision(crosswalk_model, policy):
    # The observation as it was before the count bin left it: symbol
    # det * 10 + bin, each bin with likelihood 1/10 in every state. That
    # factor cancels in the Bayes step, so filtering on the detection flag
    # alone gives the same beliefs, up to rounding, and the same actions.
    # Ten runs of 30 decisions with random actions, flags and bins, each
    # from the uniform belief. Near the terminal states every action is
    # worth about the same, and where the best two tie to within 1e-12
    # the rounding picks the action, so those steps are not compared.
    NUM_COUNT_BINS = 10
    twenty = np.repeat(crosswalk_model.observation / NUM_COUNT_BINS, NUM_COUNT_BINS, axis=1)
    reference = dataclasses.replace(crosswalk_model, observation=twenty)
    rng = np.random.default_rng(0)
    compared = 0
    for _ in range(10):
        belief = want = init_belief(crosswalk_model)
        for _ in range(30):
            action = int(rng.integers(NUM_ACTIONS))
            detected, count_bin = int(rng.integers(2)), int(rng.integers(NUM_COUNT_BINS))
            belief = belief_update(belief, action, detected, crosswalk_model)
            want = belief_update(want, action, detected * NUM_COUNT_BINS + count_bin, reference)
            np.testing.assert_allclose(belief, want, rtol=1e-14, atol=0)
            runner_up, top = np.sort(policy.alphas @ want)[-2:]
            if top - runner_up > 1e-12 * abs(top):
                assert best_action(policy, belief) == best_action(policy, want)
                compared += 1
    assert compared > 250


# --- pomdp_step ------------------------------------------------------------------


def test_pomdp_step_acts_before_update(crosswalk_model, policy):
    belief = init_belief(crosswalk_model)
    expected_scale = policy.scales[best_action(policy, belief)]
    scale, posterior = pomdp_step(
        belief, policy, SensorReading(0, False), crosswalk_model
    )
    assert scale == expected_scale
    assert posterior.shape == belief.shape
    assert not np.array_equal(posterior, belief)


def test_pomdp_step_scale_on_ladder(crosswalk_model, policy):
    belief = init_belief(crosswalk_model)
    rng = np.random.default_rng(4)
    for _ in range(10):
        reading = SensorReading(int(rng.integers(0, 2000)), bool(rng.integers(2)))
        scale, belief = pomdp_step(belief, policy, reading, crosswalk_model)
        assert scale in ACTION_SCALES


def test_known_crossing_ahead_commands_stop(crosswalk_model, policy):
    # Certain active crossing a few meters ahead: the solved policy holds.
    b = np.zeros(NUM_STATES)
    b[state_index(3, 40, 1)] = 1.0
    scale, _ = pomdp_step(b, policy, SensorReading(900, True), crosswalk_model)
    assert scale == 0.0


# --- QmdpPolicy: (v, d) from the car, a belief over c alone -------------------------


def qmdp_decide(monkeypatch, crosswalk_model, policy, state, belief=None, detected=False):
    """The scale a fresh QmdpPolicy commands at state, from the belief over
    c when one is given, and the alpha columns it hands pomdp_step."""
    handed = []

    def spy(prior, rows, reading, model):
        handed.append(rows.alphas)
        return pomdp_step(prior, rows, reading, model)

    monkeypatch.setattr(harness, "pomdp_step", spy)
    qmdp = QmdpPolicy(crosswalk_model, policy)
    if belief is not None:
        qmdp.belief = np.array(belief, dtype=float)
    scale = qmdp.decide(state, SensorReading(0, detected))
    assert len(handed) == 1
    return scale, handed[0]


def q_rows(policy, v, d):
    """The alpha columns of states (v, d, 0) and (v, d, 1)."""
    return policy.alphas[:, [state_index(v, d, 0), state_index(v, d, 1)]]


def test_qmdp_policy_reads_its_speed_bin_from_the_car(monkeypatch, crosswalk_model, policy):
    # 1 m/s bins, rounded; a speed above the top bin's 10 m/s reads bin 10
    for ux, v in ((0.0, 0), (-0.3, 0), (3.4, 3), (3.6, 4), (10.0, 10), (10.6, 10), (14.0, 10)):
        _, rows = qmdp_decide(monkeypatch, crosswalk_model, policy, VehicleState(ux=ux, s=12.2))
        assert np.array_equal(rows, q_rows(policy, v, 24)), ux


def test_qmdp_policy_reads_its_distance_bin_from_the_car(monkeypatch, crosswalk_model, policy):
    # 0.5 m bins, floored; from 60 m on the car reads the terminal bin,
    # where every alpha is 0, so it takes action 0 whatever its belief
    for s, d in ((-0.2, 0), (0.0, 0), (0.49, 0), (0.5, 1), (20.2, 40), (59.9, 119)):
        _, rows = qmdp_decide(monkeypatch, crosswalk_model, policy, VehicleState(ux=5.0, s=s))
        assert np.array_equal(rows, q_rows(policy, 5, d)), s
    for s in (60.0, 61.3, 500.0):
        scale, rows = qmdp_decide(monkeypatch, crosswalk_model, policy, VehicleState(ux=5.0, s=s), belief=[0.3, 0.7])
        assert np.array_equal(rows, q_rows(policy, 5, TERMINAL_D)), s
        assert not rows.any()
        assert scale == ACTION_SCALES[0]


def test_qmdp_policy_holds_for_a_known_crossing_ahead(monkeypatch, crosswalk_model, policy):
    # (v, d) = (3, 40), 3 m/s at 20 m, with the crossing certain: hold
    state = VehicleState(ux=3.0, s=20.2)
    scale, rows = qmdp_decide(monkeypatch, crosswalk_model, policy, state, belief=[0.0, 1.0], detected=True)
    assert np.array_equal(rows, q_rows(policy, 3, 40))
    assert scale == 0.0


def test_qmdp_policy_filters_the_crossing_flag_alone(crosswalk_model, policy):
    # the belief is over c, started at 0.5, and keeps no resets
    qmdp = QmdpPolicy(crosswalk_model, policy)
    assert np.array_equal(qmdp.belief, [0.5, 0.5])
    assert qmdp.crossing.num_states == NUM_CROSSING
    assert np.array_equal(qmdp.crossing.observation, crosswalk_model.observation[[0, state_index(0, 0, 1)]])
    qmdp.decide(VehicleState(), SensorReading(0, False))
    # predicted 0.5, then 0.2 * 0.5 / (0.2 * 0.5 + 0.5 * 0.5)
    assert qmdp.p_crossing == pytest.approx(2.0 / 7.0, rel=1e-15)
    assert qmdp.resets == 0


def test_qmdp_policy_logs_each_decision_only_at_debug(crosswalk_model, policy, caplog, monkeypatch):
    # one DEBUG record per decision: where the car is, its bins, the
    # belief before and after, the scale and the Q margin to the
    # runner-up; below DEBUG the record is never built
    caplog.set_level(logging.DEBUG, logger="crosswalk_sim.harness")
    qmdp = QmdpPolicy(crosswalk_model, policy)
    scale = qmdp.decide(VehicleState(ux=3.0, s=20.2), SensorReading(0, True))
    runner_up, top = np.sort(q_rows(policy, 3, 40) @ [0.5, 0.5])[-2:]
    assert caplog.messages == [
        f"decision at s=20.20 m, (v, d)=(3, 40): p_crossing 0.5000 -> {qmdp.p_crossing:.4f}, "
        f"scale {scale:.1f}, Q margin {top - runner_up:.4g}"
    ]
    caplog.set_level(logging.INFO, logger="crosswalk_sim.harness")
    monkeypatch.setattr(harness.log, "debug", lambda *args: pytest.fail("record built below DEBUG"))
    qmdp.decide(VehicleState(ux=3.0, s=20.2), SensorReading(0, True))


def decision_rows(trace):
    """The rows of a trace at which its policy decided: one every EPOCH."""
    return np.arange(0, len(trace), round(EPOCH / CONTROL_DT))


@pytest.mark.parametrize("name", ["pomdp_hidden", "pomdp_exposed"])
def test_p_crossing_is_the_two_state_recursion(run_matrix, name):
    # P(c = 1 | the detection flags read so far), started at 0.5: at each
    # decision the crossing chain's prediction, then Bayes on the flag;
    # held in the trace until the next decision
    trace = run_matrix[name]
    rows = decision_rows(trace)
    p, want = 0.5, []
    for detected in trace.columns["detected"][rows]:
        predicted = p * CROSSING_PERSIST + (1.0 - p) * CROSSING_ONSET
        if detected:
            hit, clear = DETECT_GIVEN_CROSSING, DETECT_GIVEN_CLEAR
        else:
            hit, clear = 1.0 - DETECT_GIVEN_CROSSING, 1.0 - DETECT_GIVEN_CLEAR
        p = predicted * hit / (predicted * hit + (1.0 - predicted) * clear)
        want.append(p)
    got = trace.columns["p_crossing"]
    np.testing.assert_allclose(got[rows], want, rtol=1e-12, atol=0)
    assert np.array_equal(got, np.repeat(got[rows], rows[1])[: len(trace)])


@pytest.mark.parametrize("name", ["pomdp_hidden", "pomdp_exposed"])
def test_each_decision_is_the_two_row_argmax(run_matrix, policy, name):
    # the action maximises (1 - p) Q[(v, d, 0), a] + p Q[(v, d, 1), a] at
    # the car's own bins, p the belief before the decision; an action
    # whose score ties the top one to rounding may stand in for it
    trace = run_matrix[name]
    col = trace.columns
    rows = decision_rows(trace)
    prior = np.concatenate(([0.5], col["p_crossing"][rows][:-1]))
    clear = 0
    for k, p in zip(rows, prior):
        v = min(max(round(col["ux"][k] / SPEED_UNIT), 0), NUM_V - 1)
        d = min(max(math.floor(col["s"][k] / CELL_LENGTH), 0), TERMINAL_D)
        scores = q_rows(policy, v, d) @ [1.0 - p, p]
        action = ACTION_SCALES.index(col["scale"][k])
        runner_up, top = np.sort(scores)[-2:]
        tie = 1e-12 * abs(top)
        assert scores[action] >= top - tie, k
        if top - runner_up > tie:
            assert action == int(np.argmax(scores)), k
            clear += 1
    assert clear > 0


# --- scale heuristics --------------------------------------------------------------


def baseline_count_scale(count):
    """The baseline's scale before it has seen a pedestrian: the count rule alone."""
    return BaselinePolicy(10.0, 40.0).decide(VehicleState(), SensorReading(count, False))


def test_baseline_scale_examples():
    assert baseline_count_scale(0) == 1.0
    assert baseline_count_scale(179) == 1.0
    assert baseline_count_scale(180) == 8.0 / 9.0
    assert baseline_count_scale(1800) == 0.0
    assert baseline_count_scale(2500) == 0.0
    assert baseline_count_scale(10080) == 0.0  # every cell of the 210 x 48 grid
    assert baseline_count_scale(5000) == 0.0
    assert baseline_count_scale(900) == pytest.approx(4.0 / 9.0)


def test_baseline_scale_monotone():
    scales = [baseline_count_scale(c) for c in range(0, 2000, 50)]
    assert all(a >= b for a, b in zip(scales, scales[1:]))


def test_stopping_scale_rules():
    # STOP_DECEL is 2 m/s^2, so the ramp reaches 10 m/s 25 m before the stop
    assert STOP_DECEL == 2.0
    assert stopping_scale(-1.0, 10.0) == 0.0
    assert stopping_scale(0.0, 10.0) == 0.0
    assert stopping_scale(25.0, 10.0) == 1.0  # sqrt(100)/10
    assert stopping_scale(12.5, 10.0) == pytest.approx(math.sqrt(50.0) / 10.0)
    with pytest.raises(ValueError):
        stopping_scale(5.0, 0.0)


def test_stopping_scale_kinematic_bound():
    rng = np.random.default_rng(12)
    for _ in range(500):
        dist = float(rng.uniform(0.01, 60.0))
        v_des = float(rng.uniform(1.0, 15.0))
        v_cmd = stopping_scale(dist, v_des) * v_des
        assert v_cmd**2 / (2.0 * STOP_DECEL) <= dist + 1e-9


def oracle_scale(scene, state, crosswalk_s, v_desired):
    # the oracle reads ground truth only, so any reading gives one scale
    oracle = OraclePolicy(scene, crosswalk_s, v_desired)
    scales = {oracle.decide(state, SensorReading(c, d)) for c in (0, 900, 5000) for d in (False, True)}
    assert len(scales) == 1
    return scales.pop()


def test_oracle_scale_rules(hidden_scene):
    state = VehicleState(ux=8.0, s=10.0)
    # no pedestrian -> full speed everywhere
    empty = Scene()
    assert oracle_scale(empty, state, 40.0, 10.0) == 1.0
    # past the crosswalk -> full speed again
    past = VehicleState(ux=8.0, s=45.0)
    assert oracle_scale(hidden_scene, past, 40.0, 10.0) == 1.0
    # approaching with a pedestrian present -> ramp toward a stop
    near = oracle_scale(hidden_scene, VehicleState(s=30.0), 40.0, 10.0)
    farther = oracle_scale(hidden_scene, VehicleState(s=10.0), 40.0, 10.0)
    assert 0.0 < near < farther <= 1.0
    at_margin = oracle_scale(hidden_scene, VehicleState(s=35.0), 40.0, 10.0)
    assert at_margin == 0.0


def test_oracle_scale_respects_stopping_distance(hidden_scene):
    # commanded speed always stoppable at 3 m/s^2 before the line
    for s in np.arange(0.0, 39.9, 0.5):
        scale = oracle_scale(hidden_scene, VehicleState(s=float(s)), 40.0, 10.0)
        v_cmd = scale * 10.0
        assert v_cmd**2 / (2.0 * 3.0) <= max(40.0 - s, 0.0) + 1e-9

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
    pomdp_step,
    stopping_scale,
)
from crosswalk_sim import executor, harness
from crosswalk_sim.harness import CONTROL_DT, BaselinePolicy, OraclePolicy, QmdpPolicy
from crosswalk_sim.pomdp import (
    ACTION_SCALES,
    CELL_LENGTH,
    CROSSING_CHAIN,
    CROSSING_ONSET,
    CROSSING_PERSIST,
    DETECT_GIVEN_CLEAR,
    DETECT_GIVEN_CROSSING,
    EPOCH,
    NUM_D,
    NUM_STATES,
    NUM_V,
    SPEED_UNIT,
    TERMINAL_D,
)
from crosswalk_sim.world import Scene

from conftest import state_index, state_likelihoods


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
    """Dense transitions t (A, S, S) and observation likelihoods o (S, O)."""
    n_s = int(rng.integers(2, max_states + 1))
    n_a = int(rng.integers(1, max_actions + 1))
    n_o = int(rng.integers(2, max_obs + 1))
    t = rng.dirichlet(np.ones(n_s), size=(n_a, n_s))
    o = rng.dirichlet(np.ones(n_o), size=n_s)
    return t, o


def crossing_filter(crosswalk_model, d=0):
    """The two-state filter a pomdp run uses at distance bin d: the
    crossing chain and the detection likelihoods of c = 0 and c = 1, as
    (c, detected)."""
    p = crosswalk_model.detection[d]
    return CROSSING_CHAIN, np.column_stack((1.0 - p, p))


# --- belief updates ------------------------------------------------------------


def test_two_state_bayes_by_hand():
    # Identity dynamics, likelihoods 0.8 / 0.2, uniform prior: the posterior
    # is (0.8, 0.2) by direct normalization.
    posterior = belief_update(np.array([0.5, 0.5]), np.eye(2), np.array([0.8, 0.2]))
    assert np.allclose(posterior, [0.8, 0.2], atol=1e-15)


def test_terminal_point_mass_is_fixed(crosswalk_model):
    s = state_index(0, TERMINAL_D, 0)
    b = np.zeros(NUM_STATES)
    b[s] = 1.0
    for likelihood in state_likelihoods(crosswalk_model.detection).T:
        posterior = belief_update(b, crosswalk_model.transitions[4], likelihood)
        assert posterior[s] == 1.0
        assert float(posterior.sum()) == pytest.approx(1.0, abs=1e-12)


def test_random_pomdps_match_exhaustive_bayes():
    rng = np.random.default_rng(77)
    for _ in range(50):
        t, o = random_pomdp(rng)
        belief = rng.dirichlet(np.ones(len(o)))
        belief /= belief.sum()
        for _ in range(20):
            action = int(rng.integers(len(t)))
            # sample an observation that has support under the prediction
            predicted = t[action].T @ belief
            obs_probs = predicted @ o
            obs = int(rng.choice(o.shape[1], p=obs_probs / obs_probs.sum()))
            got = belief_update(belief, t[action], o[:, obs])
            want = exhaustive_bayes(belief, action, obs, t, o)
            assert float(np.abs(got - want).sum()) <= 1e-12
            belief = got
            assert abs(float(belief.sum()) - 1.0) <= 1e-12


def test_impossible_observation_raises():
    o = np.array([[1.0, 0.0], [1.0, 0.0]])  # obs 1 can never be seen
    with pytest.raises(ZeroBeliefError):
        belief_update(np.array([0.5, 0.5]), np.eye(2), o[:, 1])


def test_belief_update_validation(crosswalk_model):
    chain, observation = crossing_filter(crosswalk_model)
    good, likelihood = np.array([0.5, 0.5]), observation[:, 0]
    for belief in (good[:-1], np.full(3, 1 / 3), good * 2.0, np.array([1.2, -0.2])):
        with pytest.raises(ValueError):
            belief_update(belief, chain, likelihood)
    # a likelihood over another state space, such as the full model's
    for other in (likelihood[:1], state_likelihoods(crosswalk_model.detection)[:, 0]):
        with pytest.raises(ValueError):
            belief_update(good, chain, other)


def test_nan_belief_is_rejected(crosswalk_model):
    # NaN compares false both ways, so each check must fail on it rather
    # than pass: the belief is neither nonnegative nor summing to one
    chain, observation = crossing_filter(crosswalk_model)
    for belief in ([math.nan, 0.5], [math.nan, 1.0], [0.0, math.nan], [math.nan, math.nan]):
        with pytest.raises(ValueError, match="normalized"):
            belief_update(np.array(belief), chain, observation[:, 0])


def test_nan_likelihood_leaves_no_posterior(crosswalk_model):
    # a NaN likelihood makes the posterior mass NaN, which counts as none
    chain, _ = crossing_filter(crosswalk_model)
    for likelihood in ([math.nan, 0.8], [0.5, math.nan], [math.nan, math.nan]):
        with pytest.raises(ZeroBeliefError):
            belief_update(np.array([0.5, 0.5]), chain, np.array(likelihood))


def test_repeated_detections_raise_crossing_probability(crosswalk_model):
    chain, observation = crossing_filter(crosswalk_model)
    belief = np.array([0.5, 0.5])
    p_prev = float(belief[1])
    for _ in range(20):
        belief = belief_update(belief, chain, observation[:, 1])
        p_now = float(belief[1])
        if p_prev < 0.999:
            assert p_now > p_prev
        p_prev = p_now
    assert p_prev > 0.5


def test_count_bin_changes_no_belief_or_decision(crosswalk_model, policy):
    # The observation as it was before the count bin left it: symbol
    # det * 10 + bin, each bin with likelihood 1/10 in every state. That
    # factor cancels in the Bayes step, so on the two-state filter a run
    # uses, scaling both likelihoods by 1/10 gives the same beliefs, up to
    # rounding, and the same actions. Twenty runs of 30 decisions at random
    # bins (v, d) and flags, each from the uniform belief. Where the best
    # two actions tie to within 1e-12 the rounding picks the action, so
    # those decisions, about a third of them, are not compared.
    NUM_COUNT_BINS = 10
    rng = np.random.default_rng(0)
    compared = 0
    for _ in range(20):
        belief = want = np.full(2, 0.5)
        for _ in range(30):
            v, d, detected = int(rng.integers(NUM_V)), int(rng.integers(TERMINAL_D)), int(rng.integers(2))
            chain, observation = crossing_filter(crosswalk_model, d)
            rows = q_rows(policy, v, d)
            runner_up, top = np.sort(rows @ want)[-2:]
            got, belief = pomdp_step(belief, rows, chain, observation[:, detected])
            action, want = pomdp_step(want, rows, chain, observation[:, detected] / NUM_COUNT_BINS)
            np.testing.assert_allclose(belief, want, rtol=1e-14, atol=0)
            if top - runner_up > 1e-12 * abs(top):
                assert got == action
                compared += 1
    assert compared > 250


# --- pomdp_step ------------------------------------------------------------------


def test_pomdp_step_acts_before_update(crosswalk_model, policy):
    # at some bins a detection flips the greedy action; the step takes the
    # one of the belief it was given, then returns the update's posterior
    chain, observation = crossing_filter(crosswalk_model)
    prior, detected = np.array([0.5, 0.5]), observation[:, 1]
    flipped = 0
    for v in range(NUM_V):
        for d in range(TERMINAL_D):
            rows = q_rows(policy, v, d)
            action, posterior = pomdp_step(prior, rows, chain, detected)
            assert action == int(np.argmax(rows @ prior))
            assert np.array_equal(posterior, belief_update(prior, chain, detected))
            flipped += action != int(np.argmax(rows @ posterior))
    assert flipped > 0


def test_pomdp_step_scale_on_ladder(crosswalk_model, policy):
    # the action indexes the scale ladder, at random bins and flags
    chain, observation = crossing_filter(crosswalk_model)
    belief = np.array([0.5, 0.5])
    rng = np.random.default_rng(4)
    for _ in range(10):
        rows = q_rows(policy, int(rng.integers(NUM_V)), int(rng.integers(TERMINAL_D)))
        action, belief = pomdp_step(belief, rows, chain, observation[:, int(rng.integers(2))])
        assert type(action) is int and policy.scales[action] in ACTION_SCALES
        assert abs(float(belief.sum()) - 1.0) <= 1e-12


def test_known_crossing_ahead_commands_stop(crosswalk_model, policy):
    # Certain active crossing a few meters ahead: the solved policy holds.
    chain, observation = crossing_filter(crosswalk_model)
    action, _ = pomdp_step(np.array([0.0, 1.0]), q_rows(policy, 3, 40), chain, observation[:, 1])
    assert ACTION_SCALES[action] == 0.0


# --- QmdpPolicy: (v, d) from the car, a belief over c alone -------------------------


def qmdp_decide(monkeypatch, crosswalk_model, policy, state, belief=None, detected=False):
    """The scale a fresh QmdpPolicy commands at state, from the belief over
    c when one is given, and the alpha columns it hands pomdp_step."""
    handed = []

    def spy(prior, rows, transition, likelihood):
        handed.append(rows)
        return pomdp_step(prior, rows, transition, likelihood)

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
    # the belief is over c, started at 0.5, on the crossing chain and the
    # model's own detection rates, read at each decision's states
    qmdp = QmdpPolicy(crosswalk_model, policy)
    assert np.array_equal(qmdp.belief, [0.5, 0.5])
    assert np.array_equal(
        CROSSING_CHAIN, [[1.0 - CROSSING_ONSET, CROSSING_ONSET], [1.0 - CROSSING_PERSIST, CROSSING_PERSIST]]
    )
    assert not CROSSING_CHAIN.flags.writeable
    assert qmdp.detection is crosswalk_model.detection
    qmdp.decide(VehicleState(), SensorReading(0, False))
    # predicted 0.5, then 0.2 * 0.5 / (0.2 * 0.5 + 0.5 * 0.5)
    assert qmdp.p_crossing == pytest.approx(2.0 / 7.0, rel=1e-15)


def test_qmdp_policy_weighs_detection_at_the_cars_bins(crosswalk_model, policy):
    # a model whose detection rate while clear grows with the distance bin
    # d: a detection at (v, d) = (3, 40), 3 m/s at 20 m, is weighed by the
    # rates of d = 40, 0.3 and 0.9. From the predicted 0.5 that gives
    # 0.9 * 0.5 / (0.9 * 0.5 + 0.3 * 0.5) = 0.75; the rates of d = 0, 0.1
    # and 0.9, would give 0.9
    d = np.arange(NUM_D)
    detection = np.column_stack((0.1 + d / 200, np.full(NUM_D, 0.9)))
    model = dataclasses.replace(crosswalk_model, detection=detection)
    qmdp = QmdpPolicy(model, policy)
    qmdp.decide(VehicleState(ux=3.0, s=20.2), SensorReading(0, True))
    assert CROSSING_ONSET + CROSSING_PERSIST == 1.0
    assert qmdp.p_crossing == pytest.approx(0.75, rel=1e-12)


def test_qmdp_decision_reaches_the_traced_bindings(monkeypatch, crosswalk_model, policy):
    # perfbench/tracer.py counts decisions at harness.pomdp_step and
    # filter steps at executor.belief_update, which pomdp_step must call
    # through its module global: one decision reaches each once
    calls = dict.fromkeys(("pomdp_step", "belief_update"), 0)

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    count(harness, "pomdp_step")
    count(executor, "belief_update")
    QmdpPolicy(crosswalk_model, policy).decide(VehicleState(ux=3.0, s=20.2), SensorReading(0, True))
    assert calls == {"pomdp_step": 1, "belief_update": 1}


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

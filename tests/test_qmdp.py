"""Value iteration against brute-force dynamic programming, alpha policies
and the greedy action pomdp_step takes on them."""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math
import re
import time

import numpy as np
import pytest

from crosswalk_sim import qmdp
from crosswalk_sim.executor import pomdp_step
from crosswalk_sim.pomdp import (
    NUM_D,
    NUM_V,
    TERMINAL_D,
    ModelConfig,
    build_crosswalk_model,
)
from crosswalk_sim.qmdp import (
    AlphaVectorPolicy,
    ValueIterationError,
    extract_alphas,
    value_iteration,
)

from conftest import bellman_residual, dense_model
from test_pomdp import MODEL_DIGESTS, edge_config


def finite_horizon_q(t_dense, rewards, gamma, horizon):
    """Brute-force dynamic programming oracle: explicit dense backups from
    a zero terminal value."""
    n_states, n_actions = rewards.shape
    q = np.zeros((n_states, n_actions))
    for _ in range(horizon):
        v = q.max(axis=1)
        nxt = np.empty_like(q)
        for a in range(n_actions):
            nxt[:, a] = rewards[:, a] + gamma * t_dense[a] @ v
        q = nxt
    return q


def column_sweeps(model, tol=1e-6, max_iters=10000):
    """Reference value iteration: the column-wise synchronous sweeps over
    an (S, A) table that value_iteration is measured against. Returns Q
    and the number of sweeps."""
    gamma = model.discount
    stop = tol * min(1.0, (1.0 - gamma) / max(gamma, 1e-12))
    q = np.zeros((model.num_states, model.num_actions))
    for sweep in range(1, max_iters + 1):
        v = q.max(axis=1)
        q_new = np.empty_like(q)
        for a in range(model.num_actions):
            q_new[:, a] = model.rewards[:, a] + model.discount * (model.transitions[a] @ v)
        residual = float(np.max(np.abs(q_new - q)))
        q = q_new
        if residual <= stop:
            return q, sweep
    raise AssertionError("reference sweeps did not converge")


class CountedMatrix:
    def __init__(self, mat, counter):
        self.mat, self.counter = mat, counter

    def __matmul__(self, vector):
        self.counter[0] += 1
        return self.mat @ vector


def counting(model):
    """The model with transitions that count their matrix-vector products,
    and the one-element list holding the count."""
    counter = [0]
    mats = tuple(CountedMatrix(mat, counter) for mat in model.transitions)
    return dataclasses.replace(model, transitions=mats), counter


class RecordedMatrix:
    def __init__(self, mat, seen):
        self.mat, self.seen = mat, seen

    def __matmul__(self, vector):
        self.seen.append(vector.tobytes())
        return self.mat @ vector


def recording(model):
    """The model with transitions that record the bytes of every vector
    they multiply, and the list they record into."""
    seen = []
    mats = tuple(RecordedMatrix(mat, seen) for mat in model.transitions)
    return dataclasses.replace(model, transitions=mats), seen


@pytest.fixture(scope="module", params=["shipped", "default"])
def full_solve(request, model_config):
    """A full crosswalk model with its reference Q and sweep count."""
    model = build_crosswalk_model(model_config if request.param == "shipped" else ModelConfig())
    return (model, *column_sweeps(model))


def random_mdp(rng, max_states=10, max_actions=4):
    n_states = int(rng.integers(2, max_states + 1))
    n_actions = int(rng.integers(1, max_actions + 1))
    t = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    r = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    return t, r


# --- value iteration ----------------------------------------------------------


def test_zero_rewards_zero_q():
    rng = np.random.default_rng(0)
    t, r = random_mdp(rng)
    model = dense_model(t, np.zeros_like(r), discount=0.9)
    q = value_iteration(model)
    assert np.all(q == 0.0)


def test_geometric_series_self_loop():
    t = np.ones((1, 1, 1))
    r = np.ones((1, 1))
    model = dense_model(t, r, discount=0.9)
    q = value_iteration(model, tol=1e-6)
    assert abs(float(q[0, 0]) - 10.0) <= 1e-6


def test_random_mdps_match_brute_force():
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    for _ in range(50):
        t, r = random_mdp(rng)
        model = dense_model(t, r, discount=0.9)
        q = value_iteration(model, tol=1e-7)
        rmax = float(np.abs(r).max()) or 1.0
        horizon = math.ceil(math.log(1e-7 * 0.1 / rmax) / math.log(0.9))
        oracle = finite_horizon_q(t, r, 0.9, horizon)
        assert float(np.max(np.abs(q - oracle))) <= 1e-6
    assert time.perf_counter() - start < 1.0


def test_deterministic_result():
    rng = np.random.default_rng(5)
    t, r = random_mdp(rng)
    model = dense_model(t, r, discount=0.9)
    assert np.array_equal(value_iteration(model), value_iteration(model))


def test_non_convergence_raises():
    t = np.ones((1, 1, 1))
    r = np.ones((1, 1))
    model = dense_model(t, r, discount=0.99)
    # zero sweeps, or a negative count, are not enough either
    for max_iters in (3, 0, -3):
        with pytest.raises(ValueIterationError, match=f"no convergence after {max_iters} sweeps"):
            value_iteration(model, tol=1e-10, max_iters=max_iters)
    with pytest.raises(ValueError):
        value_iteration(model, tol=0.0)


def test_full_model_matches_column_sweeps(full_solve):
    # the layered start makes Q exact, where the reference stops within
    # tol; the greedy actions agree but for exact ties, whose order
    # follows rounding (CHANGES.md, the FOUND line on best_action ties)
    model, want, _ = full_solve
    q = value_iteration(model)
    assert q.shape == (model.num_states, model.num_actions)
    assert q.flags.c_contiguous
    assert q.dtype == want.dtype
    assert bellman_residual(model, q) <= 1e-12
    assert float(np.max(np.abs(q - want))) <= 1e-6
    live = (np.arange(model.num_states) // NUM_V) % NUM_D != TERMINAL_D
    differs = live & (q.argmax(axis=1) != want.argmax(axis=1))
    top_two = np.sort(q[differs], axis=1)[:, -2:]
    assert np.all(top_two[:, 1] - top_two[:, 0] <= 1e-12 * np.abs(top_two[:, 1]))


# SHA-256 of value_iteration(model).tobytes() for each MODEL_DIGESTS config,
# taken while every layer's policy iteration still started from the greedy
# action on its own rewards: starting it from the layer above moved no bit
Q_DIGESTS = {
    "shipped": "846b5a5cd774513c3f03004e930c940cbc297ac7a4e139d464df4107e3a44450",
    "default": "38be38c811320abcca22b63b4f8d9f1f93e15648057bafd3053392dd92490c9e",
    "occluded_empty": "66e2ce4f0fca77dcebbc866a83ac59b3d338b9ccc91e5507ec909d62efc27d6d",
    "occluded_wide": "7c78e86d067b230418e65b2ba164113962d4be4ebf2e5f2fb193fbe7acf5456d",
    "crosswalk_0": "dbae14ee4f303af22583702516ccaae1f1b17768cd12304a246da7b2eb55a450",
}


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_q_matches_pinned_digest(name, model_config):
    q = value_iteration(build_crosswalk_model(edge_config(name, model_config)))
    assert hashlib.sha256(q.tobytes()).hexdigest() == Q_DIGESTS[name]


def test_one_product_per_action_per_sweep(full_solve):
    model, _, _ = full_solve
    counted, products = counting(model)
    q = value_iteration(counted)
    assert products[0] % model.num_actions == 0
    assert 1 <= products[0] // model.num_actions <= 2
    assert q.tobytes() == value_iteration(model).tobytes()


def test_stale_layer_kernel_only_costs_sweeps(model_config):
    # each action's transitions swapped for another's: the kernel no
    # longer describes the model, so the sweeps correct its start
    model = build_crosswalk_model(model_config)
    stale = dataclasses.replace(model, transitions=model.transitions[::-1])
    counted, products = counting(stale)
    q = value_iteration(counted)
    want, _ = column_sweeps(stale)
    assert float(np.max(np.abs(q - want))) <= 1e-6
    assert products[0] // model.num_actions > 2


def test_logs_sweeps_and_residual(caplog, crosswalk_model):
    model = dense_model(np.ones((1, 1, 1)), np.ones((1, 1)), discount=0.9)
    _, sweeps = column_sweeps(model)
    with caplog.at_level(logging.DEBUG, logger="crosswalk_sim.qmdp"):
        value_iteration(model)
        value_iteration(crosswalk_model)
    # a model without a layer kernel makes no backward pass
    self_loop, backward, crosswalk = caplog.messages
    # the self-loop's last successive difference is 0.9 ** (sweeps - 1)
    assert self_loop == f"value iteration: {sweeps} sweeps, residual {0.9 ** (sweeps - 1):.3e}"
    assert re.fullmatch(rf"backward pass: {TERMINAL_D} layers, \d+ policy evaluations", backward)
    assert re.fullmatch(r"value iteration: 1 sweeps, residual \d\.\d{3}e-1[3-9]", crosswalk)


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_layers_start_from_the_layer_above(name, model_config, caplog):
    # most layers settle on the first evaluation of the policy that
    # settled the layer above; started from the greedy action on their own
    # rewards, the layers of these configs took 240-321 evaluations
    model = build_crosswalk_model(edge_config(name, model_config))
    with caplog.at_level(logging.DEBUG, logger="crosswalk_sim.qmdp"):
        value_iteration(model)
    found = re.fullmatch(r"backward pass: (\d+) layers, (\d+) policy evaluations", caplog.messages[0])
    layers, evaluations = map(int, found.groups())
    assert layers == TERMINAL_D
    assert TERMINAL_D <= evaluations <= 180


def test_layer_policy_iteration_matches_sweeps():
    # a few states that move among themselves with discounted chances
    # (rows summing below 1), as a layer's same-layer states do
    rng = np.random.default_rng(8)
    starts = np.random.default_rng(9)  # its own generator: rng draws the blocks it drew before
    for _ in range(20):
        n_states, n_actions = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        stay = rng.dirichlet(np.ones(n_states + 1), size=(n_actions, n_states))[:, :, :-1] * 0.99
        rewards = rng.uniform(-1.0, 1.0, size=(n_actions, n_states))
        q = np.zeros_like(rewards)
        for _ in range(5000):
            q = rewards + stay @ q.max(axis=0)
        values, policy, _, _ = qmdp._policy_iteration(rewards, stay)
        assert np.max(np.abs(values - q.max(axis=0))) <= 1e-9
        # from any start it settles to the same values
        for _ in range(5):
            start = starts.integers(n_actions, size=n_states)
            warm, _, _, _ = qmdp._policy_iteration(rewards, stay, start)
            assert np.max(np.abs(warm - q.max(axis=0))) <= 1e-9
        # and from its own settled policy it stops at the first evaluation
        again, kept, _, steps = qmdp._policy_iteration(rewards, stay, policy)
        assert steps == 1 and np.array_equal(kept, policy) and again.tobytes() == values.tobytes()


def test_layer_policy_iteration_keeps_the_action_on_exact_ties():
    # actions 0 and 1 are one action twice, so their Q ties to the bit in
    # every state, and action 2 pays 1 less for the same moves; a switch
    # needs strict improvement, so each state keeps the action it started with
    rng = np.random.default_rng(3)
    stay = rng.dirichlet(np.ones(5), size=4)[:, :-1] * 0.99
    rewards = rng.uniform(-1.0, 1.0, size=4)
    stay = np.stack((stay, stay, stay))
    rewards = np.stack((rewards, rewards, rewards - 1.0))
    want, _, _, _ = qmdp._policy_iteration(rewards, stay, np.zeros(4, dtype=int))
    for start in ([1, 1, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1]):
        values, kept, _, steps = qmdp._policy_iteration(rewards, stay, np.array(start))
        assert steps == 1 and kept.tolist() == start
        assert values.tobytes() == want.tobytes()


def test_unsettled_layer_raises(monkeypatch, crosswalk_model):
    monkeypatch.setattr(qmdp, "LAYER_POLICY_STEPS", 0)
    with pytest.raises(ValueIterationError, match="did not settle in 0 steps"):
        value_iteration(crosswalk_model)


def test_small_mdps_match_column_sweeps():
    rng = np.random.default_rng(41)
    for _ in range(20):
        t, r = random_mdp(rng)
        model = dense_model(t, r, discount=0.9)
        counted, products = counting(model)
        q = value_iteration(counted, tol=1e-8)
        want, sweeps = column_sweeps(model, tol=1e-8)
        assert q.tobytes() == want.tobytes()
        assert products[0] == sweeps * model.num_actions


def test_sweep_max_matches_column_max_on_exact_ties():
    # each action duplicated, so every Q row ties to the bit between
    # action pairs; every sweep must multiply by the bytes of the
    # reference's q.max(axis=1), and end on its Q
    rng = np.random.default_rng(17)
    for _ in range(10):
        t, r = random_mdp(rng)
        model = dense_model(np.concatenate((t, t[::-1])), np.hstack((r, r[:, ::-1])), discount=0.9)
        (recorded, seen), (reference, want_seen) = recording(model), recording(model)
        q = value_iteration(recorded)
        want, _ = column_sweeps(reference)
        assert seen == want_seen
        assert q.tobytes() == want.tobytes()


def test_sweep_max_matches_column_max_on_signed_zero_ties():
    # states 0 and 3 pay -0.0 and +0.0 in actions 0 and 1, which both lead
    # to state 1; state 1 pays the smallest negative subnormal forever, so
    # its discounted value underflows to -0.0 and those two actions' Q ties
    # as -0.0 and +0.0, in either order. Action 2 leads to state 2, whose
    # unit reward takes some sweeps to converge
    tiny = -np.nextafter(0.0, 1.0)
    t = np.zeros((3, 4, 4))
    t[:2, [0, 3], 1] = 1.0
    t[2, [0, 3], 2] = 1.0
    t[:, 1, 1] = t[:, 2, 2] = 1.0
    r = np.array([[-0.0, 0.0, -1000.0], [tiny, tiny, tiny], [1.0, 1.0, 1.0], [0.0, -0.0, -1000.0]])
    model = dense_model(t, r, discount=0.25)
    (recorded, seen), (reference, want_seen) = recording(model), recording(model)
    q = value_iteration(recorded)
    want, sweeps = column_sweeps(reference)
    assert sweeps > 2
    assert np.signbit(q[[0, 3], :2]).tolist() == [[True, False], [False, True]]
    # numpy's maximum keeps the later of two equal operands, so the
    # reference's v reads +0.0 for state 0 and -0.0 for state 3
    assert np.signbit(np.frombuffer(want_seen[-1])[[0, 3]]).tolist() == [False, True]
    assert seen == want_seen
    assert q.tobytes() == want.tobytes()


def test_solves_share_no_state(model_config):
    # a solve carries nothing into the next: the shipped config solves to
    # its pinned Q before and after the default config, and the Q a solve
    # returned is not rewritten by the later ones
    first = value_iteration(build_crosswalk_model(model_config))
    kept = first.copy()
    value_iteration(build_crosswalk_model(ModelConfig()))
    again = value_iteration(build_crosswalk_model(model_config))
    for q in (first, again):
        assert hashlib.sha256(q.tobytes()).hexdigest() == Q_DIGESTS["shipped"]
    assert first.tobytes() == kept.tobytes()


def test_layer_policy_iteration_carries_its_system():
    # the returned system is the settled policy's evaluation matrix, bit
    # for bit, and a warm start with it is a warm start from the policy alone
    rng = np.random.default_rng(12)
    switched = 0  # calls whose policy changed, so the system was rebuilt
    for _ in range(20):
        n_states, n_actions = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        stay = rng.dirichlet(np.ones(n_states + 1), size=(n_actions, n_states))[:, :, :-1] * 0.99
        rewards = rng.uniform(-1.0, 1.0, size=(n_actions, n_states))
        _, policy, system, steps = qmdp._policy_iteration(rewards, stay, rng.integers(n_actions, size=n_states))
        switched += steps > 1
        want = np.eye(n_states) - stay[policy, np.arange(n_states)]
        assert system.tobytes() == want.tobytes()
        # the next layer's rewards, as the backward pass hands them on
        rewards += rng.uniform(-0.1, 0.1, size=rewards.shape)
        carried = qmdp._policy_iteration(rewards, stay, policy, system)
        alone = qmdp._policy_iteration(rewards, stay, policy)
        assert carried[0].tobytes() == alone[0].tobytes()
        assert np.array_equal(carried[1], alone[1]) and carried[3] == alone[3]
        assert carried[2].tobytes() == alone[2].tobytes()
    assert switched > 0


# --- alpha extraction -----------------------------------------------------------


def test_extract_alphas_zero():
    policy = extract_alphas(np.zeros((4, 2)), (0.0, 1.0))
    assert np.all(policy.alphas == 0.0)
    assert policy.alphas.shape == (2, 4)


def test_extract_alphas_columns():
    q = np.array([[1.0, 2.0], [3.0, 4.0]])
    policy = extract_alphas(q, (0.0, 1.0))
    assert np.array_equal(policy.alphas[0], [1.0, 3.0])
    assert np.array_equal(policy.alphas[1], [2.0, 4.0])


def test_alpha_max_equals_value():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(30, 5))
    policy = extract_alphas(q, tuple(np.linspace(0, 1, 5)))
    assert np.allclose(policy.alphas.max(axis=0), q.max(axis=1))


def test_alpha_shape_validation():
    with pytest.raises(ValueError):
        AlphaVectorPolicy(alphas=np.zeros((2, 3)), scales=(0.0,))
    with pytest.raises(ValueError):
        AlphaVectorPolicy(alphas=np.zeros(3), scales=(0.0,))


# --- action selection ------------------------------------------------------------


def greedy(policy, belief):
    """The action pomdp_step takes on a belief, under identity dynamics and
    a flat likelihood."""
    n = len(belief)
    return pomdp_step(belief, policy.alphas, np.eye(n), np.ones(n))[0]


def test_point_mass_recovers_mdp_greedy():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(8, 3))
    policy = extract_alphas(q, (0.0, 0.5, 1.0))
    for s in range(8):
        b = np.zeros(8)
        b[s] = 1.0
        assert greedy(policy, b) == int(np.argmax(q[s]))


def test_tie_breaks_to_lowest_action():
    policy = AlphaVectorPolicy(
        alphas=np.array([[0.0, 0.0], [1.0, -1.0]]), scales=(0.0, 1.0)
    )
    assert greedy(policy, np.array([0.5, 0.5])) == 0


def test_best_action_matches_exhaustive_scan():
    rng = np.random.default_rng(17)
    q = rng.normal(size=(12, 6))
    policy = extract_alphas(q, tuple(np.linspace(0, 1, 6)))
    for _ in range(200):
        b = rng.dirichlet(np.ones(12))
        scores = [float(np.dot(policy.alphas[a], b)) for a in range(6)]
        assert greedy(policy, b) == int(np.argmax(scores))


def test_belief_validation():
    policy = extract_alphas(np.zeros((3, 2)), (0.0, 1.0))
    for bad in (
        [0.5, 0.5],  # wrong length
        [0.7, 0.4, -0.1],  # negative entry
        [0.5, 0.3, 0.1],  # sums to 0.9
        [math.nan, 0.5, 0.5],  # NaN entry
    ):
        with pytest.raises(ValueError):
            pomdp_step(np.array(bad), policy.alphas, np.eye(3), np.ones(3))


"""Crosswalk POMDP structure: spaces, transitions, observations, rewards."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from crosswalk_sim.pomdp import (
    ACTION_SCALES,
    EPOCH,
    NUM_ACTIONS,
    NUM_COUNT_BINS,
    NUM_D,
    NUM_OBS,
    NUM_STATES,
    NUM_V,
    TERMINAL_D,
    ModelConfig,
    PomdpModel,
    build_crosswalk_model,
    obs_index,
    occluded_bins_from_band,
    state_index,
    state_tuple,
)


def expected_distance(d, v, cfg: ModelConfig) -> dict[int, float]:
    """Next distance bins from a non-terminal d at speed bin v: the advance
    smeared by -1/0/+1 cells and clamped at the terminal bin."""
    advance = int(round(v * cfg.speed_unit * EPOCH / cfg.cell_length))
    if advance == 0:
        return {d: 1.0}
    dist: dict[int, float] = {}
    for off, p in zip((-1, 0, 1), cfg.advance_spread):
        t = min(d + advance + off, TERMINAL_D)
        dist[t] = dist.get(t, 0.0) + p
    return dist


def expected_rewards(cfg: ModelConfig) -> np.ndarray:
    """Reward table enumerated state by state from the documented terms:
    the speeding penalty inside the occluded band, the goal bonus times the
    chance of entering the terminal bin, and the penalty for a nonzero
    command while a crossing is active up to the crosswalk line."""
    lo, hi = cfg.occluded_bins
    rewards = np.zeros((NUM_STATES, NUM_ACTIONS))
    for s in range(NUM_STATES):
        v, d, c = state_tuple(s)
        if d == TERMINAL_D:
            continue
        base = 0.0
        if v > cfg.speeding_bin and lo <= d <= hi:
            base += cfg.reward_speeding
        base += cfg.reward_goal * expected_distance(d, v, cfg).get(TERMINAL_D, 0.0)
        penalty = cfg.reward_crossing if c == 1 and d <= cfg.crosswalk_bin else 0.0
        rewards[s, 0] = base + 0.0
        rewards[s, 1:] = base + penalty
    return rewards


def expected_row(v, d, c, a, cfg: ModelConfig) -> dict[int, float]:
    """Independent enumeration of one transition row from the documented
    semantics: speed adapts one bin toward the command with p_adapt, the
    distance advances by the current speed with a +/-1 cell smear, and the
    crossing flag follows its own two-state chain."""
    if d == TERMINAL_D:
        return {state_index(v, d, c): 1.0}
    if a == v:
        speed = {v: 1.0}
    else:
        nxt = v + 1 if a > v else v - 1
        speed = {nxt: cfg.p_adapt, v: 1.0 - cfg.p_adapt}
    dist = expected_distance(d, v, cfg)
    p_active = cfg.crossing_persist if c == 1 else cfg.crossing_onset
    cross = {1: p_active, 0: 1.0 - p_active}
    row: dict[int, float] = {}
    for vn, pv in speed.items():
        for dn, pd in dist.items():
            for cn, pc in cross.items():
                if pc == 0.0:
                    continue
                s = state_index(vn, dn, cn)
                row[s] = row.get(s, 0.0) + pv * pd * pc
    return row


def row_entries(model, state, action):
    """Stored next-state indices and probabilities of one transition row."""
    mat = model.transitions[action]
    lo, hi = mat.indptr[state], mat.indptr[state + 1]
    return mat.indices[lo:hi], mat.data[lo:hi]


def row_as_dict(model, state, action):
    idx, probs = row_entries(model, state, action)
    return dict(zip((int(i) for i in idx), probs))


# --- spaces and indexing -----------------------------------------------------


def test_space_sizes(crosswalk_model):
    assert NUM_STATES == 2662
    assert NUM_ACTIONS == 11
    assert NUM_OBS == 20
    assert crosswalk_model.num_states == 2662
    assert crosswalk_model.num_actions == 11
    assert crosswalk_model.num_obs == 20
    assert ACTION_SCALES == tuple(k / 10 for k in range(11))


def test_state_index_bijection():
    seen = set()
    for c in range(2):
        for d in range(NUM_D):
            for v in range(NUM_V):
                i = state_index(v, d, c)
                assert state_tuple(i) == (v, d, c)
                seen.add(i)
    assert seen == set(range(NUM_STATES))


def test_obs_index_bijection():
    seen = {obs_index(b, det) for b in range(NUM_COUNT_BINS) for det in (False, True)}
    assert seen == set(range(NUM_OBS))
    assert obs_index(3, False) == 3
    assert obs_index(3, True) == 13


def test_index_validation():
    with pytest.raises(ValueError):
        state_index(-1, 0, 0)
    with pytest.raises(ValueError):
        state_index(0, NUM_D, 0)
    with pytest.raises(ValueError):
        state_tuple(NUM_STATES)
    with pytest.raises(ValueError):
        obs_index(NUM_COUNT_BINS, False)


# --- transitions -------------------------------------------------------------


def test_documented_transition_example(crosswalk_model):
    # v=4 commanded full speed: speed bin moves to 5 with 0.75; the cell
    # advance of 4 smears to {53, 54, 55}; crossing stays off with 0.95.
    row = row_as_dict(crosswalk_model, state_index(4, 50, 0), 10)
    assert row[state_index(5, 54, 0)] == pytest.approx(0.75 * 0.7 * 0.95, abs=1e-12)
    assert row[state_index(4, 53, 0)] == pytest.approx(0.25 * 0.15 * 0.95, abs=1e-12)
    assert row[state_index(5, 55, 1)] == pytest.approx(0.75 * 0.15 * 0.05, abs=1e-12)
    speeds = {state_tuple(s)[0] for s in row}
    assert speeds == {4, 5}


def test_zero_speed_zero_command_keeps_distance(crosswalk_model):
    for c in (0, 1):
        row = row_as_dict(crosswalk_model, state_index(0, 37, c), 0)
        assert {state_tuple(s)[:2] for s in row} == {(0, 37)}
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_terminal_rows_self_loop(crosswalk_model):
    for v in (0, 5, 10):
        for c in (0, 1):
            s = state_index(v, TERMINAL_D, c)
            idx, probs = row_entries(crosswalk_model, s, 7)
            assert list(idx) == [s]
            assert list(probs) == [1.0]
            assert crosswalk_model.rewards[s, 7] == 0.0
    assert crosswalk_model.terminal is not None
    terminal_states = {
        state_index(v, TERMINAL_D, c) for v in range(NUM_V) for c in (0, 1)
    }
    assert set(np.nonzero(crosswalk_model.terminal)[0]) == terminal_states


def test_random_rows_match_enumeration(crosswalk_model, model_config):
    rng = np.random.default_rng(11)
    for _ in range(300):
        v = int(rng.integers(NUM_V))
        d = int(rng.integers(NUM_D))
        c = int(rng.integers(2))
        a = int(rng.integers(NUM_ACTIONS))
        got = row_as_dict(crosswalk_model, state_index(v, d, c), a)
        want = expected_row(v, d, c, a, model_config)
        assert got == want


def test_all_rows_are_distributions(crosswalk_model):
    for mat in crosswalk_model.transitions:
        sums = np.asarray(mat.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert mat.data.min() >= 0.0


def test_distance_never_decreases(crosswalk_model):
    for mat in crosswalk_model.transitions:
        coo = mat.tocoo()
        d_from = (coo.row // NUM_V) % NUM_D
        d_to = (coo.col // NUM_V) % NUM_D
        assert np.all(d_to >= d_from)


def test_speed_changes_at_most_one_bin(crosswalk_model):
    for mat in crosswalk_model.transitions:
        coo = mat.tocoo()
        dv = (coo.col % NUM_V).astype(int) - (coo.row % NUM_V).astype(int)
        assert np.all(np.abs(dv) <= 1)


# --- byte-for-byte pins ------------------------------------------------------

# Configurations whose model is pinned by digest: the shipped and default
# ones, an empty and an out-of-range occluded band (occluded_bins_from_band
# can return an empty one), no speeding penalty, a penalty only at d = 0,
# advances that merge differently, and probability-zero speed and crossing
# moves.
EDGE_CONFIGS = {
    "default": {},
    "occluded_empty": {"occluded_bins": (0, -3)},
    "occluded_wide": {"occluded_bins": (-5, 200)},
    "speeding_10": {"speeding_bin": 10},
    "crosswalk_0": {"crosswalk_bin": 0},
    "epoch_07": {"speed_unit": 1.4, "advance_spread": (0.2, 0.5, 0.3)},  # advances of a 0.7 s epoch
    "p_adapt_1": {"p_adapt": 1.0},
    "crossing_certain": {"crossing_onset": 0.0, "crossing_persist": 1.0},
}

# SHA-256 of model_digest, taken from the state-by-state loop build that
# the kron build replaced
MODEL_DIGESTS = {
    "shipped": "1273880d1a52b7a1b38fba4da9775a78a18f1a5e7d1ad41916cdc1541c331efe",
    "default": "6bd4762973815e4972376b4fa98d43d933f401109b8675ff852cccde38d672bb",
    "occluded_empty": "f8aa6d6148b52376407fb67dcee6fcbfcbb16c6753489e1449e58687bea2b3fc",
    "occluded_wide": "583301cdc6aa8213b7d4394331fbf0763ae70229baecbe68c5825e2deeaad56c",
    "speeding_10": "f8aa6d6148b52376407fb67dcee6fcbfcbb16c6753489e1449e58687bea2b3fc",
    "crosswalk_0": "1aeacce1f0b5e855e6126102e3d2371219c55a5bf90899b2fb3fb82dde1491fa",
    "epoch_07": "f9e02b3cc97d48ac2229b2d6292a41ca72242603eba667efcb626959a8053499",
    "p_adapt_1": "4bb7927910d7f9e96b66f19fd16d251832fc4232f52ecd9df4950c2a0b71807d",
    "crossing_certain": "dc81365966fd8f4c2718d1dd4aca473ab215330c596f41992273ea18578dd931",
}


def model_digest(model) -> str:
    """SHA-256 over dtype and bytes of every action's CSR arrays, stored
    zeros dropped, then of the rewards, terminal mask and observation."""
    h = hashlib.sha256()
    arrays = []
    for mat in model.transitions:
        mat = mat.copy()
        mat.eliminate_zeros()
        arrays += [mat.indptr, mat.indices, mat.data]
    for arr in arrays + [model.rewards, model.terminal, model.observation]:
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def edge_config(name, shipped):
    return shipped if name == "shipped" else ModelConfig(**EDGE_CONFIGS[name])


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_model_matches_pinned_digest(name, model_config):
    model = build_crosswalk_model(edge_config(name, model_config))
    assert model_digest(model) == MODEL_DIGESTS[name]


@pytest.mark.parametrize("name", ["shipped", "default"])
def test_model_stores_no_zeros(name, model_config):
    # with no zero probabilities the digest covers the stored arrays as is
    model = build_crosswalk_model(edge_config(name, model_config))
    for mat in model.transitions:
        assert mat.has_sorted_indices
        assert np.all(mat.data > 0.0)


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_rewards_match_enumeration(name, model_config):
    cfg = edge_config(name, model_config)
    assert np.array_equal(build_crosswalk_model(cfg).rewards, expected_rewards(cfg))


# --- observations ------------------------------------------------------------


def test_observation_rows_sum_to_one(crosswalk_model):
    sums = crosswalk_model.observation.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_detection_gap_is_fixed(crosswalk_model):
    det_cols = slice(NUM_COUNT_BINS, NUM_OBS)
    p_det = crosswalk_model.observation[:, det_cols].sum(axis=1)
    clear_half = p_det[: NUM_D * NUM_V]
    crossing_half = p_det[NUM_D * NUM_V :]
    assert np.allclose(clear_half, 0.5, atol=1e-12)
    assert np.allclose(crossing_half, 0.8, atol=1e-12)
    assert np.allclose(crossing_half - clear_half, 0.30, atol=1e-12)


def test_count_is_uninformative_given_crossing(crosswalk_model):
    # every state with the same crossing flag shares one likelihood row
    obs = crosswalk_model.observation
    for half in (obs[: NUM_D * NUM_V], obs[NUM_D * NUM_V :]):
        assert np.all(half == half[0])


def test_observation_prob_example(crosswalk_model):
    s_clear = state_index(3, 40, 0)
    for count_bin in range(NUM_COUNT_BINS):
        assert crosswalk_model.observation[
            s_clear, obs_index(count_bin, False)
        ] == pytest.approx(0.05, abs=1e-15)


# --- rewards -----------------------------------------------------------------


def test_reward_crossing_penalty(crosswalk_model):
    s = state_index(3, 40, 1)
    assert crosswalk_model.rewards[s, 3] == -50.0
    # holding a zero command is exempt from the moving-while-crossing penalty
    assert crosswalk_model.rewards[s, 0] == 0.0


def test_reward_speeding_penalty(crosswalk_model, model_config):
    lo, hi = model_config.occluded_bins
    s = state_index(7, (lo + hi) // 2, 0)
    for a in range(NUM_ACTIONS):
        assert crosswalk_model.rewards[s, a] == -5.0
    calm = state_index(6, (lo + hi) // 2, 0)
    assert crosswalk_model.rewards[calm, 5] == 0.0
    outside = state_index(7, hi + 2, 0)
    assert crosswalk_model.rewards[outside, 5] == 0.0


def test_reward_goal_bonus_certain_entry(crosswalk_model):
    # from d=119 at v=2 every smeared advance clips into the terminal bin
    s = state_index(2, 119, 0)
    for a in range(NUM_ACTIONS):
        assert crosswalk_model.rewards[s, a] == 100.0
    row = row_as_dict(crosswalk_model, s, 5)
    assert {state_tuple(t)[1] for t in row} == {TERMINAL_D}


def test_reward_goal_bonus_partial_entry(crosswalk_model, model_config):
    # from d=116 at v=3 only the +1 smear offset reaches the terminal bin
    s = state_index(3, 116, 0)
    assert crosswalk_model.rewards[s, 0] == pytest.approx(
        100.0 * model_config.advance_spread[2]
    )


def test_reward_bounds(crosswalk_model):
    assert crosswalk_model.rewards.min() >= -55.0
    assert crosswalk_model.rewards.max() <= 100.0


# --- config and helpers --------------------------------------------------------


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(advance_spread=(0.2, 0.2, 0.2))
    with pytest.raises(ValueError):
        ModelConfig(p_adapt=1.5)
    with pytest.raises(ValueError):
        ModelConfig(discount=1.0)
    with pytest.raises(ValueError):
        ModelConfig(crosswalk_bin=NUM_D)
    for name, value in (("cell_length", 0.0), ("speed_unit", -1.0)):
        with pytest.raises(ValueError, match=name):
            ModelConfig(**{name: value})


def test_occluded_bins_from_band():
    assert occluded_bins_from_band(0.0, 25.0) == (0, 50)
    assert occluded_bins_from_band(0.3, 24.7) == (0, 50)
    assert occluded_bins_from_band(58.0, 62.5) == (116, 120)
    assert occluded_bins_from_band(-3.0, 500.0) == (0, 120)


def test_from_dense_round_trip():
    t = np.zeros((2, 3, 3))
    t[0] = [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    t[1] = [[0.0, 0.0, 1.0], [0.2, 0.8, 0.0], [0.0, 0.0, 1.0]]
    r = np.arange(6.0).reshape(3, 2)
    model = PomdpModel.from_dense(t, r, discount=0.9)
    assert model.num_states == 3 and model.num_actions == 2
    idx, probs = row_entries(model, 0, 0)
    assert list(idx) == [0, 1] and list(probs) == [0.5, 0.5]
    assert model.rewards[2, 1] == 5.0
    assert model.num_obs == 0

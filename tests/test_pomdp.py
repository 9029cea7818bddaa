"""Crosswalk POMDP structure: spaces, transitions, observations, rewards."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from crosswalk_sim import pomdp, qmdp
from crosswalk_sim.pomdp import (
    ACTION_SCALES,
    ADVANCE_SPREAD,
    CELL_LENGTH,
    CROSSING_ONSET,
    CROSSING_PERSIST,
    EPOCH,
    NUM_ACTIONS,
    NUM_CROSSING,
    NUM_D,
    NUM_STATES,
    NUM_V,
    P_ADAPT,
    REWARD_CROSSING,
    REWARD_GOAL,
    REWARD_SPEEDING,
    SPEED_UNIT,
    SPEEDING_BIN,
    TERMINAL_D,
    ModelConfig,
    PomdpModel,
    build_crosswalk_model,
    occluded_bins_from_band,
)
from crosswalk_sim.qmdp import value_iteration

from conftest import bellman_residual, state_index, state_likelihoods, state_tuple


def expected_distance(d, v) -> dict[int, float]:
    """Next distance bins from a non-terminal d at speed bin v: the advance
    smeared by -1/0/+1 cells and clamped at the terminal bin."""
    advance = int(round(v * SPEED_UNIT * EPOCH / CELL_LENGTH))
    if advance == 0:
        return {d: 1.0}
    dist: dict[int, float] = {}
    for off, p in zip((-1, 0, 1), ADVANCE_SPREAD):
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
        if v > SPEEDING_BIN and lo <= d <= hi:
            base += REWARD_SPEEDING
        base += REWARD_GOAL * expected_distance(d, v).get(TERMINAL_D, 0.0)
        penalty = REWARD_CROSSING if c == 1 and d <= cfg.crosswalk_bin else 0.0
        rewards[s, 0] = base + 0.0
        rewards[s, 1:] = base + penalty
    return rewards


def expected_row(v, d, c, a) -> dict[int, float]:
    """Independent enumeration of one transition row from the documented
    semantics: speed adapts one bin toward the command with P_ADAPT, the
    distance advances by the current speed with a +/-1 cell smear, and the
    crossing flag follows its own two-state chain."""
    if d == TERMINAL_D:
        return {state_index(v, d, c): 1.0}
    if a == v:
        speed = {v: 1.0}
    else:
        nxt = v + 1 if a > v else v - 1
        speed = {nxt: P_ADAPT, v: 1.0 - P_ADAPT}
    dist = expected_distance(d, v)
    p_active = CROSSING_PERSIST if c == 1 else CROSSING_ONSET
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
    assert crosswalk_model.num_states == 2662
    assert crosswalk_model.num_actions == 11
    assert crosswalk_model.detection.shape == (NUM_D, NUM_CROSSING)
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


def test_index_validation():
    with pytest.raises(ValueError):
        state_index(-1, 0, 0)
    with pytest.raises(ValueError):
        state_index(0, NUM_D, 0)
    with pytest.raises(ValueError):
        state_tuple(NUM_STATES)


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
    for v in range(NUM_V):
        for c in (0, 1):
            s = state_index(v, TERMINAL_D, c)
            for a in range(NUM_ACTIONS):
                idx, probs = row_entries(crosswalk_model, s, a)
                assert list(idx) == [s]
                assert list(probs) == [1.0]
            assert not crosswalk_model.rewards[s].any()


def test_random_rows_match_enumeration(crosswalk_model):
    # every row of every action, not a sample: the enumeration is the one
    # independent statement of the transition matrices
    for a in range(NUM_ACTIONS):
        for s in range(NUM_STATES):
            assert row_as_dict(crosswalk_model, s, a) == expected_row(*state_tuple(s), a), (a, s)


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
# can return an empty one), and a crossing penalty only at d = 0.
EDGE_CONFIGS = {
    "default": {},
    "occluded_empty": {"occluded_bins": (0, -3)},
    "occluded_wide": {"occluded_bins": (-5, 200)},
    "crosswalk_0": {"crosswalk_bin": 0},
}

# SHA-256 of model_digest, taken from the state-by-state loop build that
# the kron build replaced. The shipped entry was re-taken from the kron build
# when configs/pomdp.yaml's occluded_bins went from (0, 50) to (0, 62); the
# band moves only the speeding rewards, which test_rewards_match_enumeration
# checks against an enumeration. All five were re-taken when the count bin
# left the observation (20 columns to 2); with the earlier 20-column table,
# np.repeat(observation / 10, 10, axis=1), substituted back, each model
# gave its earlier digest. All five were re-taken again when the (2662, 2)
# observation gave way to the (NUM_D, NUM_CROSSING) detection table; with
# the table expanded back to the state layout (conftest.state_likelihoods)
# in its place, each model gave its earlier digest.
MODEL_DIGESTS = {
    "shipped": "231efd383ef1cce3260d9d13d27a7de5d3bfcec27dd97172f2681ada41c6d507",
    "default": "df6327a178137b1bc322d6c0beddc936bcd464d58b091182b373ac38895bcb40",
    "occluded_empty": "557f1f9f8c2983d9dd734f47ce3dd33bc7e4f54b2cae2dd188e7a7b5321d3e45",
    "occluded_wide": "fc0396fdbadca3663639db5efba2c498eca9f9ad010a5f0a3dff1760534ec866",
    "crosswalk_0": "023b601b07c88b20472a88c878127d3319f60b2a27778eb79e71a9a6284dc0cb",
}


def model_digest(model) -> str:
    """SHA-256 over dtype and bytes of every action's CSR arrays, stored
    zeros dropped, then of the rewards, the terminal-state mask
    (d == TERMINAL_D) and the detection table."""
    h = hashlib.sha256()
    arrays = []
    for mat in model.transitions:
        mat = mat.copy()
        mat.eliminate_zeros()
        arrays += [mat.indptr, mat.indices, mat.data]
    terminal = (np.arange(NUM_STATES) // NUM_V) % NUM_D == TERMINAL_D
    for arr in arrays + [model.rewards, terminal, model.detection]:
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


# --- motion table ------------------------------------------------------------


def clamped_by_loop(table):
    """pomdp._clamped written plainly: layer by layer, each nonzero entry
    (v, k, w) in index order added to its clamped column of row (d, v), so
    a column's entries are summed one by one in ascending k."""
    lanes = table.shape[2]
    entries = [(v, k, w, float(table[v, k, w])) for v, k, w in zip(*np.nonzero(table))]
    sums: dict[tuple[int, int], float] = {}
    for d in range(TERMINAL_D):
        for v, k, w, p in entries:
            cell = (d * NUM_V + v, min(d + k, TERMINAL_D) * lanes + w)
            sums[cell] = sums[cell] + p if cell in sums else p
    cells = sorted(sums)
    rows = np.array([r for r, _ in cells], dtype=np.intp)
    cols = np.array([c for _, c in cells], dtype=np.intp)
    return np.array([sums[cell] for cell in cells]), (rows, cols)


def three_in_one_column() -> np.ndarray:
    """From d = 119 the advances 1, 2 and 3 all clamp to the terminal
    column, where (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ."""
    table = np.zeros((NUM_V, 4, 1))
    table[0, 1:, 0] = (0.1, 0.2, 0.3)
    return table


@settings(max_examples=100, deadline=None)
@example(table=three_in_one_column())
@given(
    table=st.tuples(st.integers(1, 14), st.integers(1, 11)).flatmap(
        lambda shape: hnp.arrays(
            np.float64,
            (NUM_V, *shape),
            elements=st.floats(0.0, 1.0, allow_subnormal=False),
            fill=st.just(0.0),
        )
    )
)
def test_clamped_equals_layer_loop(table):
    values, (rows, cols) = pomdp._clamped(table)
    want, (want_rows, want_cols) = clamped_by_loop(table)
    assert values.tobytes() == want.tobytes()
    assert rows.tobytes() == want_rows.tobytes()
    assert cols.tobytes() == want_cols.tobytes()


def test_zero_advance_is_a_point_mass_at_any_speed(monkeypatch):
    # 1.2 m cells: speed bin 1 covers 0.5 m in an epoch and rounds to no
    # advance, like bin 0, while bin 2 still moves one cell
    monkeypatch.setattr(pomdp, "CELL_LENGTH", 1.2)
    advance = pomdp._advance()
    assert advance[0].tolist() == advance[1].tolist() == [1.0] + [0.0] * (advance.shape[1] - 1)
    assert advance[2, :3].tolist() == list(ADVANCE_SPREAD)
    assert np.max(np.abs(advance.sum(axis=1) - 1.0)) <= 1e-12


# --- layer kernel ------------------------------------------------------------

LAYER_WIDTH = NUM_CROSSING * NUM_V


def layer_blocks(mat, d) -> np.ndarray:
    """(NUM_D, 22, 22): the rows of layer d's (c, v) states, split by the
    target layer d', in the layer kernel's state order c * NUM_V + v."""
    rows = [state_index(v, d, c) for c in range(NUM_CROSSING) for v in range(NUM_V)]
    dense = mat[rows].toarray().reshape(LAYER_WIDTH, NUM_CROSSING, NUM_D, NUM_V)
    return dense.transpose(2, 0, 1, 3).reshape(NUM_D, LAYER_WIDTH, LAYER_WIDTH)


def test_layer_kernel_equals_transition_blocks(crosswalk_model):
    kernel = crosswalk_model.layer_kernel
    reach = kernel.shape[2]
    assert kernel.shape == (NUM_ACTIONS, LAYER_WIDTH, 12, LAYER_WIDTH)
    for a, mat in enumerate(crosswalk_model.transitions):
        for d in range(TERMINAL_D):
            blocks = layer_blocks(mat, d)
            short = min(d + reach, TERMINAL_D)  # the layers reached short of the clamp
            assert np.array_equal(blocks[d:short], kernel[a, :, : short - d].transpose(1, 0, 2)), (a, d)
            assert not blocks[:d].any() and not blocks[short:TERMINAL_D].any(), (a, d)


def test_layer_kernel_clamped_mass_is_terminal_mass(crosswalk_model):
    kernel = crosswalk_model.layer_kernel
    for a, mat in enumerate(crosswalk_model.transitions):
        for d in range(TERMINAL_D):
            # empty, so zero, for the layers too far back to reach it
            clamped = kernel[a, :, TERMINAL_D - d :].sum(axis=1)
            terminal = layer_blocks(mat, d)[TERMINAL_D]
            assert np.max(np.abs(clamped - terminal)) <= 1e-15, (a, d)


def test_layer_kernel_rows_sum_to_one(crosswalk_model):
    sums = crosswalk_model.layer_kernel.sum(axis=(2, 3))
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_layer_kernel_is_shared_and_read_only(crosswalk_model, monkeypatch):
    kernel = crosswalk_model.layer_kernel
    assert build_crosswalk_model(ModelConfig(discount=0.5)).layer_kernel is kernel
    assert not kernel.flags.writeable
    # so is the motion table that the kernel and the matrices are built from
    assert pomdp._motion() is pomdp._motion() and not pomdp._motion().flags.writeable
    # and the goal-entry chances of the rewards: a later build of any
    # config clamps no advance table
    goal = pomdp._goal_entry()
    monkeypatch.setattr(pomdp, "_clamped", None)
    build_crosswalk_model(ModelConfig(discount=0.5, crosswalk_bin=3))
    assert pomdp._goal_entry() is goal
    # and the layer policy iteration's state indices and identity, per size
    tables = qmdp._states_and_identity(6)
    assert qmdp._states_and_identity(6) is tables
    states, identity = tables
    assert states.tolist() == list(range(6)) and np.array_equal(identity, np.eye(6))
    for table in (goal, states, identity):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_transitions_are_shared_and_read_only(crosswalk_model, monkeypatch):
    mats = crosswalk_model.transitions
    # built once per process: a later build of any config takes no kron
    monkeypatch.setattr(sparse, "kron", None)
    assert build_crosswalk_model(ModelConfig(discount=0.5, crosswalk_bin=3)).transitions is mats
    for a, mat in enumerate(mats):
        for field in ("data", "indices", "indptr"):
            assert not getattr(mat, field).flags.writeable, (a, field)
        assert mat.indices.dtype == mat.indptr.dtype == np.int32, a
    for field in ("data", "indices", "indptr"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(mats[0], field)[0] = 1


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_layered_solve_is_exact(name, model_config):
    # one sweep from the backward pass converges, and the Q it returns
    # is a fixed point to rounding
    model = build_crosswalk_model(edge_config(name, model_config))
    q = value_iteration(model, max_iters=1)
    assert bellman_residual(model, q) <= 1e-12


# --- observations ------------------------------------------------------------


def test_detection_is_a_read_only_table_over_d_and_c(crosswalk_model):
    detection = crosswalk_model.detection
    assert detection.shape == (NUM_D, NUM_CROSSING)
    assert np.array_equal(detection, np.tile([0.5, 0.8], (NUM_D, 1)))
    with pytest.raises(ValueError, match="read-only"):
        detection[0, 0] = 1.0


def test_observation_rows_sum_to_one(crosswalk_model):
    # each entry is a probability, so in every state the two flags'
    # likelihoods, the entry and one minus it, sum to one
    detection = crosswalk_model.detection
    assert np.all((0.0 <= detection) & (detection <= 1.0))
    sums = state_likelihoods(detection).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_detection_gap_is_fixed(crosswalk_model):
    clear, crossing = crosswalk_model.detection.T
    assert np.allclose(clear, 0.5, atol=1e-12)
    assert np.allclose(crossing, 0.8, atol=1e-12)
    assert np.allclose(crossing - clear, 0.30, atol=1e-12)


def test_count_is_uninformative_given_crossing(crosswalk_model):
    # the count bin is not part of the observation, which is the detection
    # flag alone, and the shipped rates depend on c alone: every distance
    # bin shares one row
    detection = crosswalk_model.detection
    assert np.all(detection == detection[0])


def test_observation_prob_example(crosswalk_model):
    # not detected while clear at d = 40
    assert 1.0 - crosswalk_model.detection[40, 0] == pytest.approx(0.5, abs=1e-15)


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


def test_reward_goal_bonus_partial_entry(crosswalk_model):
    # from d=116 at v=3 only the +1 smear offset reaches the terminal bin
    s = state_index(3, 116, 0)
    assert crosswalk_model.rewards[s, 0] == pytest.approx(100.0 * ADVANCE_SPREAD[2])


def test_reward_bounds(crosswalk_model):
    assert crosswalk_model.rewards.min() >= -55.0
    assert crosswalk_model.rewards.max() <= 100.0


# --- config and helpers --------------------------------------------------------


def test_model_config_validation():
    with pytest.raises(ValueError, match="discount"):
        ModelConfig(discount=1.0)
    with pytest.raises(ValueError, match="crosswalk_bin"):
        ModelConfig(crosswalk_bin=NUM_D)


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
    model = PomdpModel(transitions=tuple(sparse.csr_matrix(m) for m in t), rewards=r, discount=0.9)
    assert model.num_states == 3 and model.num_actions == 2
    idx, probs = row_entries(model, 0, 0)
    assert list(idx) == [0, 1] and list(probs) == [0.5, 0.5]
    assert model.rewards[2, 1] == 5.0
    assert model.detection is None

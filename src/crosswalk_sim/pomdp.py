"""Discrete crosswalk-approach POMDP.

State (v, d, c): ego speed bin (0..10, 1 m/s each), distance bin along the
path (0..120, 0.5 m each, 120 terminal/absorbing), and whether a pedestrian
crossing is active. Actions are speed scales 0.0..1.0 in steps of 0.1.
Observations pair the binned unobservable-cell count with a boolean
pedestrian detection flag. One transition spans EPOCH seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .world import NUM_COUNT_BINS

NUM_V = 11
NUM_D = 121
NUM_CROSSING = 2
NUM_STATES = NUM_V * NUM_D * NUM_CROSSING  # 2662
NUM_ACTIONS = 11
NUM_OBS = 2 * NUM_COUNT_BINS  # 20
TERMINAL_D = NUM_D - 1
EPOCH = 0.5  # s between decisions

ACTION_SCALES = tuple(k / 10 for k in range(NUM_ACTIONS))


def state_index(v: int, d: int, c: int) -> int:
    """Flat index of speed bin v, distance bin d, crossing flag c."""
    if not (0 <= v < NUM_V and 0 <= d < NUM_D and 0 <= c < NUM_CROSSING):
        raise ValueError("state component out of range")
    return (c * NUM_D + d) * NUM_V + v


def state_tuple(index: int) -> tuple[int, int, int]:
    """Inverse of state_index: (v, d, c)."""
    if not 0 <= index < NUM_STATES:
        raise ValueError("state index out of range")
    v = index % NUM_V
    d = (index // NUM_V) % NUM_D
    c = index // (NUM_V * NUM_D)
    return v, d, c


def obs_index(count_bin: int, detected: bool) -> int:
    if not 0 <= count_bin < NUM_COUNT_BINS:
        raise ValueError("count bin out of range")
    return int(bool(detected)) * NUM_COUNT_BINS + count_bin


@dataclass(frozen=True)
class ModelConfig:
    """Free parameters of the crosswalk POMDP."""

    cell_length: float = 0.5  # m per distance bin
    speed_unit: float = 1.0  # m/s per speed bin
    p_adapt: float = 0.75  # chance the speed moves one bin toward the command
    advance_spread: tuple[float, float, float] = (0.15, 0.7, 0.15)
    crossing_persist: float = 0.95  # crossing stays active between epochs
    crossing_onset: float = 0.05  # crossing starts between epochs
    discount: float = 0.95
    crosswalk_bin: int = 80
    occluded_bins: tuple[int, int] = (0, 68)  # inclusive band of shadowed d bins
    reward_goal: float = 100.0
    reward_crossing: float = -50.0
    reward_speeding: float = -5.0
    speeding_bin: int = 6  # speed bins above this are penalized in the band
    detect_given_crossing: float = 0.8
    detect_given_clear: float = 0.5

    def __post_init__(self):
        for name in ("cell_length", "speed_unit"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if abs(sum(self.advance_spread) - 1.0) > 1e-12:
            raise ValueError("advance_spread must sum to 1")
        for p in (
            self.p_adapt,
            self.crossing_persist,
            self.crossing_onset,
            self.detect_given_crossing,
            self.detect_given_clear,
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not 0 <= self.crosswalk_bin < NUM_D:
            raise ValueError("crosswalk_bin out of range")


@dataclass(frozen=True, eq=False)
class PomdpModel:
    """Tabular model: per-action sparse transitions, rewards, observation
    likelihoods and an absorbing-state mask."""

    transitions: tuple[sparse.csr_matrix, ...]
    rewards: np.ndarray  # (S, A)
    discount: float
    observation: np.ndarray | None = None  # (S, O)
    terminal: np.ndarray | None = None  # (S,) bool

    @property
    def num_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_actions(self) -> int:
        return self.rewards.shape[1]

    @property
    def num_obs(self) -> int:
        return 0 if self.observation is None else self.observation.shape[1]

    @classmethod
    def from_dense(cls, transitions, rewards, discount, observation=None, terminal=None):
        """Build from a dense (A, S, S) transition array."""
        mats = tuple(sparse.csr_matrix(np.asarray(t, dtype=float)) for t in transitions)
        return cls(
            transitions=mats,
            rewards=np.asarray(rewards, dtype=float),
            discount=float(discount),
            observation=None if observation is None else np.asarray(observation, dtype=float),
            terminal=None if terminal is None else np.asarray(terminal, dtype=bool),
        )


def _distance_kernel(cfg: ModelConfig):
    """Next-distance targets of every non-terminal (d, v) row, in row order
    d * NUM_V + v: three ascending slots for the advance smeared by -1/0/+1
    cells and clamped at TERMINAL_D. A slot whose target equals the next
    slot's merges into it, probabilities summed in slot order; `keep` marks
    the slots that remain. A stationary row keeps d with probability one."""
    d = np.repeat(np.arange(TERMINAL_D), NUM_V)
    advance = np.tile(
        [int(round(v * cfg.speed_unit * EPOCH / cfg.cell_length)) for v in range(NUM_V)],
        TERMINAL_D,
    )[:, None]
    targets = np.where(advance == 0, d[:, None], np.minimum(d[:, None] + advance + (-1, 0, 1), TERMINAL_D))
    probs = np.where(advance == 0, (0.0, 0.0, 1.0), cfg.advance_spread)
    keep = np.ones(targets.shape, dtype=bool)
    keep[:, :2] = targets[:, :2] != targets[:, 1:]
    for k in (1, 2):
        merged = ~keep[:, k - 1]
        probs[merged, k] += probs[merged, k - 1]
    return targets, probs, keep


def _speed_kernel(command: int, p_adapt: float) -> np.ndarray:
    """(v, v') probabilities under one command: the speed moves one bin
    toward the command with p_adapt and stays once it is there."""
    v = np.arange(NUM_V)
    kernel = np.zeros((NUM_V, NUM_V))
    kernel[v, v] = 1.0 - p_adapt
    kernel[v, v + np.sign(command - v)] = p_adapt
    kernel[command, command] = 1.0
    return kernel


def _motion_matrix(dist, speed: np.ndarray) -> sparse.coo_matrix:
    """Speed/distance kernel of one action over the (d, v) states:
    M[(d, v), (d', v')] = pv * pd, with empty terminal rows. Entries are in
    row order with ascending columns."""
    d_targets, d_probs, d_keep = dist
    row = np.arange(TERMINAL_D * NUM_V)
    pv = speed[row % NUM_V][:, None, :]
    keep = d_keep[:, :, None] & (pv != 0.0)
    rows = np.broadcast_to(row[:, None, None], keep.shape)
    cols = d_targets[:, :, None] * NUM_V + np.arange(NUM_V)
    n = NUM_D * NUM_V
    return sparse.coo_matrix(((pv * d_probs[:, :, None])[keep], (rows[keep], cols[keep])), shape=(n, n))


def build_crosswalk_model(config: ModelConfig | None = None) -> PomdpModel:
    """Assemble the full 2662-state model from a configuration.

    Each action's transition matrix is the crossing chain composed with the
    action's speed/distance kernel, kron(C, M_a), plus probability-one
    self-loops on the terminal states."""
    cfg = config or ModelConfig()
    s = np.arange(NUM_STATES)
    v, d, c = s % NUM_V, (s // NUM_V) % NUM_D, s // (NUM_V * NUM_D)
    terminal = d == TERMINAL_D

    p_cross = np.array([cfg.crossing_onset, cfg.crossing_persist])
    crossing = np.column_stack((1.0 - p_cross, p_cross))  # C[c, c']
    loops = sparse.diags(terminal.astype(float))
    dist = _distance_kernel(cfg)
    mats = tuple(
        sparse.kron(crossing, _motion_matrix(dist, _speed_kernel(a, cfg.p_adapt)), format="csr") + loops
        for a in range(NUM_ACTIONS)
    )

    # the chance of entering the terminal bin sits in a row's last slot
    d_targets, d_probs, _ = dist
    goal_prob = np.where(d_targets[:, 2] == TERMINAL_D, d_probs[:, 2], 0.0)
    zone_lo, zone_hi = cfg.occluded_bins
    base = np.zeros(NUM_STATES)
    base[(v > cfg.speeding_bin) & (zone_lo <= d) & (d <= zone_hi)] += cfg.reward_speeding
    base[~terminal] += cfg.reward_goal * np.tile(goal_prob, NUM_CROSSING)
    crossing_pen = np.where((c == 1) & (d <= cfg.crosswalk_bin), cfg.reward_crossing, 0.0)
    rewards = np.repeat((base + crossing_pen)[:, None], NUM_ACTIONS, axis=1)
    rewards[:, 0] = base  # holding a zero command is exempt from the crossing penalty
    rewards[terminal] = 0.0

    # the count bin is uniform; only the detection flag depends on c
    p_detect = np.where(c == 1, cfg.detect_given_crossing, cfg.detect_given_clear)[:, None]
    observation = np.repeat(np.hstack((1.0 - p_detect, p_detect)) / NUM_COUNT_BINS, NUM_COUNT_BINS, axis=1)

    return PomdpModel(
        transitions=mats,
        rewards=rewards,
        discount=cfg.discount,
        observation=observation,
        terminal=terminal,
    )


def occluded_bins_from_band(s_lo: float, s_hi: float, cell_length: float = 0.5) -> tuple[int, int]:
    """Convert a shadowed path-distance interval in meters to d-bin bounds."""
    lo = max(int(np.floor(s_lo / cell_length)), 0)
    hi = min(int(np.ceil(s_hi / cell_length)), NUM_D - 1)
    return lo, hi

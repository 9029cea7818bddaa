"""Discrete crosswalk-approach POMDP.

State (v, d, c): ego speed bin (0..10, 1 m/s each), distance bin along the
path (0..120, 0.5 m each, 120 terminal/absorbing), and whether a pedestrian
crossing is active. Actions are speed scales 0.0..1.0 in steps of 0.1.
Observations pair the binned unobservable-cell count with a boolean
pedestrian detection flag.
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

    epoch: float = 0.5  # s between decisions
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
    config: ModelConfig | None = None

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
    def from_dense(cls, transitions, rewards, discount, observation=None, terminal=None, config=None):
        """Build from a dense (A, S, S) transition array."""
        mats = tuple(sparse.csr_matrix(np.asarray(t, dtype=float)) for t in transitions)
        return cls(
            transitions=mats,
            rewards=np.asarray(rewards, dtype=float),
            discount=float(discount),
            observation=None if observation is None else np.asarray(observation, dtype=float),
            terminal=None if terminal is None else np.asarray(terminal, dtype=bool),
            config=config,
        )


def transition_row(model: PomdpModel, state: int, action: int):
    """Sparse next-state distribution: (state indices, probabilities)."""
    mat = model.transitions[action]
    lo, hi = mat.indptr[state], mat.indptr[state + 1]
    return mat.indices[lo:hi].copy(), mat.data[lo:hi].copy()


def observation_prob(model: PomdpModel, obs: int, state: int) -> float:
    return float(model.observation[state, obs])


def reward(model: PomdpModel, state: int, action: int) -> float:
    return float(model.rewards[state, action])


def _speed_targets(v: int, command: int, p_adapt: float):
    if v == command:
        return ((v, 1.0),)
    nxt = v + 1 if command > v else v - 1
    return ((nxt, p_adapt), (v, 1.0 - p_adapt))


def _advance_targets(d: int, v: int, config: ModelConfig):
    advance = int(round(v * config.speed_unit * config.epoch / config.cell_length))
    if advance == 0:
        return ((d, 1.0),)
    merged: dict[int, float] = {}
    for offset, p in zip((-1, 0, 1), config.advance_spread):
        target = min(d + advance + offset, TERMINAL_D)
        merged[target] = merged.get(target, 0.0) + p
    return tuple(sorted(merged.items()))


def _crossing_targets(c: int, config: ModelConfig):
    p_active = config.crossing_persist if c == 1 else config.crossing_onset
    return ((1, p_active), (0, 1.0 - p_active))


def build_crosswalk_model(config: ModelConfig | None = None) -> PomdpModel:
    """Assemble the full 2662-state model from a configuration."""
    cfg = config or ModelConfig()
    data = [[] for _ in range(NUM_ACTIONS)]
    cols = [[] for _ in range(NUM_ACTIONS)]
    indptr = [[0] for _ in range(NUM_ACTIONS)]
    rewards = np.zeros((NUM_STATES, NUM_ACTIONS))
    terminal = np.zeros(NUM_STATES, dtype=bool)
    zone_lo, zone_hi = cfg.occluded_bins

    for c in range(NUM_CROSSING):
        cross_t = _crossing_targets(c, cfg)
        for d in range(NUM_D):
            if d == TERMINAL_D:
                for v in range(NUM_V):
                    s = state_index(v, d, c)
                    terminal[s] = True
                    for a in range(NUM_ACTIONS):
                        cols[a].append(s)
                        data[a].append(1.0)
                        indptr[a].append(len(cols[a]))
                continue
            for v in range(NUM_V):
                s = state_index(v, d, c)
                dist_t = _advance_targets(d, v, cfg)
                goal_prob = sum(p for dn, p in dist_t if dn == TERMINAL_D)
                base = 0.0
                if c == 1 and d <= cfg.crosswalk_bin:
                    crossing_pen = cfg.reward_crossing
                else:
                    crossing_pen = 0.0
                if v > cfg.speeding_bin and zone_lo <= d <= zone_hi:
                    base += cfg.reward_speeding
                base += cfg.reward_goal * goal_prob
                for a in range(NUM_ACTIONS):
                    rewards[s, a] = base + (crossing_pen if a > 0 else 0.0)
                    speed_t = _speed_targets(v, a, cfg.p_adapt)
                    row: dict[int, float] = {}
                    for vn, pv in speed_t:
                        for dn, pd in dist_t:
                            for cn, pc in cross_t:
                                sn = state_index(vn, dn, cn)
                                p = pv * pd * pc
                                row[sn] = row.get(sn, 0.0) + p
                    for sn in sorted(row):
                        cols[a].append(sn)
                        data[a].append(row[sn])
                    indptr[a].append(len(cols[a]))

    mats = tuple(
        sparse.csr_matrix(
            (np.asarray(data[a]), np.asarray(cols[a], dtype=np.int32), np.asarray(indptr[a], dtype=np.int32)),
            shape=(NUM_STATES, NUM_STATES),
        )
        for a in range(NUM_ACTIONS)
    )

    observation = np.empty((NUM_STATES, NUM_OBS))
    for c, p_detect in enumerate((cfg.detect_given_clear, cfg.detect_given_crossing)):
        half = slice(c * NUM_D * NUM_V, (c + 1) * NUM_D * NUM_V)
        observation[half, :NUM_COUNT_BINS] = (1.0 - p_detect) / NUM_COUNT_BINS
        observation[half, NUM_COUNT_BINS:] = p_detect / NUM_COUNT_BINS

    return PomdpModel(
        transitions=mats,
        rewards=rewards,
        discount=cfg.discount,
        observation=observation,
        terminal=terminal,
        config=cfg,
    )


def occluded_bins_from_band(s_lo: float, s_hi: float, cell_length: float = 0.5) -> tuple[int, int]:
    """Convert a shadowed path-distance interval in meters to d-bin bounds."""
    lo = max(int(np.floor(s_lo / cell_length)), 0)
    hi = min(int(np.ceil(s_hi / cell_length)), NUM_D - 1)
    return lo, hi

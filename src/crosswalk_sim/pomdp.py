"""Discrete crosswalk-approach POMDP.

State (v, d, c): ego speed bin (0..10, 1 m/s each), distance bin along the
path (0..120, 0.5 m each, 120 terminal/absorbing), and whether a pedestrian
crossing is active. Actions are speed scales 0.0..1.0 in steps of 0.1.
The observation is the pedestrian detection flag, 0 or 1, seen with the
chance P(detected | d, c) (PomdpModel.detection); the shipped rates depend
on c alone. One transition spans EPOCH seconds. The flat index of state
(v, d, c) is (c * NUM_D + d) * NUM_V + v.

The chains, rewards and detection rates are module constants;
ModelConfig holds only what differs between solves. The transition
matrices are built once per process with scipy's kron, and every model
shares them read-only, as it shares the goal-entry chances of its
rewards; scipy is imported on the first model build, not with this
module.

The car's motion is one table M[a, v, k, v'] (_motion): command a takes
speed bin v to v' while the car advances k >= 0 distance bins. No
transition lowers d, and away from the terminal clamp none depends on d:
the transition matrices lay M over the distance layers (_clamped), and
the layer kernel over the (c, v) states of a distance layer is C (x) M,
through which qmdp.value_iteration solves layer by layer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .control import path_to_crosswalk
from .world import Scene, crosswalk_occlusion_band

NUM_V = 11
NUM_D = 121
NUM_CROSSING = 2
NUM_STATES = NUM_V * NUM_D * NUM_CROSSING  # 2662
NUM_ACTIONS = 11
TERMINAL_D = NUM_D - 1
EPOCH = 0.5  # s between decisions

ACTION_SCALES = tuple(k / 10 for k in range(NUM_ACTIONS))

CELL_LENGTH = 0.5  # m per distance bin
SPEED_UNIT = 1.0  # m/s per speed bin
P_ADAPT = 0.75  # chance the speed moves one bin toward the command
ADVANCE_SPREAD = (0.15, 0.7, 0.15)  # chances of the -1/0/+1 cell smear
CROSSING_PERSIST = 0.95  # crossing stays active between epochs
CROSSING_ONSET = 0.05  # crossing starts between epochs
REWARD_GOAL = 100.0
REWARD_CROSSING = -50.0
REWARD_SPEEDING = -5.0
SPEEDING_BIN = 6  # speed bins above this are penalized in the occluded band
DETECT_GIVEN_CROSSING = 0.8
DETECT_GIVEN_CLEAR = 0.5

# C[c, c']: the pedestrian crossing flag's chance of moving from c to c'
# over one epoch, under every action; read-only, as models share it
CROSSING_CHAIN = np.array([[1.0 - CROSSING_ONSET, CROSSING_ONSET], [1.0 - CROSSING_PERSIST, CROSSING_PERSIST]])
CROSSING_CHAIN.flags.writeable = False


@dataclass(frozen=True)
class ModelConfig:
    """The parameters that differ between solves: the discount, and the
    scene geometry that derive_model_config works out per scene."""

    discount: float = 0.95
    crosswalk_bin: int = 80
    occluded_bins: tuple[int, int] = (0, 68)  # inclusive band of shadowed d bins

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"bad value for key 'discount': {self.discount!r} does not lie in (0, 1)")
        if not 0 <= self.crosswalk_bin < NUM_D:
            raise ValueError(f"bad value for key 'crosswalk_bin': {self.crosswalk_bin!r} is out of range")


@dataclass(frozen=True, eq=False)
class PomdpModel:
    """Tabular model: per-action sparse transitions, rewards and, for a
    model laid out as the crosswalk model is, optionally its detection
    rates and its layer kernel.

    layer_kernel[a, s, k, s'] is the chance that action a takes layer
    state s = c * NUM_V + v at distance bin d to s' at d + k, for every d
    whose d + k stays short of TERMINAL_D (a d + k at or past it stands
    for the terminal layer). It restates `transitions` for a solver that
    walks the layers; value_iteration only starts from what it gives, so a
    kernel that disagrees with `transitions` costs sweeps, not accuracy.
    None for a model without that layout."""

    transitions: tuple  # one scipy.sparse.csr_matrix (S, S) per action; the crosswalk model's are int32-indexed, shared and read-only
    rewards: np.ndarray  # (S, A)
    discount: float
    detection: np.ndarray | None = None  # (NUM_D, NUM_CROSSING), read-only: P(detected | d, c)
    layer_kernel: np.ndarray | None = None  # (A, NUM_CROSSING * NUM_V, reach, NUM_CROSSING * NUM_V)

    @property
    def num_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_actions(self) -> int:
        return self.rewards.shape[1]


def _speed_kernel(command: int) -> np.ndarray:
    """(v, v') probabilities under one command: the speed moves one bin
    toward the command with P_ADAPT and stays once it is there."""
    v = np.arange(NUM_V)
    kernel = np.zeros((NUM_V, NUM_V))
    kernel[v, v] = 1.0 - P_ADAPT
    kernel[v, v + np.sign(command - v)] = P_ADAPT
    kernel[command, command] = 1.0
    return kernel


def _advance() -> np.ndarray:
    """P[v, k]: the chance that speed bin v advances k distance bins over
    one epoch, its round(v * SPEED_UNIT * EPOCH / CELL_LENGTH) bins
    smeared by -1/0/+1 cells (ADVANCE_SPREAD). A speed that rounds to no
    advance stays put: k = 0 with probability one."""
    step = np.rint(np.arange(NUM_V) * SPEED_UNIT * EPOCH / CELL_LENGTH).astype(int)
    table = np.zeros((NUM_V, step.max() + 2))
    table[step == 0, 0] = 1.0
    moving = np.flatnonzero(step)
    table[moving[:, None], step[moving, None] + (-1, 0, 1)] = ADVANCE_SPREAD
    return table


@functools.cache
def _motion() -> np.ndarray:
    """M[a, v, k, v']: the chance that command a takes speed bin v to v'
    while the car advances k distance bins, S_a[v, v'] * P[v, k] with S_a
    the speed kernel and P the advance table. Away from the terminal clamp
    it is the whole motion at every distance bin. Built once per process
    and read-only, as models share it."""
    speed = np.stack([_speed_kernel(a) for a in range(NUM_ACTIONS)])
    motion = speed[:, :, None, :] * _advance()[:, :, None]
    motion.flags.writeable = False
    return motion


def _clamped(table: np.ndarray):
    """Triplets (values, (rows, cols)) of a (v, k, w) table laid over the
    TERMINAL_D non-terminal distance layers: entry (v, k, w) of layer d
    goes to row d * NUM_V + v and column min(d + k, TERMINAL_D) * W + w,
    with W = table.shape[2]. Zero entries are dropped, and entries that
    the clamp lands on one column are summed one by one in ascending k.
    In row order with ascending columns."""
    lanes = table.shape[2]
    width = NUM_D * lanes  # columns of a row
    v, k, w = np.nonzero(table)
    d = np.arange(TERMINAL_D)[:, None]
    key = (d * NUM_V + v) * width + np.minimum(d + k, TERMINAL_D) * lanes + w
    # bincount adds each column's entries in the order given, ascending k
    key, column = np.unique(key.ravel(), return_inverse=True)
    values = np.bincount(column, weights=np.tile(table[v, k, w], TERMINAL_D))
    return values, np.divmod(key, width)


@functools.cache
def _layer_kernel() -> np.ndarray:
    """PomdpModel.layer_kernel of the crosswalk model, shape (NUM_ACTIONS,
    22, 12, 22) with the 12 advances 0..11 bins: C[c, c'] * M[a, v, k, v'],
    the factors and product order of the transition matrices. Built once
    per process and read-only, as models share it."""
    kernel = CROSSING_CHAIN[:, None, None, :, None] * _motion()[:, None, :, :, None, :]
    width = NUM_CROSSING * NUM_V
    kernel = kernel.reshape(NUM_ACTIONS, width, -1, width)
    kernel.flags.writeable = False
    return kernel


@functools.cache
def _goal_entry() -> np.ndarray:
    """The chance of entering the terminal bin in one epoch from each
    non-terminal (d, v), at index d * NUM_V + v: the terminal column of
    the clamped advance table. Built once per process and read-only, as
    every model build reads it."""
    chance, (row, col) = _clamped(_advance()[:, :, None])
    goal = np.zeros(TERMINAL_D * NUM_V)
    goal[row[col == TERMINAL_D]] = chance[col == TERMINAL_D]
    goal.flags.writeable = False
    return goal


@functools.cache
def _transitions() -> tuple:
    """PomdpModel.transitions of the crosswalk model: one csr_matrix per
    action, the Kronecker product C (x) M_a of the crossing chain C and the
    action's motion table laid over the distance layers (_clamped), plus
    probability-one self-loops on the terminal states, whose M_a rows are
    empty. Built once per process, with every array read-only, as models
    share them."""
    from scipy import sparse  # here, so that runs without a model build never load it

    n = NUM_D * NUM_V
    terminal = (np.arange(NUM_STATES) // NUM_V) % NUM_D == TERMINAL_D
    loops = sparse.diags(terminal.astype(float))
    mats = tuple(
        sparse.kron(CROSSING_CHAIN, sparse.coo_matrix(_clamped(m), shape=(n, n)), format="csr") + loops
        for m in _motion()
    )
    for mat in mats:
        for array in (mat.data, mat.indices, mat.indptr):
            array.flags.writeable = False
    return mats


def build_crosswalk_model(config: ModelConfig | None = None) -> PomdpModel:
    """Assemble the full 2662-state model from a configuration.

    Only the rewards and the discount depend on the config. The transition
    matrices, the layer kernel and the goal-entry chances depend on no
    config field; each is built once per process (_transitions,
    _layer_kernel, _goal_entry) and shared read-only by every model."""
    cfg = config or ModelConfig()
    s = np.arange(NUM_STATES)
    v, d, c = s % NUM_V, (s // NUM_V) % NUM_D, s // (NUM_V * NUM_D)
    terminal = d == TERMINAL_D

    zone_lo, zone_hi = cfg.occluded_bins
    base = np.zeros(NUM_STATES)
    base[(v > SPEEDING_BIN) & (zone_lo <= d) & (d <= zone_hi)] += REWARD_SPEEDING
    base[~terminal] += REWARD_GOAL * np.tile(_goal_entry(), NUM_CROSSING)
    crossing_pen = np.where((c == 1) & (d <= cfg.crosswalk_bin), REWARD_CROSSING, 0.0)
    rewards = np.repeat((base + crossing_pen)[:, None], NUM_ACTIONS, axis=1)
    rewards[:, 0] = base  # holding a zero command is exempt from the crossing penalty
    rewards[terminal] = 0.0

    detection = np.tile((DETECT_GIVEN_CLEAR, DETECT_GIVEN_CROSSING), (NUM_D, 1))
    detection.flags.writeable = False

    return PomdpModel(
        transitions=_transitions(),
        rewards=rewards,
        discount=cfg.discount,
        detection=detection,
        layer_kernel=_layer_kernel(),
    )


def occluded_bins_from_band(s_lo: float, s_hi: float) -> tuple[int, int]:
    """Convert a shadowed path-distance interval in meters to d-bin bounds."""
    lo = max(int(np.floor(s_lo / CELL_LENGTH)), 0)
    hi = min(int(np.ceil(s_hi / CELL_LENGTH)), NUM_D - 1)
    return lo, hi


def derive_model_config(scene: Scene, base: ModelConfig | None = None) -> ModelConfig:
    """Fill the geometry-dependent fields of a model config from a scene:
    the crosswalk distance bin and the occluded distance band (empty,
    lo > hi, when nothing is shadowed). Raises InfeasiblePathError when
    the scene leaves no room for the avoidance path or puts the crosswalk
    off it or where no run reaches it (control.path_to_crosswalk)."""
    cfg = base or ModelConfig()
    path, crosswalk_s = path_to_crosswalk(scene)
    crosswalk_bin = min(int(round(crosswalk_s / CELL_LENGTH)), NUM_D - 1)
    band = crosswalk_occlusion_band(scene, path)
    occluded = (1, 0) if band is None else occluded_bins_from_band(*band)
    return replace(cfg, crosswalk_bin=crosswalk_bin, occluded_bins=occluded)

"""QMDP solver: value iteration on the underlying MDP, started from an
exact backward pass over the distance layers where the model has them,
plus alpha-vector action selection over beliefs."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .files import ConfigError
from .pomdp import (
    ACTION_SCALES,
    NUM_CROSSING,
    NUM_D,
    NUM_STATES,
    NUM_V,
    TERMINAL_D,
    ModelConfig,
    PomdpModel,
)

log = logging.getLogger(__name__)

BELIEF_TOL = 1e-9
LAYER_POLICY_STEPS = 100  # policy-iteration steps a layer may take to settle

POLICY_FORMAT = "alpha-policy-v2"


class ValueIterationError(RuntimeError):
    """Raised when value iteration fails to reach the tolerance."""


def value_iteration(model: PomdpModel, tol: float = 1e-6, max_iters: int = 10000) -> np.ndarray:
    """Solve for the optimal Q table by synchronous sweeps.

    Returns a (num_states, num_actions) array within tol of the optimal Q
    in sup norm; its Bellman residual is also at most tol. Sweeps stop
    once the successive difference guarantees both via the contraction
    bound. Raises ValueIterationError if max_iters sweeps are not enough.

    The sweeps start from the exact Q of _backward_pass when the model has
    a layer kernel, so one sweep certifies it, and from zeros otherwise.
    The sweep count and the last successive difference are logged at
    DEBUG level.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gamma = model.discount
    residual = np.inf  # reported when max_iters allows no sweep
    # |Q_k - Q*| <= gamma / (1 - gamma) * |Q_k - Q_{k-1}|
    stop = tol * min(1.0, (1.0 - gamma) / max(gamma, 1e-12))
    transitions = model.transitions
    rewards = np.ascontiguousarray(model.rewards.T)
    # Q is held as (actions, states) so each backup fills one contiguous row
    if model.layer_kernel is None:
        q = np.zeros_like(rewards)
    else:
        q = _backward_pass(model.layer_kernel, rewards, gamma)
    q_new = np.empty_like(rewards)
    for sweep in range(1, max_iters + 1):
        v = q.max(axis=0)
        for a in range(model.num_actions):
            np.multiply(transitions[a] @ v, gamma, out=q_new[a])
        q_new += rewards
        diff = np.subtract(q_new, q, out=q)
        residual = float(np.abs(diff, out=diff).max())
        q, q_new = q_new, q
        if residual <= stop:
            log.debug("value iteration: %d sweeps, residual %.3e", sweep, residual)
            return q.T.copy()
    raise ValueIterationError(
        f"no convergence after {max_iters} sweeps (residual {residual:.3e})"
    )


def _backward_pass(kernel: np.ndarray, rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Exact Q, in value_iteration's (actions, states) layout, of a model
    laid out as the crosswalk model whose motion is kernel
    (PomdpModel.layer_kernel) and whose terminal layer loops with reward 0.

    The layers are solved from TERMINAL_D - 1 down to 0. Values at and past
    the terminal layer are zero, so a layer's Q is its rewards, plus one
    contraction of the kernel's advances k >= 1 with the next layers'
    values, plus the same-layer share. A state with no same-layer mass
    under any action has that share zero; the others are settled exactly
    by _policy_iteration, started from the policy that settled the layer
    above: neighbouring layers differ only in their later values, so it
    mostly settles at once. The number of policy evaluations is logged at
    DEBUG level.
    """
    num_actions, width, reach, _ = kernel.shape
    by_layer = rewards.reshape(num_actions, NUM_CROSSING, NUM_D, NUM_V).transpose(2, 0, 1, 3)
    by_layer = by_layer.reshape(NUM_D, num_actions, width)
    # the advances k >= 1 as one (a s, k s') matrix, so a layer's later
    # values, rows d + 1 .. d + reach - 1 of `values`, are one flat window
    ahead = gamma * kernel[:, :, 1:, :].reshape(num_actions * width, (reach - 1) * width)
    same = gamma * kernel[:, :, 0, :]
    inner = same.any(axis=(0, 2))  # the states that can stay in their layer
    block = same[:, inner]
    leave, stay = block[:, :, ~inner], block[:, :, inner]
    values = np.zeros((TERMINAL_D + reach, width))  # rows >= TERMINAL_D stay 0
    q = np.zeros((NUM_D, num_actions, width))
    policy, evaluations = None, 0
    for d in range(TERMINAL_D - 1, -1, -1):
        base = by_layer[d] + (ahead @ values[d + 1 : d + reach].ravel()).reshape(num_actions, width)
        layer = base.max(axis=0)
        layer[inner], policy, steps = _policy_iteration(base[:, inner] + leave @ layer[~inner], stay, policy)
        evaluations += steps
        q[d] = base + same @ layer
        values[d] = q[d].max(axis=0)
    log.debug("backward pass: %d layers, %d policy evaluations", TERMINAL_D, evaluations)
    return q.reshape(NUM_D, num_actions, NUM_CROSSING, NUM_V).transpose(1, 2, 0, 3).reshape(num_actions, -1)


def _policy_iteration(rewards: np.ndarray, stay: np.ndarray, policy: np.ndarray | None = None):
    """Values V of the fixed point Q = rewards + stay @ max_a Q over a few
    states, where stay[a, s, s'] holds the discounted chances of the
    moves among them and each row sums to less than 1. Returns V, the
    settled policy and the number of policy evaluations.

    Starts from policy, an action per state, or from the greedy action on
    rewards when it is None; each step evaluates the policy exactly and
    switches a state's action only where another is strictly better. From
    any start it stops only at a policy that no switch improves, whose
    values are the fixed point's. Raises ValueIterationError if the policy
    has not settled after LAYER_POLICY_STEPS steps."""
    states = np.arange(rewards.shape[1])
    identity = np.eye(states.size)
    if policy is None:
        policy = rewards.argmax(axis=0)
    for step in range(1, LAYER_POLICY_STEPS + 1):
        v = np.linalg.solve(identity - stay[policy, states], rewards[policy, states])
        q = rewards + stay @ v
        best = q.argmax(axis=0)
        better = q[best, states] > q[policy, states]
        if not better.any():
            return v, policy, step
        policy = np.where(better, best, policy)
    raise ValueIterationError(f"layer policy iteration did not settle in {LAYER_POLICY_STEPS} steps")


@dataclass(frozen=True, eq=False)
class AlphaVectorPolicy:
    """One alpha vector per action; the policy value of a belief is the
    max inner product and the greedy action attains it."""

    alphas: np.ndarray  # (num_actions, num_states)
    scales: tuple[float, ...]

    def __post_init__(self):
        if self.alphas.ndim != 2 or self.alphas.shape[0] != len(self.scales):
            raise ValueError("alphas must be (num_actions, num_states)")


def extract_alphas(q: np.ndarray, scales) -> AlphaVectorPolicy:
    """Turn a Q table into the QMDP alpha-vector set (one per action)."""
    q = np.asarray(q, dtype=float)
    return AlphaVectorPolicy(alphas=q.T.copy(), scales=tuple(float(s) for s in scales))


def best_action(policy: AlphaVectorPolicy, belief: np.ndarray) -> int:
    """Greedy action index for a belief; ties break to the lowest index.

    The belief must be a proper distribution over the policy's state
    space (entries nonnegative, summing to one within 1e-9).
    """
    b = np.asarray(belief, dtype=float)
    if b.shape != (policy.alphas.shape[1],):
        raise ValueError("belief length does not match the state space")
    if np.any(b < 0) or abs(float(b.sum()) - 1.0) > BELIEF_TOL:
        raise ValueError("belief is not a normalized distribution")
    scores = policy.alphas @ b
    return int(np.argmax(scores))


def save_policy(policy: AlphaVectorPolicy, destination, config: ModelConfig) -> None:
    """Write a policy solved for config to a versioned plain-text file.

    Layout: a format line, the model line (config's discount, crosswalk
    bin and occluded band), counts, the action scale labels, then one line
    of '%.17g' state values per action. Floats round-trip exactly.
    """
    lo, hi = config.occluded_bins
    lines = [
        POLICY_FORMAT,
        f"model discount {config.discount:.17g} crosswalk_bin {config.crosswalk_bin} occluded_bins {lo} {hi}",
        f"actions {policy.alphas.shape[0]}",
        f"states {policy.alphas.shape[1]}",
        "scales " + " ".join(f"{s:.17g}" for s in policy.scales),
    ]
    for row in policy.alphas:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_policy(source, config: ModelConfig) -> AlphaVectorPolicy:
    """Read a policy written by save_policy for config; rejects unknown
    formats. A malformed file (among them one with a non-finite alpha
    value), or one solved for another model config or with other action
    scales or state count than the model's, raises ConfigError naming it."""
    with open(source, "r", encoding="utf-8") as fh:
        try:
            lines = [ln.strip() for ln in fh if ln.strip()]
        except UnicodeDecodeError:
            raise ConfigError(f"{source}: not UTF-8 text") from None
    if not lines or lines[0] != POLICY_FORMAT:
        raise ConfigError(f"{source}: not a {POLICY_FORMAT} file")
    if len(lines) < 5:
        raise ConfigError(f"{source}: truncated policy file")
    solved_for = _model_line(source, lines[1])
    if solved_for != config:
        raise ConfigError(f"{source}: policy solved for {solved_for}, not for {config}")
    try:
        header = dict(ln.split(maxsplit=1) for ln in lines[2:4])
        num_actions = int(header["actions"])
        num_states = int(header["states"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{source}: malformed policy header") from exc
    if not lines[4].startswith("scales "):
        raise ConfigError(f"{source}: missing scales line")
    try:
        scales = tuple(float(x) for x in lines[4].split()[1:])
        rows = [[float(x) for x in ln.split()] for ln in lines[5:]]
    except ValueError as exc:
        raise ConfigError(f"{source}: non-numeric policy value") from exc
    if len(scales) != num_actions:
        raise ConfigError(f"{source}: scale count does not match actions")
    if len(rows) != num_actions:
        raise ConfigError(f"{source}: alpha row count does not match actions")
    if any(len(row) != num_states for row in rows):
        raise ConfigError(f"{source}: alpha matrix shape mismatch")
    alphas = np.array(rows, dtype=float).reshape(num_actions, num_states)
    if not np.isfinite(alphas).all():
        raise ConfigError(f"{source}: non-finite alpha value")
    # save_policy writes '%.17g', so the model's scales read back exactly
    if scales != ACTION_SCALES:
        raise ConfigError(f"{source}: action scales {scales} are not the model's {ACTION_SCALES}")
    if num_states != NUM_STATES:
        raise ConfigError(f"{source}: alphas of shape {alphas.shape}, not the model's {(num_actions, NUM_STATES)}")
    return AlphaVectorPolicy(alphas=alphas, scales=scales)


def _model_line(source, line: str) -> ModelConfig:
    """The ModelConfig a save_policy model line records."""
    try:
        tag, k1, discount, k2, crosswalk_bin, k3, lo, hi = line.split()
        if (tag, k1, k2, k3) != ("model", "discount", "crosswalk_bin", "occluded_bins"):
            raise ValueError(line)
        return ModelConfig(float(discount), int(crosswalk_bin), (int(lo), int(hi)))
    except ValueError as exc:
        raise ConfigError(f"{source}: malformed model line") from exc

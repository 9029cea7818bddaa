"""QMDP solver: value iteration on the underlying MDP plus alpha-vector
action selection over beliefs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .files import ConfigError
from .pomdp import ACTION_SCALES, NUM_STATES, ModelConfig, PomdpModel

BELIEF_TOL = 1e-9

POLICY_FORMAT = "alpha-policy-v2"


class ValueIterationError(RuntimeError):
    """Raised when value iteration fails to reach the tolerance."""


def value_iteration(model: PomdpModel, tol: float = 1e-6, max_iters: int = 10000) -> np.ndarray:
    """Solve for the optimal Q table by synchronous sweeps.

    Returns a (num_states, num_actions) array within tol of the optimal Q
    in sup norm; its Bellman residual is also at most tol. Sweeps stop
    once the successive difference guarantees both via the contraction
    bound. Raises ValueIterationError if max_iters sweeps are not enough.
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
    q = np.zeros_like(rewards)
    q_new = np.empty_like(rewards)
    for _ in range(max_iters):
        v = q.max(axis=0)
        for a in range(model.num_actions):
            np.multiply(transitions[a] @ v, gamma, out=q_new[a])
        q_new += rewards
        diff = np.subtract(q_new, q, out=q)
        residual = float(np.abs(diff, out=diff).max())
        q, q_new = q_new, q
        if residual <= stop:
            return q.T.copy()
    raise ValueIterationError(
        f"no convergence after {max_iters} sweeps (residual {residual:.3e})"
    )


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

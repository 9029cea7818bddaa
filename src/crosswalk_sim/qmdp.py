"""QMDP solver: value iteration on the underlying MDP, started from an
exact backward pass over the distance layers where the model has them,
plus alpha-vector action selection over beliefs. A policy lives only in
memory: each pomdp run solves its own, in about 8 ms."""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .pomdp import NUM_CROSSING, NUM_D, NUM_V, TERMINAL_D, PomdpModel

log = logging.getLogger(__name__)

BELIEF_TOL = 1e-9
LAYER_POLICY_STEPS = 100  # policy-iteration steps a layer may take to settle


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
    if model.layer_kernel is None:
        q = np.zeros_like(model.rewards)
    else:
        q = _backward_pass(model.layer_kernel, model.rewards, gamma)
    num_actions = model.num_actions
    for sweep in range(1, max_iters + 1):
        # a running maximum over the action columns: the same left-to-right
        # maximum as q.max(axis=1), without its strided reduce
        v = q[:, 0].copy()
        for a in range(1, num_actions):
            np.maximum(v, q[:, a], out=v)
        ahead = np.stack([model.transitions[a] @ v for a in range(num_actions)])  # (A, S)
        backup = np.add(model.rewards, gamma * ahead.T, order="C")  # (S, A), C-contiguous
        residual = float(np.abs(backup - q).max())
        q = backup
        if residual <= stop:
            log.debug("value iteration: %d sweeps, residual %.3e", sweep, residual)
            return q
    raise ValueIterationError(
        f"no convergence after {max_iters} sweeps (residual {residual:.3e})"
    )


def _backward_pass(kernel: np.ndarray, rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Exact (states, actions) Q of a model laid out as the crosswalk model
    whose motion is kernel (PomdpModel.layer_kernel), whose rewards are
    rewards (S, A) and whose terminal layer loops with reward 0.

    The layers are solved from TERMINAL_D - 1 down to 0. Values at and past
    the terminal layer are zero, so a layer's Q is its rewards, plus one
    contraction of the kernel's advances k >= 1 with the next layers'
    values, plus the same-layer share. A state with no same-layer mass
    under any action has that share zero; the others are settled exactly
    by _policy_iteration, started from the policy that settled the layer
    above with that policy's system matrix: neighbouring layers differ only
    in their later values, so it mostly settles at once and the matrix is
    rebuilt only where the policy changes. The later-values product, a
    layer's Q before the same-layer share and its maximum go into buffers
    allocated once per pass. The number of policy evaluations is logged at
    DEBUG level.
    """
    num_actions, width, reach, _ = kernel.shape
    by_layer = rewards.reshape(NUM_CROSSING, NUM_D, NUM_V, num_actions).transpose(1, 3, 0, 2)
    by_layer = by_layer.reshape(NUM_D, num_actions, width)
    # the advances k >= 1 as one (a s, k s') matrix, so a layer's later
    # values, rows d + 1 .. d + reach - 1 of `values`, are one flat window
    ahead = gamma * kernel[:, :, 1:, :].reshape(num_actions * width, (reach - 1) * width)
    same = gamma * kernel[:, :, 0, :]
    can_stay = same.any(axis=(0, 2))
    # the states that can stay in their layer, and the others
    inner, outer = np.flatnonzero(can_stay), np.flatnonzero(~can_stay)
    block = same[:, inner]
    leave, stay = block[:, :, outer], block[:, :, inner]
    values = np.zeros((TERMINAL_D + reach, width))  # rows >= TERMINAL_D stay 0
    flat = values.ravel()  # a view, so each layer's values[d] shows in it
    q = np.zeros((NUM_D, num_actions, width))
    later, base, layer = np.empty(num_actions * width), np.empty((num_actions, width)), np.empty(width)
    policy, system, evaluations = None, None, 0
    for d in range(TERMINAL_D - 1, -1, -1):
        np.matmul(ahead, flat[(d + 1) * width : (d + reach) * width], out=later)
        np.add(by_layer[d], later.reshape(num_actions, width), out=base)
        np.maximum.reduce(base, axis=0, out=layer)
        r = base.take(inner, axis=1)
        r += leave @ layer[outer]
        layer[inner], policy, system, steps = _policy_iteration(r, stay, policy, system)
        evaluations += steps
        np.add(base, same @ layer, out=q[d])
        np.maximum.reduce(q[d], axis=0, out=values[d])
    log.debug("backward pass: %d layers, %d policy evaluations", TERMINAL_D, evaluations)
    return q.reshape(NUM_D, num_actions, NUM_CROSSING, NUM_V).transpose(2, 0, 3, 1).reshape(-1, num_actions)


def _policy_iteration(
    rewards: np.ndarray, stay: np.ndarray, policy: np.ndarray | None = None, system: np.ndarray | None = None
):
    """Values V of the fixed point Q = rewards + stay @ max_a Q over a few
    states, where stay[a, s, s'] holds the discounted chances of the
    moves among them and each row sums to less than 1. Returns V, the
    settled policy, its system matrix and the number of policy evaluations.

    Starts from policy, an action per state, or from the greedy action on
    rewards when it is None. system is that policy's evaluation matrix,
    identity - stay[policy, states], or None to build it; it is rebuilt
    only when the policy changes, so a caller that passes back the settled
    policy with its system builds none while the policy holds. Each step
    evaluates the policy exactly and switches a state's action only where
    another is strictly better. From any start it stops only at a policy
    that no switch improves, whose values are the fixed point's. Raises
    ValueIterationError if the policy has not settled after
    LAYER_POLICY_STEPS steps."""
    states, identity = _states_and_identity(rewards.shape[1])
    if policy is None:
        policy = rewards.argmax(axis=0)
    if system is None:
        system = identity - stay[policy, states]
    for step in range(1, LAYER_POLICY_STEPS + 1):
        v = np.linalg.solve(system, rewards[policy, states])
        q = stay @ v
        q += rewards
        better = np.maximum.reduce(q, axis=0) > q[policy, states]
        if not better.any():
            return v, policy, system, step
        policy = np.where(better, q.argmax(axis=0), policy)
        system = identity - stay[policy, states]
    raise ValueIterationError(f"layer policy iteration did not settle in {LAYER_POLICY_STEPS} steps")


@functools.cache
def _states_and_identity(n: int):
    """np.arange(n) and np.eye(n) for _policy_iteration, built once per
    size and read-only, as every layer's call shares them."""
    states, identity = np.arange(n), np.eye(n)
    states.flags.writeable = identity.flags.writeable = False
    return states, identity


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


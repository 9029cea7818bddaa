"""Belief tracking and the stopping ramp.

A QMDP step acts on the current belief, then folds the observation that
arrives during the following control interval into the posterior. Both
work on any tabular model: harness's QMDP policy runs them on the
two-state model of the crossing flag, since the car knows its own speed
and distance bins. The policies that use both live in harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pomdp import PomdpModel
from .qmdp import BELIEF_TOL, AlphaVectorPolicy, best_action

STOP_MARGIN = 5.0  # m short of the crosswalk line where a yielding stop ends
STOP_DECEL = 2.0  # m/s^2 of the constant-deceleration stopping ramp


class ZeroBeliefError(RuntimeError):
    """Posterior had no probability mass: the observation contradicts the
    belief under the model."""


@dataclass(frozen=True)
class SensorReading:
    """One decision epoch's perception summary."""

    unobservable_count: int
    detected: bool


def init_belief(model: PomdpModel) -> np.ndarray:
    """Uniform belief over the model's state space."""
    n = model.num_states
    return np.full(n, 1.0 / n)


def belief_update(belief: np.ndarray, action: int, obs: int, model: PomdpModel) -> np.ndarray:
    """Discrete Bayes step: push the belief through the transition model,
    weight by the observation likelihood, renormalize.

    Raises ZeroBeliefError when the posterior mass vanishes.
    """
    b = np.asarray(belief, dtype=float)
    if b.shape != (model.num_states,):
        raise ValueError("belief length does not match the model")
    if np.any(b < 0) or abs(float(b.sum()) - 1.0) > BELIEF_TOL:
        raise ValueError("belief is not a normalized distribution")
    if not 0 <= obs < model.num_obs:
        raise ValueError("observation index out of range")
    predicted = model.transitions[action].T @ b
    weighted = predicted * model.observation[:, obs]
    mass = float(weighted.sum())
    if mass <= 0.0:
        raise ZeroBeliefError("observation has zero likelihood under the predicted belief")
    return weighted / mass


def pomdp_step(
    belief: np.ndarray,
    policy: AlphaVectorPolicy,
    reading: SensorReading,
    model: PomdpModel,
) -> tuple[float, np.ndarray]:
    """One decision: pick the greedy action for the current belief, then
    absorb the sensor reading's detection flag, the model's observation,
    into the posterior. Returns (scale, belief)."""
    action = best_action(policy, belief)
    posterior = belief_update(belief, action, int(reading.detected), model)
    return policy.scales[action], posterior


def stopping_scale(speed_limit_dist: float, v_desired: float) -> float:
    """Scale that tracks a STOP_DECEL ramp to rest over the given distance.
    Zero at and past the stop point."""
    if v_desired <= 0:
        raise ValueError("v_desired must be positive")
    if speed_limit_dist <= 0.0:
        return 0.0
    return min(1.0, math.sqrt(2.0 * STOP_DECEL * speed_limit_dist) / v_desired)


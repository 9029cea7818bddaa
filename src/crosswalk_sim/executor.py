"""Belief tracking and the stopping ramp.

A QMDP step acts on the current belief, then folds the observation that
arrives during the following control interval into the posterior. Both
take the arrays they read: a belief over n states, the step's
row-stochastic (n, n) transition matrix and the observation's likelihood
in each state, and pomdp_step the alpha rows it picks from. harness's
QMDP policy runs them on the crossing flag alone, with the crossing chain,
which no action changes, and the model's P(detected | d, c) at the car's
own distance bin d, since the car knows its speed and distance bins. The
policies that use both live in harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import V_DESIRED

BELIEF_TOL = 1e-9  # how far a belief's sum may stray from one
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


def belief_update(belief: np.ndarray, transition, likelihood: np.ndarray) -> np.ndarray:
    """Discrete Bayes step: push the belief through transition, a
    row-stochastic (n, n) matrix, weight by the observation's likelihood
    in each state, renormalize.

    Raises ValueError unless the belief is a distribution over the n
    states (NaN entries fail), and ZeroBeliefError when the posterior mass
    vanishes or is NaN.
    """
    b = np.asarray(belief, dtype=float)
    if b.shape != (transition.shape[0],) or np.shape(likelihood) != b.shape:
        raise ValueError("belief or likelihood length does not match the transition matrix")
    if not np.all(b >= 0) or not abs(float(b.sum()) - 1.0) <= BELIEF_TOL:
        raise ValueError("belief is not a normalized distribution")
    predicted = transition.T @ b
    weighted = predicted * likelihood
    mass = float(weighted.sum())
    if not mass > 0.0:
        raise ZeroBeliefError("observation has zero likelihood under the predicted belief")
    return weighted / mass


def pomdp_step(
    belief: np.ndarray, rows: np.ndarray, transition, likelihood: np.ndarray
) -> tuple[int, np.ndarray]:
    """One decision: the greedy action on the current belief, the argmax
    of rows @ belief over the (num_actions, n) alpha rows with ties to the
    lowest index, then the observation absorbed by belief_update, whose
    checks reject a bad belief. Returns (action, posterior)."""
    action = int(np.argmax(rows @ belief))
    return action, belief_update(belief, transition, likelihood)


def stopping_scale(speed_limit_dist: float) -> float:
    """Scale of control.V_DESIRED that tracks a STOP_DECEL ramp to rest
    over the given distance. Zero at and past the stop point."""
    if speed_limit_dist <= 0.0:
        return 0.0
    return min(1.0, math.sqrt(2.0 * STOP_DECEL * speed_limit_dist) / V_DESIRED)


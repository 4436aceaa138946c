"""Gradient-free stochastic optimizer with iterate averaging.

The gradient surrogate is a forward finite difference of the loss along
random directions; ``step``/``run`` form the scalar reference
implementation. The experiment harness runs the same recurrence
vectorized over replications (tested against this one) and shares the
divergence rule ``within_guard`` with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directions import DirectionDistribution, QueryMode, sample_batch
from .models import LossOracle

__all__ = [
    "DIVERGENCE_LIMIT",
    "DivergenceError",
    "within_guard",
    "Schedules",
    "KwRunState",
    "multi_query_gradient",
    "step",
    "run",
]

DIVERGENCE_LIMIT = 1e8


class DivergenceError(RuntimeError):
    """Raised when an iterate escapes the divergence guard."""


def within_guard(theta: np.ndarray) -> np.ndarray:
    """The divergence rule, over the last axis: an iterate is kept while it
    is finite and ``max|theta| <= DIVERGENCE_LIMIT``. A NaN entry makes the
    max NaN and an infinite one exceeds the limit, so both fail the test."""
    return np.abs(theta).max(axis=-1) <= DIVERGENCE_LIMIT


@dataclass(frozen=True)
class Schedules:
    """Decaying step size ``eta0 * n**-alpha`` and spacing ``h0 * n**-gamma``."""

    eta0: float = 0.1
    alpha: float = 0.501
    h0: float = 0.1
    gamma: float = 0.7

    def __post_init__(self):
        if self.eta0 < 0.0:
            raise ValueError("eta0 must be nonnegative")
        if not 0.5 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0.5, 1)")
        if self.h0 <= 0.0:
            raise ValueError("h0 must be positive")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0.5, 1)")

    def eta(self, n: int) -> float:
        return self.eta0 * n ** -self.alpha

    def h(self, n: int) -> float:
        return self.h0 * n ** -self.gamma


@dataclass
class KwRunState:
    """Single-pass optimizer state: iterate, running average, counters."""

    theta: np.ndarray
    theta_bar: np.ndarray
    n: int = 0
    last_gradient: np.ndarray | None = None
    query_count: int = 0
    aborted: bool = False

    @classmethod
    def initial(cls, dim: int, theta0: np.ndarray | None = None) -> "KwRunState":
        theta = np.zeros(dim) if theta0 is None else np.asarray(theta0, float).copy()
        return cls(theta=theta, theta_bar=theta.copy())


def _check_loss(value: float, theta: np.ndarray, h: float, v: np.ndarray) -> float:
    if not np.isfinite(value):
        raise DivergenceError(
            f"non-finite loss value at |theta|={np.abs(theta).max():.3e}, "
            f"h={h:.3e}, |v|={np.sqrt((v * v).sum()):.3e}"
        )
    return value


def multi_query_gradient(
    oracle: LossOracle,
    theta: np.ndarray,
    zeta,
    h: float,
    directions: np.ndarray,
) -> np.ndarray:
    """Average of per-direction surrogates sharing one base evaluation.

    Costs exactly ``m + 1`` oracle evaluations for ``m`` directions.
    """
    directions = np.atleast_2d(directions)
    m = directions.shape[0]
    if m == 0:
        raise ValueError("direction batch must not be empty")
    if h <= 0.0:
        raise ValueError("spacing parameter h must be positive")
    base = _check_loss(oracle.loss(theta, zeta), theta, h, directions[0])
    g = np.zeros_like(theta)
    for v in directions:
        shifted = _check_loss(oracle.loss(theta + h * v, zeta), theta, h, v)
        g += (shifted - base) / h * v
    return g / m


def step(
    state: KwRunState,
    oracle: LossOracle,
    dist: DirectionDistribution,
    mode: QueryMode,
    sched: Schedules,
    rng: np.random.Generator,
    *,
    zeta=None,
    dir_batch: np.ndarray | None = None,
) -> KwRunState:
    """One optimizer step: draw data and directions, update iterate and mean.

    ``zeta``/``dir_batch`` may be supplied to replay pre-drawn randomness
    (used by equivalence tests); by default they come from ``rng``.
    """
    n = state.n + 1
    if zeta is None:
        zeta = oracle.sample(rng)
    if dir_batch is None:
        dir_batch = sample_batch(dist, mode, rng)
    g = multi_query_gradient(oracle, state.theta, zeta, sched.h(n), dir_batch)
    theta = state.theta - sched.eta(n) * g
    if not within_guard(theta):
        state.aborted = True
        raise DivergenceError(
            f"iterate exceeded divergence guard at step {n}: "
            f"|theta|={np.abs(theta).max():.3e}"
        )
    state.n = n
    state.theta = theta
    state.theta_bar = state.theta_bar + (theta - state.theta_bar) / n
    state.last_gradient = g
    state.query_count += dir_batch.shape[0] + 1
    return state


def run(
    oracle: LossOracle,
    dist: DirectionDistribution,
    mode: QueryMode,
    sched: Schedules,
    n: int,
    rng: np.random.Generator,
    *,
    theta0: np.ndarray | None = None,
    iterate_log: list | None = None,
) -> KwRunState:
    """Run ``n`` optimizer steps from ``theta0`` (zero vector by default).

    ``iterate_log`` (test mode) collects every iterate.
    """
    state = KwRunState.initial(dist.dim, theta0)
    for _ in range(n):
        step(state, oracle, dist, mode, sched, rng)
        if iterate_log is not None:
            iterate_log.append(state.theta.copy())
    return state


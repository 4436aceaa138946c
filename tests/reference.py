"""Step-by-step scalar reference for the replication engine in
``akwinfer.simharness``.

The replay tests run one replication at a time through these functions and
compare the result with the engine's vectorized state. pytest does not
collect this file; the tests import it as ``reference``.

A ``models.LossOracle`` is evaluated through its linear predictor with the
engine's own expressions on 1-row arrays: ``u0 + h·(x·v)`` for the
gradient, ``u0 + h·x_k`` and ``u0 + h·(x_k + x_l)`` for the curvature
probe. A replay therefore reproduces every per-step value of the engine
bit for bit. Any other oracle is a black box, queried as
``oracle.loss(theta, zeta)``.

The exact-gradient (Robbins–Monro) baseline, which the engine does not
run, is kept here only as its loss derivative (``linpred_grad``) and its
limiting covariance (``rm_oracle_covariance``), the targets that the
gradient and the m = d without-replacement checks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from akwinfer import models
from akwinfer.directions import INDEXED_KINDS, _check_mode, basis_rows, draw_directions
from akwinfer.numkernel import sandwich, sym_inverse
from akwinfer.plugin_inference import subsample_block
from akwinfer.random_scaling import kahan_add
from akwinfer.simharness import within_guard


class DivergenceError(RuntimeError):
    """Raised on a non-finite loss, or when an iterate leaves the guard."""


def sample(oracle, rng):
    """One data point ``(x, y)`` of a LossOracle's model."""
    x = oracle.draw_x(rng)
    z = oracle.draw_noise(rng)
    return x, float(oracle.response_from_noise(x @ oracle.spec.theta_star, z))


def loss(oracle, theta, zeta):
    """A LossOracle's loss at ``theta``, in parameter space."""
    x, y = zeta
    return float(oracle.linpred_loss(x @ theta, y))


def loss_batch(oracle, thetas, zeta):
    """``loss`` at each row of ``thetas``."""
    x, y = zeta
    return oracle.linpred_loss(thetas @ x, y)


def linpred_grad(oracle, u, y):
    """Derivative of a LossOracle's ``linpred_loss`` in ``u`` (a subgradient
    at the quantile kink); the exact gradient in θ is ``linpred_grad·x``."""
    family = oracle.spec.family
    if family == "linear":
        return 2.0 * (u - y)
    if family == "logistic":
        return -y / (1.0 + np.exp(y * u))
    return (y - u < 0.0) - oracle.spec.tau


def rm_oracle_covariance(spec):
    """Limiting covariance H⁻¹SH⁻¹ of the averaged exact-gradient
    (Robbins–Monro) estimator, which AKW reaches at m = d without
    replacement."""
    h_inv = sym_inverse(models.analytic_hessian(spec), name="population curvature")
    return sandwich(h_inv, models.analytic_gram(spec))


def sample_batch(dist, mode, rng):
    """``mode.m`` directions for one iteration, shape (m, dim)."""
    _check_mode(dist, mode)
    return dense_directions(dist, draw_directions(rng, dist, mode, 1))[0]


def dense_directions(dist, v):
    """A tape's directions ``v`` as dense (..., m, dim) vectors: the tape
    holds an indexed law's row indices, which this expands."""
    return basis_rows(dist)[v] if dist.kind in INDEXED_KINDS else v


def _u0(x, theta):
    """The engine's linear predictor ``x·θ`` of one row."""
    return np.einsum("cd,cd->c", x[None], theta[None])


def _losses(oracle, theta, zeta, h, shifts):
    """f(θ; ζ) and f(θ + h·s; ζ) for each row s of ``shifts``."""
    if h <= 0.0:
        raise ValueError("spacing parameter h must be positive")
    if isinstance(oracle, models.LossOracle):
        x, y = zeta
        u0 = _u0(x, theta)
        xs = np.einsum("cbd,cbmd->bcm", x[None, None], shifts[None, None])[0]
        base = oracle.linpred_loss(u0, y)[0]
        shifted = oracle.linpred_loss(u0[:, None] + h * xs, y)[0]
    else:
        base = oracle.loss(theta, zeta)
        shifted = np.array([oracle.loss(theta + h * s, zeta) for s in shifts])
    if not (np.isfinite(base) and np.isfinite(shifted).all()):
        raise DivergenceError(
            f"non-finite loss value at |theta|={np.abs(theta).max():.3e}, h={h:.3e}"
        )
    return base, shifted


@dataclass
class KwRunState:
    """Iterate, running average and counters of one replication."""

    theta: np.ndarray
    theta_bar: np.ndarray
    n: int = 0
    last_gradient: np.ndarray | None = None
    query_count: int = 0
    aborted: bool = False

    @classmethod
    def initial(cls, dim, theta0=None):
        theta = np.zeros(dim) if theta0 is None else np.asarray(theta0, float).copy()
        return cls(theta=theta, theta_bar=theta.copy())


def multi_query_gradient(oracle, theta, zeta, h, directions):
    """Mean of the forward differences along the rows of ``directions``,
    sharing one base evaluation: m + 1 queries for m directions."""
    directions = np.atleast_2d(directions)
    if directions.shape[0] == 0:
        raise ValueError("direction batch must not be empty")
    base, shifted = _losses(oracle, theta, zeta, h, directions)
    g = np.zeros_like(theta)
    for f, v in zip(shifted, directions):
        g += float(f - base) / h * v  # a Python float overflows to inf quietly
    return g / directions.shape[0]


def step(state, oracle, dist, mode, sched, rng, *, zeta=None, dir_batch=None):
    """One optimizer step: update the iterate and its running average.

    ``zeta`` and ``dir_batch`` replay pre-drawn randomness; by default they
    are drawn from ``rng``.
    """
    n = state.n + 1
    if zeta is None:
        zeta = sample(oracle, rng)
    if dir_batch is None:
        dir_batch = sample_batch(dist, mode, rng)
    g = multi_query_gradient(oracle, state.theta, zeta, sched.h(n), dir_batch)
    queries = len(dir_batch) + 1
    theta = state.theta - sched.eta(n) * g
    if not within_guard(theta):
        state.aborted = True
        raise DivergenceError(
            f"iterate exceeded divergence guard at step {n}: "
            f"|theta|={np.abs(theta).max():.3e}"
        )
    state.n, state.theta, state.last_gradient = n, theta, g
    state.theta_bar = state.theta_bar + (theta - state.theta_bar) / n
    state.query_count += queries
    return state


def run(oracle, dist, mode, sched, n, rng, *, iterate_log=None):
    """``n`` steps from the zero vector; ``iterate_log`` collects every iterate."""
    state = KwRunState.initial(dist.dim)
    for _ in range(n):
        step(state, oracle, dist, mode, sched, rng)
        if iterate_log is not None:
            iterate_log.append(state.theta.copy())
    return state


def hessian_entry_block(oracle, theta, zeta, h, rng=None, p=1.0):
    """Four-point finite-difference curvature block for one data point.

    Entry (k, l) is ``[f(θ+h e_k+h e_l) − f(θ+h e_k) − f(θ+h e_l) + f(θ)] / h²``.
    With ``p < 1`` each entry is kept with probability p (mask drawn from
    ``rng``). Returns the raw block (unsampled entries zero, no 1/p weight),
    the mask and the charged queries: 1 + 2d plus one per sampled entry.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("entry-update probability must lie in (0, 1]")
    d = theta.shape[0]
    mask = np.ones((d, d), dtype=bool)
    if p < 1.0:
        if rng is None:
            raise ValueError("subsampling (p < 1) requires an rng")
        mask = rng.random((d, d)) < p
    eye = np.eye(d)
    shifts = np.concatenate([eye, (eye[:, None] + eye[None]).reshape(d * d, d)])
    base, f = _losses(oracle, theta, zeta, h, shifts)
    singles, pairs = f[:d], f[d:].reshape(d, d)
    g = (pairs - singles[:, None] - singles[None, :] + base) / (h * h)
    return np.where(mask, g, 0.0), mask, 1 + 2 * d + int(mask.sum())


class HessianAccumulator:
    """Running sum of symmetrized curvature blocks, subsampled by
    ``plugin_inference.subsample_block``."""

    def __init__(self, dim, p=1.0):
        if not 0.0 < p <= 1.0:
            raise ValueError("entry-update probability must lie in (0, 1]")
        self.p, self.count = p, 0
        self.running_sum = np.zeros((dim, dim))
        self.block = np.zeros((dim, dim))  # the last subsampled block

    def accumulate_block(self, g, mask):
        self.block = subsample_block(g, mask, self.p)
        self.running_sum += 0.5 * (self.block + self.block.T)
        self.count += 1

    def update(self, oracle, theta, zeta, h, rng=None):
        g, mask, queries = hessian_entry_block(oracle, theta, zeta, h, rng, self.p)
        self.accumulate_block(g, mask)
        return queries

    def mean(self):
        if self.count < 1:
            raise ValueError("curvature accumulator is empty")
        return self.running_sum / self.count


class ScalingAccumulator:
    """Kahan sums A = Σ i² θ̄_i θ̄_iᵀ, b = Σ i² θ̄_i and s = Σ i² over n steps."""

    def __init__(self, dim):
        self.a, self.b, self.s, self.n = np.zeros((dim, dim)), np.zeros(dim), 0.0, 0
        self.a_c, self.b_c, self.s_c = np.zeros((dim, dim)), np.zeros(dim), 0.0


def scaling_update(acc, theta_bar_i, i):
    """Fold the i-th running average in; i must follow the accumulator's count."""
    if i != acc.n + 1:
        raise ValueError(f"out-of-order update: expected i={acc.n + 1}, got i={i}")
    w = float(i) * float(i)
    acc.a, acc.a_c = kahan_add(acc.a, acc.a_c, w * np.outer(theta_bar_i, theta_bar_i))
    acc.b, acc.b_c = kahan_add(acc.b, acc.b_c, w * theta_bar_i)
    acc.s, acc.s_c = kahan_add(acc.s, acc.s_c, w)
    acc.n = i
    return acc

"""Online plug-in covariance estimation and normal-quantile intervals.

Curvature is estimated from four-point finite differences along canonical
coordinate pairs, optionally with Bernoulli entry subsampling weighted by
1/p so the running mean stays unbiased. The gradient-noise matrix is the
running mean of the outer products of the gradients the optimizer already
used, so it costs no extra queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .numkernel import (
    LinAlgError,
    check_finite,
    sandwich,
    sym_eigen,
    symmetrize,
)

__all__ = [
    "HessianAccumulator",
    "ConfidenceInterval",
    "hessian_entry_block",
    "subsample_block",
    "symmetric_part",
    "plugin_covariance",
    "plugin_ci",
    "z_quantile",
]

_STD_NORMAL = NormalDist()


def z_quantile(level: float) -> float:
    """Two-sided standard normal critical value for a nominal level."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    return _STD_NORMAL.inv_cdf(0.5 + level / 2.0)


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    half_width: float
    level: float
    method: str
    degenerate: bool = False

    def __post_init__(self):
        if self.half_width < 0.0:
            raise ValueError("half width must be nonnegative")

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    def covers(self, value: float) -> bool:
        return abs(value - self.center) <= self.half_width


def hessian_entry_block(
    oracle,
    theta: np.ndarray,
    zeta,
    h: float,
    rng: np.random.Generator | None = None,
    p: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Four-point finite-difference curvature block for one data point.

    Entry (k,l) is ``[f(θ+h e_k+h e_l) − f(θ+h e_k) − f(θ+h e_l) + f(θ)] / h²``.
    With ``p < 1`` each entry is computed independently with probability p
    (mask drawn from ``rng``). Returns the raw entry matrix (unsampled
    entries zero, no 1/p weighting applied), the boolean mask, and the
    charged query count: 1 + 2d base evaluations plus one per sampled entry.
    """
    if h <= 0.0:
        raise ValueError("spacing parameter h must be positive")
    if not 0.0 < p <= 1.0:
        raise ValueError("entry-update probability must lie in (0, 1]")
    d = theta.shape[0]
    if p < 1.0:
        if rng is None:
            raise ValueError("subsampling (p < 1) requires an rng")
        mask = rng.random((d, d)) < p
    else:
        mask = np.ones((d, d), dtype=bool)
    base = oracle.loss(theta, zeta)
    shifts = theta[None, :] + h * np.eye(d)
    singles = oracle.loss_batch(shifts, zeta)
    pair_points = theta[None, :] + h * (np.eye(d)[:, None, :] + np.eye(d)[None, :, :]).reshape(d * d, d)
    pairs = oracle.loss_batch(pair_points, zeta).reshape(d, d)
    g = (pairs - singles[:, None] - singles[None, :] + base) / (h * h)
    g = np.where(mask, g, 0.0)
    queries = 1 + 2 * d + int(mask.sum())
    return g, mask, queries


def subsample_block(
    g: np.ndarray, mask: np.ndarray, p: float, mode: str, prev: np.ndarray
) -> np.ndarray:
    """Apply the entry-subsampling rule to raw curvature blocks (..., d, d).

    ``mode='ipw'`` weights sampled entries by 1/p and zeroes the rest (the
    analyzed estimator); ``mode='inherit'`` carries unsampled entries over
    from ``prev``, the previous subsampled block.
    """
    if mode == "ipw":
        return np.where(mask, g / p, 0.0)
    return np.where(mask, g, prev)


def symmetric_part(block: np.ndarray) -> np.ndarray:
    """``(B + Bᵀ)/2`` over the last two axes."""
    return 0.5 * (block + np.swapaxes(block, -1, -2))


@dataclass
class HessianAccumulator:
    """Running symmetrized curvature sum with entry subsampling
    (see ``subsample_block`` for the two modes)."""

    dim: int
    p: float = 1.0
    mode: str = "ipw"
    running_sum: np.ndarray = field(default=None)  # type: ignore[assignment]
    count: int = 0

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("entry-update probability must lie in (0, 1]")
        if self.mode not in ("ipw", "inherit"):
            raise ValueError("mode must be 'ipw' or 'inherit'")
        if self.running_sum is None:
            self.running_sum = np.zeros((self.dim, self.dim))
        self._prev_block = np.zeros((self.dim, self.dim))

    def accumulate_block(self, g: np.ndarray, mask: np.ndarray) -> None:
        """Fold one raw entry block into the running symmetrized sum."""
        self._prev_block = subsample_block(g, mask, self.p, self.mode, self._prev_block)
        self.running_sum += symmetric_part(self._prev_block)
        self.count += 1

    def update(self, oracle, theta, zeta, h, rng=None) -> int:
        g, mask, queries = hessian_entry_block(oracle, theta, zeta, h, rng, self.p)
        self.accumulate_block(g, mask)
        return queries

    def mean(self) -> np.ndarray:
        if self.count < 1:
            raise ValueError("curvature accumulator is empty")
        return self.running_sum / self.count


def plugin_covariance(h_mean: np.ndarray, g_mean: np.ndarray, kappa1: float) -> np.ndarray:
    """Sandwich estimate from the curvature and gradient-noise means: the
    inverse curvature with eigenvalues floored at kappa1 around the
    gradient-noise mean. The floor keeps the inverse bounded."""
    eig = sym_eigen(h_mean, name="curvature estimate")
    h_inv = (eig.vectors / np.maximum(kappa1, eig.values)) @ eig.vectors.T
    return sandwich(0.5 * (h_inv + h_inv.T), symmetrize(g_mean, rtol=1e-8))


def plugin_ci(
    theta_bar: np.ndarray,
    cov: np.ndarray,
    w: np.ndarray,
    n: int,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Normal-quantile interval for ``w^T theta`` from a covariance estimate."""
    if n < 1:
        raise ValueError("n must be at least 1")
    w = check_finite(w, "projection vector")
    var = float(w @ cov @ w)
    if var < -1e-10:
        raise LinAlgError(
            f"projected variance is negative ({var:.3e}); accumulator corrupted"
        )
    var = max(var, 0.0)
    half = z_quantile(level) * np.sqrt(var / n)
    return ConfidenceInterval(
        center=float(w @ theta_bar),
        half_width=float(half),
        level=level,
        method="plugin",
        degenerate=var == 0.0,
    )

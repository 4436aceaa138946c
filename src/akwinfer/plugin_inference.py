"""Online plug-in covariance estimation and normal-quantile intervals.

The replication engine estimates curvature from four-point finite
differences along canonical coordinate pairs. With ``plugin.p < 1`` each
entry is kept with probability p and weighted by 1/p (``subsample_block``),
so the running mean stays unbiased. The gradient-noise matrix is the
running mean of the outer products of the gradients the optimizer already
used, so it costs no extra queries. This module turns the two means into a
sandwich covariance, and holds ``interval``, the w^T theta_bar +/-
c * sqrt(w^T V w / n) that both constructions share with their own V and c.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "ConfidenceInterval",
    "subsample_block",
    "plugin_covariance",
    "interval",
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

    def __post_init__(self):
        if self.half_width < 0.0:
            raise ValueError("half width must be nonnegative")

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    def covers(self, value: float) -> bool:
        return abs(value - self.center) <= self.half_width


def subsample_block(g: np.ndarray, mask: np.ndarray, p: float, out=None) -> np.ndarray:
    """Weight the sampled entries of raw curvature blocks (..., d, d) by 1/p
    and zero the rest, into ``out`` if given (which may be ``g``): the
    analyzed estimator, whose running mean stays unbiased."""
    out = np.divide(g, p, out=out)
    np.copyto(out, 0.0, where=~mask)
    return out


def plugin_covariance(h_mean: np.ndarray, g_mean: np.ndarray, kappa1: float) -> np.ndarray:
    """Sandwich estimate from the curvature and gradient-noise means: the
    inverse curvature with eigenvalues floored at kappa1 around the
    gradient-noise mean. The floor keeps the inverse bounded."""
    eig = sym_eigen(h_mean, name="curvature estimate")
    h_inv = (eig.vectors / np.maximum(kappa1, eig.values)) @ eig.vectors.T
    return sandwich(0.5 * (h_inv + h_inv.T), symmetrize(g_mean, rtol=1e-8))


def interval(
    theta_bar: np.ndarray, v: np.ndarray, w: np.ndarray, n: int, critical: float
) -> ConfidenceInterval:
    """The interval w^T theta_bar +/- critical * sqrt(w^T V w / n) that both
    constructions share; they differ only in V and the critical value."""
    if n < 1:
        raise ValueError("n must be at least 1")
    w = check_finite(w, "projection vector")
    var = float(w @ v @ w)
    if var < -1e-10:
        raise LinAlgError(f"projected variance is negative ({var:.3e})")
    var = max(var, 0.0)
    return ConfidenceInterval(
        center=float(w @ theta_bar), half_width=float(critical * np.sqrt(var / n))
    )


def plugin_ci(
    theta_bar: np.ndarray,
    cov: np.ndarray,
    w: np.ndarray,
    n: int,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Normal-quantile interval for ``w^T theta`` from a covariance estimate."""
    return interval(theta_bar, cov, w, n, z_quantile(level))

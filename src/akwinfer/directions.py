"""Random search-direction distributions and their induced noise matrices.

All supported distributions satisfy ``E[v v^T] = I_d``. For each one there
is a closed form for the inflated gradient-noise matrix
``Q = E[v v^T S v v^T]`` and for the multi-direction blends obtained with
and without replacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import LinAlgError, check_finite, sym_eigen, symmetrize

__all__ = [
    "KINDS",
    "DirectionDistribution",
    "QueryMode",
    "random_orthonormal",
    "draw_directions",
    "sample_batch",
    "analytic_q",
    "analytic_q_multi",
    "nonavg_covariance",
]

KINDS = ("gaussian", "spherical", "canonical", "orthonormal", "nonuniform")

#: Kinds that sample from a fixed orthonormal basis and therefore support
#: drawing several distinct directions per iteration.
BASIS_KINDS = ("canonical", "orthonormal")


def random_orthonormal(dim: int, seed: int) -> np.ndarray:
    """Random orthonormal basis: modified Gram-Schmidt of a seeded Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    q = np.empty_like(g)
    for k in range(dim):
        v = g[:, k]
        for _ in range(2):  # one re-orthogonalization pass for stability
            v = v - q[:, :k] @ (q[:, :k].T @ v)
        q[:, k] = v / np.sqrt((v * v).sum())
    return q


@dataclass(frozen=True)
class DirectionDistribution:
    """One of the supported laws for the random perturbation vector.

    ``u`` is the basis matrix for kind ``orthonormal``; ``p`` the sampling
    probabilities for kind ``nonuniform``.
    """

    kind: str
    dim: int
    u: np.ndarray | None = None
    p: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown direction kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.kind == "orthonormal":
            if self.u is None:
                object.__setattr__(self, "u", np.eye(self.dim))
            u = check_finite(self.u, "orthonormal basis")
            if u.shape != (self.dim, self.dim):
                raise ValueError("basis matrix shape does not match dim")
            if np.abs(u.T @ u - np.eye(self.dim)).max() > 1e-10:
                raise ValueError("basis matrix is not orthonormal to 1e-10")
            object.__setattr__(self, "u", u)
        elif self.u is not None:
            raise ValueError("basis matrix only valid for kind 'orthonormal'")
        if self.kind == "nonuniform":
            if self.p is None:
                raise ValueError("kind 'nonuniform' requires probabilities p")
            p = check_finite(self.p, "probability vector")
            if p.shape != (self.dim,):
                raise ValueError("probability vector length does not match dim")
            if p.min() <= 0.0:
                raise ValueError("all sampling probabilities must be positive")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("sampling probabilities must sum to 1 (1e-12)")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise ValueError("probabilities only valid for kind 'nonuniform'")


@dataclass(frozen=True)
class QueryMode:
    """Number of directions per iteration and the within-iteration scheme."""

    m: int = 1
    replacement: str = "with"  # "with" or "without"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.replacement not in ("with", "without"):
            raise ValueError("replacement must be 'with' or 'without'")

    @property
    def without_replacement(self) -> bool:
        return self.replacement == "without"


def _check_mode(dist: DirectionDistribution, mode: QueryMode) -> None:
    if mode.without_replacement:
        if dist.kind not in BASIS_KINDS:
            raise ValueError(
                "sampling without replacement requires a basis kind "
                f"(canonical or orthonormal), got {dist.kind!r}"
            )
        if mode.m > dist.dim:
            raise ValueError(
                f"cannot draw {mode.m} distinct basis directions in "
                f"dimension {dist.dim}"
            )


def draw_directions(
    rng: np.random.Generator,
    dist: DirectionDistribution,
    mode: QueryMode,
    size: int,
) -> np.ndarray:
    """Direction vectors for ``size`` iterations, shape (size, m, dim).

    Without replacement each iteration's indices are a uniformly random
    ordered m-subset of the basis (argsort of uniform keys).
    """
    d, m = dist.dim, mode.m
    kind = dist.kind
    if kind in ("gaussian", "spherical"):
        g = rng.standard_normal((size, m, d))
        if kind == "gaussian":
            return g
        norms = np.sqrt((g * g).sum(axis=2, keepdims=True))
        return math.sqrt(d) * g / norms
    if kind in BASIS_KINDS:
        if mode.without_replacement:
            idx = np.argsort(rng.random((size, d)), axis=1)[:, :m]
        else:
            idx = rng.integers(0, d, size=(size, m))
        if kind == "canonical":
            return math.sqrt(d) * np.eye(d)[idx]
        return math.sqrt(d) * dist.u.T[idx]
    # nonuniform canonical directions via inverse-CDF lookup
    cum = np.cumsum(dist.p)
    idx = np.minimum(np.searchsorted(cum, rng.random((size, m)), side="right"), d - 1)
    return np.eye(d)[idx] / np.sqrt(dist.p)[idx][:, :, None]


def sample_batch(
    dist: DirectionDistribution, mode: QueryMode, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``mode.m`` direction vectors for one iteration, shape (m, dim)."""
    _check_mode(dist, mode)
    return draw_directions(rng, dist, mode, 1)[0]


def analytic_q(dist: DirectionDistribution, s: np.ndarray) -> np.ndarray:
    """Closed form of ``E[v v^T S v v^T]`` for a single direction draw."""
    s = symmetrize(s, name="gradient noise matrix")
    d = dist.dim
    if s.shape[0] != d:
        raise LinAlgError(f"dimension mismatch: S is {s.shape}, dist dim {d}")
    eye = np.eye(d)
    if dist.kind == "gaussian":
        return 2.0 * s + np.trace(s) * eye
    if dist.kind == "spherical":
        return (d / (d + 2.0)) * (2.0 * s + np.trace(s) * eye)
    if dist.kind == "canonical":
        return d * np.diag(np.diag(s))
    if dist.kind == "orthonormal":
        u = dist.u
        return d * (u * np.diag(u.T @ s @ u)) @ u.T
    return np.diag(np.diag(s) / dist.p)


def analytic_q_multi(
    dist: DirectionDistribution, s: np.ndarray, mode: QueryMode
) -> np.ndarray:
    """Noise matrix for the m-direction estimator: a blend of Q and S."""
    _check_mode(dist, mode)
    s = symmetrize(s, name="gradient noise matrix")
    q = analytic_q(dist, s)
    m, d = mode.m, dist.dim
    if not mode.without_replacement:
        return q / m + (m - 1) / m * s
    if m == 1:
        return q
    return (d - m) / (m * (d - 1)) * q + d * (m - 1) / (m * (d - 1)) * s


def nonavg_covariance(q: np.ndarray, h: np.ndarray, eta0: float) -> np.ndarray:
    """Asymptotic covariance of the final (non-averaged) iterate.

    With the eigendecomposition ``H = P diag(lam) P^T``, the covariance is
    ``P M P^T`` where ``M_kl = eta0 (P^T Q P)_kl / (lam_k + lam_l)``.
    """
    q = symmetrize(q, name="noise matrix")
    eig = sym_eigen(h, name="curvature matrix")
    lam = eig.values
    if lam.min() <= 0.0:
        raise LinAlgError(
            f"curvature matrix must be positive definite "
            f"(min eigenvalue {lam.min():.3e})"
        )
    p = eig.vectors
    core = eta0 * (p.T @ q @ p) / (lam[:, None] + lam[None, :])
    out = p @ core @ p.T
    return 0.5 * (out + out.T)

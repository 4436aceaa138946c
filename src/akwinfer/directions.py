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

from .numkernel import LinAlgError, check_finite, symmetrize

__all__ = [
    "KINDS",
    "DirectionDistribution",
    "QueryMode",
    "random_orthonormal",
    "basis_rows",
    "draw_directions",
    "analytic_q",
    "analytic_q_multi",
]

KINDS = ("gaussian", "spherical", "canonical", "orthonormal", "nonuniform")

#: Kinds that sample from a fixed orthonormal basis and therefore support
#: drawing several distinct directions per iteration.
BASIS_KINDS = ("canonical", "orthonormal")

#: Kinds whose every direction is a row of ``basis_rows(dist)``; their draw
#: is a row index, which ``draw_directions`` returns.
INDEXED_KINDS = BASIS_KINDS + ("nonuniform",)

#: Indexed kinds whose row k is a multiple of e_k.
COORDINATE_KINDS = ("canonical", "nonuniform")


def random_orthonormal(dim: int, seed: int) -> np.ndarray:
    """Random orthonormal basis: the Q factor of a seeded Gaussian matrix,
    its columns' signs fixed so that R has a positive diagonal."""
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


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


def basis_rows(dist: DirectionDistribution) -> np.ndarray:
    """The (dim, dim) matrix whose row k is direction k of an indexed law:
    √d·e_k (canonical), √d times column k of ``u`` (orthonormal) and
    e_k/√p_k (nonuniform)."""
    d = dist.dim
    if dist.kind == "canonical":
        return math.sqrt(d) * np.eye(d)
    if dist.kind == "orthonormal":
        return math.sqrt(d) * dist.u.T
    if dist.kind == "nonuniform":
        return np.eye(d) / np.sqrt(dist.p)[:, None]
    raise ValueError(f"kind {dist.kind!r} has no basis rows")


def draw_directions(
    rng: np.random.Generator,
    dist: DirectionDistribution,
    mode: QueryMode,
    size: int,
) -> np.ndarray:
    """Directions for ``size`` iterations: an indexed law's (size, m) row
    indices into ``basis_rows(dist)`` (``INDEXED_KINDS``), or the gaussian
    and spherical laws' dense (size, m, dim) vectors. Without replacement
    each iteration's indices are a uniformly random ordered m-subset of the
    basis (argsort of uniform keys); nonuniform indices come from an
    inverse-CDF lookup.
    """
    d, m = dist.dim, mode.m
    kind = dist.kind
    if kind in ("gaussian", "spherical"):
        g = rng.standard_normal((size, m, d))
        if kind == "gaussian":
            return g
        norms = np.sqrt((g * g).sum(axis=2, keepdims=True))
        return math.sqrt(d) * g / norms
    if kind == "nonuniform":
        cum = np.cumsum(dist.p)
        return np.minimum(np.searchsorted(cum, rng.random((size, m)), side="right"), d - 1)
    if mode.without_replacement:
        return np.argsort(rng.random((size, d)), axis=1)[:, :m]
    return rng.integers(0, d, size=(size, m))


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


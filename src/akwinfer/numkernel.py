"""Dense symmetric linear algebra for small matrices.

Everything here operates on plain float64 numpy arrays. The functions are
thin wrappers over numpy's LAPACK routines that add the boundary checks the
package relies on: inputs must be finite, and a matrix that should be
symmetric but is not (beyond round-off) is rejected as an accumulator bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinAlgError",
    "EigenDecomposition",
    "check_finite",
    "symmetrize",
    "sym_eigen",
    "sandwich",
    "spectral_norm",
    "sym_inverse",
]


class LinAlgError(RuntimeError):
    """Raised on invalid numeric input or a failed factorization."""


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise LinAlgError(f"{name} contains NaN or Inf entries")
    return arr


def symmetrize(m: np.ndarray, rtol: float = 1e-9, name: str = "matrix") -> np.ndarray:
    """Validate and return an exactly symmetric copy of ``m``.

    Asymmetry beyond ``rtol`` (relative to the largest entry) is treated as
    an accumulator bug and rejected rather than silently averaged away.
    """
    m = check_finite(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LinAlgError(f"{name} must be square, got shape {m.shape}")
    scale = np.abs(m).max()
    gap = np.abs(m - m.T).max()
    if gap > rtol * (1.0 + scale):
        raise LinAlgError(
            f"{name} is asymmetric beyond tolerance: max|M-M^T|={gap:.3e}, "
            f"max|M|={scale:.3e}"
        )
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class EigenDecomposition:
    """Orthonormal eigenvectors (columns) and eigenvalues sorted descending."""

    vectors: np.ndarray
    values: np.ndarray


def sym_eigen(m: np.ndarray, name: str = "matrix") -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``)."""
    a = symmetrize(m, name=name)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise LinAlgError(f"eigendecomposition of {name} failed: {exc}") from exc
    return EigenDecomposition(np.ascontiguousarray(vectors[:, ::-1]), values[::-1].copy())


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compute ``a @ b @ a`` with exact symmetry of the result enforced."""
    a = check_finite(a, "sandwich outer factor")
    b = check_finite(b, "sandwich inner factor")
    if a.shape[1] != b.shape[0] or b.shape[1] != a.shape[0]:
        raise LinAlgError(f"dimension mismatch in sandwich: {a.shape} vs {b.shape}")
    r = a @ b @ a
    return 0.5 * (r + r.T)


def spectral_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    eig = sym_eigen(m)
    return float(np.abs(eig.values).max())


def sym_inverse(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via eigendecomposition."""
    eig = sym_eigen(m, name=name)
    if eig.values.min() <= 0.0:
        raise LinAlgError(
            f"{name} is not positive definite (min eigenvalue "
            f"{eig.values.min():.3e})"
        )
    return (eig.vectors / eig.values) @ eig.vectors.T

"""Loss oracles and data generators for the three worked regression models.

Each oracle exposes the black-box interface the optimizer needs (a loss
evaluation and a data-point sampler) plus closed-form curvature and
gradient-noise matrices used as ground truth by the experiment harness.

All three losses depend on the parameter only through the linear predictor
``x^T theta``; ``linpred_loss`` exposes that structure so batched
finite-difference evaluations stay cheap.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import directions as dirs
from .numkernel import sandwich, sym_inverse, symmetrize

__all__ = [
    "FAMILIES",
    "ModelSpec",
    "LossOracle",
    "theta_on_unit_sphere",
    "analytic_hessian",
    "analytic_gram",
    "oracle_covariance",
]

FAMILIES = ("linear", "logistic", "quantile")

_STD_NORMAL = NormalDist()


def theta_on_unit_sphere(dim: int, seed: int) -> np.ndarray:
    """True parameter drawn uniformly from the unit sphere (seeded)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    return v / np.sqrt((v * v).sum())


@dataclass(frozen=True)
class ModelSpec:
    family: str
    theta_star: np.ndarray
    sigma2: float = 0.2
    tau: float = 0.5
    design: str = "identity"  # "identity" or "equicorr"
    rho: float = 0.2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        theta = np.asarray(self.theta_star, dtype=float)
        if theta.ndim != 1 or not np.all(np.isfinite(theta)):
            raise ValueError("theta_star must be a finite vector")
        object.__setattr__(self, "theta_star", theta)
        if self.family != "logistic" and self.sigma2 <= 0.0:
            raise ValueError("noise variance must be positive")
        if self.family == "quantile" and not 0.0 < self.tau < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        if self.design not in ("identity", "equicorr"):
            raise ValueError(f"unknown covariance design {self.design!r}")
        d = theta.shape[0]
        if self.design == "equicorr" and not -1.0 / max(d - 1, 1) < self.rho < 1.0:
            raise ValueError("equicorrelation rho outside the PD range")

    @property
    def dim(self) -> int:
        return self.theta_star.shape[0]

    def design_cov(self) -> np.ndarray:
        d = self.dim
        if self.design == "identity":
            return np.eye(d)
        return np.full((d, d), self.rho) + (1.0 - self.rho) * np.eye(d)


class LossOracle:
    """Black-box loss evaluator paired with the matching data sampler."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.design_cov = spec.design_cov()
        self.chol = np.linalg.cholesky(self.design_cov)
        self._sigma = math.sqrt(spec.sigma2)
        if spec.family == "quantile":
            self._quantile_shift = self._sigma * _STD_NORMAL.inv_cdf(spec.tau)
        else:
            self._quantile_shift = 0.0

    # -- data generation ------------------------------------------------

    @property
    def noise_kind(self) -> str:
        """Distribution of the per-point noise draw: 'normal' or 'uniform'."""
        return "uniform" if self.spec.family == "logistic" else "normal"

    def draw_x(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        shape = (self.spec.dim,) if size is None else (size, self.spec.dim)
        z = rng.standard_normal(shape)
        # the Cholesky factor of I is I, whose product would only copy z
        return z if self.spec.design == "identity" else z @ self.chol.T

    def response_from_noise(self, u_star: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Response given the true linear predictor and a raw noise draw."""
        family = self.spec.family
        if family == "linear":
            return u_star + self._sigma * z
        if family == "quantile":
            return u_star + self._sigma * z - self._quantile_shift
        # logistic: z uniform in [0,1); y = +1 with probability sigmoid(u*)
        return np.where(z < 1.0 / (1.0 + np.exp(-u_star)), 1.0, -1.0)

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        x = self.draw_x(rng)
        z = rng.random() if self.noise_kind == "uniform" else rng.standard_normal()
        y = self.response_from_noise(x @ self.spec.theta_star, z)
        return x, float(y)

    # -- loss evaluation ------------------------------------------------

    def linpred_loss(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Loss as a function of the linear predictor ``u = x^T theta``."""
        family = self.spec.family
        if family == "linear":
            r = y - u
            return r * r
        if family == "logistic":
            return np.logaddexp(0.0, -y * u)
        r = y - u
        tau = self.spec.tau
        return r * (tau - (r < 0.0))

    def loss(self, theta: np.ndarray, zeta: tuple[np.ndarray, float]) -> float:
        x, y = zeta
        return float(self.linpred_loss(x @ theta, y))

    def loss_batch(
        self, thetas: np.ndarray, zeta: tuple[np.ndarray, float]
    ) -> np.ndarray:
        x, y = zeta
        return self.linpred_loss(thetas @ x, y)

    def linpred_grad(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Derivative of ``linpred_loss`` in ``u`` (a subgradient at the
        quantile kink)."""
        family = self.spec.family
        if family == "linear":
            return 2.0 * (u - y)
        if family == "logistic":
            return -y / (1.0 + np.exp(y * u))
        return (y - u < 0.0) - self.spec.tau


# -- population curvature and noise matrices ----------------------------

_LOGISTIC_HESSIAN_CACHE: dict[tuple, np.ndarray] = {}
# Rows per chunk of the logistic truth. Its three (four for equicorr)
# reusable (rows, d) buffers take 9.8 MB at d = 100; the sum took the same
# time at every chunk size from 4096 to 100 000 rows at d = 5, 20 and 100.
_MC_CHUNK = 4096
# draws and seed of the logistic truth at a nonzero theta*
_MC_DRAWS = 1_000_000
_MC_SEED = 20240501


def _logistic_fold(z, chol_t, theta, x, u, w, xw, gram):
    """Weighted Gram ``x^T diag(w) x`` of one chunk of standard normals
    ``z``, with ``x = z @ chol_t`` (``chol_t`` None: x is z itself) and
    ``w = sigma'(x theta)``. Every result lands in the caller's buffers
    (``x``, ``u``, ``w``, ``xw`` at least as long as ``z``), so a chunk
    allocates nothing; returns ``gram``."""
    k = z.shape[0]
    if chol_t is not None:
        z = np.matmul(z, chol_t, out=x[:k])
    u, w, xw = u[:k], w[:k], xw[:k]
    np.matmul(z, theta, out=u)
    np.negative(u, out=u)
    np.exp(u, out=u)
    np.add(1.0, u, out=u)
    np.divide(1.0, u, out=u)
    np.subtract(1.0, u, out=w)
    np.multiply(u, w, out=w)
    np.multiply(z, w[:, None], out=xw)
    return np.matmul(xw.T, z, out=gram)


def _logistic_hessian_mc(
    spec: ModelSpec, draws: int, seed: int
) -> np.ndarray:
    """Monte-Carlo mean of ``sigma'(x theta*) x x^T`` over ``draws`` design
    points, summed in chunks of ``_MC_CHUNK`` rows in chunk order.

    Two stages overlap: this thread draws chunk k+1 of standard normals
    into one of two ping-pong buffers while one helper thread folds chunk
    k (``_logistic_fold``). The buffers hold one chunk each and are reused,
    so memory stays at a few chunks whatever ``draws`` is. The stream, the
    chunking and the order of the sum are those of a plain sequential loop
    over the same chunks, so the result is the same to the bit. The helper
    is joined before the function returns or raises.
    """
    key = (
        spec.theta_star.tobytes(),
        spec.design,
        round(spec.rho, 12),
        draws,
        seed,
    )
    cached = _LOGISTIC_HESSIAN_CACHE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(seed)
    d = spec.dim
    rows = min(_MC_CHUNK, draws)
    # the Cholesky factor of I is I, whose product would only copy z
    chol_t = None
    if spec.design != "identity":
        chol_t = np.linalg.cholesky(spec.design_cov()).T
    bufs = (np.empty((rows, d)), np.empty((rows, d)))
    scratch = (
        None if chol_t is None else np.empty((rows, d)),
        np.empty(rows),
        np.empty(rows),
        np.empty((rows, d)),
        np.empty((d, d)),
    )
    h = np.zeros((d, d))
    with ThreadPoolExecutor(1) as helper:
        pending = None
        for i, start in enumerate(range(0, draws, _MC_CHUNK)):
            z = bufs[i % 2][: min(_MC_CHUNK, draws - start)]
            rng.standard_normal(out=z)
            if pending is not None:
                h += pending.result()
            pending = helper.submit(
                _logistic_fold, z, chol_t, spec.theta_star, *scratch
            )
        if pending is not None:
            h += pending.result()
    h = symmetrize(h / draws, rtol=1e-6)
    _LOGISTIC_HESSIAN_CACHE[key] = h
    return h


def analytic_hessian(spec: ModelSpec) -> np.ndarray:
    """Population curvature matrix at the true parameter.

    Linear and quantile models have closed forms. The logistic model at a
    nonzero true parameter is integrated by Monte Carlo over ``_MC_DRAWS``
    draws with the fixed seed ``_MC_SEED`` (cached per spec and process;
    see ``_logistic_hessian_mc``, which streams the draws through reusable
    ``_MC_CHUNK``-row buffers, drawing on the calling thread and folding
    on one helper thread, with the bits of a sequential loop); at
    theta*=0 the closed form Sigma/4 is used.
    """
    cov = spec.design_cov()
    if spec.family == "linear":
        return 2.0 * cov
    if spec.family == "quantile":
        z = _STD_NORMAL.inv_cdf(spec.tau)
        return _STD_NORMAL.pdf(z) / math.sqrt(spec.sigma2) * cov
    if not spec.theta_star.any():
        return 0.25 * cov
    return _logistic_hessian_mc(spec, _MC_DRAWS, _MC_SEED)


def analytic_gram(spec: ModelSpec) -> np.ndarray:
    """Gradient second-moment matrix at the true parameter."""
    cov = spec.design_cov()
    if spec.family == "linear":
        return 4.0 * spec.sigma2 * cov
    if spec.family == "quantile":
        return spec.tau * (1.0 - spec.tau) * cov
    # well-specified logistic model: information equality S = H
    return analytic_hessian(spec)


def oracle_covariance(
    spec: ModelSpec,
    dist: dirs.DirectionDistribution,
    mode: dirs.QueryMode = dirs.QueryMode(),
) -> np.ndarray:
    """Limiting covariance of the scaled averaged estimator."""
    h_inv = sym_inverse(analytic_hessian(spec), name="population curvature")
    q = dirs.analytic_q_multi(dist, analytic_gram(spec), mode)
    return sandwich(h_inv, q)


def rm_oracle_covariance(spec: ModelSpec) -> np.ndarray:
    """Limiting covariance of the averaged exact-gradient baseline."""
    h_inv = sym_inverse(analytic_hessian(spec), name="population curvature")
    return sandwich(h_inv, analytic_gram(spec))

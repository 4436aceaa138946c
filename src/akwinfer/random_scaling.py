"""Fixed-b inference from the averaged iterates alone ("random scaling").

Maintains the running pieces of

    V_n = (1/n^2) sum_i i^2 (theta_bar_i - theta_bar_n)(theta_bar_i - theta_bar_n)^T

online, and builds studentized intervals from the tabulated quantiles of
the limiting pivot W(1)/sqrt(int_0^1 (W(r) - r W(1))^2 dr). An interval for
w^T theta reads only w^T V_n w, so the replication engine keeps these sums
for the scalar w^T theta_bar_i and calls ``assemble_v`` with d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkernel import LinAlgError, check_finite, symmetrize
from .plugin_inference import ConfidenceInterval

__all__ = [
    "ScalingAccumulator",
    "ONE_SIDED_QUANTILES",
    "TWO_SIDED_CRITICAL_VALUES",
    "kahan_add",
    "scaling_update",
    "assemble_v",
    "scaling_ci",
    "simulate_pivot_quantiles",
]

# One-sided cumulative probabilities of the limiting pivot. By symmetry a
# two-sided level-q interval uses the one-sided 1-(1-q)/2 entry.
ONE_SIDED_QUANTILES = (
    (0.90, 3.875),
    (0.95, 5.323),
    (0.975, 6.747),
    (0.99, 8.613),
)

TWO_SIDED_CRITICAL_VALUES = {
    0.80: 3.875,
    0.90: 5.323,
    0.95: 6.747,
    0.98: 8.613,
}


@dataclass
class ScalingAccumulator:
    """Kahan-compensated accumulators for A = sum i^2 x x^T, b = sum i^2 x,
    s = sum i^2. The i^2 weights make the sums grow like n^3, so plain
    accumulation loses digits by n = 1e6."""

    dim: int
    a: np.ndarray = field(default=None)  # type: ignore[assignment]
    b: np.ndarray = field(default=None)  # type: ignore[assignment]
    s: float = 0.0
    n: int = 0

    def __post_init__(self):
        if self.a is None:
            self.a = np.zeros((self.dim, self.dim))
        if self.b is None:
            self.b = np.zeros(self.dim)
        self._a_c = np.zeros((self.dim, self.dim))
        self._b_c = np.zeros(self.dim)
        self._s_c = 0.0


def kahan_add(total, comp, term):
    """One compensated-summation step; returns the new (total, comp)."""
    y = term - comp
    t = total + y
    return t, (t - total) - y


def scaling_update(acc: ScalingAccumulator, theta_bar_i: np.ndarray, i: int) -> ScalingAccumulator:
    """Fold the i-th running average in; i must follow the accumulator's count."""
    if i != acc.n + 1:
        raise ValueError(f"out-of-order update: expected i={acc.n + 1}, got i={i}")
    w = float(i) * float(i)
    acc.a, acc._a_c = kahan_add(acc.a, acc._a_c, w * np.outer(theta_bar_i, theta_bar_i))
    acc.b, acc._b_c = kahan_add(acc.b, acc._b_c, w * theta_bar_i)
    acc.s, acc._s_c = kahan_add(acc.s, acc._s_c, w)
    acc.n = i
    return acc


def assemble_v(
    a: np.ndarray, b: np.ndarray, s: float, n: int, theta_bar_n: np.ndarray
) -> np.ndarray:
    """V_n from the accumulated sums A, b, s over n steps, by the expanded
    square (A - theta b^T - b theta^T + s theta theta^T)/n^2."""
    if n == 0:
        return np.zeros_like(a)
    tb = np.asarray(theta_bar_n, dtype=float)
    v = a - np.outer(tb, b) - np.outer(b, tb) + s * np.outer(tb, tb)
    v /= float(n) ** 2
    return symmetrize(v, rtol=1e-8)


def scaling_ci(
    theta_bar: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    n: int,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Studentized interval w^T theta_bar +/- cv * sqrt(w^T V w / n).

    Only the tabled two-sided levels are supported; interpolating between
    tabled quantiles is refused rather than silently approximated.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cv = None
    for lvl, value in TWO_SIDED_CRITICAL_VALUES.items():
        if abs(level - lvl) < 1e-12:
            cv = value
            break
    if cv is None:
        supported = sorted(TWO_SIDED_CRITICAL_VALUES)
        raise ValueError(
            f"level {level} not in the critical-value table (supported: {supported})"
        )
    w = check_finite(w, "projection vector")
    var = float(w @ v @ w)
    if var < -1e-10:
        raise LinAlgError(f"projected scaling variance is negative ({var:.3e})")
    var = max(var, 0.0)
    return ConfidenceInterval(
        center=float(w @ theta_bar),
        half_width=float(cv * np.sqrt(var / n)),
        level=level,
        method="random_scaling",
        degenerate=var == 0.0,
    )


def simulate_pivot_quantiles(
    num_paths: int,
    path_steps: int,
    rng: np.random.Generator,
    probabilities: tuple[float, ...] = tuple(p for p, _ in ONE_SIDED_QUANTILES),
    chunk: int = 4096,
) -> dict[float, float]:
    """Monte-Carlo quantiles of W(1)/sqrt(int_0^1 (W(r) - r W(1))^2 dr).

    Discretizes Brownian motion on a path_steps grid and evaluates the
    integral by Riemann sum; used as an independent check of the
    critical-value table.
    """
    if num_paths < 1 or path_steps < 2:
        raise ValueError("need at least one path with at least two steps")
    stats = np.empty(num_paths)
    grid = np.arange(1, path_steps + 1) / path_steps
    done = 0
    while done < num_paths:
        size = min(chunk, num_paths - done)
        increments = rng.normal(scale=np.sqrt(1.0 / path_steps), size=(size, path_steps))
        paths = np.cumsum(increments, axis=1)
        w1 = paths[:, -1]
        bridge = paths - grid[None, :] * w1[:, None]
        integral = np.mean(bridge * bridge, axis=1)
        stats[done:done + size] = w1 / np.sqrt(integral)
        done += size
    return {p: float(np.quantile(stats, p)) for p in probabilities}

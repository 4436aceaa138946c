"""Fixed-b inference from the averaged iterates alone ("random scaling").

Assembles

    V_n = (1/n^2) sum_i i^2 (theta_bar_i - theta_bar_n)(theta_bar_i - theta_bar_n)^T

from its running pieces, summed online with ``kahan_add``, and passes it
to ``plugin_inference.interval`` with a tabulated quantile of the limiting
pivot W(1)/sqrt(int_0^1 (W(r) - r W(1))^2 dr). An interval for w^T theta
reads only w^T V_n w, so the replication engine keeps these sums for the
scalar w^T theta_bar_i and calls ``assemble_v`` with d = 1.
"""

from __future__ import annotations

import numpy as np

from .numkernel import symmetrize
from .plugin_inference import ConfidenceInterval, interval

__all__ = [
    "ONE_SIDED_QUANTILES",
    "TWO_SIDED_CRITICAL_VALUES",
    "critical_value",
    "kahan_add",
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

# The same quantiles keyed by two-sided level 2p - 1 (0.8, 0.9, 0.95, 0.98).
TWO_SIDED_CRITICAL_VALUES = {round(2 * p - 1, 12): q for p, q in ONE_SIDED_QUANTILES}


def critical_value(level: float) -> float:
    """Two-sided critical value of the pivot at a tabled level (within
    1e-12); interpolating between tabled quantiles is refused rather than
    silently approximated."""
    for lvl, value in TWO_SIDED_CRITICAL_VALUES.items():
        if abs(level - lvl) < 1e-12:
            return value
    supported = sorted(TWO_SIDED_CRITICAL_VALUES)
    raise ValueError(
        f"level {level} not in the critical-value table (supported: {supported})"
    )


def kahan_add(total, comp, term):
    """One compensated-summation step; returns the new (total, comp)."""
    y = term - comp
    t = total + y
    return t, (t - total) - y


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
    """Studentized interval w^T theta_bar +/- cv * sqrt(w^T V w / n), with
    ``cv = critical_value(level)``."""
    return interval(theta_bar, v, w, n, critical_value(level))


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

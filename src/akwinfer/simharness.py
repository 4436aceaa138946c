"""Monte-Carlo experiment harness.

Runs replicated optimizer-plus-inference experiments, computes coverage
and error metrics, and writes deterministic CSV/JSON artifacts. The
replication loop is vectorized across replications (every loss in
``models`` depends on theta only through the linear predictor, so a whole
batch of replications advances with a handful of array operations per
iteration); randomness is drawn per replication from ``default_rng(seed +
replication)`` in a fixed block order.

Replications are split into contiguous chunks that run in worker
processes, and the records are merged in replication order. Every
expression in the engine is evaluated per row: elementwise operations,
reductions over a row's own coordinates (never a BLAS product across
rows), and sums over steps added in step order (``_step_sum``). No result
therefore depends on which other replications share a chunk, and records,
checkpoints and summaries are byte-identical for every worker count and
chunk split.

The engine runs in two phases over (C, ...) arrays with one row per
replication. Per step it runs only the averaged Kiefer–Wolfowitz
recurrence (u0 and f0, the direction losses, the gradient, the θ update,
the divergence guard and θ̄) and records the gradient, θ̄ and the probe
inputs. Per group of steps, ``_StepGroup.fold`` adds what never feeds back
into the recurrence: the gradient Gram, the four-point curvature probe
laid out pair-major as (pairs, steps, C), the three random-scaling sums,
the queries and n_done. Groups end at absolute step indices (their length
depends on d and on whether the run records the probe), at checkpoints and
at n, so the folded sums do not depend on where tape blocks end. Every
per-step and per-entry expression is the one a step-by-step engine would
evaluate; only the order of summation over steps differs.

The engine shares its math with the library: directions come from
``directions.draw_directions``, exact gradients from
``LossOracle.linpred_grad``, the divergence rule from
``kwengine.within_guard``, the curvature subsampling from
``plugin_inference.subsample_block`` and the random-scaling sums from
``random_scaling.kahan_add``. The random-scaling sums are kept for the
scalar w·θ̄ only and the gradient Gram only for plug-in runs; records are
assembled by ``plugin_covariance`` and ``assemble_v`` (d = 1).
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import json
import math
import operator
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import directions as dirs
from . import models
from .kwengine import Schedules, within_guard
from .numkernel import check_finite, spectral_norm
from .plugin_inference import (
    plugin_ci,
    plugin_covariance,
    subsample_block,
)
from .random_scaling import (
    TWO_SIDED_CRITICAL_VALUES,
    assemble_v,
    critical_value,
    kahan_add,
    scaling_ci,
)

__all__ = [
    "METHODS",
    "ConfigError",
    "PluginSettings",
    "ExperimentConfig",
    "ReplicationRecord",
    "ExperimentReport",
    "parse_config",
    "config_from_dict",
    "draw_block",
    "resolve_workers",
    "run_experiment",
    "sweep",
    "summarize_records",
    "write_report",
    "read_replications",
]

METHODS = ("plugin", "random_scaling", "oracle")
ALGORITHMS = ("akw", "rm")

CSV_FIELDS = (
    "run_id",
    "replication",
    "method",
    "est_error",
    "cov_error",
    "ci_center",
    "ci_length",
    "covered",
    "queries",
    "aborted",
)
CHECKPOINT_FIELDS = CSV_FIELDS[:3] + ("n",) + CSV_FIELDS[3:]


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists every violation."""


@dataclass(frozen=True)
class PluginSettings:
    p: float = 1.0
    kappa1: float = 1e-3
    subsampling: str = "ipw"
    every: int = 1

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("plugin.p must lie in (0, 1]")
        if self.kappa1 <= 0.0:
            raise ValueError("plugin.kappa1 must be positive")
        if self.subsampling not in ("ipw", "inherit"):
            raise ValueError("plugin.subsampling must be 'ipw' or 'inherit'")
        if self.every < 1:
            raise ValueError("plugin.every must be a positive integer")


@dataclass
class ExperimentConfig:
    model: models.ModelSpec
    dist: dirs.DirectionDistribution
    mode: dirs.QueryMode
    sched: Schedules
    n: int
    replications: int
    seed: int
    inference: tuple[str, ...] = METHODS
    w: np.ndarray | None = None
    level: float = 0.95
    checkpoints: tuple[int, ...] = ()
    plugin: PluginSettings = field(default_factory=PluginSettings)
    algorithm: str = "akw"
    name: str = "run"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        bad = [m for m in self.inference if m not in METHODS]
        if bad:
            raise ValueError(f"unknown inference methods {bad}; valid: {METHODS}")
        self.inference = tuple(m for m in METHODS if m in self.inference)
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if "random_scaling" in self.inference:
            try:
                critical_value(self.level)
            except ValueError:
                raise ValueError(
                    "random-scaling intervals support only tabled levels "
                    f"{sorted(TWO_SIDED_CRITICAL_VALUES)}"
                ) from None
        d = self.model.dim
        if self.dist.dim != d:
            raise ValueError("direction dimension does not match model dimension")
        if self.w is None:
            self.w = np.full(d, 1.0 / math.sqrt(d))
        else:
            self.w = check_finite(np.asarray(self.w, float), "projection vector w")
            if self.w.shape != (d,):
                raise ValueError("projection vector w has wrong length")
            if not self.w.any():
                raise ValueError("projection vector w must be nonzero")
        cps = tuple(sorted(set(int(c) for c in self.checkpoints)))
        if cps and (cps[0] < 1 or cps[-1] > self.n):
            raise ValueError("checkpoints must lie in [1, n]")
        self.checkpoints = cps

    def resolved(self) -> dict:
        """Canonical JSON-serializable form; the config hash is taken over it."""
        d = {
            "name": self.name,
            "algorithm": self.algorithm,
            "model": {
                "family": self.model.family,
                "theta": [float(t) for t in self.model.theta_star],
                "sigma2": self.model.sigma2,
                "tau": self.model.tau,
                "design": self.model.design,
                "rho": self.model.rho,
            },
            "directions": {
                "kind": self.dist.kind,
                "m": self.mode.m,
                "replacement": self.mode.replacement,
                "basis": None
                if self.dist.u is None
                else [[float(v) for v in row] for row in self.dist.u],
                "p": None if self.dist.p is None else [float(v) for v in self.dist.p],
            },
            "schedules": {
                "eta0": self.sched.eta0,
                "alpha": self.sched.alpha,
                "h0": self.sched.h0,
                "gamma": self.sched.gamma,
            },
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "level": self.level,
            "w": [float(v) for v in self.w],
            "inference": list(self.inference),
            "plugin": {
                "p": self.plugin.p,
                "kappa1": self.plugin.kappa1,
                "subsampling": self.plugin.subsampling,
                "every": self.plugin.every,
            },
            "checkpoints": list(self.checkpoints),
        }
        return d

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def run_id(self) -> str:
        return f"{self.name}-{self.config_hash[:10]}"


# -- config parsing ------------------------------------------------------


def _check_keys(section: dict, allowed: set[str], where: str, diags: list[str]):
    for key in section:
        if key not in allowed:
            diags.append(f"{where}: unknown key {key!r} (allowed: {sorted(allowed)})")


def _integer(value, key: str) -> int:
    """``value`` as an int: an int (not a bool), or a float with an integral
    value such as JSON's ``1e5``. Anything else is a ValueError naming
    ``key``; ``int()`` would truncate 100.7 and accept ``true`` and ``"3"``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """``value`` as a float: an int or a float, not a bool. Anything else is a
    ValueError naming ``key``; ``float()`` would accept ``true`` and ``"0.5"``."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _reals(values, key: str) -> np.ndarray:
    """A list of numbers as a float vector, each entry through ``_real``."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"{key} must be a list of numbers, got {values!r}")
    return np.array([_real(v, f"{key} entry") for v in values], dtype=float)


def parse_config(raw: dict) -> tuple[ExperimentConfig | None, list[str]]:
    """Strict config parse; returns (config-or-None, list of violations)."""
    diags: list[str] = []
    if not isinstance(raw, dict):
        return None, ["config root must be a JSON object"]
    top = {
        "name", "algorithm", "model", "directions", "schedules", "n",
        "replications", "seed", "level", "w", "inference", "plugin",
        "checkpoints",
    }
    _check_keys(raw, top, "config", diags)

    mraw = dict(raw.get("model", {}))
    _check_keys(
        mraw,
        {"family", "dim", "theta", "theta_seed", "sigma2", "tau", "design", "rho"},
        "model",
        diags,
    )
    model = None
    try:
        theta = mraw.get("theta")
        if theta is None:
            dim = mraw.get("dim")
            if dim is None:
                raise ValueError("model needs 'theta' or 'dim'")
            theta = models.theta_on_unit_sphere(
                _integer(dim, "model.dim"),
                _integer(mraw.get("theta_seed", 2024), "model.theta_seed"),
            )
        else:
            theta = _reals(theta, "model.theta")
            if "dim" in mraw and len(theta) != _integer(mraw["dim"], "model.dim"):
                raise ValueError("model.theta length contradicts model.dim")
        model = models.ModelSpec(
            family=mraw.get("family", "linear"),
            theta_star=theta,
            sigma2=_real(mraw.get("sigma2", 0.2), "model.sigma2"),
            tau=_real(mraw.get("tau", 0.5), "model.tau"),
            design=mraw.get("design", "identity"),
            rho=_real(mraw.get("rho", 0.2), "model.rho"),
        )
    except (ValueError, TypeError) as exc:
        diags.append(f"model: {exc}")

    draw = dict(raw.get("directions", {}))
    _check_keys(
        draw, {"kind", "m", "replacement", "p", "basis_seed"}, "directions", diags
    )
    dist = mode = None
    if model is not None:
        try:
            kind = draw.get("kind", "spherical")
            u = None
            if kind == "orthonormal" and draw.get("basis_seed") is not None:
                u = dirs.random_orthonormal(
                    model.dim, _integer(draw["basis_seed"], "directions.basis_seed")
                )
            p = draw.get("p")
            dist = dirs.DirectionDistribution(
                kind=kind,
                dim=model.dim,
                u=u,
                p=None if p is None else _reals(p, "directions.p"),
            )
            mode = dirs.QueryMode(
                m=_integer(draw.get("m", 1), "directions.m"),
                replacement=draw.get("replacement", "with"),
            )
            dirs._check_mode(dist, mode)
        except (ValueError, TypeError) as exc:
            diags.append(f"directions: {exc}")

    sraw = dict(raw.get("schedules", {}))
    _check_keys(sraw, {"eta0", "alpha", "h0", "gamma"}, "schedules", diags)
    sched = None
    try:
        sched = Schedules(
            eta0=_real(sraw.get("eta0", 0.1), "schedules.eta0"),
            alpha=_real(sraw.get("alpha", 0.501), "schedules.alpha"),
            h0=_real(sraw.get("h0", 0.1), "schedules.h0"),
            gamma=_real(sraw.get("gamma", 0.7), "schedules.gamma"),
        )
    except (ValueError, TypeError) as exc:
        diags.append(f"schedules: {exc}")

    praw = dict(raw.get("plugin", {}))
    _check_keys(praw, {"p", "kappa1", "subsampling", "every"}, "plugin", diags)
    plugin = None
    try:
        plugin = PluginSettings(
            p=_real(praw.get("p", 1.0), "plugin.p"),
            kappa1=_real(praw.get("kappa1", 1e-3), "plugin.kappa1"),
            subsampling=praw.get("subsampling", "ipw"),
            every=_integer(praw.get("every", 1), "plugin.every"),
        )
    except (ValueError, TypeError) as exc:
        diags.append(f"plugin: {exc}")

    counts = {}
    for key, default in (("n", 100_000), ("replications", 100), ("seed", 0)):
        try:
            counts[key] = _integer(raw.get(key, default), key)
        except ValueError as exc:
            diags.append(f"config: {exc}")
    cps = raw.get("checkpoints", ())
    try:
        if not isinstance(cps, (list, tuple)):
            raise ValueError(f"checkpoints must be a list of integers, got {cps!r}")
        counts["checkpoints"] = tuple(_integer(c, "checkpoints entry") for c in cps)
    except ValueError as exc:
        diags.append(f"config: {exc}")

    if diags or model is None or dist is None or sched is None or plugin is None:
        return None, diags
    try:
        cfg = ExperimentConfig(
            model=model,
            dist=dist,
            mode=mode,
            sched=sched,
            inference=tuple(raw.get("inference", list(METHODS))),
            w=None if raw.get("w") is None else _reals(raw["w"], "w"),
            level=_real(raw.get("level", 0.95), "level"),
            plugin=plugin,
            algorithm=raw.get("algorithm", "akw"),
            name=str(raw.get("name", "run")),
            **counts,
        )
    except (ValueError, TypeError) as exc:
        diags.append(str(exc))
        return None, diags
    return cfg, diags


def config_from_dict(raw: dict) -> ExperimentConfig:
    cfg, diags = parse_config(raw)
    if cfg is None:
        raise ConfigError("; ".join(diags) or "invalid config")
    return cfg


# -- randomness tape -----------------------------------------------------


def draw_block(
    rng: np.random.Generator,
    oracle: models.LossOracle,
    dist: dirs.DirectionDistribution,
    mode: dirs.QueryMode,
    size: int,
    mask_p: float | None = None,
):
    """Draw one replication's randomness for ``size`` iterations.

    Fixed stream order within a call — covariate normals, noise,
    directions, optional Bernoulli entry mask — so a replication's tape
    does not depend on how replications are chunked. It does depend on the
    block length: two calls of 100 draw a different tape than one of 200.
    Both the vectorized engine and the scalar reference replay consume this.
    """
    x = oracle.draw_x(rng, size)
    z = rng.random(size) if oracle.noise_kind == "uniform" else rng.standard_normal(size)
    v = dirs.draw_directions(rng, dist, mode, size)
    mask = None
    if mask_p is not None and mask_p < 1.0:
        d = oracle.spec.dim
        mask = rng.random((size, d, d)) < mask_p
    return x, z, v, mask


# -- records and reports -------------------------------------------------


@dataclass(frozen=True)
class ReplicationRecord:
    run_id: str
    replication: int
    method: str
    est_error: float
    cov_error: float | None
    ci_center: float | None
    ci_length: float | None
    covered: int | None
    queries: int
    aborted: int
    n: int = 0  # populated for checkpoint records only


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    run_id: str
    records: list[ReplicationRecord]
    checkpoint_records: list[ReplicationRecord]
    summary: dict
    wall_time: float


def summarize_records(records: list[ReplicationRecord]) -> dict:
    """Per-method aggregates over non-aborted replications.

    Recomputable from the replications CSV — the round-trip is tested.
    """
    out: dict = {"methods": {}, "aborted": 0}
    reps = {(r.replication, r.aborted) for r in records}
    out["replications"] = len(reps)
    out["aborted"] = sum(a for _, a in reps)
    for method in METHODS:
        rows = [r for r in records if r.method == method and not r.aborted]
        if not rows:
            continue
        k = len(rows)

        def mean_se(values):
            vals = [v for v in values if v is not None]
            if not vals:
                return None, None
            mu = sum(vals) / len(vals)
            if len(vals) < 2:
                return mu, 0.0
            var = sum((v - mu) ** 2 for v in vals) / (len(vals) - 1)
            return mu, math.sqrt(var / len(vals))

        est_mu, est_se = mean_se(r.est_error for r in rows)
        cov_mu, cov_se = mean_se(r.cov_error for r in rows)
        len_mu, len_se = mean_se(r.ci_length for r in rows)
        covers = [r.covered for r in rows if r.covered is not None]
        out["methods"][method] = {
            "count": k,
            "est_error_mean": est_mu,
            "est_error_se": est_se,
            "cov_error_mean": cov_mu,
            "cov_error_se": cov_se,
            "ci_length_mean": len_mu,
            "ci_length_se": len_se,
            "coverage": sum(covers) / len(covers) if covers else None,
            "queries_mean": sum(r.queries for r in rows) / k,
        }
    return out


# -- the vectorized replication engine ------------------------------------

# Most replications one chunk holds; it bounds the (C, B, ...) tape buffers.
MAX_CHUNK = 256

# Per-replication element budget of one step group: S steps with
# S·(pairs + d) <= FOLD_BUDGET, so the probe fold's (pairs, S, C) arrays stay
# near C·FOLD_BUDGET elements. pairs counts only when the run records the
# curvature probe ("plugin"); otherwise S·d <= FOLD_BUDGET. S depends on d
# and the inference methods only, never on the tape block.
FOLD_BUDGET = 1024


class _ChunkState:
    """Mutable per-chunk optimizer and accumulator state."""

    def __init__(self, cfg: ExperimentConfig, rep_indices: np.ndarray):
        c, d = len(rep_indices), cfg.model.dim
        self.reps = rep_indices
        self.theta = np.zeros((c, d))
        self.theta_bar = np.zeros((c, d))
        self.active = np.ones(c, dtype=bool)
        self.abort_step = np.full(c, cfg.n + 1, dtype=np.int64)  # n + 1: never
        self.n_done = np.zeros(c, dtype=np.int64)
        self.queries = np.zeros(c, dtype=np.int64)
        self.gram = np.zeros((c, d, d))
        self.hess = np.zeros((c, d, d))
        self.hess_prev = np.zeros((c, d, d))
        self.hess_count = np.zeros(c, dtype=np.int64)
        self.sc_a = np.zeros(c)
        self.sc_a_c = np.zeros(c)
        self.sc_b = np.zeros(c)
        self.sc_b_c = np.zeros(c)
        self.sc_s = np.zeros(c)
        self.sc_s_c = np.zeros(c)


def _oracle_truth(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.algorithm == "rm":
        return models.rm_oracle_covariance(cfg.model)
    return models.oracle_covariance(cfg.model, cfg.dist, cfg.mode)


def _method_records(
    cfg: ExperimentConfig,
    st: _ChunkState,
    c_true: np.ndarray,
    c_norm: float,
    *,
    checkpoint_n: int | None = None,
) -> list[ReplicationRecord]:
    """Inference records for every replication in the chunk at its current n;
    ``c_norm`` is the spectral norm of ``c_true``."""
    w = cfg.w
    target = float(w @ cfg.model.theta_star)
    denom = float(np.linalg.norm(cfg.model.theta_star)) or 1.0
    records = []
    for j, rep in enumerate(st.reps):
        n_j = int(st.n_done[j])
        aborted = int(not st.active[j])
        est_error = float(np.linalg.norm(st.theta_bar[j] - cfg.model.theta_star)) / denom
        for method in cfg.inference:
            cov_error = ci = None
            if n_j >= 1 and not aborted:
                if method == "plugin" and st.hess_count[j] >= 1:
                    cov = plugin_covariance(
                        st.hess[j] / st.hess_count[j], st.gram[j] / n_j, cfg.plugin.kappa1
                    )
                    cov_error = spectral_norm(cov - c_true) / c_norm
                    ci = plugin_ci(st.theta_bar[j], cov, w, n_j, cfg.level)
                elif method == "random_scaling":
                    t = np.array([w @ st.theta_bar[j]])  # the 1-d problem in w·θ̄
                    a, b = st.sc_a[j:j + 1, None], st.sc_b[j:j + 1]
                    v = assemble_v(a, b, st.sc_s[j], n_j, t)
                    ci = scaling_ci(t, v, np.ones(1), n_j, cfg.level)
                elif method == "oracle":
                    ci = plugin_ci(st.theta_bar[j], c_true, w, n_j, cfg.level)
            records.append(
                ReplicationRecord(
                    run_id=cfg.run_id,
                    replication=int(rep),
                    method=method,
                    est_error=est_error,
                    cov_error=cov_error,
                    ci_center=None if ci is None else ci.center,
                    ci_length=None if ci is None else ci.length,
                    covered=None if ci is None else int(ci.covers(target)),
                    queries=int(st.queries[j]),
                    aborted=aborted,
                    n=checkpoint_n or n_j,
                )
            )
    return records


def _pair_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates (k, l), k <= l, of each pair as a (2, pairs) array,
    and the (d, d) map from (k, l) and (l, k) to their pair."""
    ends = np.stack(np.triu_indices(d))
    pair = np.empty((d, d), dtype=np.intp)
    pair[ends[0], ends[1]] = pair[ends[1], ends[0]] = np.arange(ends.shape[1])
    return ends, pair


def _pair_losses(
    oracle: models.LossOracle,
    u0: np.ndarray,
    y: np.ndarray,
    xt: np.ndarray,
    h,
    ends: np.ndarray,
) -> np.ndarray:
    """Four-point pair losses ``f(u0 + h (x_k + x_l))`` for k <= l, pair-major.

    ``xt`` carries the coordinates on its first axis, the result the pairs;
    ``u0``, ``y`` and ``h`` broadcast against the remaining axes. Each
    unordered pair is evaluated once: IEEE addition commutes, so gathering
    the result into (k, l) and (l, k) is bit-identical to all d² entries.
    """
    k, l = ends
    return oracle.linpred_loss(u0 + h * (xt[k] + xt[l]), y)


def _step_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum of the C-contiguous ``a`` over its step axis, adding the steps in
    order. numpy reduces an axis with more than one element after it slab by
    slab, in order; an axis with one element after it (a one-row chunk's) it
    sums pairwise, so there the steps go through a cumulative sum instead."""
    if math.prod(a.shape[axis + 1:]) > 1:
        return a.sum(axis=axis)
    return np.take(a.cumsum(axis=axis), -1, axis=axis)


class _StepGroup:
    """What the recurrence leaves behind over one group of steps.

    The step loop records each step's gradient (zero once a replication has
    stopped) and θ̄ and, at curvature-probe steps, x, y, u0, f0, h and the
    entry mask. ``fold`` adds the Gram, the curvature probe, the three
    random-scaling sums of w·θ̄, the queries and n_done to the chunk state in
    a few batched operations. The Gram and the probe are laid out pair-major,
    (pairs, steps, C). A replication is live after step i while
    ``i < abort_step``.
    """

    def __init__(self, cfg: ExperimentConfig, oracle: models.LossOracle, c: int):
        d = cfg.model.dim
        self.ends, self.pair = _pair_index(d)
        pairs = self.ends.shape[1] if "plugin" in cfg.inference else 0
        size = max(1, FOLD_BUDGET // (pairs + d))
        self.cfg, self.oracle, self.size = cfg, oracle, size
        self.start = self.steps = self.probes = 0
        self.step_queries = cfg.mode.m + 1 if cfg.algorithm == "akw" else 1
        self.grads = self.f0 = self.mask = self.theta_bar = None
        if "plugin" in cfg.inference:
            # coordinates first, for the pair gather
            self.grads, self.x = np.empty((d, size, c)), np.empty((d, size, c))
            self.h = np.empty((size, 1))
            self.y, self.u0 = np.empty((size, c)), np.empty((size, c))
            if cfg.algorithm == "akw":  # rm evaluates no f0 in its step
                self.f0 = np.empty((size, c))
            if cfg.plugin.p < 1.0:
                self.mask = np.empty((size, c, d, d), dtype=bool)
        if "random_scaling" in cfg.inference:
            self.theta_bar = np.empty((size, c, d))

    def record(self, i, st, g, x, y, u0, f0, h, mask) -> None:
        s = self.steps
        self.steps += 1
        if self.grads is not None:
            self.grads[:, s] = g.T
            if i % self.cfg.plugin.every == 0:
                q = self.probes
                self.probes += 1
                self.h[q], self.x[:, q], self.y[q], self.u0[q] = h, x.T, y, u0
                if self.f0 is not None:
                    self.f0[q] = f0
                if self.mask is not None:
                    self.mask[q] = mask
        if self.theta_bar is not None:
            self.theta_bar[s] = st.theta_bar

    def fold(self, st: _ChunkState) -> None:
        k = self.steps
        steps = np.arange(self.start + 1, self.start + k + 1)
        live = steps[:, None] < st.abort_step  # (k, C)
        st.queries += self.step_queries * (steps[:, None] <= st.abort_step).sum(axis=0)
        self.start += k
        self.steps = 0
        st.n_done = np.minimum(self.start, st.abort_step - 1)
        if self.grads is not None:
            # each pair's product once; IEEE multiplication commutes
            g, (k_end, l_end) = self.grads[:, :k], self.ends
            st.gram += _step_sum(g[k_end] * g[l_end], 1).T[:, self.pair]
            if self.probes:
                self._fold_probe(st, live[steps % self.cfg.plugin.every == 0])
        if self.theta_bar is not None:
            i = steps.astype(float)
            w_i = (i * i)[:, None]
            p = (self.theta_bar[:k] * self.cfg.w).sum(axis=-1)  # w·θ̄, (k, C)

            def live_sum(term):
                return _step_sum(np.where(live, term, 0.0), 0)

            st.sc_a, st.sc_a_c = kahan_add(st.sc_a, st.sc_a_c, live_sum(w_i * (p * p)))
            st.sc_b, st.sc_b_c = kahan_add(st.sc_b, st.sc_b_c, live_sum(w_i * p))
            st.sc_s, st.sc_s_c = kahan_add(st.sc_s, st.sc_s_c, live_sum(w_i))

    def _fold_probe(self, st: _ChunkState, live: np.ndarray) -> None:
        """Four-point curvature of the group's q probe steps; ``live`` is (q, C)."""
        q, self.probes = self.probes, 0
        oracle, plugin, ends = self.oracle, self.cfg.plugin, self.ends
        d = len(self.pair)
        h, xt, y, u0 = self.h[:q], self.x[:, :q], self.y[:q], self.u0[:q]
        f0 = oracle.linpred_loss(u0, y) if self.f0 is None else self.f0[:q]
        fs = oracle.linpred_loss(u0 + h * xt, y)  # (d, q, C)
        fp = _pair_losses(oracle, u0, y, xt, h, ends)  # (pairs, q, C)
        # the raw block's entry (k, l) on raw[0] and (l, k) on raw[1], each in
        # its own order of summation
        fe = fs[ends]
        raw = (fp - fe - fe[::-1] + f0) / (h * h)
        sampled = d * d
        if self.mask is not None:
            sampled = self.mask[:q].sum(axis=(2, 3))
            mk = self.mask[:q].transpose(2, 3, 0, 1)[ends, ends[::-1]]
            if plugin.subsampling == "ipw":
                raw = subsample_block(raw, mk, plugin.p, "ipw", None)
            else:  # each block inherits from the one before it
                prev = np.moveaxis(st.hess_prev[:, ends, ends[::-1]], 0, -1)
                for j in range(q):
                    raw[:, :, j] = subsample_block(
                        raw[:, :, j], mk[:, :, j], plugin.p, "inherit", prev
                    )
                    prev = np.where(live[j], raw[:, :, j], prev)
                st.hess_prev[:, ends, ends[::-1]] = np.moveaxis(prev, -1, 0)
        sym = 0.5 * (raw[0] + raw[1])  # symmetric_part, one pair at a time
        st.hess += _step_sum(np.where(live, sym, 0.0), 1).T[:, self.pair]
        st.hess_count += live.sum(axis=0)
        st.queries += np.where(live, 1 + 2 * d + sampled, 0).sum(axis=0)


@functools.cache
def _heap_for_temporaries() -> None:
    """Have glibc's malloc serve the engine's temporaries from its heap.

    A step group's fold makes a few dozen temporaries of a few hundred KB.
    Above glibc's default 128 KB mmap threshold each is a fresh mapping
    whose pages fault in on first touch: 0.7-1M minor faults and 1-1.8 s
    of system time in a d = 5 or d = 20 perfbench-sized run.
    glibc raises the thresholds by itself only after the process frees a
    larger mapped block, which made the engine's speed depend on what the
    process had allocated before. This sets them to the ceiling of glibc's
    own rule (mmap above 32 MiB, trim above 64 MiB), once per process. It
    changes where arrays live, never a value. A no-op where the C library
    has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def _run_chunk(
    cfg: ExperimentConfig,
    rep_indices: np.ndarray,
    c_true: np.ndarray,
    c_norm: float,
    block: int = 1024,
) -> tuple[list[ReplicationRecord], list[ReplicationRecord], "_ChunkState"]:
    _heap_for_temporaries()
    oracle = models.LossOracle(cfg.model)
    dist, mode, sched = cfg.dist, cfg.mode, cfg.sched
    m, c = cfg.mode.m, len(rep_indices)
    st = _ChunkState(cfg, rep_indices)
    group = _StepGroup(cfg, oracle, c)
    rngs = [np.random.default_rng(cfg.seed + int(r)) for r in rep_indices]
    mask_p = cfg.plugin.p if "plugin" in cfg.inference else None
    akw = cfg.algorithm == "akw"
    checkpoint_records: list[ReplicationRecord] = []
    marks = list(cfg.checkpoints)

    tape = None
    all_live = True  # no replication has left the guard; np.where is then a no-op
    i = 0
    while i < cfg.n:
        size = min(block, cfg.n - i)
        for j, rng in enumerate(rngs):
            drawn = draw_block(rng, oracle, dist, mode, size, mask_p)
            if tape is None:  # (C, B, ...) buffers, filled row by row
                width = min(block, cfg.n)
                tape = [
                    None if a is None else np.empty((c, width) + a.shape[1:], a.dtype)
                    for a in drawn
                ]
                u_star = np.empty((c, width))
            for buf, a in zip(tape, drawn):
                if a is not None:
                    buf[j, :size] = a
            # x·θ* as a sum over each (B, d) row's own coordinates: a BLAS
            # gemv rounds a row by its position in the matrix
            u_star[j, :size] = (drawn[0] * cfg.model.theta_star).sum(axis=-1)
        xs, zs, vs, masks = (None if b is None else b[:, :size] for b in tape)
        ys = oracle.response_from_noise(u_star[:, :size], zs).T  # step-major (B, C)
        xvs = np.einsum("cbd,cbmd->bcm", xs, vs) if akw else None
        for t in range(size):
            i += 1
            x, y = xs[:, t, :], ys[t]
            act = st.active
            u0 = np.einsum("cd,cd->c", x, st.theta)
            h = sched.h(i)
            if akw:
                f0 = oracle.linpred_loss(u0, y)
                f1 = oracle.linpred_loss(u0[:, None] + h * xvs[t], y[:, None])
                coeff = (f1 - f0[:, None]) / h
                g = np.einsum("cm,cmd->cd", coeff, vs[:, t, :, :]) / m
            else:
                f0 = None
                g = oracle.linpred_grad(u0, y)[:, None] * x
            if not all_live:
                g = np.where(act[:, None], g, 0.0)
            theta_new = st.theta - sched.eta(i) * g
            # one test over the whole chunk; per row only once one fails
            if not within_guard(theta_new.ravel()):
                blown = act & ~within_guard(theta_new)
                st.active = act = act & ~blown
                st.abort_step[blown] = i
                theta_new = np.where(act[:, None], theta_new, st.theta)
                g = np.where(act[:, None], g, 0.0)
                all_live = False
            st.theta = theta_new
            theta_bar = st.theta_bar + (st.theta - st.theta_bar) / i
            if not all_live:
                theta_bar = np.where(act[:, None], theta_bar, st.theta_bar)
            st.theta_bar = theta_bar
            group.record(i, st, g, x, y, u0, f0, h, None if masks is None else masks[:, t])
            at_mark = bool(marks) and i == marks[0]
            if at_mark or i % group.size == 0 or i == cfg.n:
                group.fold(st)
            if at_mark:
                marks.pop(0)
                checkpoint_records.extend(
                    _method_records(cfg, st, c_true, c_norm, checkpoint_n=i)
                )
    return _method_records(cfg, st, c_true, c_norm), checkpoint_records, st


def _usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity`` where the
    platform has it, else ``os.cpu_count()``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: int | str | None = None) -> int:
    """Worker count for a run: ``workers`` if given, else the
    ``ZOKW_WORKERS`` environment variable, else ``_usable_cpus()``. A value
    that is not an integer of at least 1 is a ``ConfigError``."""
    where = "workers"
    if workers is None:
        workers, where = os.environ.get("ZOKW_WORKERS", ""), "ZOKW_WORKERS"
        if not workers.strip():
            return _usable_cpus()
    try:
        count = int(workers) if isinstance(workers, str) else operator.index(workers)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ConfigError(f"{where} must be an integer of at least 1, got {workers!r}")
    return count


def _map_chunks(fn, cfg: ExperimentConfig, workers: int | None, *args) -> list:
    """``fn(cfg, reps, *args)`` over contiguous chunks of the replication
    indices, in replication order: one chunk per worker, and more where a
    chunk would exceed ``MAX_CHUNK`` rows. The chunks run in a pool of at
    most ``_usable_cpus()`` processes (each chunk is CPU-bound, so more would
    only oversubscribe), or inline where that is one. The pool is shut down
    before this returns; a chunk's exception cancels the chunks not yet
    started and reaches the caller. The workers are forked where the
    platform can fork, so they start without importing numpy and akwinfer
    again; the pool forks them all before it starts its own thread."""
    reps = np.arange(cfg.replications)
    n_chunks = max(min(resolve_workers(workers), cfg.replications),
                   -(-cfg.replications // MAX_CHUNK))
    chunks = np.array_split(reps, n_chunks)
    processes = min(n_chunks, _usable_cpus())
    if processes == 1:
        return [fn(cfg, chunk, *args) for chunk in chunks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    with ProcessPoolExecutor(processes, mp_context=context) as pool:
        futures = [pool.submit(fn, cfg, chunk, *args) for chunk in chunks]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _chunk_state(cfg, reps, c_true, c_norm, block):
    return _run_chunk(cfg, reps, c_true, c_norm, block)[2]


def _chunk_records(cfg, reps, c_true, c_norm):
    """A chunk's records, checkpoint records and abort count; its (C, d, d)
    state stays in the worker."""
    records, checkpoint_records, st = _run_chunk(cfg, reps, c_true, c_norm)
    return records, checkpoint_records, int(np.count_nonzero(~st.active))


def replication_states(cfg: ExperimentConfig, block: int = 1024) -> _ChunkState:
    """Run every replication and return the raw final-state arrays
    (averaged iterates, accumulators) for direct inspection, the chunks'
    rows concatenated in replication order. ``block`` bounds the tape
    length held in memory at once; it also selects the tape (see
    ``draw_block``). The worker count is ``resolve_workers(None)``."""
    c_true = _oracle_truth(cfg)
    states = _map_chunks(_chunk_state, cfg, None, c_true, spectral_norm(c_true), block)
    st = states[0]
    for name in vars(st):
        setattr(st, name, np.concatenate([getattr(s, name) for s in states]))
    return st


def run_experiment(
    cfg: ExperimentConfig, workers: int | None = None
) -> ExperimentReport:
    """Run every replication and aggregate the per-replication metrics.

    The replications run in contiguous chunks, one per worker
    (``resolve_workers(workers)``), in worker processes, at most one per
    usable CPU (inline for one; see ``_map_chunks``), and the records are
    merged in replication order. The engine's arithmetic is
    per row (see the module docstring), so the output files are
    byte-identical for any worker count. Each replication's randomness
    comes from ``default_rng(seed + replication)``.
    """
    started = time.perf_counter()
    c_true = _oracle_truth(cfg)
    c_norm = spectral_norm(c_true)
    records: list[ReplicationRecord] = []
    checkpoint_records: list[ReplicationRecord] = []
    aborted = 0
    for recs, cps, chunk_aborted in _map_chunks(_chunk_records, cfg, workers, c_true, c_norm):
        records.extend(recs)
        checkpoint_records.extend(cps)
        aborted += chunk_aborted
    checkpoint_records.sort(key=lambda r: (r.n, r.replication, METHODS.index(r.method)))
    summary = summarize_records(records)
    summary.update(
        replications=cfg.replications,
        aborted=aborted,
        run_id=cfg.run_id,
        config_hash=cfg.config_hash,
        seed=cfg.seed,
        n=cfg.n,
        algorithm=cfg.algorithm,
        oracle_covariance_trace=float(np.trace(c_true)),
    )
    return ExperimentReport(
        config=cfg,
        run_id=cfg.run_id,
        records=records,
        checkpoint_records=checkpoint_records,
        summary=summary,
        wall_time=time.perf_counter() - started,
    )


def sweep(cfgs: list[ExperimentConfig], workers: int | None = None) -> list[ExperimentReport]:
    """Run a list of configs; run ids must be unique."""
    ids = [c.run_id for c in cfgs]
    dupes = {i for i in ids if ids.count(i) > 1}
    if dupes:
        raise ConfigError(f"duplicate run ids in sweep: {sorted(dupes)}")
    return [run_experiment(c, workers) for c in cfgs]


# -- file output ----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _records_csv(records: list[ReplicationRecord], fields) -> str:
    lines = [",".join(fields)]
    for r in records:
        row = {
            "run_id": r.run_id,
            "replication": str(r.replication),
            "method": r.method,
            "n": str(r.n),
            "est_error": _fmt(r.est_error),
            "cov_error": _fmt(r.cov_error),
            "ci_center": _fmt(r.ci_center),
            "ci_length": _fmt(r.ci_length),
            "covered": "" if r.covered is None else str(r.covered),
            "queries": str(r.queries),
            "aborted": str(r.aborted),
        }
        lines.append(",".join(row[f] for f in fields))
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, output_dir: str) -> str:
    """Write replications.csv / summary.json / config.resolved.json under
    ``output_dir/<run_id>/`` atomically; returns the run directory."""
    run_dir = os.path.join(output_dir, report.run_id)
    os.makedirs(run_dir, exist_ok=True)
    _atomic_write(
        os.path.join(run_dir, "replications.csv"),
        _records_csv(report.records, CSV_FIELDS),
    )
    if report.checkpoint_records:
        _atomic_write(
            os.path.join(run_dir, "checkpoints.csv"),
            _records_csv(report.checkpoint_records, CHECKPOINT_FIELDS),
        )
    _atomic_write(
        os.path.join(run_dir, "summary.json"),
        json.dumps(report.summary, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(
        os.path.join(run_dir, "config.resolved.json"),
        json.dumps(report.config.resolved(), indent=2, sort_keys=True) + "\n",
    )
    return run_dir


def read_replications(path: str) -> list[ReplicationRecord]:
    """Parse a replications CSV back into records (aggregate round-trips)."""
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                ReplicationRecord(
                    run_id=row["run_id"],
                    replication=int(row["replication"]),
                    method=row["method"],
                    est_error=float(row["est_error"]),
                    cov_error=float(row["cov_error"]) if row["cov_error"] else None,
                    ci_center=float(row["ci_center"]) if row["ci_center"] else None,
                    ci_length=float(row["ci_length"]) if row["ci_length"] else None,
                    covered=int(row["covered"]) if row["covered"] else None,
                    queries=int(row["queries"]),
                    aborted=int(row["aborted"]),
                    n=int(row.get("n", 0) or 0),
                )
            )
    return records

"""Monte-Carlo experiment harness.

Runs replicated optimizer-plus-inference experiments, computes coverage
and error metrics, and writes deterministic CSV/JSON artifacts. The
replication loop is vectorized across replications (every loss in
``models`` depends on theta only through the linear predictor, so a whole
batch of replications advances with a handful of array operations per
iteration); randomness is drawn per replication from ``default_rng(seed +
replication)`` in a fixed block order so results do not depend on how
replications are chunked.

The engine shares its math with the library: directions come from
``directions.draw_directions``, exact gradients from
``LossOracle.linpred_grad``, the divergence rule from
``kwengine.within_guard``, the curvature subsampling from
``plugin_inference.subsample_block``/``symmetric_part`` and the
random-scaling sums from ``random_scaling.kahan_add``, all applied to
(C, ...) arrays with one row per replication. The random-scaling sums are
kept for the scalar w·θ̄ only and the gradient Gram only for plug-in runs;
records are assembled by ``plugin_covariance`` and ``assemble_v`` (d = 1).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
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
    symmetric_part,
)
from .random_scaling import (
    TWO_SIDED_CRITICAL_VALUES,
    assemble_v,
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
    "run_experiment",
    "run_rm_baseline",
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
        if "random_scaling" in self.inference and not any(
            abs(self.level - lvl) < 1e-12 for lvl in TWO_SIDED_CRITICAL_VALUES
        ):
            raise ValueError(
                "random-scaling intervals support only tabled levels "
                f"{sorted(TWO_SIDED_CRITICAL_VALUES)}"
            )
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
            theta = models.theta_on_unit_sphere(int(dim), int(mraw.get("theta_seed", 2024)))
        elif "dim" in mraw and len(theta) != int(mraw["dim"]):
            raise ValueError("model.theta length contradicts model.dim")
        model = models.ModelSpec(
            family=mraw.get("family", "linear"),
            theta_star=np.asarray(theta, float),
            sigma2=float(mraw.get("sigma2", 0.2)),
            tau=float(mraw.get("tau", 0.5)),
            design=mraw.get("design", "identity"),
            rho=float(mraw.get("rho", 0.2)),
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
                u = dirs.random_orthonormal(model.dim, int(draw["basis_seed"]))
            p = draw.get("p")
            dist = dirs.DirectionDistribution(
                kind=kind,
                dim=model.dim,
                u=u,
                p=None if p is None else np.asarray(p, float),
            )
            mode = dirs.QueryMode(
                m=int(draw.get("m", 1)),
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
            eta0=float(sraw.get("eta0", 0.1)),
            alpha=float(sraw.get("alpha", 0.501)),
            h0=float(sraw.get("h0", 0.1)),
            gamma=float(sraw.get("gamma", 0.7)),
        )
    except (ValueError, TypeError) as exc:
        diags.append(f"schedules: {exc}")

    praw = dict(raw.get("plugin", {}))
    _check_keys(praw, {"p", "kappa1", "subsampling", "every"}, "plugin", diags)
    plugin = None
    try:
        plugin = PluginSettings(
            p=float(praw.get("p", 1.0)),
            kappa1=float(praw.get("kappa1", 1e-3)),
            subsampling=praw.get("subsampling", "ipw"),
            every=int(praw.get("every", 1)),
        )
    except (ValueError, TypeError) as exc:
        diags.append(f"plugin: {exc}")

    if diags or model is None or dist is None or sched is None or plugin is None:
        return None, diags
    try:
        cfg = ExperimentConfig(
            model=model,
            dist=dist,
            mode=mode,
            sched=sched,
            n=int(raw.get("n", 100_000)),
            replications=int(raw.get("replications", 100)),
            seed=int(raw.get("seed", 0)),
            inference=tuple(raw.get("inference", list(METHODS))),
            w=None if raw.get("w") is None else np.asarray(raw["w"], float),
            level=float(raw.get("level", 0.95)),
            checkpoints=tuple(raw.get("checkpoints", ())),
            plugin=plugin,
            algorithm=raw.get("algorithm", "akw"),
            name=str(raw.get("name", "run")),
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

    Fixed stream order — covariate normals, noise, directions, optional
    Bernoulli entry mask — so a replication's tape is identical no matter
    how iterations are blocked or replications chunked. Both the
    vectorized engine and the scalar reference replay consume this.
    """
    d = oracle.spec.dim
    x = rng.standard_normal((size, d)) @ oracle.chol.T
    z = rng.random(size) if oracle.noise_kind == "uniform" else rng.standard_normal(size)
    v = dirs.draw_directions(rng, dist, mode, size)
    mask = None
    if mask_p is not None and mask_p < 1.0:
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


class _ChunkState:
    """Mutable per-chunk optimizer and accumulator state."""

    def __init__(self, cfg: ExperimentConfig, rep_indices: np.ndarray):
        c, d = len(rep_indices), cfg.model.dim
        self.reps = rep_indices
        self.theta = np.zeros((c, d))
        self.theta_bar = np.zeros((c, d))
        self.active = np.ones(c, dtype=bool)
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


def _pair_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate pairs k <= l, and the (d, d) map from (k, l) to its pair."""
    rows, cols = np.triu_indices(d)
    pair = np.empty((d, d), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    return rows, cols, pair


def _pair_losses(
    oracle: models.LossOracle,
    u0: np.ndarray,
    y: np.ndarray,
    x: np.ndarray,
    h: float,
    index: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Four-point pair losses ``f(u0 + h (x_k + x_l))``, shape (C, d, d).

    The loss is evaluated once per unordered pair and gathered into both
    (k, l) and (l, k): IEEE addition commutes, so this is bit-identical to
    evaluating all d² entries.
    """
    rows, cols, pair = index
    upper = oracle.linpred_loss(u0[:, None] + h * (x[:, rows] + x[:, cols]), y[:, None])
    return upper[:, pair]


def _run_chunk(
    cfg: ExperimentConfig,
    rep_indices: np.ndarray,
    c_true: np.ndarray,
    c_norm: float,
    block: int = 1024,
) -> tuple[list[ReplicationRecord], list[ReplicationRecord], "_ChunkState"]:
    oracle = models.make_oracle(cfg.model)
    dist, mode, sched = cfg.dist, cfg.mode, cfg.sched
    d, m = cfg.model.dim, cfg.mode.m
    st = _ChunkState(cfg, rep_indices)
    rngs = [np.random.default_rng(cfg.seed + int(r)) for r in rep_indices]
    want_plugin = "plugin" in cfg.inference
    want_scaling = "random_scaling" in cfg.inference
    mask_p = cfg.plugin.p if want_plugin else None
    theta_star = cfg.model.theta_star
    pairs = _pair_index(d)
    checkpoint_records: list[ReplicationRecord] = []
    marks = list(cfg.checkpoints)

    i = 0
    while i < cfg.n:
        size = min(block, cfg.n - i)
        tapes = [draw_block(rng, oracle, dist, mode, size, mask_p) for rng in rngs]
        xs = np.stack([t[0] for t in tapes])          # (C, B, d)
        zs = np.stack([t[1] for t in tapes])          # (C, B)
        vs = np.stack([t[2] for t in tapes])          # (C, B, m, d)
        masks = (
            np.stack([t[3] for t in tapes]) if tapes[0][3] is not None else None
        )
        for t in range(size):
            i += 1
            x, z, v = xs[:, t, :], zs[:, t], vs[:, t, :, :]
            act = st.active
            y = oracle.response_from_noise(x @ theta_star, z)
            u0 = np.einsum("cd,cd->c", x, st.theta)
            h = sched.h(i)
            if cfg.algorithm == "rm":
                g = oracle.linpred_grad(u0, y)[:, None] * x
                st.queries[act] += 1
            else:
                f0 = oracle.linpred_loss(u0, y)
                xv = np.einsum("cd,cmd->cm", x, v)
                f1 = oracle.linpred_loss(u0[:, None] + h * xv, y[:, None])
                coeff = (f1 - f0[:, None]) / h
                g = np.einsum("cm,cmd->cd", coeff, v) / m
                st.queries[act] += m + 1
            g = np.where(act[:, None], g, 0.0)
            theta_new = st.theta - sched.eta(i) * g
            blown = act & ~within_guard(theta_new)
            if blown.any():
                st.active = act = act & ~blown
                theta_new = np.where(act[:, None], theta_new, st.theta)
            st.theta = theta_new
            st.n_done[act] = i
            st.theta_bar = np.where(
                act[:, None], st.theta_bar + (st.theta - st.theta_bar) / i, st.theta_bar
            )
            if want_plugin:
                st.gram += np.where(act[:, None, None], np.einsum("cd,ce->cde", g, g), 0.0)
            if want_plugin and i % cfg.plugin.every == 0:
                if cfg.algorithm == "rm":
                    f0 = oracle.linpred_loss(u0, y)
                fs = oracle.linpred_loss(u0[:, None] + h * x, y[:, None])
                fp = _pair_losses(oracle, u0, y, x, h, pairs)
                gblock = (
                    fp - fs[:, :, None] - fs[:, None, :] + f0[:, None, None]
                ) / (h * h)
                if masks is not None:
                    mk = masks[:, t]
                    gblock = subsample_block(
                        gblock, mk, cfg.plugin.p, cfg.plugin.subsampling, st.hess_prev
                    )
                    if cfg.plugin.subsampling == "inherit":
                        st.hess_prev = np.where(act[:, None, None], gblock, st.hess_prev)
                    sampled = mk.sum(axis=(1, 2))
                else:
                    sampled = np.full(len(act), d * d)
                st.hess += np.where(act[:, None, None], symmetric_part(gblock), 0.0)
                st.hess_count[act] += 1
                st.queries[act] += 1 + 2 * d + sampled[act]
            if want_scaling:
                w_i = float(i) * float(i)
                proj = st.theta_bar @ cfg.w
                term = np.where(act, w_i * (proj * proj), 0.0)
                st.sc_a, st.sc_a_c = kahan_add(st.sc_a, st.sc_a_c, term)
                term = np.where(act, w_i * proj, 0.0)
                st.sc_b, st.sc_b_c = kahan_add(st.sc_b, st.sc_b_c, term)
                term = np.where(act, w_i, 0.0)
                st.sc_s, st.sc_s_c = kahan_add(st.sc_s, st.sc_s_c, term)
            if marks and i == marks[0]:
                marks.pop(0)
                checkpoint_records.extend(
                    _method_records(cfg, st, c_true, c_norm, checkpoint_n=i)
                )
    return _method_records(cfg, st, c_true, c_norm), checkpoint_records, st


def replication_states(cfg: ExperimentConfig, block: int = 1024) -> _ChunkState:
    """Run every replication and return the raw final-state arrays
    (averaged iterates, accumulators) for direct inspection. ``block``
    bounds the tape length held in memory at once."""
    c_true = _oracle_truth(cfg)
    reps = np.arange(cfg.replications)
    _, _, st = _run_chunk(cfg, reps, c_true, spectral_norm(c_true), block)
    return st


def run_experiment(
    cfg: ExperimentConfig, workers: int | None = None
) -> ExperimentReport:
    """Run every replication and aggregate the per-replication metrics.

    Replications are processed in index-ordered chunks of fixed size (the
    schedulable unit for workers); chunk boundaries never depend on the
    worker count because array width changes the floating-point summation
    order at the 1e-12 level, and the output files must be byte-identical
    for any worker count. Each replication's randomness comes from
    ``default_rng(seed + replication)``.
    """
    started = time.perf_counter()
    c_true = _oracle_truth(cfg)
    c_norm = spectral_norm(c_true)
    del workers  # chunking is deliberately worker-independent
    chunk = min(cfg.replications, 256)
    records: list[ReplicationRecord] = []
    checkpoint_records: list[ReplicationRecord] = []
    all_reps = np.arange(cfg.replications)
    for lo in range(0, cfg.replications, chunk):
        recs, cps, _ = _run_chunk(cfg, all_reps[lo:lo + chunk], c_true, c_norm)
        records.extend(recs)
        checkpoint_records.extend(cps)
    checkpoint_records.sort(key=lambda r: (r.n, r.replication, METHODS.index(r.method)))
    summary = summarize_records(records)
    summary.update(
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


def run_rm_baseline(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentReport:
    """Same experiment with exact per-sample gradients (averaged RM run);
    oracle comparisons use the gradient-noise matrix in place of Q."""
    name = cfg.name if cfg.name.endswith("-rm") else cfg.name + "-rm"
    rm_cfg = ExperimentConfig(
        model=cfg.model,
        dist=cfg.dist,
        mode=cfg.mode,
        sched=cfg.sched,
        n=cfg.n,
        replications=cfg.replications,
        seed=cfg.seed,
        inference=cfg.inference,
        w=cfg.w.copy(),
        level=cfg.level,
        checkpoints=cfg.checkpoints,
        plugin=cfg.plugin,
        algorithm="rm",
        name=name,
    )
    return run_experiment(rm_cfg, workers)


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

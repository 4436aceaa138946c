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
recurrence (u0, then f0 and the direction losses in one loss call, the
gradient, the θ update, the divergence guard and θ̄) and records the
gradient, θ̄ and, every step, the probe inputs. The tape holds a basis
law's directions as (C, B, m) row indices. For the coordinate laws (√d·e_k and
e_k/√p_k) the step gathers x·v = x_k·s_k and scatters the gradient's
coeff·s_k; orthonormal rows, and gaussian and spherical vectors, go
through the dense contraction. Both give the dense tape's values bit for
bit. Per group of steps, ``_StepGroup.fold`` adds what never feeds back
into the recurrence: the gradient Gram, the four-point curvature probe
laid out pair-major as (pairs, steps, C), the three random-scaling sums,
the queries and n_done. Groups end at absolute step indices (their length
depends on d and on whether the run records the probe), at checkpoints and
at n, so the folded sums do not depend on where tape blocks end. The fold
computes into work arrays allocated once per chunk. Every per-step and
per-entry expression is the one a step-by-step engine would evaluate;
only the order of summation over steps differs. A chunk stops once all its
rows have left the guard: nothing a record reads moves after a row
aborts, so its remaining checkpoints are written from the frozen state.

This engine is the library's only optimizer. It defines the step-size and
spacing schedules (``Schedules``) and the divergence rule
(``within_guard``), and calls the library for the rest: directions come
from ``directions.draw_directions``, losses from
``LossOracle.linpred_loss``, the probe's 1/p-weighted entry sample from
``plugin_inference.subsample_block`` and the random-scaling sums from
``random_scaling.kahan_add``. The random-scaling sums are kept for the
scalar w·θ̄ only and the gradient Gram only for plug-in runs; records are
assembled by ``plugin_covariance`` and ``assemble_v`` (d = 1). The tests
replay it against a step-by-step scalar reference kept in ``tests/``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import os
import statistics
import tempfile
from collections.abc import Collection, Iterator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import directions as dirs
from . import models
from .numkernel import check_finite, spectral_norm
from .plugin_inference import (
    plugin_ci,
    plugin_covariance,
    subsample_block,
)
from .random_scaling import (
    assemble_v,
    critical_value,
    kahan_add,
    scaling_ci,
)

__all__ = [
    "METHODS",
    "ConfigError",
    "DIVERGENCE_LIMIT",
    "within_guard",
    "Schedules",
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

class ConfigError(ValueError):
    """Invalid experiment configuration; message lists every violation."""


DIVERGENCE_LIMIT = 1e8


def within_guard(theta: np.ndarray) -> np.ndarray:
    """The divergence rule, over the last axis: an iterate is kept while it
    is finite and ``max|theta| <= DIVERGENCE_LIMIT``. A NaN entry makes the
    max NaN and an infinite one exceeds the limit, so both fail the test."""
    return np.abs(theta).max(axis=-1) <= DIVERGENCE_LIMIT


@dataclass(frozen=True)
class Schedules:
    """Decaying step size ``eta0 * n**-alpha`` and spacing ``h0 * n**-gamma``."""

    eta0: float = 0.1
    alpha: float = 0.501
    h0: float = 0.1
    gamma: float = 0.7

    def __post_init__(self):
        if self.eta0 < 0.0:
            raise ValueError("eta0 must be nonnegative")
        if not 0.5 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0.5, 1)")
        if self.h0 <= 0.0:
            raise ValueError("h0 must be positive")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0.5, 1)")

    def eta(self, n: int) -> float:
        return self.eta0 * n ** -self.alpha

    def h(self, n: int) -> float:
        return self.h0 * n ** -self.gamma


@dataclass(frozen=True)
class PluginSettings:
    p: float = 1.0
    kappa1: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("plugin.p must lie in (0, 1]")
        if self.kappa1 <= 0.0:
            raise ValueError("plugin.kappa1 must be positive")


@dataclass
class ExperimentConfig:
    model: models.ModelSpec
    dist: dirs.DirectionDistribution
    mode: dirs.QueryMode
    sched: Schedules
    n: int = 100_000
    replications: int = 100
    seed: int = 0
    inference: tuple[str, ...] = METHODS
    w: np.ndarray | None = None
    level: float = 0.95
    checkpoints: tuple[int, ...] = ()
    plugin: PluginSettings = field(default_factory=PluginSettings)
    name: str = "run"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        bad = [m for m in self.inference if m not in METHODS]
        if bad:
            raise ValueError(f"unknown inference methods {bad}; valid: {METHODS}")
        self.inference = tuple(m for m in METHODS if m in self.inference)
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.name in ("", ".", "..") or any(
            sep and sep in self.name for sep in (os.sep, os.altsep, "\0")
        ):
            raise ValueError(f"name must be one plain path component, got {self.name!r}")
        if "random_scaling" in self.inference:
            critical_value(self.level)
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
        """Canonical JSON-serializable form; the config hash is taken over it.
        The model section is the ``ModelSpec`` with ``theta_star`` named
        ``theta``; the directions section is the law's kind, the
        ``QueryMode`` and the law's basis and probabilities. ``parse_config``
        reads this form back to the same config."""
        model = asdict(self.model)
        model["theta"] = model.pop("theta_star").tolist()
        u, p = self.dist.u, self.dist.p
        return {
            "name": self.name,
            "model": model,
            "directions": {
                "kind": self.dist.kind,
                **asdict(self.mode),
                "basis": None if u is None else u.tolist(),
                "p": None if p is None else p.tolist(),
            },
            "schedules": asdict(self.sched),
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "level": self.level,
            "w": self.w.tolist(),
            "inference": list(self.inference),
            "plugin": asdict(self.plugin),
            "checkpoints": list(self.checkpoints),
        }

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def run_id(self) -> str:
        return f"{self.name}-{self.config_hash[:10]}"


# -- config parsing ------------------------------------------------------


def _check_keys(section: dict, allowed: Collection[str], where: str, diags: list[str]):
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


def _list(values, key: str, convert, what: str) -> list:
    """A list of ``what``, each entry through ``convert`` as ``<key> entry``."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"{key} must be a list of {what}, got {values!r}")
    return [convert(v, f"{key} entry") for v in values]


def _reals(values, key: str) -> np.ndarray:
    """A list of numbers as a float vector, each entry through ``_real``."""
    return np.array(_list(values, key, _real, "numbers"), dtype=float)


def _matrix(values, key: str) -> np.ndarray:
    """A list of equal-length lists of numbers as a float matrix, each row
    through ``_reals`` as ``<key> row``."""
    rows = _list(values, key, lambda row, _: _reals(row, f"{key} row"), "lists of numbers")
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{key} rows must all have one length")
    return np.array(rows, dtype=float)


def _text(value, key: str) -> str:
    """``value``, a string or a number, as ``str`` spells it, so ``--override
    name=7`` names a run "7". Anything else is a ValueError naming ``key``;
    ``str()`` would name a run "None" or "True"."""
    if isinstance(value, bool) or not isinstance(
        value, (str, int, float, np.integer, np.floating)
    ):
        raise ValueError(f"{key} must be a string or a number, got {value!r}")
    return str(value)


# A config value's conversion, by its annotation (a dataclass field's, or
# the one _SECTIONS gives it); a "| None" value of None is absent
_CONVERT = {
    "float": _real,
    "int": _integer,
    "str": _text,
    "tuple[str, ...]": lambda v, key: tuple(_list(v, key, _text, "names")),
    "tuple[int, ...]": lambda v, key: tuple(_list(v, key, _integer, "integers")),
    "np.ndarray | None": lambda v, key: None if v is None else _reals(v, key),
    "matrix | None": lambda v, key: None if v is None else _matrix(v, key),
    "int | None": lambda v, key: None if v is None else _integer(v, key),
}

# A value that a section needs and does not have: one that did not convert
# and whose default is to be absent, or the directions' unbuilt model. A
# section given one is not built.
_MISSING = object()


def _convert(raw: dict, types: dict[str, str], where: str, diags: list[str]) -> dict:
    """The keys of ``types`` that ``raw`` sets, in ``types`` order, each
    converted by its annotation in ``types`` through ``_CONVERT``. Each value
    that does not convert appends one violation to ``diags``, its key named
    ``where.key`` (``key`` at the top level, where ``where`` is "config"),
    and takes its default: it is left out, or is ``_MISSING`` if its
    annotation ends in "| None"."""
    given = {}
    for name, annotation in types.items():
        if name in raw:
            key = name if where == "config" else f"{where}.{name}"
            try:
                given[name] = _CONVERT[annotation](raw[name], key)
            except ValueError as exc:
                diags.append(f"{where}: {exc}")
                if annotation.endswith("| None"):
                    given[name] = _MISSING
    return given


def _model(family="linear", theta=None, dim=None, theta_seed=2024, **rest):
    """The model; its true parameter is ``theta``, else a seeded point of
    the unit sphere in ``dim`` dimensions."""
    if theta is None:
        if dim is None:
            raise ValueError("model needs 'theta' or 'dim'")
        if dim < 1:
            raise ValueError(f"model.dim must be positive, for a nonempty theta; got {dim}")
        theta = models.theta_on_unit_sphere(dim, theta_seed)
    elif dim is not None and len(theta) != dim:
        raise ValueError("model.theta length contradicts model.dim")
    return models.ModelSpec(family=family, theta_star=theta, **rest)


def _directions(model, kind="spherical", basis=None, p=None, basis_seed=None, **mode):
    """The direction law and the query mode, checked against each other. An
    orthonormal law's basis is ``basis``, else drawn from ``basis_seed``,
    else the identity."""
    if basis is not None and basis_seed is not None:
        raise ValueError("give directions.basis or directions.basis_seed, not both")
    if kind == "orthonormal" and basis_seed is not None:
        basis = dirs.random_orthonormal(model.dim, basis_seed)
    mode = dirs.QueryMode(**mode)
    dist = dirs.DirectionDistribution(kind=kind, dim=model.dim, u=basis, p=p)
    dirs._check_mode(dist, mode)
    return dist, mode


# Each config section's builder and its keys, each with the annotation that
# converts it: the keys that resolved() writes, and the seeded shorthands
# model.dim, model.theta_seed and directions.basis_seed
_SECTIONS = {
    "model": (_model, {"family": "str", "theta": "np.ndarray | None", "sigma2": "float",
                       "tau": "float", "design": "str", "rho": "float",
                       "dim": "int | None", "theta_seed": "int"}),
    "directions": (_directions, {"kind": "str", "m": "int", "replacement": "str",
                                 "basis": "matrix | None", "p": "np.ndarray | None",
                                 "basis_seed": "int | None"}),
    "schedules": (Schedules, {f.name: f.type for f in fields(Schedules)}),
    "plugin": (PluginSettings, {f.name: f.type for f in fields(PluginSettings)}),
}

# The top-level keys: ExperimentConfig's fields other than the built sections
_TOP = {f.name: f.type for f in fields(ExperimentConfig) if f.type in _CONVERT}


def parse_config(raw: dict) -> tuple[ExperimentConfig | None, list[str]]:
    """Strict config parse; returns (config-or-None, list of violations).
    A section's keys are those ``_SECTIONS`` lists, so a config that
    ``resolved()`` wrote parses back to the same config. Every section and
    top-level key is checked, and each bad key leaves its own violation. A
    value is converted by ``_convert``; one that does not convert, or is
    left out, takes its default, and its section is still built and
    range-checked. The one exception: a section is built only from values
    it can build from. A bad ``model.theta`` or ``model.dim`` leaves the
    model unbuilt; a bad ``directions.basis``, ``p`` or ``basis_seed``, or
    a model that was not built, since the direction law needs its
    dimension, leaves the directions unbuilt. An unbuilt section's keys are
    still converted, but its range checks do not run. Only
    ``model.family``, ``model.theta_seed`` and ``directions.kind`` have
    their defaults here."""
    diags: list[str] = []
    if not isinstance(raw, dict):
        return None, ["config root must be a JSON object"]
    _check_keys(raw, _TOP.keys() | _SECTIONS.keys(), "config", diags)
    built = {}
    for where, (build, types) in _SECTIONS.items():
        section = raw.get(where, {})
        if not isinstance(section, dict):
            diags.append(f"{where}: must be a JSON object, got {section!r}")
            continue
        _check_keys(section, types, where, diags)
        values = _convert(section, types, where, diags)
        if where == "directions":  # the direction law needs the model's dimension
            values["model"] = built.get("model", _MISSING)
        if any(v is _MISSING for v in values.values()):
            continue
        try:
            built[where] = build(**values)
        except (ValueError, TypeError) as exc:
            diags.append(f"{where}: {exc}")
    given = _convert(raw, _TOP, "config", diags)
    if diags:  # every section that was not built left a violation
        return None, diags
    dist, mode = built["directions"]
    try:
        cfg = ExperimentConfig(model=built["model"], dist=dist, mode=mode,
                               sched=built["schedules"], plugin=built["plugin"], **given)
    except (ValueError, TypeError) as exc:
        diags.append(str(exc))
        return None, diags
    return cfg, diags


def config_from_dict(raw: dict) -> ExperimentConfig:
    cfg, diags = parse_config(raw)
    if cfg is None:
        raise ConfigError("\n".join(diags) or "invalid config")
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
    The directions of an indexed law (canonical, orthonormal, nonuniform)
    are their (size, m) row indices into ``directions.basis_rows``, those
    of the gaussian and spherical laws the dense (size, m, d) vectors, as
    ``draw_directions`` returns them. The engine and the tests' scalar
    replays consume this.
    """
    x = oracle.draw_x(rng, size)
    z = oracle.draw_noise(rng, size)
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
    # the step count the record was taken at; replications.csv has no n
    # column, so a final record read back from it has n = 0
    n: int = 0


# the records' CSV columns, in field order; checkpoints.csv adds n after method
CSV_FIELDS = tuple(f.name for f in fields(ReplicationRecord) if f.name != "n")
CHECKPOINT_FIELDS = CSV_FIELDS[:3] + ("n",) + CSV_FIELDS[3:]


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    run_id: str
    records: list[ReplicationRecord]
    checkpoint_records: list[ReplicationRecord]
    summary: dict


def summarize_records(records: list[ReplicationRecord]) -> dict:
    """Per-method aggregates over non-aborted replications.

    Recomputable from the replications CSV — the round-trip is tested.
    The replication and abort counts are the run's (``run_experiment``):
    a run without inference methods writes no records to count.
    """
    out: dict = {"methods": {}}
    for method in METHODS:
        rows = [r for r in records if r.method == method and not r.aborted]
        if not rows:
            continue
        k = len(rows)

        def mean_se(values):
            # exact rational arithmetic: a constant column's SE is exactly 0
            vals = [v for v in values if v is not None]
            if not vals:
                return None, None
            se = statistics.stdev(vals) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
            return statistics.mean(vals), se

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
        # the random-scaling sums of i²(w·θ̄)², i²(w·θ̄) and i² in columns
        # a, b, s, and their Kahan compensations
        self.sc = np.zeros((c, 3))
        self.sc_c = np.zeros((c, 3))


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
    w, run_id = cfg.w, cfg.run_id  # run_id hashes the resolved config
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
                if method == "plugin":
                    cov = plugin_covariance(st.hess[j] / n_j, st.gram[j] / n_j,
                                            cfg.plugin.kappa1)
                    cov_error = spectral_norm(cov - c_true) / c_norm
                    ci = plugin_ci(st.theta_bar[j], cov, w, n_j, cfg.level)
                elif method == "random_scaling":
                    t = np.array([w @ st.theta_bar[j]])  # the 1-d problem in w·θ̄
                    a, b = st.sc[j:j + 1, 0:1], st.sc[j:j + 1, 1]
                    v = assemble_v(a, b, st.sc[j, 2], n_j, t)
                    ci = scaling_ci(t, v, np.ones(1), n_j, cfg.level)
                elif method == "oracle":
                    ci = plugin_ci(st.theta_bar[j], c_true, w, n_j, cfg.level)
            records.append(
                ReplicationRecord(
                    run_id=run_id,
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
    lin: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Four-point pair losses ``f(u0 + h (x_k + x_l))`` for k <= l, pair-major,
    into ``out``, through the linear predictors in ``lin`` (both C-contiguous).

    ``xt`` carries the coordinates on its first axis, the result the pairs;
    ``u0``, ``y`` and ``h`` broadcast against the remaining axes. Each
    unordered pair is evaluated once: IEEE addition commutes, so gathering
    the result into (k, l) and (l, k) is bit-identical to all d² entries.
    The gathers clip: ``np.take``'s default mode buffers ``out``.
    """
    k, l = ends
    np.take(xt, k, axis=0, out=lin, mode="clip")
    np.add(lin, np.take(xt, l, axis=0, out=out, mode="clip"), out=lin)
    np.add(u0, np.multiply(h, lin, out=lin), out=lin)
    return oracle.linpred_loss(lin, y, out=out)


def _step_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum of the C-contiguous ``a`` over its step axis, adding the steps in
    order. numpy reduces an axis with more than one element after it slab by
    slab, in order; an axis with one element after it (a one-row chunk's) it
    sums pairwise, so there the steps go through a cumulative sum instead."""
    if math.prod(a.shape[axis + 1:]) > 1:
        return a.sum(axis=axis)
    return np.take(a.cumsum(axis=axis), -1, axis=axis)


def _view(work: np.ndarray, *shape: int) -> np.ndarray:
    """The start of the flat work array ``work`` as a C-contiguous ``shape``."""
    return work[:math.prod(shape)].reshape(shape)


class _StepGroup:
    """What the recurrence leaves behind over one group of steps.

    The step loop records each step's gradient (zero once a replication has
    stopped), θ̄ and the curvature probe's inputs x, y, u0, f0, h and entry
    mask: the probe runs every step. ``fold`` adds the Gram, the curvature
    probe, the three random-scaling sums of w·θ̄, the queries and n_done to
    the chunk state in a few batched operations. The Gram and the probe are
    laid out pair-major, (pairs, steps, C). A replication is live after step
    i while ``i < abort_step``. The fold computes into flat work arrays
    allocated once per chunk, through C-contiguous views (``_view``). Every
    expression keeps its operands and their order, so the bits are those of
    fresh temporaries.
    """

    def __init__(self, cfg: ExperimentConfig, oracle: models.LossOracle, c: int):
        d = cfg.model.dim
        self.ends, self.pair = _pair_index(d)
        pairs = self.ends.shape[1] if "plugin" in cfg.inference else 0
        size = max(1, FOLD_BUDGET // (pairs + d))
        self.cfg, self.oracle, self.size, self.c = cfg, oracle, size, c
        self.start = self.steps = 0
        self.grads = self.mask = self.theta_bar = None
        if "plugin" in cfg.inference:
            # coordinates first, for the pair gather
            self.grads, self.x = np.empty((d, size, c)), np.empty((d, size, c))
            self.h = np.empty((size, 1))
            self.y, self.u0, self.f0 = (np.empty((size, c)) for _ in range(3))
            if cfg.plugin.p < 1.0:
                self.mask = np.empty((size, c, d, d), dtype=bool)
            self.raw, self.fe = np.empty(2 * pairs * size * c), np.empty(2 * pairs * size * c)
            self.fp, self.fs = np.empty(pairs * size * c), np.empty(d * size * c)
        if "random_scaling" in cfg.inference:
            self.theta_bar = np.empty((size, c, d))
            self.terms = np.empty(3 * size * c)

    def record(self, st, g, x, y, u0, f0, h, mask) -> None:
        s = self.steps
        self.steps += 1
        if self.grads is not None:
            self.grads[:, s] = g.T
            self.h[s], self.x[:, s], self.y[s], self.u0[s], self.f0[s] = h, x.T, y, u0, f0
            if self.mask is not None:
                self.mask[s] = mask
        if self.theta_bar is not None:
            self.theta_bar[s] = st.theta_bar

    def fold(self, st: _ChunkState) -> None:
        k, c = self.steps, self.c
        steps = np.arange(self.start + 1, self.start + k + 1)
        live = steps[:, None] < st.abort_step  # (k, C)
        st.queries += (self.cfg.mode.m + 1) * (steps[:, None] <= st.abort_step).sum(axis=0)
        self.start += k
        self.steps = 0
        st.n_done = np.minimum(self.start, st.abort_step - 1)
        if self.grads is not None:
            # each pair's product once; IEEE multiplication commutes
            gg = _view(self.raw, 2, self.ends.shape[1], k, c)
            np.take(self.grads[:, :k], self.ends, axis=0, out=gg, mode="clip")
            st.gram += _step_sum(np.multiply(gg[0], gg[1], out=gg[0]), 1).T[:, self.pair]
            self._fold_probe(st, live)
        if self.theta_bar is not None:
            i = steps.astype(float)
            w_i = (i * i)[:, None]
            p = (self.theta_bar[:k] * self.cfg.w).sum(axis=-1)  # w·θ̄, (k, C)
            terms = _view(self.terms, 3, k, c)
            terms[0], terms[1], terms[2] = p * p, p, 1.0
            np.multiply(w_i, terms, out=terms)
            np.copyto(terms, 0.0, where=~live)  # a stopped row adds nothing
            live_sum = _step_sum(terms, 1)
            st.sc, st.sc_c = kahan_add(st.sc, st.sc_c, live_sum.T)

    def _fold_probe(self, st: _ChunkState, live: np.ndarray) -> None:
        """Four-point curvature of the group's q steps; ``live`` is (q, C)."""
        q = len(live)
        oracle, ends = self.oracle, self.ends
        d, pairs, c = len(self.pair), ends.shape[1], self.c
        h, xt, y, u0, f0 = self.h[:q], self.x[:, :q], self.y[:q], self.u0[:q], self.f0[:q]
        fs = _view(self.fs, d, q, c)  # f(u0 + h·x_k), (d, q, C)
        oracle.linpred_loss(np.add(u0, np.multiply(h, xt, out=fs), out=fs), y, out=fs)
        raw, fe = _view(self.raw, 2, pairs, q, c), _view(self.fe, 2, pairs, q, c)
        fp = _pair_losses(oracle, u0, y, xt, h, ends, raw[0], _view(self.fp, pairs, q, c))
        # the raw block's entry (k, l) on raw[0] and (l, k) on raw[1], each in
        # its own order of summation: (fp - fe - fe[::-1] + f0) / h²
        np.take(fs, ends, axis=0, out=fe, mode="clip")
        np.subtract(np.subtract(fp, fe, out=raw), fe[::-1], out=raw)
        np.divide(np.add(raw, f0, out=raw), h * h, out=raw)
        sampled = d * d
        if self.mask is not None:
            sampled = self.mask[:q].sum(axis=(2, 3))
            mk = self.mask[:q].transpose(2, 3, 0, 1)[ends, ends[::-1]]
            subsample_block(raw, mk, self.cfg.plugin.p, out=raw)
        # the symmetric part (B + Bᵀ)/2, over the spent fe
        sym = np.multiply(0.5, np.add(raw[0], raw[1], out=fe[0]), out=fe[0])
        np.copyto(sym, 0.0, where=~live)
        st.hess += _step_sum(sym, 1).T[:, self.pair]
        st.queries += np.where(live, 1 + 2 * d + sampled, 0).sum(axis=0)


class _DenseDirections:
    """A tape block's directions as dense (C, B, m, d) vectors: gaussian and
    spherical ones as drawn, orthonormal ones gathered from their rows."""

    def __init__(self, dist: dirs.DirectionDistribution):
        self.rows = dirs.basis_rows(dist) if dist.kind in dirs.INDEXED_KINDS else None

    def block(self, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """x·v for each step and direction of the block, (B, C, m)."""
        self.vs = vs if self.rows is None else self.rows[vs]
        return np.einsum("cbd,cbmd->bcm", xs, self.vs)

    def grad(self, t: int, coeff: np.ndarray) -> np.ndarray:
        """Σ_j coeff_j·v_j over step t's directions, (C, d)."""
        return np.einsum("cm,cmd->cd", coeff, self.vs[:, t])


class _CoordinateDirections:
    """A tape block's directions v = s_k·e_k as their indices k, with the
    scale s_k = √d (canonical) or 1/√p_k (nonuniform).

    Every other term of the dense x·v is a product with zero, so the gather
    x_k·s_k is the dense sum's value. ``grad`` adds the rounded products
    coeff_j·s_k at each step's indices in direction order, which is how
    numpy's einsum adds a repeated index's terms;
    ``test_index_tape_matches_dense_directions`` checks both against the
    dense einsum bit for bit.
    """

    def __init__(self, dist: dirs.DirectionDistribution, c: int):
        self.scale_of = np.diagonal(dirs.basis_rows(dist)).copy()
        self.row = np.arange(c)[:, None]
        self.shape = (c, dist.dim)

    def block(self, xs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        self.idx, self.scale = idx, self.scale_of[idx]
        return (np.take_along_axis(xs, idx, axis=2) * self.scale).transpose(1, 0, 2)

    def grad(self, t: int, coeff: np.ndarray) -> np.ndarray:
        g = np.zeros(self.shape)
        np.add.at(g, (self.row, self.idx[:, t]), coeff * self.scale[:, t])
        return g


def _step_directions(dist: dirs.DirectionDistribution, c: int):
    if dist.kind in dirs.COORDINATE_KINDS:
        return _CoordinateDirections(dist, c)
    return _DenseDirections(dist)


def _run_chunk(
    cfg: ExperimentConfig,
    rep_indices: np.ndarray,
    c_true: np.ndarray,
    c_norm: float,
    block: int = 1024,
) -> tuple[list[ReplicationRecord], list[ReplicationRecord], "_ChunkState"]:
    oracle = models.LossOracle(cfg.model)
    dist, mode, sched = cfg.dist, cfg.mode, cfg.sched
    m, c = cfg.mode.m, len(rep_indices)
    st = _ChunkState(cfg, rep_indices)
    group = _StepGroup(cfg, oracle, c)
    rngs = [np.random.default_rng(cfg.seed + int(r)) for r in rep_indices]
    mask_p = cfg.plugin.p if "plugin" in cfg.inference else None
    directions = _step_directions(dist, c)
    lin = np.empty((c, m + 1))  # u0, then u0 + h·x·v for each direction
    checkpoint_records: list[ReplicationRecord] = []
    marks = list(cfg.checkpoints)

    tape = None
    all_live = True  # no replication has left the guard; np.where is then a no-op
    stopped = False  # every replication has left it
    i = 0
    while i < cfg.n and not stopped:
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
        xvs = directions.block(xs, vs)
        hs = [sched.h(k) for k in range(i + 1, i + size + 1)]
        etas = [sched.eta(k) for k in range(i + 1, i + size + 1)]
        for t in range(size):
            i += 1
            x, y, h = xs[:, t, :], ys[t], hs[t]
            act = st.active
            u0 = np.einsum("cd,cd->c", x, st.theta)
            # f0 and the direction losses in one call
            lin[:, 0] = u0
            np.add(u0[:, None], h * xvs[t], out=lin[:, 1:])
            f = oracle.linpred_loss(lin, y[:, None])
            g = directions.grad(t, (f[:, 1:] - f[:, :1]) / h)
            if m > 1:
                g /= m
            if not all_live:
                g = np.where(act[:, None], g, 0.0)
            theta_new = st.theta - etas[t] * g
            # one test over the whole chunk; per row only once one fails
            if not within_guard(theta_new.ravel()):
                blown = act & ~within_guard(theta_new)
                st.active = act = act & ~blown
                st.abort_step[blown] = i
                theta_new = np.where(act[:, None], theta_new, st.theta)
                g = np.where(act[:, None], g, 0.0)
                all_live, stopped = False, not act.any()
            st.theta = theta_new
            theta_bar = st.theta_bar + (st.theta - st.theta_bar) / i
            if not all_live:
                theta_bar = np.where(act[:, None], theta_bar, st.theta_bar)
            st.theta_bar = theta_bar
            group.record(st, g, x, y, u0, f[:, 0], h, None if masks is None else masks[:, t])
            at_mark = bool(marks) and i == marks[0]
            if at_mark or stopped or i % group.size == 0 or i == cfg.n:
                group.fold(st)
            if at_mark:
                marks.pop(0)
                checkpoint_records.extend(
                    _method_records(cfg, st, c_true, c_norm, checkpoint_n=i)
                )
            if stopped:
                break
    # A stopped chunk's θ̄, n_done, queries and sums no longer move,
    # so its remaining checkpoints read the frozen state, each with its n.
    for mark in marks:
        checkpoint_records.extend(_method_records(cfg, st, c_true, c_norm, checkpoint_n=mark))
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
    c_true = models.oracle_covariance(cfg.model, cfg.dist, cfg.mode)
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
    c_true = models.oracle_covariance(cfg.model, cfg.dist, cfg.mode)
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
        oracle_covariance_trace=float(np.trace(c_true)),
    )
    return ExperimentReport(
        config=cfg,
        run_id=cfg.run_id,
        records=records,
        checkpoint_records=checkpoint_records,
        summary=summary,
    )


def sweep(cfgs: list[ExperimentConfig], workers: int | None = None) -> Iterator[ExperimentReport]:
    """Check that the run ids are unique, then return an iterator that runs
    each config when its report is asked for."""
    ids = [c.run_id for c in cfgs]
    dupes = {i for i in ids if ids.count(i) > 1}
    if dupes:
        raise ConfigError(f"duplicate run ids in sweep: {sorted(dupes)}")
    return (run_experiment(c, workers) for c in cfgs)


# -- file output ----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
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


def _records_csv(records: list[ReplicationRecord], columns) -> str:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(getattr(r, c)) for c in columns) for r in records]
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


def _from_text(annotation: str, text: str):
    """A CSV cell back as its field's type: an empty cell of an optional
    field is None."""
    kind, _, optional = annotation.partition(" | ")
    if optional and not text:
        return None
    return {"str": str, "int": int, "float": float}[kind](text)


def read_replications(path: str) -> list[ReplicationRecord]:
    """Parse a replications or checkpoints CSV back into records. A field
    without a column (``n`` in replications.csv) takes its default."""
    with open(path, newline="") as fh:
        return [
            ReplicationRecord(**{
                f.name: _from_text(f.type, row[f.name])
                for f in fields(ReplicationRecord)
                if f.name in row
            })
            for row in csv.DictReader(fh)
        ]

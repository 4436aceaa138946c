import concurrent.futures
import dataclasses
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from akwinfer import directions as dirs
from akwinfer import models, recipes
from akwinfer import simharness as sh
from akwinfer.random_scaling import assemble_v, scaling_ci
import reference as kw
from reference import HessianAccumulator, ScalingAccumulator, hessian_entry_block, scaling_update


def small_raw(**overrides):
    raw = {
        "name": "t",
        "model": {"family": "linear", "theta": [0.6, -0.8]},
        "directions": {"kind": "canonical"},
        "n": 300,
        "replications": 6,
        "seed": 11,
    }
    raw.update(overrides)
    return raw


def test_parse_config_defaults():
    cfg, diags = sh.parse_config(small_raw())
    assert diags == []
    assert np.allclose(cfg.w, np.full(2, 1 / np.sqrt(2)))
    assert cfg.level == 0.95
    assert cfg.inference == sh.METHODS
    assert cfg.sched.eta0 == 0.1 and cfg.sched.gamma == 0.7
    assert cfg.run_id == f"t-{cfg.config_hash[:10]}"
    assert len(cfg.config_hash) == 64


def test_parse_config_collects_all_violations():
    raw = small_raw(
        schedules={"alpha": 1.2},
        plugin={"p": 0.0},
        directions={"kind": "canonical", "bogus": 1},
    )
    cfg, diags = sh.parse_config(raw)
    assert cfg is None
    joined = "\n".join(diags)
    assert "alpha must lie in (0.5, 1)" in joined
    assert "plugin.p must lie in (0, 1]" in joined
    assert "unknown key 'bogus'" in joined
    assert len(diags) == 3


# A bad value leaves one violation naming its key, whatever else is bad.
def test_parse_config_reports_every_bad_key():
    cfg, diags = sh.parse_config(
        small_raw(schedules={"eta0": "a", "h0": "b"}, level="x", w=["a", 1])
    )
    assert cfg is None and len(diags) == 4, diags
    for key in ("schedules.eta0", "schedules.h0", "level", "w entry"):
        assert sum(f"{key} must be a number" in d for d in diags) == 1, (key, diags)


# model.dim, directions.p and directions.m are converted one key at a time,
# so a bad model hides neither the direction law's keys nor each other.
def test_parse_config_reports_each_bad_model_and_law_key():
    cfg, diags = sh.parse_config(
        {"model": {"dim": 2.5}, "directions": {"kind": "nonuniform", "p": ["a"], "m": 1.5}}
    )
    assert cfg is None and len(diags) == 3, diags
    for key in ("model.dim must be an integer", "directions.p entry must be a number",
                "directions.m must be an integer"):
        assert sum(key in d for d in diags) == 1, (key, diags)


@pytest.mark.parametrize(
    "name", ["", ".", "..", "../escaped", "a/b", "/abs", "a\0b"],
    ids=["empty", "dot", "dotdot", "parent", "nested", "absolute", "nul"],
)
def test_name_must_be_one_plain_path_component(name):
    cfg, diags = sh.parse_config(small_raw(name=name))
    assert cfg is None and len(diags) == 1, diags
    assert "name must be one plain path component" in diags[0]


# A name that is not a string or a number fails; a number is spelled as str does.
@pytest.mark.parametrize("name", [None, [1, 2], True, {"a": 1}],
                         ids=["null", "list", "bool", "object"])
def test_name_must_be_a_string_or_a_number(name):
    cfg, diags = sh.parse_config(small_raw(name=name))
    assert cfg is None
    assert diags == [f"config: name must be a string or a number, got {name!r}"]


def test_a_numeric_name_is_spelled_as_str_spells_it():
    assert sh.config_from_dict(small_raw(name=7)).run_id.startswith("7-")
    assert sh.config_from_dict(small_raw(name=7.5)).name == "7.5"


@pytest.mark.parametrize("model", [{"theta": []}, {"dim": 0}], ids=["theta", "dim"])
def test_a_zero_dimensional_model_is_a_model_violation(model):
    cfg, diags = sh.parse_config(small_raw(model=dict(model, family="linear")))
    assert cfg is None
    assert any(d.startswith("model: ") and "nonempty" in d for d in diags), diags


def test_algorithm_is_an_unknown_key():
    cfg, diags = sh.parse_config(small_raw(algorithm="akw"))
    assert cfg is None and len(diags) == 1
    assert diags[0].startswith("config: unknown key 'algorithm'")


def test_plugin_every_is_an_unknown_key():
    cfg, diags = sh.parse_config(small_raw(plugin={"every": 1}))
    assert cfg is None and len(diags) == 1
    assert diags[0].startswith("plugin: unknown key 'every'")
    with pytest.raises(sh.ConfigError, match="plugin: unknown key 'every'"):
        sh.config_from_dict(small_raw(plugin={"every": 1}))
    assert set(sh.config_from_dict(small_raw()).resolved()["plugin"]) == {"p", "kappa1"}


def test_parse_config_unknown_top_level_key():
    cfg, diags = sh.parse_config(small_raw(extra=1))
    assert cfg is None and any("unknown key 'extra'" in d for d in diags)


def test_plugin_subsampling_is_an_unknown_key():
    cfg, diags = sh.parse_config(small_raw(plugin={"subsampling": "ipw"}))
    assert cfg is None and len(diags) == 1
    assert diags[0].startswith("plugin: unknown key 'subsampling'")


def test_parse_config_theta_dim_contradiction_and_dim_seed():
    cfg, diags = sh.parse_config(
        small_raw(model={"family": "linear", "theta": [1.0, 0.0], "dim": 3})
    )
    assert cfg is None and any("contradicts" in d for d in diags)
    cfg, diags = sh.parse_config(
        small_raw(model={"family": "linear", "dim": 4, "theta_seed": 7})
    )
    assert diags == []
    assert np.allclose(cfg.model.theta_star, models.theta_on_unit_sphere(4, seed=7))


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("n", {"n": 100.7}),
        ("n", {"n": True}),
        ("replications", {"replications": "3"}),
        ("seed", {"seed": 1.5}),
        ("checkpoints", {"checkpoints": [10.5]}),
        ("model.dim", {"model": {"family": "linear", "dim": 2.5}}),
        ("model.theta_seed", {"model": {"family": "linear", "dim": 2, "theta_seed": "7"}}),
        ("directions.m", {"directions": {"kind": "canonical", "m": 1.6}}),
        ("directions.basis_seed", {"directions": {"kind": "orthonormal", "basis_seed": 0.5}}),
    ],
)
def test_parse_config_rejects_non_integer_counts(key, overrides):
    cfg, diags = sh.parse_config(small_raw(**overrides))
    assert cfg is None
    assert any(key in d and "must be an integer" in d for d in diags), diags


def test_parse_config_accepts_integral_floats():
    cfg = sh.config_from_dict(
        small_raw(n=3e2, checkpoints=[1e2], directions={"kind": "canonical", "m": 2.0})
    )
    ints = sh.config_from_dict(
        small_raw(n=300, checkpoints=[100], directions={"kind": "canonical", "m": 2})
    )
    assert (cfg.n, cfg.checkpoints, cfg.mode.m) == (300, (100,), 2)
    assert type(cfg.n) is int and cfg.config_hash == ints.config_hash


_LINEAR = {"family": "linear", "theta": [0.6, -0.8]}


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("model.sigma2", {"model": dict(_LINEAR, sigma2=True)}),
        ("model.tau", {"model": dict(_LINEAR, family="quantile", tau="0.25")}),
        ("model.rho", {"model": dict(_LINEAR, design="equicorr", rho="0.2")}),
        ("model.theta entry", {"model": dict(_LINEAR, theta=[0.6, "-0.8"])}),
        ("model.theta", {"model": dict(_LINEAR, theta="0.6")}),
        ("schedules.eta0", {"schedules": {"eta0": "0.5"}}),
        ("schedules.alpha", {"schedules": {"alpha": True}}),
        ("schedules.h0", {"schedules": {"h0": "0.1"}}),
        ("schedules.gamma", {"schedules": {"gamma": False}}),
        ("plugin.p", {"plugin": {"p": True}}),
        ("plugin.kappa1", {"plugin": {"kappa1": "1e-3"}}),
        ("level", {"level": "0.9"}),
        ("w entry", {"w": [True, 0.0]}),
        ("directions.p entry", {"directions": {"kind": "nonuniform", "p": ["0.5", 0.5]}}),
    ],
)
def test_parse_config_rejects_non_numeric_reals(key, overrides):
    cfg, diags = sh.parse_config(small_raw(**overrides))
    assert cfg is None
    assert any(f"{key} must be a" in d and "number" in d for d in diags), diags


@pytest.mark.parametrize(
    "section, value",
    [("model", "x"), ("directions", [1]), ("schedules", None), ("plugin", 5)],
)
def test_parse_config_rejects_a_section_that_is_not_an_object(section, value):
    cfg, diags = sh.parse_config(small_raw(**{section: value}))
    assert cfg is None
    assert f"{section}: must be a JSON object, got {value!r}" in diags, diags


def test_parse_config_reals_accept_ints_with_unchanged_hash():
    floats = sh.config_from_dict(
        small_raw(
            model={"family": "quantile", "theta": [1.0, 0.0], "sigma2": 1.0},
            schedules={"eta0": 1.0},
            plugin={"p": 1.0},
            w=[0.0, 1.0],
            directions={"kind": "nonuniform", "p": [0.5, 0.5]},
        )
    )
    ints = sh.config_from_dict(
        small_raw(
            model={"family": "quantile", "theta": [1, 0], "sigma2": 1},
            schedules={"eta0": 1},
            plugin={"p": 1},
            w=[0, 1],
            directions={"kind": "nonuniform", "p": [np.float64(0.5), 0.5]},
        )
    )
    assert type(ints.model.sigma2) is float and ints.sched.eta0 == 1.0
    assert ints.config_hash == floats.config_hash


def test_config_validation_rules():
    with pytest.raises(ValueError):
        sh.config_from_dict(small_raw(level=0.93))  # untabled scaling level
    cfg, _ = sh.parse_config(small_raw(level=0.93, inference=["plugin", "oracle"]))
    assert cfg is not None  # fine without random scaling
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(checkpoints=[0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(checkpoints=[1000]))
    with pytest.raises(sh.ConfigError, match="checkpoints must be a list"):
        sh.config_from_dict(small_raw(checkpoints=5))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(w=[0.0, 0.0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(w=[1.0, 0.0, 0.0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(inference=["bootstrap"]))
    cfg = sh.config_from_dict(small_raw(checkpoints=[200, 100, 200]))
    assert cfg.checkpoints == (100, 200)


# Literal resolved() dicts and hashes, so that a change to a key, a default or
# the canonical form shows up as a changed run id.
PINNED_CONFIGS = [
    (
        {"model": {"theta": [0.6, -0.8]}},
        {
            "name": "run",
            "model": {"family": "linear", "theta": [0.6, -0.8], "sigma2": 0.2,
                      "tau": 0.5, "design": "identity", "rho": 0.2},
            "directions": {"kind": "spherical", "m": 1, "replacement": "with",
                           "basis": None, "p": None},
            "schedules": {"eta0": 0.1, "alpha": 0.501, "h0": 0.1, "gamma": 0.7},
            "n": 100000,
            "replications": 100,
            "seed": 0,
            "level": 0.95,
            "w": [0.7071067811865475, 0.7071067811865475],
            "inference": ["plugin", "random_scaling", "oracle"],
            "plugin": {"p": 1.0, "kappa1": 0.001},
            "checkpoints": [],
        },
        "f36ee09be923246050763101b77de80f3f532d223689f961a47567469d130225",
    ),
    (
        {
            "name": "pinned",
            "model": {"family": "quantile", "theta": [0.6, -0.8], "dim": 2, "sigma2": 0.5,
                      "tau": 0.25, "design": "equicorr", "rho": -0.3},
            "directions": {"kind": "orthonormal", "m": 2, "replacement": "without",
                           "basis_seed": 3},
            "schedules": {"eta0": 0.05, "alpha": 0.6, "h0": 0.2, "gamma": 0.8},
            "plugin": {"p": 0.5, "kappa1": 0.01},
            "n": 500,
            "replications": 7,
            "seed": 9,
            "level": 0.9,
            "w": [1.0, 2.0],
            "checkpoints": [400, 100],
            "inference": ["oracle", "random_scaling"],
        },
        {
            "name": "pinned",
            "model": {"family": "quantile", "theta": [0.6, -0.8], "sigma2": 0.5,
                      "tau": 0.25, "design": "equicorr", "rho": -0.3},
            "directions": {
                "kind": "orthonormal",
                "m": 2,
                "replacement": "without",
                "basis": [[0.9796547518153702, 0.2006902270803572],
                          [0.2006902270803572, -0.9796547518153702]],
                "p": None,
            },
            "schedules": {"eta0": 0.05, "alpha": 0.6, "h0": 0.2, "gamma": 0.8},
            "n": 500,
            "replications": 7,
            "seed": 9,
            "level": 0.9,
            "w": [1.0, 2.0],
            "inference": ["random_scaling", "oracle"],
            "plugin": {"p": 0.5, "kappa1": 0.01},
            "checkpoints": [100, 400],
        },
        "787000b5a47494102bd349fce83eba157c05c3c5af1668da213b0b518726ae00",
    ),
]


@pytest.mark.parametrize("raw, resolved, config_hash", PINNED_CONFIGS,
                         ids=["defaults", "every-key-set"])
def test_config_schema_is_pinned(raw, resolved, config_hash):
    cfg = sh.config_from_dict(raw)
    assert cfg.resolved() == resolved
    assert cfg.config_hash == config_hash


# One sha256 over every frozen recipe's config hash, in recipe_names() order
# with list recipes expanded, so that a change to any recipe shows up here.
# A deliberate recipe change updates the literal and logs it in CHANGES.md.
def test_recipes_are_frozen():
    pairs = []
    for name in recipes.recipe_names():
        raw = recipes.get_recipe(name)
        for r in raw if isinstance(raw, list) else [raw]:
            pairs.append((name, sh.config_from_dict(r).config_hash))
    assert len(pairs) == 27
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == "597c8a1e78bde6f9ae742cf694a81e8d075d18fdc867326c2f7f3b4718f551bf"


def test_config_hash_ignores_dict_order_but_not_values():
    a = sh.config_from_dict(small_raw())
    b = sh.config_from_dict(dict(reversed(list(small_raw().items()))))
    assert a.config_hash == b.config_hash
    c = sh.config_from_dict(small_raw(seed=12))
    assert a.config_hash != c.config_hash


def test_zero_iterations_yields_unit_error_and_no_intervals():
    cfg = sh.config_from_dict(small_raw(n=0, replications=3))
    report = sh.run_experiment(cfg)
    assert len(report.records) == 3 * len(sh.METHODS)
    for r in report.records:
        assert r.est_error == pytest.approx(1.0)
        assert r.ci_center is None and r.covered is None
        assert not r.aborted


def _tape(cfg, rep, mask_p=None):
    """Replication ``rep``'s oracle, generator and tape x, y, v, mask as the
    engine draws them (y from the engine's row sum for x·θ*, v expanded to
    dense directions for the scalar reference's ``dir_batch``)."""
    oracle = models.LossOracle(cfg.model)
    rng = np.random.default_rng(cfg.seed + rep)
    x, z, v, mask = sh.draw_block(rng, oracle, cfg.dist, cfg.mode, cfg.n, mask_p)
    y = oracle.response_from_noise((x * cfg.model.theta_star).sum(axis=-1), z)
    return oracle, rng, x, y, kw.dense_directions(cfg.dist, v), mask


def _replay(cfg, rep):
    """Replay one replication's tape through the scalar ``kw.step``,
    yielding the run state after each step."""
    oracle, rng, x, y, v, _ = _tape(cfg, rep)
    state = kw.KwRunState.initial(cfg.model.dim)
    for i in range(cfg.n):
        kw.step(
            state, oracle, cfg.dist, cfg.mode, cfg.sched, rng,
            zeta=(x[i], y[i]), dir_batch=v[i],
        )
        yield state


def _assert_sums_match(got, want, terms):
    """``got`` and ``want`` add the same ``terms`` (steps on axis 0) in
    different groupings. Each is within (n - 1)·eps/2·Σ|t| of the exact sum,
    so they differ by less than n·eps·Σ|t|."""
    terms = np.asarray(terms, dtype=float)
    tol = len(terms) * np.finfo(float).eps * np.abs(terms).sum(axis=0)
    assert (np.abs(np.asarray(got) - want) <= tol).all(), (got, want, tol)


REPLAY_DIRECTIONS = {
    "spherical-m2": {"kind": "spherical", "m": 2},
    "canonical": {"kind": "canonical"},
    "orthonormal": {"kind": "orthonormal", "basis_seed": 5},
    "nonuniform": {"kind": "nonuniform", "p": [0.3, 0.7]},
    "canonical-m2-wor": {"kind": "canonical", "m": 2, "replacement": "without"},
}


# The reference evaluates every loss and gradient through the engine's
# expressions, so the iterates agree to the bit. The case ids end in "-akw",
# the step they replay.
@pytest.mark.parametrize("family", models.FAMILIES, ids=lambda f: f"{f}-akw")
@pytest.mark.parametrize(
    "directions", list(REPLAY_DIRECTIONS.values()), ids=list(REPLAY_DIRECTIONS)
)
def test_vectorized_engine_matches_scalar_replay(family, directions):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": family, "theta": [0.6, -0.8]},
            n=200,
            replications=3,
            inference=["oracle"],
            directions=directions,
        )
    )
    st = sh.replication_states(cfg)
    for rep in range(cfg.replications):
        *_, state = _replay(cfg, rep)
        assert np.array_equal(state.theta, st.theta[rep])
        assert np.array_equal(state.theta_bar, st.theta_bar[rep])
        assert state.query_count == st.queries[rep]


@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize(
    "directions",
    [{"kind": "spherical", "m": 2}, {"kind": "canonical"}],
    ids=["spherical-m2", "canonical"],
)
def test_vectorized_gram_and_scaling_match_scalar_replay(monkeypatch, family, directions):
    monkeypatch.setattr(sh, "FOLD_BUDGET", 16)  # 3-step groups: many folds
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": family, "theta": [0.6, -0.8]},
            n=200,
            replications=3,
            inference=["plugin", "random_scaling"],
            directions=directions,
        )
    )
    st = sh.replication_states(cfg)
    for rep in range(cfg.replications):
        grams, a_terms, b_terms = [], [], []
        acc = ScalingAccumulator(dim=1)
        for i, state in enumerate(_replay(cfg, rep), start=1):
            grams.append(np.outer(state.last_gradient, state.last_gradient))
            p = (state.theta_bar * cfg.w).sum()  # the engine's w·θ̄
            scaling_update(acc, np.array([p]), i)
            a_terms.append(float(i) * float(i) * (p * p))
            b_terms.append(float(i) * float(i) * p)
        _assert_sums_match(np.sum(grams, axis=0), st.gram[rep], grams)
        _assert_sums_match(acc.a[0, 0], st.sc[rep, 0], a_terms)
        _assert_sums_match(acc.b[0], st.sc[rep, 1], b_terms)
        _assert_sums_match(acc.s, st.sc[rep, 2], np.arange(1.0, cfg.n + 1) ** 2)


@pytest.mark.parametrize(
    "inference", [["random_scaling"], ["oracle"], ["random_scaling", "oracle"]]
)
def test_gram_is_accumulated_only_for_plugin(inference):
    cfg = sh.config_from_dict(small_raw(n=50, replications=2, inference=inference))
    st = sh.replication_states(cfg)
    assert not st.gram.any()


# w = e_2 and a random vector: the engine's sums of w·θ̄_i must give the
# interval that the full (d, d) sums of θ̄_i give for the same w.
@pytest.mark.parametrize("w", [[0.0, 1.0], [0.3, -1.7]], ids=["e2", "random"])
def test_projected_scaling_interval_matches_full_matrix(w):
    cfg = sh.config_from_dict(
        small_raw(
            n=200,
            replications=3,
            w=w,
            inference=["random_scaling"],
            directions={"kind": "spherical", "m": 2},
        )
    )
    report = sh.run_experiment(cfg)
    for rep, record in enumerate(report.records):
        acc = ScalingAccumulator(dim=cfg.model.dim)
        for i, state in enumerate(_replay(cfg, rep), start=1):
            scaling_update(acc, state.theta_bar, i)
        v = assemble_v(acc.a, acc.b, acc.s, acc.n, state.theta_bar)
        ci = scaling_ci(state.theta_bar, v, cfg.w, cfg.n, cfg.level)
        assert record.ci_center == pytest.approx(ci.center, rel=1e-9, abs=1e-12)
        assert record.ci_length == pytest.approx(ci.length, rel=1e-9, abs=1e-12)


# Every per-step curvature entry is the engine's to the bit, quantile's kink
# included; only the order of the sum over steps differs.
@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize(
    "plugin",
    [
        pytest.param({"p": 1.0}, id="1.0"),
        pytest.param({"p": 0.5}, id="0.5"),
    ],
)
def test_vectorized_curvature_matches_scalar_replay(monkeypatch, family, plugin):
    monkeypatch.setattr(sh, "FOLD_BUDGET", 16)  # 3-step groups: many folds
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": family, "theta": [0.6, -0.8]},
            n=200,
            replications=3,
            inference=["plugin"],
            plugin=plugin,
        )
    )
    st = sh.replication_states(cfg)
    d, p = cfg.model.dim, cfg.plugin.p
    for rep in range(cfg.replications):
        oracle, rng, x, y, v, mask = _tape(cfg, rep, p)
        if mask is None:
            mask = np.ones((cfg.n, d, d), dtype=bool)
        state = kw.KwRunState.initial(d)
        acc = HessianAccumulator(dim=d, p=p)
        terms, probe_queries = [], 0
        for i in range(cfg.n):
            zeta = (x[i], y[i])
            g, _, _ = hessian_entry_block(oracle, state.theta, zeta, cfg.sched.h(i + 1))
            acc.accumulate_block(np.where(mask[i], g, 0.0), mask[i])
            terms.append(0.5 * (acc.block + acc.block.T))
            probe_queries += 1 + 2 * d + int(mask[i].sum())
            kw.step(
                state, oracle, cfg.dist, cfg.mode, cfg.sched, rng,
                zeta=zeta, dir_batch=v[i],
            )
        assert acc.count == st.n_done[rep]
        assert np.array_equal(state.theta_bar, st.theta_bar[rep])
        assert state.query_count + probe_queries == st.queries[rep]
        _assert_sums_match(acc.running_sum, st.hess[rep], terms)


def _index_cases():
    for kind, replacement, d, m in itertools.product(
        dirs.INDEXED_KINDS, ("with", "without"), (2, 5, 100), (1, 2, 5, 20)
    ):
        if replacement == "with" or (kind in dirs.BASIS_KINDS and m <= d):
            yield pytest.param(kind, replacement, d, m, id=f"{kind}-{replacement}-d{d}-m{m}")


# The engine's x·v and gradient from an index tape must be the dense
# contraction's bit for bit, repeated indices (m = 5 or 20 at d = 2) included.
@pytest.mark.parametrize("kind, replacement, d, m", list(_index_cases()))
def test_index_tape_matches_dense_directions(kind, replacement, d, m):
    rng = np.random.default_rng(100 * d + m)
    dist = dirs.DirectionDistribution(
        kind,
        d,
        u=dirs.random_orthonormal(d, 3) if kind == "orthonormal" else None,
        p=rng.dirichlet(np.ones(d)) if kind == "nonuniform" else None,
    )
    mode = dirs.QueryMode(m, replacement)
    c, b = 7, 40

    idx = np.stack([
        dirs.draw_directions(np.random.default_rng(r), dist, mode, b) for r in range(c)
    ])
    dense = kw.dense_directions(dist, idx)
    assert idx.shape == (c, b, m)
    xs = rng.standard_normal((c, b, d))
    coeff = rng.standard_normal((b, c, m)) * 10.0 ** rng.uniform(-3, 3, (b, c, m))
    directions = sh._step_directions(dist, c)
    assert np.array_equal(directions.block(xs, idx), np.einsum("cbd,cbmd->bcm", xs, dense))
    for t in range(b):
        want = np.einsum("cm,cmd->cd", coeff[t], dense[:, t])
        assert np.array_equal(directions.grad(t, coeff[t]), want)


def _block_free_tape(draw, n):
    """A ``draw_block`` that serves each replication's tape from one
    full-length ``draw``, so the tape does not depend on the block size."""
    tapes = {}

    def served(rng, oracle, dist, mode, size, mask_p=None):
        if id(rng) not in tapes:
            tapes[id(rng)] = [draw(rng, oracle, dist, mode, n, mask_p), 0]
        tape, lo = tapes[id(rng)]
        tapes[id(rng)][1] = lo + size
        return tuple(None if a is None else a[lo:lo + size] for a in tape)

    return served


# On one tape, the engine's sums and records must not depend on how many
# steps it takes from the tape at a time.
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_records_do_not_depend_on_block(monkeypatch, p):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": "logistic", "theta": [0.6, -0.8]},
            directions={"kind": "spherical", "m": 2},
            replications=3,
            checkpoints=[130],
            plugin={"p": p},
        )
    )
    draw, run_chunk = sh.draw_block, sh._run_chunk
    runs = []
    for block in (1, 100, 1024):
        monkeypatch.setattr(sh, "draw_block", _block_free_tape(draw, cfg.n))
        st = sh.replication_states(cfg, block=block)
        monkeypatch.setattr(sh, "draw_block", _block_free_tape(draw, cfg.n))
        monkeypatch.setattr(sh, "_run_chunk", functools.partial(run_chunk, block=block))
        runs.append((st, sh.run_experiment(cfg)))
        monkeypatch.setattr(sh, "_run_chunk", run_chunk)
    (st0, report0), *others = runs
    assert report0.checkpoint_records
    for st, report in others:
        for name in ("theta_bar", "gram", "hess", "sc", "queries", "n_done"):
            assert np.array_equal(getattr(st, name), getattr(st0, name)), name
        assert report.records == report0.records
        assert report.checkpoint_records == report0.checkpoint_records


@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_pair_losses_match_dense_probe(family, d):
    spec = models.ModelSpec(family=family, theta_star=models.theta_on_unit_sphere(d, 5))
    oracle = models.LossOracle(spec)
    rng = np.random.default_rng(d)
    c, h = 50, 0.1 * 7.0**-0.7
    x = oracle.draw_x(rng, c)
    z = oracle.draw_noise(rng, c)
    y = oracle.response_from_noise(x @ spec.theta_star, z)
    u0 = rng.standard_normal(c)
    dense = oracle.linpred_loss(
        u0[:, None, None] + h * (x[:, :, None] + x[:, None, :]), y[:, None, None]
    )
    ends, pair = sh._pair_index(d)
    lin, got = np.empty((2, ends.shape[1], c))
    sh._pair_losses(oracle, u0, y, x.T, h, ends, lin, got)  # (pairs, c)
    assert np.array_equal(got.T[:, pair], dense)


# d = 20 and 5 replications: at 3 and 5 workers some chunks hold one row,
# where numpy takes other paths for gemv and for sums over steps. With
# MAX_CHUNK = 2 a worker runs several chunks.
def test_chunking_and_workers_do_not_change_results(monkeypatch):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": "linear", "dim": 20},
            n=150,
            replications=5,
            checkpoints=[70],
        )
    )
    outputs = []
    for workers, max_chunk in ((1, 256), (2, 256), (3, 256), (5, 256), (1, 2), (2, 2)):
        monkeypatch.setattr(sh, "MAX_CHUNK", max_chunk)
        r = sh.run_experiment(cfg, workers=workers)
        outputs.append((
            sh._records_csv(r.records, sh.CSV_FIELDS),
            sh._records_csv(r.checkpoint_records, sh.CHECKPOINT_FIELDS),
            json.dumps(r.summary, sort_keys=True),
        ))
    assert all(out == outputs[0] for out in outputs[1:])


SPLIT_DIRECTIONS = {
    "canonical": {"kind": "canonical"},
    "spherical-m2": {"kind": "spherical", "m": 2},
    "gaussian": {"kind": "gaussian"},
    "canonical-m3-wor": {"kind": "canonical", "m": 3, "replacement": "without"},
}
SPLIT_PLUGINS = {
    "1.0": {"p": 1.0},
    "0.5-ipw": {"p": 0.5},
}
SPLITS = ([6], [3, 3], [2, 1, 3], [1] * 6)


# Every split of the replications into chunks, one-row chunks included,
# gives each replication the same records, checkpoints and state bits.
# n = 40 makes step groups of 40 (d = 1) and 29 (d = 7) steps, long enough
# for numpy's pairwise summation; at d = 20 a gemv across the chunk's rows
# rounds a row by its position.
@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize("d", [1, 7, 20])
def test_records_do_not_depend_on_chunk_split(family, d):
    for (dname, directions), (pname, plugin) in itertools.product(
        SPLIT_DIRECTIONS.items(), SPLIT_PLUGINS.items()
    ):
        directions = dict(directions, m=min(directions.get("m", 1), d))
        cfg = sh.config_from_dict(
            small_raw(
                model={"family": family, "dim": d},
                directions=directions,
                n=40,
                checkpoints=[17],
                plugin=plugin,
            )
        )
        c_true = models.oracle_covariance(cfg.model, cfg.dist, cfg.mode)
        c_norm = sh.spectral_norm(c_true)
        runs = []
        for sizes in SPLITS:
            bounds = np.cumsum([0] + sizes)
            parts = [
                sh._run_chunk(cfg, np.arange(lo, hi), c_true, c_norm)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            records = [r for recs, _, _ in parts for r in recs]
            cps = sorted(
                (r for _, cps, _ in parts for r in cps),
                key=lambda r: (r.n, r.replication, sh.METHODS.index(r.method)),
            )
            states = {
                name: np.concatenate([getattr(st, name) for _, _, st in parts])
                for name in vars(parts[0][2])
            }
            runs.append((sizes, records, cps, states))
        _, records0, cps0, states0 = runs[0]
        case = f"{dname} {pname}"
        assert cps0, case
        for sizes, records, cps, states in runs[1:]:
            assert records == records0, (case, sizes)
            assert cps == cps0, (case, sizes)
            for name, value in states.items():
                assert np.array_equal(value, states0[name]), (case, sizes, name)


# A chunk stops once all its replications have left the guard. Every
# replication of this linear d = 100 run aborts within a few dozen steps, so
# the chunk draws one tape block per replication, not 98, and finishes in
# about a second; each later checkpoint reads the frozen state.
def test_chunk_stops_once_every_replication_aborts(monkeypatch):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": "linear", "dim": 100},
            n=100_000,
            replications=4,
            checkpoints=[1_000, 50_000, 100_000],
        )
    )
    draw, sizes = sh.draw_block, []

    def counted_draw(*args):
        sizes.append(args[4])
        return draw(*args)

    monkeypatch.setattr(sh, "draw_block", counted_draw)
    started = time.perf_counter()
    report = sh.run_experiment(cfg, workers=1)
    assert time.perf_counter() - started < 10
    assert report.summary["aborted"] == 4 and report.summary["methods"] == {}
    assert sizes == [1024] * 4
    final = [dataclasses.replace(r, n=0) for r in report.records]
    assert len(final) == 4 * len(sh.METHODS)
    assert all(r.aborted and r.ci_length is None for r in final)
    for mark in cfg.checkpoints:
        rows = [r for r in report.checkpoint_records if r.n == mark]
        assert [dataclasses.replace(r, n=0) for r in rows] == final, mark
    assert len(report.checkpoint_records) == len(cfg.checkpoints) * len(final)


def test_worker_processes_end_with_the_run():
    cfg = sh.config_from_dict(small_raw(n=50, replications=4))
    sh.run_experiment(cfg, workers=2)
    assert multiprocessing.active_children() == []


# With a cold cache the logistic truth starts and joins its helper thread
# before the pool forks; the files match those of an inline run.
def test_cold_logistic_truth_then_workers_write_identical_files(monkeypatch, tmp_path):
    cfg = sh.config_from_dict(
        small_raw(model={"family": "logistic", "dim": 3}, n=80, replications=4)
    )
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(models, "_LOGISTIC_HESSIAN_CACHE", {})
        run_dir = sh.write_report(sh.run_experiment(cfg, workers=workers),
                                  str(tmp_path / str(workers)))
        files = {}
        for name in sorted(os.listdir(run_dir)):
            with open(os.path.join(run_dir, name), "rb") as fh:
                files[name] = fh.read()
        outputs.append(files)
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1]


_COLD_CHUNK_FAULTS = """
import resource
import numpy as np
from akwinfer import models
from akwinfer import simharness as sh
cfg = sh.config_from_dict({
    "model": {"family": "linear", "dim": 20}, "directions": {"kind": "canonical"},
    "n": 200, "replications": 50, "seed": 1,
})
c_true = models.oracle_covariance(cfg.model, cfg.dist, cfg.mode)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sh._run_chunk(cfg, np.arange(50), c_true, sh.spectral_norm(c_true))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# The fold computes into work arrays the step group allocates once per
# chunk, so a fresh process does not map and fault in a few hundred KB of
# temporaries per fold: with per-fold temporaries and glibc's default malloc
# thresholds this chunk took about 29 000 minor faults.
def test_cold_chunk_does_not_fault_in_its_temporaries():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _COLD_CHUNK_FAULTS], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert int(out.stdout) < 10_000


# The same work arrays bound what a fold allocates, on any C library: after
# the first fold of a C = 50 chunk, no fold's traced peak reaches 0.5 MB,
# with entry subsampling too. With a fresh array per temporary the folds
# peaked at 2.3-3.1 MB.
@pytest.mark.parametrize(
    "family, d, n, plugin",
    [("linear", 20, 200, {}), ("linear", 20, 200, {"p": 0.5}), ("logistic", 5, 400, {})],
)
def test_fold_computes_into_its_work_arrays(monkeypatch, family, d, n, plugin):
    cfg = sh.config_from_dict(
        small_raw(model={"family": family, "dim": d}, n=n, replications=50, plugin=plugin)
    )
    assert cfg.inference == sh.METHODS
    fold, peaks = sh._StepGroup.fold, []

    def traced_fold(group, st):
        if not tracemalloc.is_tracing():  # the first fold, then trace the rest
            fold(group, st)
            tracemalloc.start()
            return
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fold(group, st)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(sh._StepGroup, "fold", traced_fold)
    c_true = models.oracle_covariance(cfg.model, cfg.dist, cfg.mode)
    try:
        sh._run_chunk(cfg, np.arange(50), c_true, sh.spectral_norm(c_true))
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 6
    assert max(peaks) < 500_000, max(peaks)


_run_chunk_unpatched = sh._run_chunk


def _failing_chunk(cfg, reps, *args):
    if 0 not in reps:
        raise FloatingPointError(f"chunk {reps.tolist()} failed")
    return _run_chunk_unpatched(cfg, reps, *args)


# A chunk that raises in its worker must fail the run, not drop its
# replications from the averages, and must leave no process behind.
def test_worker_exception_reaches_caller(monkeypatch):
    monkeypatch.setattr(sh, "_run_chunk", _failing_chunk)
    monkeypatch.setattr(sh, "_usable_cpus", lambda: 2)
    cfg = sh.config_from_dict(small_raw(n=50, replications=4))
    with pytest.raises(FloatingPointError, match=r"chunk \[2, 3\] failed"):
        sh.run_experiment(cfg, workers=2)
    assert multiprocessing.active_children() == []
    monkeypatch.setenv("ZOKW_WORKERS", "4")
    with pytest.raises(FloatingPointError, match=r"chunk \[1\] failed"):
        sh.replication_states(cfg)
    assert multiprocessing.active_children() == []


def _first_chunk_fails(cfg, reps, marks):
    if reps[0] == 0:
        raise FloatingPointError("first chunk failed")
    time.sleep(0.2)
    open(os.path.join(marks, str(reps[0])), "w").close()


# A failed chunk cancels the chunks still queued instead of waiting for
# them: of 19 slow chunks on 2 processes, only those already handed to
# the pool run.
def test_worker_exception_cancels_queued_chunks(monkeypatch, tmp_path):
    monkeypatch.setattr(sh, "_usable_cpus", lambda: 2)
    cfg = sh.config_from_dict(small_raw(n=50, replications=20))
    with pytest.raises(FloatingPointError, match="first chunk failed"):
        sh._map_chunks(_first_chunk_fails, cfg, 20, str(tmp_path))
    assert multiprocessing.active_children() == []
    assert len(os.listdir(tmp_path)) < 10


class _RecordingPool:
    """Runs submitted calls inline and records the pool size asked for."""

    sizes: list = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


# The worker count sets the chunks; the pool never has more processes
# than usable CPUs, however many workers are asked for.
def test_pool_size_is_capped_by_usable_cpus(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(sh, "_usable_cpus", lambda: 3)
    _RecordingPool.sizes = []
    cfg = sh.config_from_dict(small_raw(n=10, replications=8))
    chunks = sh._map_chunks(lambda cfg, reps: reps.tolist(), cfg, 5000)
    assert chunks == [[r] for r in range(8)]
    assert _RecordingPool.sizes == [3]
    monkeypatch.setenv("ZOKW_WORKERS", "5000")
    sh.run_experiment(cfg)
    assert _RecordingPool.sizes == [3, 3]


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("ZOKW_WORKERS", raising=False)
    assert sh.resolve_workers() == sh._usable_cpus()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sh.resolve_workers() == (os.cpu_count() or 1)
    assert sh.resolve_workers(3) == 3
    assert sh.resolve_workers("2") == 2
    monkeypatch.setenv("ZOKW_WORKERS", "5")
    assert sh.resolve_workers() == 5
    assert sh.resolve_workers(1) == 1  # an explicit count wins
    for bad in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("ZOKW_WORKERS", bad)
        with pytest.raises(sh.ConfigError, match="ZOKW_WORKERS"):
            sh.resolve_workers()
    for bad in (0, -3, "abc", 2.5):
        with pytest.raises(sh.ConfigError, match="workers"):
            sh.resolve_workers(bad)


# A column that is the same in every replication has that value as its mean
# and a standard error of exactly 0. A float sum reads 0.1 over ten rows as
# 0.09999999999999999, with an SE of 4.6e-18.
def test_summary_of_a_constant_column_is_exact():
    records = [
        sh.ReplicationRecord(
            run_id="t", replication=j, method="oracle", est_error=0.01 * (j + 1),
            cov_error=0.0, ci_center=0.5, ci_length=0.1, covered=1, queries=20,
            aborted=0,
        )
        for j in range(10)
    ]
    oracle = sh.summarize_records(records)["methods"]["oracle"]
    assert oracle["ci_length_mean"] == 0.1 and oracle["ci_length_se"] == 0.0
    assert oracle["cov_error_mean"] == 0.0 and oracle["cov_error_se"] == 0.0
    assert oracle["est_error_se"] > 0.0


# The second config trips the divergence guard, so its files hold empty
# cells for the None columns of the aborted rows.
def test_write_and_read_report_round_trip(tmp_path):
    for schedules in ({}, {"eta0": 1e7}):
        cfg = sh.config_from_dict(
            small_raw(n=120, replications=4, checkpoints=[60], schedules=schedules)
        )
        report = sh.run_experiment(cfg)
        assert any(r.aborted for r in report.records) == bool(schedules)
        run_dir = sh.write_report(report, str(tmp_path))
        assert os.path.basename(run_dir) == cfg.run_id
        back = sh.read_replications(os.path.join(run_dir, "replications.csv"))
        assert back == [dataclasses.replace(r, n=0) for r in report.records]
        assert sh.summarize_records(back) == sh.summarize_records(report.records)
        with open(os.path.join(run_dir, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["run_id"] == cfg.run_id
        assert "wall_time" not in summary
        with open(os.path.join(run_dir, "config.resolved.json")) as fh:
            assert json.load(fh) == cfg.resolved()
        cps = sh.read_replications(os.path.join(run_dir, "checkpoints.csv"))
        assert cps == report.checkpoint_records
        assert {r.n for r in cps} == {60}
        assert len(cps) == 4 * len(sh.METHODS)


def test_rerun_writes_identical_bytes(tmp_path):
    cfg = sh.config_from_dict(small_raw(n=100, replications=3))
    d1 = sh.write_report(sh.run_experiment(cfg), str(tmp_path / "a"))
    d2 = sh.write_report(sh.run_experiment(cfg), str(tmp_path / "b"))
    for fname in ("replications.csv", "summary.json", "config.resolved.json"):
        with open(os.path.join(d1, fname), "rb") as f1, open(
            os.path.join(d2, fname), "rb"
        ) as f2:
            assert f1.read() == f2.read(), fname


def test_divergent_replications_marked_aborted():
    cfg = sh.config_from_dict(
        small_raw(
            n=200,
            replications=4,
            schedules={"eta0": 1e7, "alpha": 0.501, "h0": 1.0, "gamma": 0.7},
        )
    )
    report = sh.run_experiment(cfg)
    aborted = [r for r in report.records if r.aborted]
    assert aborted, "expected the huge step size to trip the divergence guard"
    for r in aborted:
        assert r.ci_center is None and r.covered is None
    assert report.summary["aborted"] == len(aborted) // len(sh.METHODS)


def test_aborts_are_counted_without_inference_records():
    cfg = sh.config_from_dict(
        {
            "name": "t",
            "model": {"family": "linear", "theta": [0.6, -0.8]},
            "directions": {"kind": "canonical"},
            "schedules": {"eta0": 1e4},
            "n": 200,
            "replications": 4,
            "seed": 5,
            "inference": [],
        }
    )
    report = sh.run_experiment(cfg)
    assert report.records == []
    assert report.summary["aborted"] == 4
    assert report.summary["replications"] == 4


def test_sweep_rejects_duplicates_and_handles_empty():
    cfg = sh.config_from_dict(small_raw(n=50, replications=2))
    with pytest.raises(sh.ConfigError):
        sh.sweep([cfg, cfg])
    assert list(sh.sweep([])) == []


def test_oracle_coverage_near_nominal():
    cfg = sh.config_from_dict(
        small_raw(n=8000, replications=60, seed=3, inference=["oracle"])
    )
    report = sh.run_experiment(cfg)
    cov = report.summary["methods"]["oracle"]["coverage"]
    assert 0.85 <= cov <= 1.0

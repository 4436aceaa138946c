import json
import os

import numpy as np
import pytest

from akwinfer import directions as dirs
from akwinfer import kwengine as kw
from akwinfer import models
from akwinfer import simharness as sh
from akwinfer.plugin_inference import HessianAccumulator, hessian_entry_block
from akwinfer.random_scaling import (
    ScalingAccumulator,
    assemble_v,
    scaling_ci,
    scaling_update,
)


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


def test_parse_config_unknown_top_level_key():
    cfg, diags = sh.parse_config(small_raw(extra=1))
    assert cfg is None and any("unknown key 'extra'" in d for d in diags)


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


def test_config_validation_rules():
    with pytest.raises(ValueError):
        sh.config_from_dict(small_raw(level=0.93))  # untabled scaling level
    cfg, _ = sh.parse_config(small_raw(level=0.93, inference=["plugin", "oracle"]))
    assert cfg is not None  # fine without random scaling
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(checkpoints=[0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(checkpoints=[1000]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(w=[0.0, 0.0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(w=[1.0, 0.0, 0.0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(inference=["bootstrap"]))
    cfg = sh.config_from_dict(small_raw(checkpoints=[200, 100, 200]))
    assert cfg.checkpoints == (100, 200)


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


def _replay(cfg, rep):
    """Replay one replication's tape through the scalar ``kw.step``,
    yielding the run state after each step."""
    oracle = models.make_oracle(cfg.model)
    rng = np.random.default_rng(cfg.seed + rep)
    x, z, v, _ = sh.draw_block(rng, oracle, cfg.dist, cfg.mode, cfg.n)
    y = oracle.response_from_noise(x @ cfg.model.theta_star, z)
    state = kw.KwRunState.initial(cfg.model.dim)
    for i in range(cfg.n):
        kw.step(
            state, oracle, cfg.dist, cfg.mode, cfg.sched, rng,
            zeta=(x[i], y[i]), dir_batch=v[i],
        )
        yield state


def test_vectorized_engine_matches_scalar_replay():
    cfg = sh.config_from_dict(
        small_raw(
            n=200,
            replications=3,
            inference=["oracle"],
            directions={"kind": "spherical", "m": 2},
        )
    )
    st = sh.replication_states(cfg)
    for rep in range(cfg.replications):
        *_, state = _replay(cfg, rep)
        assert np.allclose(state.theta, st.theta[rep], rtol=1e-9, atol=1e-12)
        assert np.allclose(state.theta_bar, st.theta_bar[rep], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize(
    "directions",
    [{"kind": "spherical", "m": 2}, {"kind": "canonical"}],
    ids=["spherical-m2", "canonical"],
)
def test_vectorized_gram_and_scaling_match_scalar_replay(family, directions):
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
    d = cfg.model.dim
    for rep in range(cfg.replications):
        gram = np.zeros((d, d))
        acc = ScalingAccumulator(dim=1)
        for i, state in enumerate(_replay(cfg, rep), start=1):
            gram += np.outer(state.last_gradient, state.last_gradient)
            scaling_update(acc, np.array([cfg.w @ state.theta_bar]), i)
        for got, want in (
            (gram, st.gram[rep]),
            (acc.a[0, 0], st.sc_a[rep]),
            (acc.b[0], st.sc_b[rep]),
            (acc.s, st.sc_s[rep]),
        ):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


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


# Quantile is left out: at the kink of the check loss, the engine's x·θ + h·x_k
# and the scalar probe's x·(θ + h·e_k) can land on opposite sides of zero,
# and the curvature entry then differs by O(1). For the smooth losses the two
# orders differ by round-off amplified by 1/h², which is absolute, so entries
# near zero leave little room under the relative tolerance.
@pytest.mark.parametrize("family", ["linear", "logistic"])
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_vectorized_curvature_matches_scalar_replay(family, p):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": family, "theta": [0.6, -0.8]},
            n=200,
            replications=3,
            inference=["plugin"],
            plugin={"p": p},
        )
    )
    st = sh.replication_states(cfg)
    oracle = models.make_oracle(cfg.model)
    d = cfg.model.dim
    for rep in range(cfg.replications):
        rng = np.random.default_rng(cfg.seed + rep)
        x, z, v, mask = sh.draw_block(rng, oracle, cfg.dist, cfg.mode, cfg.n, p)
        if mask is None:
            mask = np.ones((cfg.n, d, d), dtype=bool)
        y = oracle.response_from_noise(x @ cfg.model.theta_star, z)
        state = kw.KwRunState.initial(d)
        acc = HessianAccumulator(dim=d, p=p)
        for i in range(cfg.n):
            zeta = (x[i], y[i])
            g, _, _ = hessian_entry_block(oracle, state.theta, zeta, cfg.sched.h(i + 1))
            acc.accumulate_block(np.where(mask[i], g, 0.0), mask[i])
            kw.step(
                state, oracle, cfg.dist, cfg.mode, cfg.sched, rng,
                zeta=zeta, dir_batch=v[i],
            )
        assert acc.count == st.hess_count[rep]
        assert np.allclose(acc.running_sum, st.hess[rep], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_pair_losses_match_dense_probe(family, d):
    spec = models.ModelSpec(family=family, theta_star=models.theta_on_unit_sphere(d, 5))
    oracle = models.make_oracle(spec)
    rng = np.random.default_rng(d)
    c, h = 50, 0.1 * 7.0**-0.7
    x = oracle.draw_x(rng, c)
    z = rng.random(c) if oracle.noise_kind == "uniform" else rng.standard_normal(c)
    y = oracle.response_from_noise(x @ spec.theta_star, z)
    u0 = rng.standard_normal(c)
    dense = oracle.linpred_loss(
        u0[:, None, None] + h * (x[:, :, None] + x[:, None, :]), y[:, None, None]
    )
    got = sh._pair_losses(oracle, u0, y, x, h, sh._pair_index(d))
    assert np.array_equal(got, dense)


def test_chunking_and_workers_do_not_change_results():
    cfg = sh.config_from_dict(small_raw(n=150, replications=5))
    r1 = sh.run_experiment(cfg, workers=1)
    r2 = sh.run_experiment(cfg, workers=4)
    csv1 = sh._records_csv(r1.records, sh.CSV_FIELDS)
    csv2 = sh._records_csv(r2.records, sh.CSV_FIELDS)
    assert csv1 == csv2
    assert r1.summary == r2.summary


def test_write_and_read_report_round_trip(tmp_path):
    cfg = sh.config_from_dict(small_raw(n=120, replications=4, checkpoints=[60]))
    report = sh.run_experiment(cfg)
    run_dir = sh.write_report(report, str(tmp_path))
    assert os.path.basename(run_dir) == cfg.run_id
    back = sh.read_replications(os.path.join(run_dir, "replications.csv"))
    assert sh.summarize_records(back) == sh.summarize_records(report.records)
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["run_id"] == cfg.run_id
    assert "wall_time" not in summary
    with open(os.path.join(run_dir, "config.resolved.json")) as fh:
        assert json.load(fh) == cfg.resolved()
    cps = sh.read_replications(os.path.join(run_dir, "checkpoints.csv"))
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


def test_rm_baseline_beats_kw_variance():
    cfg = sh.config_from_dict(
        small_raw(n=4000, replications=20, inference=["oracle"],
                  directions={"kind": "gaussian"})
    )
    akw = sh.run_experiment(cfg)
    rm = sh.run_rm_baseline(cfg)
    assert rm.config.algorithm == "rm"
    assert rm.run_id.startswith("t-rm-")
    assert (
        rm.summary["methods"]["oracle"]["est_error_mean"]
        < akw.summary["methods"]["oracle"]["est_error_mean"]
    )
    assert (
        rm.summary["oracle_covariance_trace"]
        < akw.summary["oracle_covariance_trace"]
    )
    # RM consumes one query per step, AKW m+1
    assert rm.records[0].queries == cfg.n
    assert akw.records[0].queries == 2 * cfg.n


def test_sweep_rejects_duplicates_and_handles_empty():
    cfg = sh.config_from_dict(small_raw(n=50, replications=2))
    with pytest.raises(sh.ConfigError):
        sh.sweep([cfg, cfg])
    assert sh.sweep([]) == []


def test_oracle_coverage_near_nominal():
    cfg = sh.config_from_dict(
        small_raw(n=8000, replications=60, seed=3, inference=["oracle"])
    )
    report = sh.run_experiment(cfg)
    cov = report.summary["methods"]["oracle"]["coverage"]
    assert 0.85 <= cov <= 1.0

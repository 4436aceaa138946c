"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured quantities (visible
with ``pytest -s`` or on failure); the assertions carry the stated
tolerances. The Monte-Carlo tests use fixed seeds, so the measured values
are reproducible.
"""

import os

import numpy as np
import pytest

from akwinfer import directions as dirs
from akwinfer import models
from akwinfer import simharness as sh
from akwinfer.cli import main
from akwinfer.directions import draw_directions
from akwinfer.numkernel import spectral_norm
from akwinfer.random_scaling import (
    ONE_SIDED_QUANTILES,
    assemble_v,
    simulate_pivot_quantiles,
)
import reference as kw
from reference import HessianAccumulator, ScalingAccumulator, scaling_update


def report(line):
    print(f"PASS {line}")


def all_distributions(d, rng):
    u = dirs.random_orthonormal(d, seed=7)
    p = np.arange(1, d + 1, dtype=float)
    p /= p.sum()
    return {
        "gaussian": dirs.DirectionDistribution("gaussian", d),
        "spherical": dirs.DirectionDistribution("spherical", d),
        "canonical": dirs.DirectionDistribution("canonical", d),
        "orthonormal": dirs.DirectionDistribution("orthonormal", d, u=u),
        "nonuniform": dirs.DirectionDistribution("nonuniform", d, p=p),
    }


def random_psd(d, rng):
    a = rng.standard_normal((d, d))
    return a @ a.T / d + 0.1 * np.eye(d)


def empirical_trace(cfg, block=1024):
    """Trace of the sample covariance of sqrt(n) (theta_bar - theta*)."""
    st = sh.replication_states(cfg, block=block)
    dev = st.theta_bar - cfg.model.theta_star
    return cfg.n * float(np.trace(np.cov(dev.T)))


def test_criterion_01_q_matrix_oracle_equivalence():
    d, draws = 5, 1_000_000
    rng = np.random.default_rng(1)
    s = random_psd(d, rng)
    worst = {}
    for kind, dist in all_distributions(d, rng).items():
        q = dirs.analytic_q(dist, s)
        drawn = draw_directions(rng, dist, dirs.QueryMode(m=1), draws)
        v = kw.dense_directions(dist, drawn)[:, 0, :]
        quad = np.einsum("nd,nd->n", v, v @ s)
        q_mc = (v.T * quad) @ v / draws
        tol = 0.02 * (1.0 + np.abs(q))
        gap = np.abs(q_mc - q)
        assert (gap <= tol).all(), (kind, float((gap / tol).max()))
        worst[kind] = float((gap / tol).max())
    report(f"criterion 1: Q-matrix MC vs analytic, worst gap/tol by kind = {worst}")


def test_criterion_02_multi_query_collapse_at_m_equals_d():
    d, batches = 5, 1_000_000
    rng = np.random.default_rng(2)
    s = random_psd(d, rng)
    dist = dirs.DirectionDistribution("canonical", d)
    mode = dirs.QueryMode(m=d, replacement="without")
    q_multi = dirs.analytic_q_multi(dist, s, mode)
    assert np.abs(q_multi - s).max() < 1e-12
    v = kw.dense_directions(dist, draw_directions(rng, dist, mode, batches))  # (batches, d, d)
    proj = np.einsum("bmd,bme->bde", v, v) / d
    q_mc = np.einsum("bde,ef,bfg->dg", proj, s, proj) / batches
    rel = np.abs(q_mc - s).max() / np.abs(s).max()
    assert rel < 0.03, rel
    report(
        "criterion 2: WOR m=d analytic gap "
        f"{np.abs(q_multi - s).max():.2e}, MC rel gap {rel:.2e}"
    )


def test_criterion_03_clt_calibration():
    cfg = sh.config_from_dict(
        {
            "name": "clt",
            "model": {"family": "linear", "theta": [0.6, -0.8]},
            "directions": {"kind": "canonical", "m": 1},
            "n": 50_000,
            "replications": 500,
            "seed": 0,
            "inference": [],
        }
    )
    st = sh.replication_states(cfg)
    dev = st.theta_bar - cfg.model.theta_star
    emp = cfg.n * np.cov(dev.T)
    truth = models.oracle_covariance(cfg.model, cfg.dist, cfg.mode)
    rel = spectral_norm(emp - truth) / spectral_norm(truth)
    assert rel < 0.15, rel
    report(f"criterion 3: CLT sample covariance rel spectral error {rel:.3f} < 0.15")


@pytest.fixture(scope="module")
def table2_report():
    cfg = sh.config_from_dict(
        {
            "name": "table2-accept",
            "model": {"family": "linear", "dim": 5, "design": "identity"},
            "directions": {"kind": "canonical", "m": 1},
            "n": 100_000,
            "replications": 100,
            "seed": 42,
        }
    )
    return sh.run_experiment(cfg)


def test_criterion_04_table2_plugin_coverage_and_length(table2_report):
    methods = table2_report.summary["methods"]
    coverage = methods["plugin"]["coverage"]
    ratio = methods["plugin"]["ci_length_mean"] / methods["oracle"]["ci_length_mean"]
    assert 0.92 <= coverage <= 0.97, coverage
    assert 0.97 <= ratio <= 1.05, ratio
    assert table2_report.summary["aborted"] == 0
    report(
        f"criterion 4: plug-in coverage {coverage:.4f} in [0.92, 0.97], "
        f"plug-in/oracle length ratio {ratio:.4f} in [0.97, 1.05] "
        f"(raw mean length {methods['plugin']['ci_length_mean']:.5f})"
    )


def test_criterion_05_random_scaling_coverage_and_length(table2_report):
    methods = table2_report.summary["methods"]
    coverage = methods["random_scaling"]["coverage"]
    ratio = (
        methods["random_scaling"]["ci_length_mean"]
        / methods["plugin"]["ci_length_mean"]
    )
    assert 0.90 <= coverage <= 0.98, coverage
    assert 1.0 <= ratio <= 1.6, ratio
    report(
        f"criterion 5: random-scaling coverage {coverage:.4f} in [0.90, 0.98], "
        f"scaling/plug-in length ratio {ratio:.4f} in [1.0, 1.6]"
    )


def test_criterion_06_pivot_quantile_table():
    rng = np.random.default_rng(6)
    got = simulate_pivot_quantiles(100_000, 1_000, rng)
    tols = {0.90: 0.2, 0.95: 0.25, 0.975: 0.3, 0.99: 0.5}
    gaps = {}
    for prob, tabled in ONE_SIDED_QUANTILES:
        gap = abs(got[prob] - tabled)
        assert gap < tols[prob], (prob, got[prob], tabled)
        gaps[prob] = round(gap, 3)
    report(f"criterion 6: pivot quantile MC gaps {gaps} within ±0.2/0.25/0.3/0.5")


def test_criterion_07_hessian_exactness_and_ipw():
    d = 3
    rng = np.random.default_rng(11)
    a = random_psd(d, rng) + np.eye(d)

    class Quad:
        def loss(self, theta, zeta):
            return float(theta @ a @ theta)

    acc = HessianAccumulator(dim=d)
    acc.update(Quad(), np.zeros(d), None, 0.1)
    exact_gap = np.abs(acc.mean() - 2 * a).max()
    assert exact_gap < 1e-8, exact_gap

    acc01 = HessianAccumulator(dim=d, p=0.1)
    for _ in range(10_000):
        acc01.update(Quad(), np.zeros(d), None, 0.1, rng)
    rel = np.abs(acc01.mean() - 2 * a) / np.abs(2 * a)
    assert rel.max() < 0.03, rel.max()
    report(
        f"criterion 7: p=1 gap {exact_gap:.2e} < 1e-8, "
        f"p=0.1 IPW worst entry rel error {rel.max():.4f} < 0.03"
    )


def test_criterion_08_convergence_rate():
    cfg = sh.config_from_dict(
        {
            "name": "rate",
            "model": {"family": "linear", "dim": 5},
            "directions": {"kind": "canonical", "m": 1},
            "n": 100_000,
            "replications": 20,
            "seed": 8,
            "inference": ["oracle"],
            "checkpoints": [1_000, 10_000, 100_000],
        }
    )
    rep = sh.run_experiment(cfg)
    ns = sorted({r.n for r in rep.checkpoint_records})
    medians = [
        float(np.median([r.est_error for r in rep.checkpoint_records if r.n == n]))
        for n in ns
    ]
    assert medians[0] > medians[1] > medians[2], medians
    slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
    assert -0.65 <= slope <= -0.35, slope
    report(
        f"criterion 8: median errors {[round(m, 4) for m in medians]} decreasing, "
        f"log-log slope {slope:.3f} in [-0.65, -0.35]"
    )


def test_criterion_09_efficiency_ordering():
    base = {
        "name": "eff",
        "model": {"family": "linear", "dim": 5},
        "n": 50_000,
        "replications": 150,
        "seed": 9,
        "inference": [],
    }
    traces = {}
    for m in (1, 5, 20):
        cfg = sh.config_from_dict(
            {**base, "name": f"eff-m{m}", "directions": {"kind": "canonical", "m": m}}
        )
        traces[m] = empirical_trace(cfg, block=256)
    assert traces[1] > traces[5] > traces[20], traces
    wor_cfg = sh.config_from_dict(
        {
            **base,
            "name": "eff-wor",
            "directions": {"kind": "canonical", "m": 5, "replacement": "without"},
        }
    )
    wor_trace = empirical_trace(wor_cfg, block=256)
    rm_trace = float(np.trace(kw.rm_oracle_covariance(wor_cfg.model)))
    rel = abs(wor_trace - rm_trace) / rm_trace
    assert rel < 0.15, (wor_trace, rm_trace)
    report(
        "criterion 9: traces m=1/5/20 = "
        f"{traces[1]:.3f}/{traces[5]:.3f}/{traces[20]:.3f} decreasing; "
        f"WOR m=d trace {wor_trace:.3f} vs RM oracle {rm_trace:.3f} "
        f"(rel gap {rel:.3f} < 0.15)"
    )


def test_criterion_10_quantile_regression_inference():
    cfg = sh.config_from_dict(
        {
            "name": "quantile-accept",
            "model": {"family": "quantile", "dim": 5, "tau": 0.5},
            "directions": {"kind": "canonical", "m": 1},
            "schedules": {"eta0": 0.1, "alpha": 0.501, "h0": 0.2, "gamma": 0.6},
            "n": 100_000,
            "replications": 100,
            "seed": 7,
            "inference": ["plugin", "oracle"],
        }
    )
    rep = sh.run_experiment(cfg)
    coverage = rep.summary["methods"]["plugin"]["coverage"]
    assert 0.91 <= coverage <= 0.98, coverage
    assert rep.summary["aborted"] == 0
    report(f"criterion 10: quantile tau=0.5 plug-in coverage {coverage:.4f} in [0.91, 0.98]")


def test_criterion_11_online_batch_equivalence(tmp_path):
    rng = np.random.default_rng(11)
    # V_n online vs batch on random running-average paths
    worst_v = 0.0
    for _ in range(3):
        n, d = 1_000, 3
        path = np.cumsum(rng.standard_normal((n, d)), axis=0) / np.arange(1, n + 1)[:, None]
        acc = ScalingAccumulator(dim=d)
        for i in range(n):
            scaling_update(acc, path[i], i + 1)
        dev = path - path[-1]
        i2 = np.arange(1, n + 1) ** 2
        batch = (dev.T * i2) @ dev / n**2
        v = assemble_v(acc.a, acc.b, acc.s, acc.n, path[-1])
        worst_v = max(worst_v, float(np.abs(v - batch).max()))
    assert worst_v < 1e-9, worst_v

    # running average of the optimizer vs the batch mean of its iterates
    spec = models.ModelSpec("linear", models.theta_on_unit_sphere(3, seed=2))
    log = []
    state = kw.run(
        models.LossOracle(spec),
        dirs.DirectionDistribution("spherical", 3),
        dirs.QueryMode(),
        sh.Schedules(),
        1_000,
        np.random.default_rng(3),
        iterate_log=log,
    )
    mean_gap = float(np.abs(state.theta_bar - np.mean(log, axis=0)).max())
    assert mean_gap < 1e-12, mean_gap

    # CSV round-trip reproduces the aggregates exactly
    cfg = sh.config_from_dict(
        {
            "name": "roundtrip",
            "model": {"family": "linear", "theta": [0.6, -0.8]},
            "directions": {"kind": "canonical"},
            "n": 500,
            "replications": 5,
            "seed": 4,
        }
    )
    rep = sh.run_experiment(cfg)
    run_dir = sh.write_report(rep, str(tmp_path))
    back = sh.read_replications(os.path.join(run_dir, "replications.csv"))
    assert sh.summarize_records(back) == sh.summarize_records(rep.records)
    report(
        f"criterion 11: V_n online-batch gap {worst_v:.2e} < 1e-9, "
        f"running-average gap {mean_gap:.2e} < 1e-12, CSV aggregates exact"
    )


def test_criterion_12_recipe_determinism(tmp_path, capsys):
    args = [
        "recipe", "table5-directions-canonical",
        "--override", "n=2000", "--override", "replications=5",
    ]
    assert main(args + ["--workers", "1", "--output-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--workers", "2", "--output-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    (run_id,) = os.listdir(tmp_path / "a")
    blobs = []
    for root in ("a", "b"):
        with open(tmp_path / root / run_id / "replications.csv", "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    report(
        f"criterion 12: recipe runs at 1 and 2 workers produced byte-identical "
        f"replications.csv ({len(blobs[0])} bytes)"
    )

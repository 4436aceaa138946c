import math
import threading
import tracemalloc

import numpy as np
import pytest

from akwinfer import directions as dirs
from akwinfer import models
from akwinfer.numkernel import sym_eigen, symmetrize


def make_spec(family="linear", d=3, **kwargs):
    return models.ModelSpec(family, models.theta_on_unit_sphere(d, seed=1), **kwargs)


def test_theta_star_on_unit_sphere():
    theta = models.theta_on_unit_sphere(8, seed=4)
    assert np.linalg.norm(theta) == pytest.approx(1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        models.ModelSpec("poisson", np.ones(2))
    with pytest.raises(ValueError):
        models.ModelSpec("linear", np.ones(2), sigma2=-1.0)
    with pytest.raises(ValueError):
        models.ModelSpec("quantile", np.ones(2), tau=1.5)
    with pytest.raises(ValueError):
        models.ModelSpec("linear", np.ones(3), design="equicorr", rho=-0.9)


def test_design_cov_equicorr():
    spec = make_spec(design="equicorr", rho=0.2)
    cov = spec.design_cov()
    assert np.allclose(np.diag(cov), 1.0)
    assert cov[0, 1] == pytest.approx(0.2)


def test_linear_loss_perfect_fit_is_zero():
    spec = make_spec("linear")
    oracle = models.LossOracle(spec)
    x = np.array([0.4, -1.0, 2.0])
    y = float(x @ spec.theta_star)  # noise draw of zero
    assert oracle.loss(spec.theta_star, (x, y)) == pytest.approx(0.0)


def test_logistic_loss_at_zero_is_log2():
    spec = make_spec("logistic")
    oracle = models.LossOracle(spec)
    for y in (-1.0, 1.0):
        assert oracle.loss(np.zeros(3), (np.ones(3), y)) == pytest.approx(math.log(2))


def test_quantile_check_loss_hand_value():
    # tau=0.5, residual -2: rho = (-2)(0.5 - 1) = 1
    spec = make_spec("quantile", tau=0.5)
    oracle = models.LossOracle(spec)
    x = np.array([1.0, 0.0, 0.0])
    theta = np.array([2.0, 0.0, 0.0])
    assert oracle.loss(theta, (x, 0.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_grad_matches_finite_difference(family):
    spec = make_spec(family)
    oracle = models.LossOracle(spec)
    rng = np.random.default_rng(6)
    zeta = oracle.sample(rng)
    theta = rng.standard_normal(3)
    x, y = zeta
    g = oracle.linpred_grad(x @ theta, y) * x
    eps = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = eps
        fd = (oracle.loss(theta + e, zeta) - oracle.loss(theta - e, zeta)) / (2 * eps)
        assert g[k] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_quantile_subgradient():
    spec = make_spec("quantile", tau=0.3)
    oracle = models.LossOracle(spec)
    x = np.array([1.0, 2.0, -1.0])
    theta = np.zeros(3)
    u = x @ theta
    assert np.allclose(oracle.linpred_grad(u, 1.0) * x, -0.3 * x)   # residual > 0
    assert np.allclose(oracle.linpred_grad(u, -1.0) * x, 0.7 * x)   # residual < 0


def test_loss_batch_matches_scalar_loss():
    spec = make_spec("linear")
    oracle = models.LossOracle(spec)
    rng = np.random.default_rng(7)
    zeta = oracle.sample(rng)
    thetas = rng.standard_normal((4, 3))
    batch = oracle.loss_batch(thetas, zeta)
    for i in range(4):
        assert batch[i] == pytest.approx(oracle.loss(thetas[i], zeta))


def test_quantile_noise_centered_at_tau():
    # Pr(y <= x^T theta*) should equal tau by construction of the noise shift
    spec = make_spec("quantile", tau=0.25)
    oracle = models.LossOracle(spec)
    rng = np.random.default_rng(8)
    below = 0
    n = 20_000
    for _ in range(n):
        x, y = oracle.sample(rng)
        below += y <= x @ spec.theta_star
    assert below / n == pytest.approx(0.25, abs=0.01)


def test_sampler_covariance_matches_design():
    spec = make_spec("linear", design="equicorr", rho=0.2)
    oracle = models.LossOracle(spec)
    rng = np.random.default_rng(9)
    xs = oracle.draw_x(rng, size=100_000)
    emp = xs.T @ xs / len(xs)
    assert np.abs(emp - spec.design_cov()).max() < 0.05


def test_analytic_hessian_linear():
    spec = make_spec("linear")
    assert np.allclose(models.analytic_hessian(spec), 2 * np.eye(3))


def test_analytic_hessian_quantile_value():
    spec = make_spec("quantile", tau=0.5, sigma2=0.2)
    h = models.analytic_hessian(spec)
    assert h[0, 0] == pytest.approx(0.892062, abs=1e-5)
    assert np.allclose(h, h[0, 0] * np.eye(3))


def test_analytic_hessian_logistic_at_zero():
    spec = models.ModelSpec("logistic", np.zeros(3))
    assert np.allclose(models.analytic_hessian(spec), 0.25 * np.eye(3))


def test_analytic_hessian_logistic_mc_is_symmetric_pd():
    spec = make_spec("logistic")
    h = models._logistic_hessian_mc(spec, 200_000, models._MC_SEED)
    assert np.array_equal(h, h.T)
    assert sym_eigen(h).values.min() > 0
    # repeat call hits the cache and is identical
    assert np.array_equal(h, models._logistic_hessian_mc(spec, 200_000, models._MC_SEED))


def sequential_logistic_hessian(spec, draws, seed=20240501):
    """The Monte-Carlo sum as one plain loop: draw, transform and fold each
    chunk of ``models._MC_CHUNK`` rows in turn."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(spec.design_cov())
    d = spec.dim
    h = np.zeros((d, d))
    left = draws
    while left > 0:
        k = min(models._MC_CHUNK, left)
        x = rng.standard_normal((k, d)) @ chol.T
        u = x @ spec.theta_star
        sig = 1.0 / (1.0 + np.exp(-u))
        w = sig * (1.0 - sig)
        h += (x * w[:, None]).T @ x
        left -= k
    return symmetrize(h / draws, rtol=1e-6)


# Neither draw count is a multiple of the chunk, so both sums end on a short
# chunk (200 000 and 250 001 rows leave 3392 and 145 at 4096 rows a chunk).
@pytest.mark.parametrize("draws", [200_000, 250_001])
@pytest.mark.parametrize("d", [1, 5, 20])
@pytest.mark.parametrize("design", ["identity", "equicorr"])
def test_logistic_hessian_mc_matches_sequential_loop(monkeypatch, design, d, draws):
    assert draws % models._MC_CHUNK
    monkeypatch.setattr(models, "_LOGISTIC_HESSIAN_CACHE", {})
    spec = make_spec("logistic", d=d, design=design)
    h = models._logistic_hessian_mc(spec, draws, models._MC_SEED)
    assert np.array_equal(h, sequential_logistic_hessian(spec, draws))
    assert models._logistic_hessian_mc(spec, draws, models._MC_SEED) is h


def test_logistic_hessian_mc_folds_on_a_helper_thread_it_joins(monkeypatch):
    monkeypatch.setattr(models, "_LOGISTIC_HESSIAN_CACHE", {})
    fold_threads = []

    def recording_fold(*args):
        fold_threads.append(threading.get_ident())
        return fold(*args)

    fold = models._logistic_fold
    monkeypatch.setattr(models, "_logistic_fold", recording_fold)
    before = threading.active_count()
    models._logistic_hessian_mc(make_spec("logistic", d=5), 250_001, models._MC_SEED)
    assert threading.active_count() == before
    assert len(fold_threads) == math.ceil(250_001 / models._MC_CHUNK)
    assert threading.get_ident() not in fold_threads


# A fold that raises while the next chunk is being drawn fails the call,
# joins the helper thread and caches nothing.
def test_logistic_hessian_mc_fold_error_reaches_caller(monkeypatch):
    monkeypatch.setattr(models, "_LOGISTIC_HESSIAN_CACHE", {})
    calls = []

    def failing_fold(*args):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("fold failed")
        return fold(*args)

    fold = models._logistic_fold
    monkeypatch.setattr(models, "_logistic_fold", failing_fold)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="fold failed"):
        models._logistic_hessian_mc(make_spec("logistic", d=5), 300_000, models._MC_SEED)
    assert threading.active_count() == before
    assert models._LOGISTIC_HESSIAN_CACHE == {}


# The truth streams its draws through reusable chunk buffers, so at d = 100
# its traced peak stays near three (rows, d) chunks whatever the draw count;
# 32 MB is far below the 230 MB three 100 000-row buffers take.
def test_logistic_hessian_mc_memory_stays_at_a_few_chunks(monkeypatch):
    monkeypatch.setattr(models, "_LOGISTIC_HESSIAN_CACHE", {})
    d = 100
    tracemalloc.start()
    try:
        models._logistic_hessian_mc(make_spec("logistic", d=d), 200_000, models._MC_SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_bytes = models._MC_CHUNK * d * 8
    assert peak < 4 * chunk_bytes
    assert peak < 32e6


def test_analytic_gram_values():
    assert np.allclose(models.analytic_gram(make_spec("linear", sigma2=0.2)),
                       0.8 * np.eye(3))
    assert np.allclose(models.analytic_gram(make_spec("quantile", tau=0.1)),
                       0.09 * np.eye(3))
    spec0 = models.ModelSpec("logistic", np.zeros(3))
    assert np.allclose(models.analytic_gram(spec0), 0.25 * np.eye(3))


def test_oracle_covariance_linear_canonical():
    # H = 2I, Q = d diag(S) = 0.8 d I, so the covariance is 0.2 d I
    d = 5
    spec = models.ModelSpec("linear", models.theta_on_unit_sphere(d, seed=2))
    dist = dirs.DirectionDistribution("canonical", d)
    cov = models.oracle_covariance(spec, dist, dirs.QueryMode(m=1))
    assert np.allclose(cov, 0.2 * d * np.eye(d))


def test_oracle_covariance_wor_collapses_to_rm():
    d = 4
    spec = models.ModelSpec("linear", models.theta_on_unit_sphere(d, seed=3))
    dist = dirs.DirectionDistribution("canonical", d)
    wor = models.oracle_covariance(spec, dist, dirs.QueryMode(m=d, replacement="without"))
    assert np.allclose(wor, models.rm_oracle_covariance(spec))
    assert np.allclose(wor, 0.2 * np.eye(d))


def test_scalar_case_q_equals_s():
    spec = models.ModelSpec("linear", np.array([1.0]))
    dist = dirs.DirectionDistribution("canonical", 1)
    cov = models.oracle_covariance(spec, dist, dirs.QueryMode(m=1))
    assert np.allclose(cov, models.rm_oracle_covariance(spec))

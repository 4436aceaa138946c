import numpy as np
import pytest

from akwinfer import models
from akwinfer.numkernel import LinAlgError
from akwinfer.plugin_inference import (
    ConfidenceInterval,
    plugin_ci,
    plugin_covariance,
    z_quantile,
)
from reference import (
    HessianAccumulator,
    hessian_entry_block,
    linpred_grad,
    loss,
    loss_batch,
    sample,
)


class QuadraticOracle:
    """f(theta) = theta^T A theta + b^T theta; exact Hessian 2A."""

    def __init__(self, a, b=None):
        self.a = np.asarray(a, float)
        self.b = np.zeros(len(self.a)) if b is None else np.asarray(b, float)

    def loss(self, theta, zeta):
        return float(theta @ self.a @ theta + self.b @ theta)


def test_z_quantile_values():
    assert z_quantile(0.95) == pytest.approx(1.959964, abs=1e-6)
    assert z_quantile(0.90) == pytest.approx(1.644854, abs=1e-6)
    with pytest.raises(ValueError):
        z_quantile(1.0)


def test_confidence_interval_properties():
    ci = ConfidenceInterval(center=1.0, half_width=0.5)
    assert ci.length == 1.0
    assert ci.covers(1.5) and ci.covers(0.5) and not ci.covers(1.51)
    with pytest.raises(ValueError):
        ConfidenceInterval(center=0.0, half_width=-0.1)


def test_entry_block_exact_on_quadratic():
    # second differences of a quadratic are exact for any h
    a = np.array([[2.0, 0.7, 0.1], [0.7, 1.0, -0.3], [0.1, -0.3, 3.0]])
    oracle = QuadraticOracle(a)
    theta = np.array([0.4, -1.0, 2.0])
    for h in (1.0, 0.1, 1e-3):
        g, mask, queries = hessian_entry_block(oracle, theta, None, h)
        assert np.allclose(g, 2 * a, rtol=1e-7, atol=1e-6)
        assert mask.all()
        assert queries == 1 + 2 * 3 + 9


def test_entry_block_linear_model_is_2xxt():
    spec = models.ModelSpec("linear", models.theta_on_unit_sphere(3, seed=9))
    oracle = models.LossOracle(spec)
    rng = np.random.default_rng(0)
    zeta = sample(oracle, rng)
    x = zeta[0]
    g, _, _ = hessian_entry_block(oracle, np.zeros(3), zeta, 0.05)
    assert np.allclose(g, 2 * np.outer(x, x), rtol=1e-6, atol=1e-8)


# The probe evaluates u0 + h·x_k and u0 + h·(x_k + x_l), the engine's
# expressions, where the definition evaluates f at θ + h·e_k and
# θ + h·(e_k + e_l). The two round the linear predictor u differently, by
# less than du = 2(d + 2)·eps·Σ|x_i|(|θ_i| + 2h) (both dot products and the
# shift), so each loss moves by at most G·du + 2·eps·F, with G a Lipschitz
# bound of the loss in u near the points and F = max|f|. An entry combines
# four losses and three roundings and divides by h².
@pytest.mark.parametrize("family", models.FAMILIES)
def test_entry_block_matches_theta_space_probe(family):
    d, h = 4, 0.05
    oracle = models.LossOracle(models.ModelSpec(family, models.theta_on_unit_sphere(d, seed=9)))
    rng = np.random.default_rng(12)
    eye, eps = np.eye(d), np.finfo(float).eps
    for _ in range(50):
        zeta, theta = sample(oracle, rng), rng.standard_normal(d)
        block, _, _ = hessian_entry_block(oracle, theta, zeta, h)
        f0, fs = loss(oracle, theta, zeta), loss_batch(oracle, theta + h * eye, zeta)
        pairs = theta + h * (eye[:, None] + eye[None]).reshape(d * d, d)
        fp = loss_batch(oracle, pairs, zeta).reshape(d, d)
        want = (fp - fs[:, None] - fs[None, :] + f0) / (h * h)
        x, y = zeta
        du = 2 * (d + 2) * eps * (np.abs(x) * (np.abs(theta) + 2 * h)).sum()
        points = np.concatenate([theta[None], theta + h * eye, pairs])
        lipschitz = np.abs(linpred_grad(oracle, points @ x, y)).max() + 2 * du
        big = max(abs(f0), np.abs(fs).max(), np.abs(fp).max())
        tol = (4 * (lipschitz * du + 2 * eps * big) + 3 * eps * 4 * big) / (h * h)
        assert np.abs(block - want).max() <= tol


def test_entry_block_subsample_count_and_errors():
    oracle = QuadraticOracle(np.eye(4))
    rng = np.random.default_rng(33)
    counts = []
    for _ in range(400):
        g, mask, queries = hessian_entry_block(
            oracle, np.zeros(4), None, 0.1, rng, p=0.25
        )
        assert np.all(g[~mask] == 0.0)
        assert queries == 1 + 8 + mask.sum()
        counts.append(mask.sum())
    # Binomial(16, 0.25): mean 4, sd ~1.73; sample mean over 400 blocks
    assert abs(np.mean(counts) - 4.0) < 0.3
    with pytest.raises(ValueError):
        hessian_entry_block(oracle, np.zeros(4), None, 0.1, p=0.25)  # no rng
    with pytest.raises(ValueError):
        hessian_entry_block(oracle, np.zeros(4), None, -0.1)
    with pytest.raises(ValueError):
        hessian_entry_block(oracle, np.zeros(4), None, 0.1, rng, p=1.5)


def test_ipw_subsampling_unbiased():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    oracle = QuadraticOracle(a)
    rng = np.random.default_rng(8)
    acc = HessianAccumulator(dim=2, p=0.3)
    for _ in range(4000):
        acc.update(oracle, np.zeros(2), None, 0.1, rng)
    assert np.abs(acc.mean() - 2 * a).max() < 0.03 * np.abs(2 * a).max()


def test_accumulator_validation():
    with pytest.raises(ValueError):
        HessianAccumulator(dim=2, p=0.0)
    with pytest.raises(ValueError):
        HessianAccumulator(dim=2).mean()


def test_plugin_covariance_floor_respects_eigenbasis():
    # eigenvalues of [[2,1],[1,2]] are 3 and 1; the floor at 2 lifts the
    # second along (1,-1), giving [[2.5,0.5],[0.5,2.5]], not the diagonal
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    cov = plugin_covariance(h, np.eye(2), kappa1=2.0)
    floored_inv = np.linalg.inv(np.array([[2.5, 0.5], [0.5, 2.5]]))
    assert np.allclose(cov, floored_inv @ floored_inv)


def test_plugin_covariance_diagonal_case():
    # H^-1 Q H^-1 with H = diag(2, 4), Q = diag(2, 8): diag(2/4, 8/16)
    cov = plugin_covariance(np.diag([2.0, 4.0]), np.diag([2.0, 8.0]), kappa1=1e-3)
    assert np.allclose(cov, np.diag([0.5, 0.5]))


def test_plugin_covariance_floor_keeps_inverse_bounded():
    cov = plugin_covariance(np.diag([1.0, 1e-9]), np.ones((2, 2)), kappa1=0.5)
    assert cov[1, 1] == pytest.approx(1.0 / 0.25)


def test_plugin_ci_values_and_edge_cases():
    cov = np.diag([4.0, 1.0])
    theta_bar = np.array([1.0, 2.0])
    ci = plugin_ci(theta_bar, cov, np.array([1.0, 0.0]), n=100)
    assert ci.center == 1.0
    # the one interval formula, to the bit
    assert ci.half_width == z_quantile(0.95) * np.sqrt(4.0 / 100)

    zero = plugin_ci(theta_bar, np.zeros((2, 2)), np.array([1.0, 0.0]), n=10)
    assert zero.half_width == 0.0

    with pytest.raises(ValueError):
        plugin_ci(theta_bar, cov, np.array([1.0, 0.0]), n=0)
    with pytest.raises(LinAlgError):
        plugin_ci(theta_bar, -np.eye(2), np.array([1.0, 0.0]), n=10)
    with pytest.raises(LinAlgError):
        plugin_ci(theta_bar, cov, np.array([np.nan, 0.0]), n=10)

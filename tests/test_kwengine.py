import numpy as np
import pytest

from akwinfer import directions as dirs
from akwinfer import kwengine as kw
from akwinfer import models


class QuadraticOracle:
    """Deterministic f(theta) = theta^T A theta; zeta is ignored."""

    def __init__(self, a):
        self.a = np.asarray(a, float)

    def loss(self, theta, zeta):
        return float(theta @ self.a @ theta)

    def loss_batch(self, thetas, zeta):
        return np.einsum("bi,ij,bj->b", thetas, self.a, thetas)

    def sample(self, rng):
        return None


def linear_oracle(d=2, seed=1):
    spec = models.ModelSpec("linear", models.theta_on_unit_sphere(d, seed=seed))
    return models.make_oracle(spec), spec


def test_schedule_ranges_enforced():
    with pytest.raises(ValueError):
        kw.Schedules(alpha=1.2)
    with pytest.raises(ValueError):
        kw.Schedules(gamma=0.5)
    with pytest.raises(ValueError):
        kw.Schedules(h0=0.0)
    s = kw.Schedules(eta0=0.4, alpha=0.6, h0=2.0, gamma=0.75)
    assert s.eta(16) == pytest.approx(0.4 * 16 ** -0.6)
    assert s.h(16) == pytest.approx(2.0 * 16 ** -0.75)


def test_kw_gradient_linear_hand_value():
    # x=(1,0), y=0, theta=(1,0), v=(1,1), h=0.1: f=1, f(theta+hv)=1.21
    oracle, _ = linear_oracle()
    zeta = (np.array([1.0, 0.0]), 0.0)
    g = kw.multi_query_gradient(oracle, np.array([1.0, 0.0]), zeta, 0.1,
                                np.array([[1.0, 1.0]]))
    assert np.allclose(g, [2.1, 2.1])


def test_kw_gradient_zero_direction():
    oracle, _ = linear_oracle()
    zeta = (np.array([1.0, 0.0]), 0.5)
    g = kw.multi_query_gradient(oracle, np.zeros(2), zeta, 0.1, np.zeros((1, 2)))
    assert np.allclose(g, 0.0)


def test_kw_gradient_linear_closed_form():
    # generic finite difference of the quadratic: [2(x.theta - y)(x.v) + h(x.v)^2] v
    oracle, _ = linear_oracle()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, v, theta = rng.standard_normal((3, 2))
        y, h = float(rng.standard_normal()), 0.05
        g = kw.multi_query_gradient(oracle, theta, (x, y), h, v[None, :])
        xv = x @ v
        expect = (2 * (x @ theta - y) * xv + h * xv * xv) * v
        assert np.allclose(g, expect, rtol=1e-9, atol=1e-12)


def test_kw_gradient_quantile_hand_value_and_closed_form():
    # tau=0.5, y - x.theta = 1, x.v = 1, h=0.5: rho drops 0.5 -> 0.25, g = -0.5 v
    spec = models.ModelSpec("quantile", np.zeros(2), tau=0.5)
    oracle = models.make_oracle(spec)
    x, v = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    g = kw.multi_query_gradient(oracle, np.zeros(2), (x, 1.0), 0.5, v[None, :])
    assert np.allclose(g, -0.5 * v)
    # matches v v^T x (1{z<0} - tau) whenever h < |y - x.theta| / |x.v|
    rng = np.random.default_rng(3)
    for _ in range(30):
        x, v, theta = rng.standard_normal((3, 2))
        y = float(rng.standard_normal())
        z = y - x @ theta
        h = 0.5 * abs(z) / max(abs(x @ v), 1e-9)
        g = kw.multi_query_gradient(oracle, theta, (x, y), h, v[None, :])
        expect = ((z < 0) - spec.tau) * (v @ x) * v
        assert np.allclose(g, expect, rtol=1e-9, atol=1e-12)


def test_kw_gradient_logistic_first_order_bias():
    # the h -> 0 limit is -y v v^T x / (1 + e^{y x.theta}); error scales like h
    spec = models.ModelSpec("logistic", models.theta_on_unit_sphere(2, seed=5))
    oracle = models.make_oracle(spec)
    rng = np.random.default_rng(4)
    x, v, theta = rng.standard_normal((3, 2))
    y = 1.0
    limit = -y * (v @ x) / (1 + np.exp(y * (x @ theta))) * v
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        g = kw.multi_query_gradient(oracle, theta, (x, y), h, v[None, :])
        errs.append(np.linalg.norm(g - limit) / h)
    # constant C = err/h is stable across a decade of h
    assert max(errs) / min(errs) < 1.5


def test_multi_query_identities():
    oracle, _ = linear_oracle()
    rng = np.random.default_rng(5)
    zeta = (rng.standard_normal(2), 0.3)
    theta = rng.standard_normal(2)
    v = rng.standard_normal(2)
    h = 0.05
    single = (oracle.loss(theta + h * v, zeta) - oracle.loss(theta, zeta)) / h * v
    assert np.allclose(kw.multi_query_gradient(oracle, theta, zeta, h, v[None, :]), single)
    same3 = np.tile(v, (3, 1))
    assert np.allclose(kw.multi_query_gradient(oracle, theta, zeta, h, same3), single)
    v2 = rng.standard_normal(2)
    pair = kw.multi_query_gradient(oracle, theta, zeta, h, np.stack([v, v2]))
    other = kw.multi_query_gradient(oracle, theta, zeta, h, v2[None, :])
    assert np.allclose(pair, (single + other) / 2)
    with pytest.raises(ValueError):
        kw.multi_query_gradient(oracle, theta, zeta, h, np.empty((0, 2)))


def test_step_zero_eta_moves_average_only():
    oracle, _ = linear_oracle()
    dist = dirs.DirectionDistribution("canonical", 2)
    sched = kw.Schedules(eta0=0.0)
    state = kw.KwRunState.initial(2, np.array([1.0, 2.0]))
    kw.step(state, oracle, dist, dirs.QueryMode(), sched, np.random.default_rng(0))
    assert np.allclose(state.theta, [1.0, 2.0])
    assert np.allclose(state.theta_bar, [1.0, 2.0])
    assert state.n == 1


def test_step_deterministic_replay():
    oracle, _ = linear_oracle()
    dist = dirs.DirectionDistribution("spherical", 2)
    mode, sched = dirs.QueryMode(m=2), kw.Schedules()
    runs = []
    for _ in range(2):
        state = kw.KwRunState.initial(2)
        rng = np.random.default_rng(42)
        for _ in range(5):
            kw.step(state, oracle, dist, mode, sched, rng)
        runs.append((state.theta.copy(), state.theta_bar.copy(), state.query_count))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


def test_run_query_count_and_average_exactness():
    oracle, _ = linear_oracle()
    dist = dirs.DirectionDistribution("canonical", 2)
    log = []
    state = kw.run(oracle, dist, dirs.QueryMode(m=1), kw.Schedules(), 200,
                   np.random.default_rng(7), iterate_log=log)
    assert state.query_count == 2 * 200
    assert np.abs(state.theta_bar - np.mean(log, axis=0)).max() < 1e-12


def test_run_zero_iterations_returns_initial_state():
    oracle, _ = linear_oracle()
    dist = dirs.DirectionDistribution("canonical", 2)
    state = kw.run(oracle, dist, dirs.QueryMode(), kw.Schedules(), 0,
                   np.random.default_rng(0))
    assert state.n == 0
    assert np.allclose(state.theta, 0.0)


def test_divergence_guard_sets_abort():
    oracle = QuadraticOracle(1e12 * np.eye(2))
    dist = dirs.DirectionDistribution("gaussian", 2)
    state = kw.KwRunState.initial(2, np.array([1e3, 1e3]))
    sched = kw.Schedules(eta0=10.0, h0=1.0)
    with pytest.raises(kw.DivergenceError):
        for _ in range(100):
            kw.step(state, oracle, dist, dirs.QueryMode(), sched,
                    np.random.default_rng(2))
    assert state.aborted


class OverflowOracle:
    """f(theta) = 1.7e308 * min(1, 4 theta^T theta): every loss is finite,
    but the forward-difference quotient overflows to inf."""

    def loss(self, theta, zeta):
        return 1.7e308 * min(1.0, 4.0 * float(theta @ theta))


def test_non_finite_iterate_trips_divergence_guard():
    # g = inf * [sqrt 2, 0] = [inf, nan]: the update would leave [-inf, nan]
    dist = dirs.DirectionDistribution("canonical", 2)
    state = kw.KwRunState.initial(2)
    with pytest.raises(kw.DivergenceError), np.errstate(invalid="ignore"):
        kw.step(state, OverflowOracle(), dist, dirs.QueryMode(), kw.Schedules(h0=0.5),
                np.random.default_rng(0), zeta=(), dir_batch=np.array([[np.sqrt(2.0), 0.0]]))
    assert state.aborted
    assert state.n == 0
    assert np.array_equal(state.theta, np.zeros(2))


def test_within_guard_rule_per_row():
    theta = np.array([[0.0, -1e8], [np.nan, 0.0], [2e8, 0.0], [-np.inf, 0.0]])
    assert kw.within_guard(theta).tolist() == [True, False, False, False]
    assert kw.within_guard(np.zeros(3))


def test_within_guard_equals_finite_and_bounded_rule():
    # the rule spelled out: every entry finite, and max|θ| <= DIVERGENCE_LIMIT
    limit = kw.DIVERGENCE_LIMIT
    specials = np.array([np.nan, np.inf, -np.inf, limit, -limit, np.nextafter(limit, np.inf)])
    rng = np.random.default_rng(3)
    for shape in [(50, 1), (50, 2), (40, 5), (7, 3, 4)]:
        theta = rng.standard_normal(shape) * 10.0 ** rng.integers(0, 9, shape)
        hit = rng.random(shape) < 0.1
        theta[hit] = rng.choice(specials, hit.sum())
        want = np.isfinite(theta).all(axis=-1) & (np.abs(theta).max(axis=-1) <= limit)
        with np.errstate(invalid="ignore"):
            got = kw.within_guard(theta)
        assert np.array_equal(got, want)
        assert 0 < want.sum() < want.size


def test_newton_step_identity_hessian_matches_plain_kw():
    oracle, _ = linear_oracle()
    dist = dirs.DirectionDistribution("canonical", 2)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    zeta = oracle.sample(rng1)
    v = dirs.sample_batch(dist, dirs.QueryMode(), rng1)
    sched = kw.Schedules(eta0=1.0, alpha=0.999)  # eta_1 = 1 = 1/n at n=1
    st_plain = kw.KwRunState.initial(2)
    kw.step(st_plain, oracle, dist, dirs.QueryMode(), sched, rng2, zeta=zeta, dir_batch=v)
    st_newton = kw.KwRunState.initial(2)
    kw.newton_step(st_newton, oracle, dist, np.eye(2), rng2,
                   h_sched=sched, zeta=zeta, dir_batch=v)
    assert np.allclose(st_plain.theta, st_newton.theta)


def test_newton_quadratic_contracts_along_newton_direction():
    # noiseless quadratic with exact inverse Hessian: theta_1 = theta_0 (1 - 2/n) + O(h)
    a = np.array([[2.0, 0.0], [0.0, 0.5]])
    oracle = QuadraticOracle(a)
    dist = dirs.DirectionDistribution("canonical", 2)
    state = kw.KwRunState.initial(2, np.array([1.0, 1.0]))
    h_inv = np.linalg.inv(2 * a)
    rng = np.random.default_rng(11)
    kw.newton_step(state, oracle, dist, h_inv, rng,
                   h_sched=kw.Schedules(h0=1e-6, gamma=0.9))
    # gradient surrogate is v v^T grad; one canonical draw updates one coordinate
    moved = np.abs(state.theta - 1.0) > 1e-9
    assert moved.sum() == 1
    k = int(np.nonzero(moved)[0][0])
    # v v^T has a factor d=2 on the sampled coordinate, step 1/n = 1
    assert state.theta[k] == pytest.approx(1.0 - 2.0, rel=1e-3)


def test_run_newton_converges_on_linear_model():
    oracle, spec = linear_oracle(d=3, seed=13)
    dist = dirs.DirectionDistribution("canonical", 3)
    h_inv = np.linalg.inv(models.analytic_hessian(spec))
    state = kw.run_newton(oracle, dist, 4000, np.random.default_rng(17),
                          hessian_inverse=h_inv,
                          h_sched=kw.Schedules(h0=0.1, gamma=0.7))
    assert np.linalg.norm(state.theta - spec.theta_star) < 0.2

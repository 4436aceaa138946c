import numpy as np
import pytest

from akwinfer import directions as dirs
from akwinfer.numkernel import sym_eigen


def random_psd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return a @ a.T / d


def test_invalid_kind():
    with pytest.raises(ValueError):
        dirs.DirectionDistribution("triangular", 3)


def test_nonuniform_requires_valid_probabilities():
    with pytest.raises(ValueError):
        dirs.DirectionDistribution("nonuniform", 2, p=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dirs.DirectionDistribution("nonuniform", 2, p=np.array([0.5, 0.6]))


def test_orthonormal_basis_validated():
    with pytest.raises(ValueError):
        dirs.DirectionDistribution("orthonormal", 2, u=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_random_orthonormal_is_orthonormal():
    u = dirs.random_orthonormal(7, seed=5)
    assert np.abs(u.T @ u - np.eye(7)).max() < 1e-10


def test_canonical_draws_scaled_basis_vectors():
    dist = dirs.DirectionDistribution("canonical", 3)
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(200):
        v = dirs.sample_batch(dist, dirs.QueryMode(m=1), rng)[0]
        nz = np.nonzero(v)[0]
        assert len(nz) == 1
        assert v[nz[0]] == pytest.approx(np.sqrt(3))
        seen.add(int(nz[0]))
    assert seen == {0, 1, 2}


def test_spherical_norm_exact():
    dist = dirs.DirectionDistribution("spherical", 2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = dirs.sample_batch(dist, dirs.QueryMode(m=1), rng)[0]
        assert v @ v == pytest.approx(2.0, abs=1e-12)


def test_wor_requires_basis_kind_and_small_m():
    gauss = dirs.DirectionDistribution("gaussian", 4)
    with pytest.raises(ValueError):
        dirs.sample_batch(gauss, dirs.QueryMode(m=2, replacement="without"),
                          np.random.default_rng(0))
    canon = dirs.DirectionDistribution("canonical", 4)
    with pytest.raises(ValueError):
        dirs.sample_batch(canon, dirs.QueryMode(m=5, replacement="without"),
                          np.random.default_rng(0))


def test_wor_m_equals_d_exhausts_basis():
    dist = dirs.DirectionDistribution("canonical", 3)
    mode = dirs.QueryMode(m=3, replacement="without")
    rng = np.random.default_rng(2)
    for _ in range(20):
        batch = dirs.sample_batch(dist, mode, rng)
        idx = sorted(int(np.nonzero(v)[0][0]) for v in batch)
        assert idx == [0, 1, 2]


def test_wor_indices_distinct():
    dist = dirs.DirectionDistribution("canonical", 5)
    mode = dirs.QueryMode(m=2, replacement="without")
    rng = np.random.default_rng(3)
    for _ in range(2000):
        batch = dirs.sample_batch(dist, mode, rng)
        i, j = (int(np.nonzero(v)[0][0]) for v in batch)
        assert i != j


@pytest.mark.parametrize("kind", dirs.KINDS)
def test_second_moment_is_identity(kind):
    d = 4
    kwargs = {}
    if kind == "nonuniform":
        kwargs["p"] = np.array([0.1, 0.2, 0.3, 0.4])
    if kind == "orthonormal":
        kwargs["u"] = dirs.random_orthonormal(d, seed=8)
    dist = dirs.DirectionDistribution(kind, d, **kwargs)
    rng = np.random.default_rng(4)
    batch = dirs.sample_batch(dist, dirs.QueryMode(m=1), rng)
    acc = np.zeros((d, d))
    n = 40_000
    for _ in range(n):
        v = dirs.sample_batch(dist, dirs.QueryMode(m=1), rng)[0]
        acc += np.outer(v, v)
    assert np.abs(acc / n - np.eye(d)).max() < 0.06


def test_analytic_q_gaussian_identity():
    d = 6
    dist = dirs.DirectionDistribution("gaussian", d)
    assert np.allclose(dirs.analytic_q(dist, np.eye(d)), (d + 2) * np.eye(d))


def test_analytic_q_spherical_hand_diagonal():
    # S = diag(1, r0) with r0 = 0.5 gives Q = diag((r0+3)/2, (3 r0+1)/2)
    dist = dirs.DirectionDistribution("spherical", 2)
    q = dirs.analytic_q(dist, np.diag([1.0, 0.5]))
    assert np.allclose(q, np.diag([1.75, 1.25]))


def test_analytic_q_basis_kinds_identity():
    d = 5
    for kind in ("canonical", "spherical", "orthonormal"):
        dist = dirs.DirectionDistribution(kind, d)
        assert np.allclose(dirs.analytic_q(dist, np.eye(d)), d * np.eye(d))


def test_analytic_q_orthonormal_reduces_to_canonical_at_identity_basis():
    d = 4
    s = random_psd(d, 7)
    canon = dirs.analytic_q(dirs.DirectionDistribution("canonical", d), s)
    ortho = dirs.analytic_q(dirs.DirectionDistribution("orthonormal", d, u=np.eye(d)), s)
    assert np.allclose(canon, ortho)


def test_analytic_q_nonuniform_uniform_probs_match_canonical():
    d = 4
    s = random_psd(d, 11)
    p = np.full(d, 1.0 / d)
    nonu = dirs.analytic_q(dirs.DirectionDistribution("nonuniform", d, p=p), s)
    canon = dirs.analytic_q(dirs.DirectionDistribution("canonical", d), s)
    assert np.allclose(nonu, canon)


@pytest.mark.parametrize("kind", dirs.KINDS)
def test_q_dominates_s(kind):
    # Loewner dominance: Q - S is PSD for every direction law
    d = 6
    kwargs = {}
    if kind == "nonuniform":
        p = np.arange(1, d + 1, dtype=float)
        kwargs["p"] = p / p.sum()
    if kind == "orthonormal":
        kwargs["u"] = dirs.random_orthonormal(d, seed=13)
    s = random_psd(d, 17)
    q = dirs.analytic_q(dirs.DirectionDistribution(kind, d, **kwargs), s)
    assert sym_eigen(q - s).values.min() >= -1e-10


def test_gaussian_dominates_spherical():
    d = 5
    s = random_psd(d, 19)
    qg = dirs.analytic_q(dirs.DirectionDistribution("gaussian", d), s)
    qs = dirs.analytic_q(dirs.DirectionDistribution("spherical", d), s)
    assert sym_eigen(qg - qs).values.min() >= -1e-10


def test_multi_query_blend():
    d = 5
    s = random_psd(d, 23)
    dist = dirs.DirectionDistribution("canonical", d)
    q = dirs.analytic_q(dist, s)
    m1 = dirs.analytic_q_multi(dist, s, dirs.QueryMode(m=1))
    assert np.allclose(m1, q)
    m4 = dirs.analytic_q_multi(dist, s, dirs.QueryMode(m=4))
    assert np.allclose(m4 - s, (q - s) / 4)
    wor_d = dirs.analytic_q_multi(dist, s, dirs.QueryMode(m=d, replacement="without"))
    assert np.abs(wor_d - s).max() < 1e-12


def test_multi_query_wor_rejects_continuous_kind():
    dist = dirs.DirectionDistribution("gaussian", 3)
    with pytest.raises(ValueError):
        dirs.analytic_q_multi(dist, np.eye(3), dirs.QueryMode(m=2, replacement="without"))


def test_nonavg_covariance_examples():
    assert np.allclose(
        dirs.nonavg_covariance(np.eye(2), np.eye(2), eta0=2.0), np.eye(2)
    )
    out = dirs.nonavg_covariance(np.eye(2), np.diag([1.0, 3.0]), eta0=1.0)
    assert np.allclose(out, np.diag([0.5, 1.0 / 6.0]))
    doubled = dirs.nonavg_covariance(np.eye(2), np.diag([1.0, 3.0]), eta0=2.0)
    assert np.allclose(doubled, 2 * out)


def test_nonavg_covariance_rejects_non_pd():
    with pytest.raises(Exception):
        dirs.nonavg_covariance(np.eye(2), np.diag([1.0, -1.0]), eta0=1.0)


def test_nonuniform_first_coordinate_variance():
    # with p_1 = 1 - p and H = I the first diagonal of H^-1 Q H^-1 is S_11/(1-p)
    d, p = 4, 0.3
    probs = np.array([1 - p, p / 3, p / 3, p / 3])
    s = random_psd(d, 29)
    q = dirs.analytic_q(dirs.DirectionDistribution("nonuniform", d, p=probs), s)
    assert q[0, 0] == pytest.approx(s[0, 0] / (1 - p))

import numpy as np
import pytest

from akwinfer import numkernel as nk


def test_check_finite_rejects_nan():
    with pytest.raises(nk.LinAlgError):
        nk.check_finite(np.array([1.0, np.nan]))


def test_symmetrize_accepts_roundoff_asymmetry():
    m = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
    out = nk.symmetrize(m)
    assert np.array_equal(out, out.T)


def test_symmetrize_rejects_gross_asymmetry():
    with pytest.raises(nk.LinAlgError):
        nk.symmetrize(np.array([[1.0, 2.0], [3.0, 1.0]]))


def test_eigen_identity():
    eig = nk.sym_eigen(np.eye(3))
    assert np.allclose(eig.values, [1.0, 1.0, 1.0])
    assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(3), atol=1e-10)


def test_eigen_diagonal_sorted_descending():
    eig = nk.sym_eigen(np.diag([2.0, -1.0]))
    assert np.allclose(eig.values, [2.0, -1.0])
    assert np.allclose(np.abs(eig.vectors), np.eye(2), atol=1e-12)


def test_eigen_2x2_hand_solved():
    # [[2,1],[1,2]] has eigenpairs (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2)
    eig = nk.sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(eig.values, [3.0, 1.0], atol=1e-12)
    v0 = eig.vectors[:, 0]
    assert np.allclose(np.abs(v0), [1 / np.sqrt(2)] * 2, atol=1e-12)


@pytest.mark.parametrize("d", [2, 5, 12, 20, 100])
def test_eigen_random_reconstruction(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    m = (a + a.T) / 2
    eig = nk.sym_eigen(m)
    err = np.abs((eig.vectors * eig.values) @ eig.vectors.T - m).max()
    assert err <= 1e-8 * max(1.0, np.abs(m).max())
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(d)).max() < 1e-10
    assert np.all(np.diff(eig.values) <= 1e-12)


def test_eigen_rejects_nan_and_gross_asymmetry():
    with pytest.raises(nk.LinAlgError):
        nk.sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(nk.LinAlgError):
        nk.sym_eigen(np.array([[1.0, 2.0], [3.0, 1.0]]))


def test_eigen_reraises_lapack_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(nk.np.linalg, "eigh", fail)
    with pytest.raises(nk.LinAlgError, match="curvature"):
        nk.sym_eigen(np.eye(2), name="curvature")


def test_eigen_permutation_invariant_spectrum():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 6))
    m = (a + a.T) / 2
    perm = rng.permutation(6)
    mp = m[np.ix_(perm, perm)]
    assert np.allclose(nk.sym_eigen(m).values, nk.sym_eigen(mp).values, atol=1e-10)


def test_sandwich_cases():
    s = np.array([[1.0, 0.3], [0.3, 2.0]])
    assert np.allclose(nk.sandwich(np.eye(2), s), s)
    assert np.allclose(nk.sandwich(np.diag([2.0, 2.0]), np.eye(2)), np.diag([4.0, 4.0]))
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(nk.sandwich(a, np.eye(2)), [[5.0, 4.0], [4.0, 5.0]])


def test_sandwich_dim_mismatch():
    with pytest.raises(nk.LinAlgError):
        nk.sandwich(np.eye(2), np.eye(3))


def test_spectral_norm_values():
    assert nk.spectral_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)
    assert nk.spectral_norm(np.eye(4)) == pytest.approx(1.0)
    assert nk.spectral_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)


def test_spectral_norm_scales_linearly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    m = (a + a.T) / 2
    assert nk.spectral_norm(-2.5 * m) == pytest.approx(2.5 * nk.spectral_norm(m))


def test_sym_inverse():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(nk.sym_inverse(m) @ m, np.eye(2), atol=1e-12)
    with pytest.raises(nk.LinAlgError):
        nk.sym_inverse(np.diag([1.0, 0.0]))

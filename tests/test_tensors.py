"""Dense primitive checks: SVD, QR/LQ, tridiagonal eig.  tensors.svd
returns the left factor and the singular values, so its tests check the
right factor through the carry U^H a."""
import numpy as np
import pytest
import scipy.linalg as sla

from mpotrace import tensors
from mpotrace.errors import DimensionError, NumericError

from conftest import with_spectrum


def test_svd_identity():
    u, s = tensors.svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])
    assert np.linalg.norm(u.T @ u - np.eye(3)) < 1e-14


def test_svd_rank_one():
    # tall goes straight to the SVD, wide through the R factor of its adjoint
    rng = np.random.default_rng(1)
    a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
    for m in (a, a.T):
        u, s = tensors.svd(m)
        assert int(np.sum(s > 1e-12)) == 1
        assert np.linalg.norm(u[:, :1] @ (u[:, :1].T @ m) - m) < 1e-12 * np.linalg.norm(m)


def test_svd_rejects_non_finite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NumericError):
        tensors.svd(bad)


def test_qr_identity():
    q, r = tensors.qr(np.eye(4))
    assert np.allclose(np.abs(q), np.eye(4))
    assert np.allclose(np.abs(r), np.eye(4))


def test_qr_orthogonality():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        q, r = tensors.qr(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(3)) < 1e-12
        assert np.linalg.norm(q @ r - a) < 1e-12


def test_qr_scaled_diagonal():
    _, r = tensors.qr(np.diag([2.0, 3.0]))
    assert np.allclose(np.abs(np.diag(r)), [2.0, 3.0])


def test_tridiag_eig_single_entry():
    w, v = tensors.symmetric_tridiag_eig([5.0], [])
    assert np.allclose(w, [5.0])
    assert np.allclose(np.abs(v), [[1.0]])


def test_tridiag_eig_two_by_two():
    w, v = tensors.symmetric_tridiag_eig([0.0, 0.0], [1.0])
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(np.abs(v[0, :]), [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_tridiag_eig_matches_dense():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        alphas = rng.standard_normal(8)
        betas = rng.standard_normal(7)
        w, v = tensors.symmetric_tridiag_eig(alphas, betas)
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        w_ref = np.linalg.eigvalsh(t)
        assert np.allclose(w, w_ref, atol=1e-10)
        assert np.linalg.norm(t @ v - v * w) < 1e-10


def _lanczos_tridiagonal(lam, k):
    """T_k of the Lanczos recurrence, fully reorthogonalized, on diag(lam)
    from the uniform start vector."""
    q = [np.ones(lam.size) / np.sqrt(lam.size)]
    alphas, betas = [], []
    for j in range(k):
        w = lam * q[-1] - (betas[-1] * q[-2] if betas else 0.0)
        alphas.append(q[-1] @ w)
        for qq in q:
            w = w - (qq @ w) * qq
        if j < k - 1:
            betas.append(np.linalg.norm(w))
            q.append(w / betas[-1])
    return np.array(alphas), np.array(betas)


def test_tridiag_eig_matches_scipy_on_clustered_spectrum():
    rng = np.random.default_rng(3)
    lam = np.concatenate([np.linspace(0.0, 1.0, 100), 0.3 + 1e-6 * rng.random(50),
                          0.9 + 1e-9 * rng.random(50)])
    alphas, betas = _lanczos_tridiagonal(lam, 50)
    w, v = tensors.symmetric_tridiag_eig(alphas, betas)
    w_ref, v_ref = sla.eigh_tridiagonal(alphas, betas)
    assert np.max(np.abs(w - w_ref)) < 1e-13
    assert np.max(np.abs(np.abs(v[0]) ** 2 - np.abs(v_ref[0]) ** 2)) < 1e-12


def test_tridiag_eig_validation():
    with pytest.raises(ValueError):
        tensors.symmetric_tridiag_eig([], [])
    with pytest.raises(DimensionError):
        tensors.symmetric_tridiag_eig([1.0, 2.0], [1.0, 2.0])


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("shape", [(6, 40), (40, 6), (12, 12), (30, 75), (3, 17), (6, 4)])
def test_svd_left_matches_full_svd(shape, cplx):
    m, n = shape
    k = min(m, n)
    # distinct singular values, so that each singular vector is defined up
    # to a phase; the last case has rank 10 < k
    s_true = 0.8 ** np.arange(k)
    if shape == (30, 75):
        s_true[10:] = 0.0
    a = with_spectrum(m, n, s_true, sum(shape), cplx)
    u, s = tensors.svd(a)
    u0, s0, vh0 = np.linalg.svd(a, full_matrices=False)
    assert u.shape == (m, k) and s.shape == (k,) and u.dtype == a.dtype
    assert np.max(np.abs(s - s0)) <= 1e-14 * s0[0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(k)) < 1e-13
    # the carry U^H a equals diag(s) V^H row by row, up to each row's phase
    rank = int(np.sum(s_true > 0))
    got, ref = u[:, :rank].conj().T @ a, s0[:rank, None] * vh0[:rank]
    for g, r in zip(got, ref):
        phase = np.vdot(r, g) / abs(np.vdot(r, g))
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.linalg.norm(g - phase * r) <= 1e-13 * s0[0]


def test_svd_left_zero_matrix():
    for shape in [(3, 8), (8, 3)]:
        u, s = tensors.svd(np.zeros(shape))
        assert np.all(s == 0.0)
        assert np.linalg.norm(u.T @ u - np.eye(3)) < 1e-14


def test_svd_left_rejects_bad_input():
    with pytest.raises(NumericError):
        tensors.svd(np.array([[1.0, np.inf, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(DimensionError):
        tensors.svd(np.ones(4))


def test_svds_fall_back_to_gesvd(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    a = with_spectrum(9, 20, 0.7 ** np.arange(9), 5, True)
    s0 = np.linalg.svd(a, compute_uv=False)
    monkeypatch.setattr(np.linalg, "svd", failing)
    for m in (a, a.conj().T):
        u, s = tensors.svd(m)
        assert np.max(np.abs(s - s0)) <= 1e-14 * s0[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(9)) < 1e-13
        assert np.linalg.norm(u @ (u.conj().T @ m) - m) < 1e-13


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("shape", [(120, 30), (30, 120), (16, 16), (300, 200), (150, 400)])
def test_qr_reconstruction(shape, cplx):
    # the last two go past LAPACK's blocking crossover (min(m, n) > 128)
    rng = np.random.default_rng(shape[0])
    a = rng.standard_normal(shape)
    if cplx:
        a = a + 1j * rng.standard_normal(shape)
    k = min(shape)
    q, r = tensors.qr(a)
    assert q.shape == (shape[0], k) and r.shape == (k, shape[1])
    assert q.dtype == r.dtype == a.dtype
    assert np.array_equal(r, np.triu(r))
    assert np.linalg.norm(q @ r - a) < 1e-13 * np.linalg.norm(a)
    assert np.linalg.norm(q.conj().T @ q - np.eye(k)) < 1e-13

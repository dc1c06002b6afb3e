"""Dense primitive checks: SVD, QR/LQ, tridiagonal eig."""
import numpy as np
import pytest

from mpotrace import tensors
from mpotrace.errors import DimensionError, NumericError


def test_svd_identity():
    u, s, vh = tensors.svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_svd_rank_one():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(6)
    v = rng.standard_normal(4)
    _, s, _ = tensors.svd(np.outer(u, v))
    assert int(np.sum(s > 1e-12)) == 1


def test_svd_reconstruction_and_isometry():
    # tall, wide and square; complex and real
    for seed, shape in enumerate([(6, 4), (4, 6), (5, 5), (3, 17)] * 2):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape)
        if seed < 4:
            a = a + 1j * rng.standard_normal(shape)
        u, s, vh = tensors.svd(a)
        k = min(shape)
        assert u.shape == (shape[0], k) and vh.shape == (k, shape[1])
        assert u.dtype == vh.dtype == a.dtype
        assert np.all(np.diff(s) <= 0)
        assert np.linalg.norm(u @ np.diag(s) @ vh - a) < 1e-12
        assert np.linalg.norm(u.conj().T @ u - np.eye(k)) < 1e-12
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(k)) < 1e-12


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


def test_lq_orthonormal_rows():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        low, q = tensors.lq(a)
        assert np.linalg.norm(q @ q.conj().T - np.eye(3)) < 1e-12
        assert np.linalg.norm(low @ q - a) < 1e-12


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


def test_tridiag_eig_validation():
    with pytest.raises(ValueError):
        tensors.symmetric_tridiag_eig([], [])
    with pytest.raises(DimensionError):
        tensors.symmetric_tridiag_eig([1.0, 2.0], [1.0, 2.0])

"""Dense tensor primitives.

A tensor is simply a numpy ndarray in row-major (C) order, float64 or
complex128; the factorizations return the dtype they are given.  The
functions here are thin, checked wrappers around numpy's LAPACK so the
rest of the package has one place for factorization and the tridiagonal
eigensolver.

There is one SVD, `svd`, and it returns only the left factor and the
singular values: mpo._truncated_split cuts it and forms the kept rows of
the right factor by one matrix product, and the fit's bond growth
(sweeping._grow) keeps left singular vectors only.
There is one QR, `qr`, and no LQ: a gauge step to the left is a QR step
on the mirrored chain (mpo._flip).

scipy loads only on the rare gesdd -> gesvd fallback of svd, so the
package imports without it: importing scipy.linalg costs about 0.4 s and
30 MB per process, and the scipy wheel bundles a second OpenBLAS with its
own thread pool, whose calls interleaved with numpy's matrix products
made an at-cap step 2-3 times slower with more than one BLAS thread (L =
20, dmax 20, two threads on a 2-vCPU host: 64 ms against 178-214 ms with
the QRs through scipy.linalg.lapack).
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionError, NumericError

Tensor = np.ndarray


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} contains non-finite entries")


def _matrix(a: Tensor, what: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"{what} expects a matrix")
    _check_finite(a, f"{what} input")
    return a


def svd(a: Tensor) -> tuple[Tensor, np.ndarray]:
    """Left singular vectors U and all singular values S of a matrix,
    without the right factor: a = U @ diag(S) @ V^H with U orthonormal
    columns and S real, sorted descending.

    A wide matrix (m < n) goes through the R factor of the QR of its
    adjoint, a^H = Q R with R square (m x m), so a = R^H Q^H: only R is
    formed, never Q, and the SVD of R^H gives U and S.  U^H a then equals
    diag(S) V^H, so a caller that needs the kept rows of the right factor
    forms them with one matrix product.  A tall or square matrix goes
    straight to the SVD.
    """
    a = _matrix(a, "svd")
    m, n = a.shape
    if m < n:
        a = np.linalg.qr(a.conj().T, mode="r").conj().T
    try:
        u, s, _ = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier.
        # Imported here, so that scipy loads only on this path
        import scipy.linalg

        u, s, _ = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
    return u, s


def qr(a: Tensor) -> tuple[Tensor, Tensor]:
    """Reduced QR factorization of a matrix."""
    return np.linalg.qr(_matrix(a, "qr"), mode="reduced")


def symmetric_tridiag_eig(alphas: Sequence[float], betas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric tridiagonal matrix.

    alphas is the diagonal (length K >= 1), betas the off-diagonal
    (length K-1).  Returns ascending eigenvalues and the orthonormal
    eigenvector matrix with eigenvectors as columns.

    The matrix is K x K with K the Lanczos step count, so the dense
    symmetric solver's O(K^3) is negligible next to one fit (about 0.1 ms
    at K = 50).
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.ndim != 1 or betas.ndim != 1:
        raise DimensionError("alphas and betas must be one-dimensional")
    if alphas.size == 0:
        raise ValueError("empty tridiagonal matrix")
    if betas.size != alphas.size - 1:
        raise DimensionError(f"need len(betas) == len(alphas)-1, got {betas.size} vs {alphas.size}")
    _check_finite(alphas, "tridiagonal diagonal")
    if betas.size:
        _check_finite(betas, "tridiagonal off-diagonal")
    w, v = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
    return w, v

"""Dense tensor primitives.

A tensor is simply a numpy ndarray in row-major (C) order, float64 or
complex128; the factorizations return the dtype they are given.  The
functions here are thin, checked wrappers around numpy/scipy so the rest
of the package has one place for factorization and the tridiagonal
eigensolver.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericError

Tensor = np.ndarray


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} contains non-finite entries")


def svd(a: Tensor) -> tuple[Tensor, np.ndarray, Tensor]:
    """Thin singular value decomposition of a matrix, a = U @ diag(S) @ V.

    U has orthonormal columns, V orthonormal rows, S is real and sorted
    descending.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError("svd expects a matrix")
    _check_finite(a, "svd input")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier
        u, s, vh = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
    return u, s, vh


def qr(a: Tensor) -> tuple[Tensor, Tensor]:
    """Reduced QR factorization of a matrix."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError("qr expects a matrix")
    _check_finite(a, "qr input")
    return np.linalg.qr(a, mode="reduced")


def lq(a: Tensor) -> tuple[Tensor, Tensor]:
    """Reduced LQ factorization: a = L @ Q with orthonormal rows of Q."""
    q, r = qr(a.conj().T)
    return r.conj().T, q.conj().T


def symmetric_tridiag_eig(alphas: Sequence[float], betas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric tridiagonal matrix.

    alphas is the diagonal (length K >= 1), betas the off-diagonal
    (length K-1).  Returns ascending eigenvalues and the orthonormal
    eigenvector matrix with eigenvectors as columns.
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
    w, v = scipy.linalg.eigh_tridiagonal(alphas, betas)
    return w, v

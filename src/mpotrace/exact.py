"""Independent reference solutions: dense exact diagonalization at small
L, a free-fermion solution of the transverse-field chain for large L, and
a dense mirror of the global Lanczos recurrence.  These are the oracles
the tensor-network pipeline is checked against, so they deliberately
share no code with it."""
from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, HermiticityError
from .lanczos import TridiagonalMatrix
from .models import IsingParams

DENSE_L_MAX = 14
AUTO_DENSE_L_MAX = 12
LANCZOS_DIM_MAX = 4096


def ising_dense(p: IsingParams) -> np.ndarray:
    """Dense 2^L x 2^L matrix of the open Ising chain in the Z basis, site
    0 the most significant bit of the basis index: Z_i is a diagonal of
    +-1 by bit i, and X_i (X_i X_{i+1}) maps each basis state to the one
    with bit i (bits i and i+1) flipped."""
    if p.L > DENSE_L_MAX:
        raise CapacityError(f"dense construction capped at L={DENSE_L_MAX}, got {p.L}")
    n = 2 ** p.L
    idx = np.arange(n)
    ham = np.zeros((n, n))
    for i in range(p.L - 1):
        ham[idx ^ (3 << (p.L - 2 - i)), idx] += p.J
    diag = np.zeros(n)
    for i in range(p.L):
        bit = p.L - 1 - i
        diag += p.g * (1 - 2 * ((idx >> bit) & 1))
        ham[idx ^ (1 << bit), idx] += p.h
    ham[idx, idx] = diag
    return ham


def entropy_from_spectrum(energies, beta: float) -> float:
    """Gibbs entropy -sum p ln p for p_i = e^(-beta E_i)/Z, evaluated in
    log space: S = beta <E> + ln Z, with ln Z shifted by the largest
    exponent so that no term overflows."""
    e = np.asarray(energies, dtype=float)
    x = -beta * e
    top = float(np.max(x))
    ln_z = top + math.log(float(np.sum(np.exp(x - top))))
    p = np.exp(x - ln_z)
    return float(beta * (p @ e) + ln_z)


def exact_entropy_dense(p: IsingParams) -> float:
    """Thermal entropy by full diagonalization (L <= 14)."""
    energies = np.linalg.eigvalsh(ising_dense(p))
    return entropy_from_spectrum(energies, p.beta)


def exact_entropy_free_fermion(p: IsingParams) -> float:
    """Thermal entropy of the transverse-field chain (h = 0) from the
    single-particle modes of the open-boundary quadratic form.

    The Jordan-Wigner image of the chain is quadratic in fermions; the
    2L x 2L particle-hole matrix [[A, B], [-B, -A]] with A the symmetric
    hopping block and B the antisymmetric pairing block has eigenvalues in
    +-pairs, and each nonnegative mode energy eps contributes the entropy
    of one free fermionic level at inverse temperature beta.
    """
    if p.h != 0:
        raise ValueError("free-fermion solution requires h = 0")
    L, J, g = p.L, p.J, p.g
    a = np.diag([-2.0 * g] * L)
    for i in range(L - 1):
        a[i, i + 1] = a[i + 1, i] = J
    b = np.zeros((L, L))
    for i in range(L - 1):
        b[i, i + 1] = J
        b[i + 1, i] = -J
    bdg = np.block([[a, b], [-b, -a]])
    # spectrum is symmetric around zero; every other abs-sorted value
    # picks one representative of each +-eps pair
    eps = np.sort(np.abs(np.linalg.eigvalsh(bdg)))[::2]
    x = p.beta * eps
    per_mode = np.log1p(np.exp(-x)) + x / (np.exp(x) + 1.0)
    return float(np.sum(per_mode))


ORACLES = {"dense": exact_entropy_dense, "free-fermion": exact_entropy_free_fermion}


def oracle_method(p: IsingParams, method: str = "auto") -> str:
    """The reference entropy for p under method ("auto", "dense" or
    "free-fermion"), as a key of ORACLES: "auto" diagonalizes densely up
    to L = AUTO_DENSE_L_MAX and uses free fermions beyond.  Raises
    ValueError when that reference does not apply: free fermions need
    h = 0, and the dense oracle stops at DENSE_L_MAX."""
    if method == "auto":
        method = "dense" if p.L <= AUTO_DENSE_L_MAX else "free-fermion"
    if method == "free-fermion" and p.h != 0:
        raise ValueError(f"no oracle for L = {p.L}, h = {p.h!r}: free fermions need h = 0")
    if method == "dense" and p.L > DENSE_L_MAX:
        raise ValueError(f"the dense oracle is capped at L = {DENSE_L_MAX}, got L = {p.L}")
    return method


def dense_global_lanczos(a: np.ndarray, kmax: int):
    """Reference recurrence with explicitly stored matrices, no
    truncation: returns (beta1, TridiagonalMatrix).

    Starts from the identity, orthogonalizes under the Frobenius inner
    product, and stops early on breakdown (new block norm at relative
    machine floor).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > LANCZOS_DIM_MAX:
        raise CapacityError(f"dense recurrence capped at dim {LANCZOS_DIM_MAX}, got {n}")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    scale = np.linalg.norm(a, "fro")
    if np.linalg.norm(a - a.conj().T, "fro") > 1e-8 * max(scale, 1e-300):
        raise HermiticityError("dense recurrence needs a Hermitian matrix")
    u_prev = np.zeros_like(a)
    v = np.eye(n, dtype=a.dtype)
    alphas, betas = [], []
    beta1 = math.nan
    v_scale = 0.0
    for i in range(1, kmax + 1):
        b = float(np.linalg.norm(v, "fro"))
        if i == 1:
            beta1 = b
        else:
            if b <= 1e-13 * v_scale:
                break
            betas.append(b)
        u = v / b
        w = a @ u
        w_norm = float(np.linalg.norm(w, "fro"))
        v = w - (b * u_prev if i > 1 else 0.0)
        al = float(np.vdot(u, v).real)
        alphas.append(al)
        v = v - al * u
        u_prev = u
        v_scale = max(w_norm, abs(al), b)
    return beta1, TridiagonalMatrix(tuple(alphas), tuple(betas))


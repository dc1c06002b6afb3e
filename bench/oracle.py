"""Reference entropies of the open Ising chain, written independently of
mpotrace so the benchmark can check the program against its own oracle.

    H = J sum_i X_i X_{i+1} + sum_i (g Z_i + h X_i)

Two routes: exact diagonalization of the dense 2^L x 2^L matrix (L <= 12),
and for h = 0 the free-fermion solution, whose single-particle energies
are twice the singular values of the L x L bidiagonal Majorana coupling
matrix (diagonal g, superdiagonal J).
"""
from __future__ import annotations

import math

import numpy as np

DENSE_L_MAX = 12


def ising_dense(L: int, J: float, g: float, h: float) -> np.ndarray:
    """Dense Hamiltonian in the computational basis, site i on bit i."""
    if not 2 <= L <= DENSE_L_MAX:
        raise ValueError(f"dense reference needs 2 <= L <= {DENSE_L_MAX}, got {L}")
    n = 2 ** L
    idx = np.arange(n)
    bits = (idx[:, None] >> np.arange(L)) & 1
    ham = np.zeros((n, n))
    ham[idx, idx] = g * np.sum(1 - 2 * bits, axis=1)
    for i in range(L - 1):
        ham[idx, idx ^ (3 << i)] += J  # X_i X_{i+1} flips both bits
    if h != 0.0:
        for i in range(L):
            ham[idx, idx ^ (1 << i)] += h
    return ham


def gibbs_entropy(energies: np.ndarray, beta: float) -> float:
    """-sum p ln p of p ~ exp(-beta E), evaluated as beta <E> + ln Z with
    the ground energy shifted out."""
    e = np.asarray(energies, dtype=float)
    x = -beta * (e - e.min())
    w = np.exp(x)
    z = w.sum()
    return float(math.log(z) - (w @ x) / z)


def entropy_dense(L: int, J: float, g: float, h: float, beta: float) -> float:
    return gibbs_entropy(np.linalg.eigvalsh(ising_dense(L, J, g, h)), beta)


def entropy_free_fermion(L: int, J: float, g: float, h: float, beta: float) -> float:
    if h != 0.0:
        raise ValueError("the free-fermion reference needs h = 0")
    coupling = np.diag(np.full(L, g)) + np.diag(np.full(L - 1, J), 1)
    eps = 2.0 * np.linalg.svd(coupling, compute_uv=False)
    x = beta * eps
    # entropy of one fermionic level at energy eps, stable for large x
    per_mode = np.log1p(np.exp(-x)) + x / (np.exp(x) + 1.0)
    return float(per_mode.sum())


def reference_entropy(L: int, J: float, g: float, h: float, beta: float) -> tuple[float, str]:
    """(S, method): dense for L <= 12, free fermions otherwise."""
    if L <= DENSE_L_MAX:
        return entropy_dense(L, J, g, h, beta), "dense"
    return entropy_free_fermion(L, J, g, h, beta), "free-fermion"

"""Shared fixtures: cached thermal-state builds and dense references.

The thermal builds are the expensive shared inputs, so they are built once
per session and reused by the unit and acceptance tests alike.
"""
import math

import numpy as np
import pytest

import mpotrace as mt
from mpotrace import mpo as mp


@pytest.fixture(scope="session")
def thermal_cache():
    """Memoized (L, beta, dbond, dtau) -> (Mpo, report) builder."""
    cache = {}

    def build(L, beta, dbond=20, dtau=0.001):
        key = (L, beta, dbond, dtau)
        if key not in cache:
            p = mt.IsingParams(L=L, J=1.0, g=1.0, h=0.0, beta=beta)
            cache[key] = mt.thermal_half_state_report(p, dbond=dbond, dtau=dtau)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def thermal_l6(thermal_cache):
    return thermal_cache(6, 0.1)[0]


@pytest.fixture(scope="session")
def thermal_l10(thermal_cache):
    return thermal_cache(10, 0.1)[0]


@pytest.fixture(scope="session")
def thermal_l10_beta1(thermal_cache):
    return thermal_cache(10, 1.0)[0]


def random_mpo(L, dbond, seed, d=2):
    """Generic (non-Hermitian) random MPO with O(1) norm per site."""
    rng = np.random.default_rng(seed)
    sites = []
    dl = 1
    for i in range(L):
        dr = dbond if i < L - 1 else 1
        shape = (d, d, dl, dr)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sites.append(t / np.sqrt(d * dl))
        dl = dr
    return mp.Mpo(tuple(sites))


def exact_multiply(a, b):
    """Operator product a @ b; interior bonds multiply exactly.  The
    package fits its products instead (sweeping.product); this is the
    exact reference the tests build and compare against."""
    mp._check_compatible(a, b)
    sites = []
    for sa, sb in zip(a.sites, b.sites):
        # o c la ra / c i lb rb -> o i la lb ra rb
        t = np.einsum("ocxy,cizw->oixzyw", sa, sb)
        d = sa.shape[0]
        sites.append(t.reshape(d, d, sa.shape[2] * sb.shape[2], sa.shape[3] * sb.shape[3]))
    return mp.Mpo(tuple(sites), a.log_scale + b.log_scale)


def noting(coefficients, given):
    """A fit's `coefficients` function wrapped so that each list of c_k
    it returns is appended to given; None stays None."""
    if coefficients is None:
        return None

    def noted(start):
        given.append(coefficients(start))
        return given[-1]

    return noted


def real_part(m):
    """The operator whose site tensors are the real parts of m's."""
    return mp.Mpo(tuple(s.real for s in m.sites), m.log_scale)


def inner(a, b):
    """<a, b> = tr(a^H b) as one number; a float when both are real."""
    mant, logv = mp.inner_product_scaled(a, b)
    return mant * math.exp(logv)


def with_spectrum(m, n, s, seed, cplx):
    """An m x n matrix Q1 diag(s) Q2^H with the given singular values."""
    rng = np.random.default_rng(seed)

    def isometry(rows, cols):
        z = rng.standard_normal((rows, cols))
        if cplx:
            z = z + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(z)[0]

    return (isometry(m, len(s)) * s) @ isometry(n, len(s)).conj().T

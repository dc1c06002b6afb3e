"""Hamiltonian construction, thermal-state builder, random inputs."""
import math

import numpy as np
import pytest
import scipy.linalg as sla

import mpotrace as mt
from mpotrace import mpo as mp
from mpotrace.models import _bond_gate


X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def dense_ising(p):
    """Kronecker-sum reference Hamiltonian, built term by term."""
    dim = 2**p.L
    H = np.zeros((dim, dim))

    def embed(op, i):
        mats = [np.eye(2)] * p.L
        mats[i] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    def embed2(a, b, i):
        mats = [np.eye(2)] * p.L
        mats[i] = a
        mats[i + 1] = b
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    for i in range(p.L - 1):
        H += p.J * embed2(X, X, i)
    for i in range(p.L):
        H += p.g * embed(Z, i) + p.h * embed(X, i)
    return H


def test_params_validation():
    with pytest.raises(ValueError):
        mt.IsingParams(L=1)
    with pytest.raises(ValueError):
        mt.IsingParams(L=4, beta=0.0)
    with pytest.raises(ValueError):
        mt.IsingParams(L=4, beta=-1.0)
    with pytest.raises(ValueError):
        mt.IsingParams(L=4, J=math.inf)


def test_thermal_state_unit_norm_and_bonds():
    p = mt.IsingParams(L=8, beta=0.5)
    m, meta = mt.thermal_half_state_report(p, dbond=10, dtau=0.01)
    assert m.max_bond() <= 10
    # all magnitude lives in log_scale, the tensor network has unit norm
    assert abs(mp.log_norm(mp.Mpo(m.sites))) < 1e-10
    assert meta["steps"] >= 1
    assert meta["layers"]
    assert meta["max_discarded"] >= 0.0


def test_thermal_state_is_hermitian():
    p = mt.IsingParams(L=6, beta=0.3)
    m = mt.thermal_half_state(p, dbond=None, dtau=0.01)
    d = mp.dense(m)
    assert np.max(np.abs(d - d.conj().T)) < 1e-12 * np.max(np.abs(d))
    # a capped build: the Trotter product is Hermitian, so M - M^H is what
    # the cuts left, at most twice their summed discarded weight
    m, meta = mt.thermal_half_state_report(p, dbond=4, dtau=0.01)
    d = mp.dense(m)
    cut = sum(l["discarded"] for l in meta["layers"])
    assert cut > 1e-7
    assert np.linalg.norm(d - d.conj().T) <= (2.0 * cut + 1e-12) * np.linalg.norm(d)


def test_thermal_discarded_weight_bounds_truncation():
    # each gate is cut at the orthogonality center, where the environment
    # is isometric: the summed per-layer discarded weight bounds how far
    # the cap moves the unit-normalized state from the uncapped build
    for L, dbond in ((8, 3), (10, 4)):
        p = mt.IsingParams(L=L, beta=1.0)
        m, meta = mt.thermal_half_state_report(p, dbond=dbond, dtau=0.01)
        assert m.max_bond() == dbond
        capped = mp.dense(m)
        ref = mp.dense(mt.thermal_half_state(p, dbond=None, dtau=0.01))
        dist = np.linalg.norm(capped / np.linalg.norm(capped) - ref / np.linalg.norm(ref))
        assert 1e-4 < dist <= sum(l["discarded"] for l in meta["layers"]), (L, dbond, dist)


def test_thermal_layer_schedule():
    # adjacent even half layers of successive steps are merged
    for L in (3, 4, 7):
        _, meta = mt.thermal_half_state_report(mt.IsingParams(L=L, beta=0.1), dbond=None, dtau=0.01)
        n = meta["steps"]
        assert n == 5
        names = [l["layer"] for l in meta["layers"]]
        assert len(names) == 2 * n + 1
        assert names == ["even-half"] + ["odd-full", "even-full"] * (n - 1) + ["odd-full", "even-half"]


def test_thermal_state_infinite_temperature_limit():
    p = mt.IsingParams(L=6, beta=1e-6)
    m = mt.thermal_half_state(p, dbond=None, dtau=1e-6)
    S, _ = mt.entropy_from_half_state(m, kmax=10, dmax=None)
    assert abs(S - 6 * math.log(2.0)) < 1e-4


def test_thermal_state_matches_expm(thermal_cache):
    p = mt.IsingParams(L=6, beta=0.2)
    m, _ = mt.thermal_half_state_report(p, dbond=None, dtau=0.01)
    rho = mp.dense(m)
    rho = rho @ rho.conj().T
    rho /= np.trace(rho).real
    w, v = np.linalg.eigh(dense_ising(p))
    ref = (v * np.exp(-p.beta * w)) @ v.conj().T
    ref /= np.trace(ref).real
    assert np.max(np.abs(rho - ref)) < 1e-6


def test_bond_gate_matches_expm():
    p = mt.IsingParams(L=5, J=0.8, g=1.3, h=-0.4)
    eye = np.eye(2)
    field = p.g * Z + p.h * X
    for i in range(p.L - 1):
        wl = 1.0 if i == 0 else 0.5
        wr = 1.0 if i == p.L - 2 else 0.5
        h4 = p.J * np.kron(X, X) + wl * np.kron(field, eye) + wr * np.kron(eye, field)
        for tau in (1e-3, 0.05, 0.5):
            ref = sla.expm(-tau * h4)
            assert np.max(np.abs(_bond_gate(p, i, tau).reshape(4, 4) - ref)) < 1e-14, (i, tau)


def test_thermal_state_trotter_order_two():
    # halving dtau must shrink the defect by about 4x
    p = mt.IsingParams(L=4, beta=0.4)
    w, v = np.linalg.eigh(dense_ising(p))
    exact = (v * np.exp(-p.beta / 2.0 * w)) @ v.conj().T

    def defect(dtau):
        m = mt.thermal_half_state(p, dbond=None, dtau=dtau)
        return np.linalg.norm(mp.dense(m) - exact)

    d1, d2, d3 = defect(0.02), defect(0.01), defect(0.005)
    assert 2.83 < d1 / d2 < 5.66, (d1, d2)
    assert 2.83 < d2 / d3 < 5.66, (d2, d3)


def test_thermal_builder_validation():
    p = mt.IsingParams(L=4, beta=0.5)
    for dtau in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mt.thermal_half_state(p, dtau=dtau)
    with pytest.raises(ValueError):
        mt.thermal_half_state(p, dbond=0)


def test_random_hermitian_deterministic():
    a = mt.random_hermitian_mpo(5, dbond=4, seed=9)
    b = mt.random_hermitian_mpo(5, dbond=4, seed=9)
    assert a.log_scale == b.log_scale
    for sa, sb in zip(a.sites, b.sites):
        assert np.array_equal(sa, sb)
    c = mt.random_hermitian_mpo(5, dbond=4, seed=10)
    assert any(not np.array_equal(sa, sc) for sa, sc in zip(a.sites, c.sites))


def test_random_hermitian_is_hermitian():
    for seed in range(4):
        m = mt.random_hermitian_mpo(4, dbond=4, seed=seed)
        d = mp.dense(m)
        assert np.max(np.abs(d - d.conj().T)) < 1e-14 * max(np.max(np.abs(d)), 1.0)


def test_random_hermitian_bond_cap():
    for dbond in (1, 2, 4, 8):
        m = mt.random_hermitian_mpo(6, dbond=dbond, seed=1)
        assert m.max_bond() <= dbond, dbond
    with pytest.raises(ValueError):
        mt.random_hermitian_mpo(0)
    with pytest.raises(ValueError):
        mt.random_hermitian_mpo(4, dbond=0)

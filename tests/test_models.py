"""Hamiltonian construction, thermal-state builder, random inputs."""
import math

import numpy as np
import pytest
import scipy.linalg as sla

import mpotrace as mt
from mpotrace import models
from mpotrace import mpo as mp
from mpotrace.errors import NumericError
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


@pytest.mark.parametrize("beta, dtau", [(1.0, 0.005), (2.0, 0.001)])
def test_powered_build_matches_linear_uncapped(monkeypatch, beta, dtau):
    # uncapped, powering forms the same S(tau)^n as the gate layers
    p = mt.IsingParams(L=6, beta=beta)
    m, meta = mt.thermal_half_state_report(p, dbond=None, dtau=dtau)
    assert meta["steps"] > models.POWER_STEPS
    assert {l["layer"] for l in meta["layers"][3:]} == {"square", "product"}
    monkeypatch.setattr(models, "POWER_STEPS", meta["steps"])
    ref, ref_meta = mt.thermal_half_state_report(p, dbond=None, dtau=dtau)
    assert len(ref_meta["layers"]) == 2 * meta["steps"] + 1
    a, b = mp.dense(m), mp.dense(ref)
    assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)
    # a fit that truncates nothing knows its discarded weight
    assert all(l["discarded"] is not None for l in meta["layers"])


@pytest.mark.parametrize("nsteps", [64, 65, 100, 500])
def test_powered_build_records(nsteps):
    # 3 base layers, then floor(log2 n) squarings and popcount(n) - 1
    # products, each recording the power it formed; 64 steps stay linear
    p = mt.IsingParams(L=4, beta=2.0 * nsteps * 1e-3)
    m, meta = mt.thermal_half_state_report(p, dbond=3, dtau=1e-3)
    assert meta["steps"] == nsteps
    layers = meta["layers"]
    if nsteps <= models.POWER_STEPS:
        assert len(layers) == 2 * nsteps + 1
        return
    assert [l["layer"] for l in layers[:3]] == ["even-half", "odd-full", "even-half"]
    names = [l["layer"] for l in layers[3:]]
    assert names.count("square") == nsteps.bit_length() - 1
    assert names.count("product") == bin(nsteps).count("1") - 1
    squares = [l["step"] for l in layers[3:] if l["layer"] == "square"]
    assert squares == [2 ** j for j in range(1, nsteps.bit_length())]
    assert layers[-1]["step"] == nsteps
    assert layers[-1]["max_bond"] == m.max_bond() <= 3
    # a fit that truncates knows no target norm: no discarded weight, and
    # max_discarded reads the measured records only
    assert any(l["discarded"] is None for l in layers)
    measured = [l["discarded"] for l in layers if l["discarded"] is not None]
    assert meta["max_discarded"] == max(measured)


def test_powering_needs_the_float_chain_range(monkeypatch):
    # d^L = tr(I) must be a float64: L <= 1023 at d = 2
    assert mp._chain_limit(2) == 1023
    ln_max = math.log(np.finfo(float).max)
    assert mp._chain_limit(3) * math.log(3) < ln_max < (mp._chain_limit(3) + 1) * math.log(3)
    # past it a build stays linear, whatever its step count
    monkeypatch.setattr(models, "POWER_STEPS", 1)
    _, meta = mt.thermal_half_state_report(mt.IsingParams(L=1100, beta=0.1), dbond=4, dtau=0.025)
    assert meta["steps"] == 2
    assert [l["layer"] for l in meta["layers"]] == ["even-half", "odd-full", "even-full",
                                                    "odd-full", "even-half"]


def test_powering_past_the_chain_limit_raises():
    # at L = 1100, ||S(tau)^2||^2 ~ 2^-1100 underflows inside the fit,
    # which then returns the zero operator: powering raises instead
    p = mt.IsingParams(L=1100, beta=0.01)
    step = mt.thermal_half_state(p, dbond=8, dtau=1.0)
    layers = []
    with pytest.raises(NumericError, match="L <= 1023"):
        models._power(step, 100, 8, layers)
    assert layers == []


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

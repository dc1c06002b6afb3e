"""Reference oracles: dense diagonalization and the quadratic-form route."""
import math

import numpy as np
import pytest

import mpotrace as mt
from mpotrace.errors import CapacityError

from test_models import dense_ising


def test_ising_dense_matches_term_sum():
    # bit arithmetic against the np.kron sum, site 0 the leftmost factor
    for L in range(2, 8):
        for J, g, h in ((0.7, 1.1, 0.2), (-1.3, 0.4, -0.9)):
            p = mt.IsingParams(L=L, J=J, g=g, h=h)
            assert np.max(np.abs(mt.ising_dense(p) - dense_ising(p))) < 1e-12, (L, J, g, h)


def test_ising_dense_capacity_guard():
    with pytest.raises(CapacityError):
        mt.ising_dense(mt.IsingParams(L=16))


def test_entropy_from_spectrum_two_level():
    # two degenerate states: S = ln 2 at every temperature
    for beta in (0.1, 1.0, 10.0):
        assert abs(mt.entropy_from_spectrum(np.array([0.0, 0.0]), beta) - math.log(2.0)) < 1e-12


def test_entropy_from_spectrum_shift_invariance():
    rng = np.random.default_rng(0)
    e = rng.standard_normal(32)
    s0 = mt.entropy_from_spectrum(e, 0.7)
    s1 = mt.entropy_from_spectrum(e + 3.7, 0.7)
    assert abs(s0 - s1) < 1e-10


def test_entropy_from_spectrum_limits():
    rng = np.random.default_rng(1)
    e = rng.standard_normal(64)
    assert abs(mt.entropy_from_spectrum(e, 1e-12) - math.log(64.0)) < 1e-9
    gap = np.array([0.0, 5.0, 6.0])
    assert mt.entropy_from_spectrum(gap, 200.0) < 1e-10


def test_exact_entropy_dense_infinite_temperature():
    p = mt.IsingParams(L=6, beta=1e-6)
    assert abs(mt.exact_entropy_dense(p) - 6 * math.log(2.0)) < 1e-6


def test_exact_entropy_dense_ground_state_limit():
    p = mt.IsingParams(L=4, J=1.0, g=1.0, h=0.1, beta=50.0)
    assert mt.exact_entropy_dense(p) < 1e-8


def test_free_fermion_rejects_longitudinal_field():
    with pytest.raises(ValueError):
        mt.exact_entropy_free_fermion(mt.IsingParams(L=10, h=0.3))


def test_two_oracles_agree_on_grid():
    for L in (4, 6, 8, 10, 12):
        for beta in (0.1, 1.0):
            p = mt.IsingParams(L=L, J=1.0, g=1.0, h=0.0, beta=beta)
            s_dense = mt.exact_entropy_dense(p)
            s_ff = mt.exact_entropy_free_fermion(p)
            assert abs(s_dense - s_ff) < 1e-8 * max(abs(s_dense), 1.0), (L, beta)


def test_free_fermion_decoupled_limit():
    p = mt.IsingParams(L=8, J=1.0, g=0.0, h=0.0, beta=0.8)
    assert abs(mt.exact_entropy_free_fermion(p) - mt.exact_entropy_dense(p)) < 1e-8


def test_exact_entropy_dense_capacity():
    with pytest.raises(CapacityError):
        mt.exact_entropy_dense(mt.IsingParams(L=16))


def test_dense_lanczos_scaled_identity():
    beta1, tri = mt.dense_global_lanczos(3.0 * np.eye(8), kmax=5)
    assert abs(beta1 - math.sqrt(8.0)) < 1e-12
    assert len(tri.alphas) == 1  # breakdown after the first step
    assert abs(tri.alphas[0] - 3.0) < 1e-12


def test_dense_lanczos_ritz_containment():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        a = 0.5 * (a + a.conj().T)
        w = np.linalg.eigvalsh(a)
        beta1, tri = mt.dense_global_lanczos(a, kmax=6)
        import mpotrace.tensors as tensors
        theta, _ = tensors.symmetric_tridiag_eig(tri.alphas, tri.betas)
        assert theta[0] >= w[0] - 1e-9
        assert theta[-1] <= w[-1] + 1e-9


def test_dense_lanczos_validation():
    with pytest.raises(ValueError):
        mt.dense_global_lanczos(np.ones((3, 4)), kmax=2)
    big = np.eye(5000)
    with pytest.raises(CapacityError):
        mt.dense_global_lanczos(big, kmax=2)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    from mpotrace.errors import HermiticityError
    with pytest.raises(HermiticityError):
        mt.dense_global_lanczos(skew, kmax=2)


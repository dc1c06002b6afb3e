"""Variational product and sum fits: exactness, monotonicity, scaling."""
import math

import numpy as np
import pytest

import mpotrace as mt
from mpotrace import mpo as mp
from mpotrace.sweeping import SweepOptions, multiply_and_optimize, sum_and_optimize
from mpotrace.errors import DimensionError

from conftest import random_mpo, real_part


def test_options_validation():
    with pytest.raises(ValueError):
        SweepOptions(max_sweeps=0)
    with pytest.raises(ValueError):
        SweepOptions(rel_tol=0.0)
    with pytest.raises(DimensionError):
        multiply_and_optimize(mp.identity_mpo(3), mp.identity_mpo(3), 0)


def _scale_into_sites(a, e):
    """a with every site tensor scaled by exp(e) and log_scale compensating,
    so the value is unchanged but the magnitude sits in the tensors."""
    return mp.Mpo(tuple(s * math.exp(e) for s in a.sites), a.log_scale - e * a.L)


def test_multiply_identity_operand():
    for seed in range(3):
        u = random_mpo(4, 4, seed)
        fit = multiply_and_optimize(mp.identity_mpo(4), u, 4)
        ref, ref_err = mp.truncate_svd(u, dmax=4)
        # as good as plain truncation or better
        nrm2 = mp.frobenius_norm(u) ** 2
        assert fit.residual <= (ref_err**2) * nrm2 + 1e-10 * max(nrm2, 1.0)


def test_multiply_unconstrained_matches_exact():
    for seed in range(8):
        a = random_mpo(4, 3, seed)
        u = random_mpo(4, 3, 100 + seed)
        fit = multiply_and_optimize(a, u, a.max_bond() * u.max_bond())
        dist = np.linalg.norm(mp.dense(fit.mpo) - mp.dense(a) @ mp.dense(u))
        assert dist < 1e-10, (seed, dist)
        assert fit.residual < 1e-10


def test_multiply_rank_one_times_rank_one():
    rng = np.random.default_rng(3)
    ops = []
    for _ in range(2):
        sites = tuple(rng.standard_normal((2, 2, 1, 1)) + 1j * rng.standard_normal((2, 2, 1, 1)) for _ in range(4))
        ops.append(mp.Mpo(sites))
    fit = multiply_and_optimize(ops[0], ops[1], 1)
    assert fit.residual < 1e-10


def test_multiply_objectives_monotone():
    for seed in range(5):
        a = random_mpo(4, 4, seed)
        u = random_mpo(4, 4, 40 + seed)
        fit = multiply_and_optimize(a, u, 3, SweepOptions(max_sweeps=4))
        obj = fit.objectives
        for j in range(1, len(obj)):
            assert obj[j] <= obj[j - 1] + 1e-12 * max(abs(obj[0]), 1.0), (seed, j)


def test_multiply_debug_incremental_matches_scratch():
    # the incrementally tracked objective equals the squared distance to
    # the exact product, recomputed from scratch, at a capped bond
    a = random_mpo(4, 3, 2)
    u = random_mpo(4, 3, 9)
    fit = multiply_and_optimize(a, u, 4)
    assert fit.mpo.max_bond() == 4
    dist2 = np.linalg.norm(mp.dense(fit.mpo) - mp.dense(a) @ mp.dense(u)) ** 2
    assert dist2 > 1e-6
    assert abs(fit.residual - dist2) < 1e-8 * max(dist2, 1.0)


def test_multiply_zipup_warm_start_path():
    # exact product bond 16*16 forces the one-pass truncated init
    a = random_mpo(6, 16, 1)
    u = random_mpo(6, 16, 2)
    fit = multiply_and_optimize(a, u, 8, SweepOptions(max_sweeps=3))
    assert np.isfinite(fit.residual)
    assert fit.mpo.max_bond() <= 8
    obj = fit.objectives
    for j in range(1, len(obj)):
        assert obj[j] <= obj[j - 1] + 1e-10 * max(abs(obj[0]), 1.0)


def test_multiply_huge_log_scale_is_stable():
    # compounded scale fields must not leak into materialized numbers
    a = random_mpo(4, 3, 7)
    big = mp.shift_log_scale(a, 420.0)
    fit = multiply_and_optimize(big, big, None)
    ref = mp.dense(a) @ mp.dense(a)
    assert abs(mp.log_norm(fit.mpo) - (840.0 + math.log(np.linalg.norm(ref)))) < 1e-8
    tiny = mp.shift_log_scale(a, -420.0)
    fit2 = multiply_and_optimize(tiny, tiny, None)
    assert abs(mp.log_norm(fit2.mpo) - (-840.0 + math.log(np.linalg.norm(ref)))) < 1e-8
    # the same value with its magnitude in the site tensors instead of in
    # log_scale gives the same fit
    for e in (20.0, -20.0):
        heavy = _scale_into_sites(a, e)
        fit3 = multiply_and_optimize(heavy, heavy, None)
        assert np.linalg.norm(mp.dense(fit3.mpo) - ref) < 1e-10 * np.linalg.norm(ref), e


def test_multiply_zero_operand():
    a = random_mpo(4, 3, 0)
    fit = multiply_and_optimize(a, mp.zero_mpo(4), 4)
    assert mp.log_norm(fit.mpo) == -math.inf
    assert fit.residual == 0.0


def test_sum_empty_terms_is_truncation():
    u = random_mpo(5, 6, 3)
    fit = sum_and_optimize(u, [], 3)
    _, terr = mp.truncate_svd(u, dmax=3)
    nrm2 = mp.frobenius_norm(u) ** 2
    assert fit.residual <= (terr**2) * nrm2 * (1.0 + 1e-6) + 1e-12


def test_sum_cancellation_gives_zero():
    u = random_mpo(4, 3, 8)
    fit = sum_and_optimize(u, [(-1.0, u)], 5)
    assert mp.frobenius_norm(fit.mpo) == 0.0
    assert fit.converged


def test_sum_unconstrained_matches_exact_add():
    for seed in range(6):
        u = random_mpo(4, 3, seed)
        t1 = random_mpo(4, 2, 60 + seed)
        t2 = random_mpo(4, 3, 90 + seed)
        fit = sum_and_optimize(u, [(-0.5, t1), (2.0, t2)], None)
        ref = mp.dense(u) - 0.5 * mp.dense(t1) + 2.0 * mp.dense(t2)
        assert np.linalg.norm(mp.dense(fit.mpo) - ref) < 1e-10, seed


def test_sum_objectives_monotone():
    for seed in range(5):
        u = random_mpo(4, 4, seed)
        t = random_mpo(4, 4, 30 + seed)
        fit = sum_and_optimize(u, [(1.5, t)], 3, SweepOptions(max_sweeps=4))
        obj = fit.objectives
        for j in range(1, len(obj)):
            assert obj[j] <= obj[j - 1] + 1e-12 * max(abs(obj[0]), 1.0), (seed, j)


def test_sum_mixed_log_scales():
    u = random_mpo(4, 3, 4)
    t = random_mpo(4, 3, 14)
    shifted = mp.shift_log_scale(t, 3.0)
    fit = sum_and_optimize(u, [(math.exp(-3.0), shifted)], None)
    ref = mp.dense(u) + mp.dense(t)
    assert np.linalg.norm(mp.dense(fit.mpo) - ref) < 1e-10
    for e in (20.0, -20.0):
        fit = sum_and_optimize(_scale_into_sites(u, e), [(1.0, _scale_into_sites(t, -e))], None)
        assert np.linalg.norm(mp.dense(fit.mpo) - ref) < 1e-10, e


def test_sum_discards_negligible_term():
    # a term 700 decades below the dominant one must not destabilize the fit
    u = random_mpo(4, 3, 5)
    t = mp.shift_log_scale(random_mpo(4, 3, 15), -1600.0)
    fit = sum_and_optimize(u, [(1.0, t)], None)
    assert np.linalg.norm(mp.dense(fit.mpo) - mp.dense(u)) < 1e-10


def test_fits_follow_operand_dtype():
    a, u = real_part(random_mpo(5, 3, 0)), real_part(random_mpo(5, 3, 1))
    # the exact-product warm start (bond 9 <= 64) and the zip-up one (bond 144 > 4 * 20)
    big = real_part(random_mpo(5, 12, 2))
    fits = [multiply_and_optimize(a, u, 4), multiply_and_optimize(big, big, 20),
            sum_and_optimize(u, [(-0.5, a)], 4)]
    for fit in fits:
        assert [s.dtype for s in fit.mpo.sites] == [np.float64] * 5
    c = random_mpo(5, 3, 3)
    fits = [multiply_and_optimize(a, c, 4), multiply_and_optimize(c, u, 4),
            sum_and_optimize(u, [(-0.5, c)], 4), sum_and_optimize(c, [(2.0, u)], 4)]
    for fit in fits:
        assert [s.dtype for s in fit.mpo.sites] == [np.complex128] * 5


def test_fit_reports_sweeps():
    a, u = random_mpo(5, 3, 0), random_mpo(5, 3, 1)
    fit = multiply_and_optimize(a, u, 4, SweepOptions(max_sweeps=3))
    # one sweep makes 2L - 1 local updates
    assert fit.sweeps == len(fit.objectives) // 9 and 1 <= fit.sweeps <= 3
    # an exact fit still takes a second sweep to confirm convergence: its
    # first objective is rounding noise of either sign
    exact = multiply_and_optimize(a, u, None)
    assert exact.converged and exact.sweeps == 2
    zero = multiply_and_optimize(mp.zero_mpo(5), u, 4)
    assert zero.converged and zero.sweeps == 0

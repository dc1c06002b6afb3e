"""Recurrence, quadrature, stopping logic, and the entropy front end."""
import logging
import math

import numpy as np
import pytest

import mpotrace as mt
from mpotrace import mpo as mp
from mpotrace import lanczos as lz
from mpotrace import sweeping
from mpotrace.errors import EvaluationError, HermiticityError, NumericError

from mpotrace.sweeping import _pass as real_pass, multiply_and_optimize, product

from conftest import exact_multiply, inner, noting, random_mpo, real_part


def make_run(estimates, ritz_min=0.5, ritz_max=1.5):
    """Synthetic QuadratureRun with the given estimate history."""
    run = lz.QuadratureRun()
    for i, e in enumerate(estimates):
        run.records.append(
            lz.IterationRecord(
                k=i + 1, alpha=1.0, beta=0.1, ritz_min=ritz_min,
                ritz_max=ritz_max, estimate=e, wall_ms=1.0,
            )
        )
    return run


def test_tridiagonal_validation():
    t = lz.TridiagonalMatrix((1.0, 2.0), (0.5,))
    assert t.k == 2
    with pytest.raises(ValueError):
        lz.TridiagonalMatrix((), ())
    with pytest.raises(ValueError):
        lz.TridiagonalMatrix((1.0, 2.0), (0.5, 0.5))
    with pytest.raises(NumericError):
        lz.TridiagonalMatrix((1.0, math.nan), (0.5,))


LOWER = lz.SpectralFunction("lower", lambda x: x, 1)
UPPER = lz.SpectralFunction("upper", lambda x: x, -1)
NONE = lz.identity_function()


def test_spectral_function_bounds():
    # the sign check_stop reads: the entropy's Gauss values are lower
    # bounds, the identity's and a polynomial's carry no direction
    assert lz.entropy_integrand().derivative_sign == 1
    assert NONE.derivative_sign == lz.polynomial_function([1.0, 2.0]).derivative_sign == 0


def test_polynomial_function_matches_polyval():
    coeffs = [2.0, -1.0, 0.5, 3.0]
    f = lz.polynomial_function(coeffs)
    for x in np.linspace(-2, 2, 9):
        assert abs(f.fn(x) - np.polyval(coeffs[::-1], x)) < 1e-12
    with pytest.raises(ValueError):
        lz.polynomial_function([])


def test_entropy_integrand_values():
    f = lz.entropy_integrand()
    assert f.fn(0.0) == 0.0
    for lam in (0.1, 0.5, 2.0):
        assert abs(f.fn(lam) + lam * lam * math.log(lam * lam)) < 1e-14


def test_stopping_config_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            lz.StoppingConfig(eps_conv=bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            lz.StoppingConfig(spectrum_floor=bad)
    with pytest.raises(TypeError):
        lz.StoppingConfig(window=3)  # the outlier window is lz.SIGMA_WINDOW


def test_gauss_quadrature_single_node():
    t = lz.TridiagonalMatrix((5.0,), ())
    est, ritz, w = lz.gauss_quadrature(t, 2.0, lz.identity_function())
    assert abs(est - 4.0 * 5.0) < 1e-14
    assert ritz == [5.0]
    assert abs(w[0] - 1.0) < 1e-14


def test_gauss_quadrature_unit_mass():
    one = lz.SpectralFunction("one", lambda lam: 1.0, 0)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 9))
        t = lz.TridiagonalMatrix(tuple(rng.standard_normal(K)), tuple(np.abs(rng.standard_normal(max(K - 1, 0))) + 0.1))
        est, _, w = lz.gauss_quadrature(t, 3.0, one)
        assert abs(est - 9.0) < 1e-10
        assert abs(sum(w) - 1.0) < 1e-12


def test_gauss_quadrature_two_by_two_analytic():
    t = lz.TridiagonalMatrix((0.0, 0.0), (1.0,))
    est, ritz, w = lz.gauss_quadrature(t, 1.0, lz.identity_function())
    assert np.allclose(ritz, [-1.0, 1.0])
    assert np.allclose(w, [0.5, 0.5])
    assert abs(est) < 1e-14


def test_gauss_quadrature_polynomial_exactness_vs_dense():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        K = 5
        alphas = tuple(rng.standard_normal(K))
        betas = tuple(np.abs(rng.standard_normal(K - 1)) + 0.1)
        t = lz.TridiagonalMatrix(alphas, betas)
        dense_t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        coeffs = rng.standard_normal(2 * K)  # degree 2K-1
        f = lz.polynomial_function(coeffs)
        beta1 = 1.7
        est, _, _ = lz.gauss_quadrature(t, beta1, f)
        pt = np.zeros_like(dense_t)
        acc = np.eye(K)
        for c in coeffs:
            pt += c * acc
            acc = acc @ dense_t
        ref = beta1**2 * pt[0, 0]
        assert abs(est - ref) < 1e-10 * max(abs(ref), 1.0), seed


def test_gauss_quadrature_rejects_bad_inputs():
    t = lz.TridiagonalMatrix((1.0,), ())
    with pytest.raises(ValueError):
        lz.gauss_quadrature(t, 0.0, lz.identity_function())
    bad = lz.SpectralFunction("bad", lambda lam: math.nan, 0)
    with pytest.raises(EvaluationError):
        lz.gauss_quadrature(t, 1.0, bad)


def test_check_stop_converged():
    run = make_run([1.0, 1.0 + 1e-12])
    halt, reason = lz.check_stop(run, lz.StoppingConfig(eps_conv=1e-10), NONE)
    assert halt and reason == lz.STOP_CONVERGED


def test_check_stop_tie_needs_eps_above_one_ulp():
    # a bit-exact tie is a change below one ulp of the estimate: it stops
    # the run only when eps_conv is at least that ulp
    run = make_run([13.67, 13.67])
    assert lz.check_stop(run, lz.StoppingConfig(eps_conv=1e-300), NONE) == (False, None)
    assert lz.check_stop(run, lz.StoppingConfig(eps_conv=1e-10), NONE) == (True, lz.STOP_CONVERGED)


def test_check_stop_change_below_eps_stops():
    run = make_run([13.67, 13.67 + 5e-11])
    halt, reason = lz.check_stop(run, lz.StoppingConfig(eps_conv=1e-10), NONE)
    assert halt and reason == lz.STOP_CONVERGED
    run = make_run([13.67, 13.67 + 2e-10])
    assert lz.check_stop(run, lz.StoppingConfig(eps_conv=1e-10), NONE) == (False, None)


def test_check_stop_needs_two_estimates():
    halt, reason = lz.check_stop(make_run([]), lz.StoppingConfig(), LOWER)
    assert not halt and reason is None
    halt, reason = lz.check_stop(make_run([1.0]), lz.StoppingConfig(), LOWER)
    assert not halt


def test_check_stop_lower_bound_violation():
    # the 1-node value is no bound: a drop from step 1 to 2 does not fire
    assert lz.check_stop(make_run([1.0, 0.9]), lz.StoppingConfig(), LOWER) == (False, None)
    run = make_run([0.5, 1.0, 0.9])
    halt, reason = lz.check_stop(run, lz.StoppingConfig(), LOWER)
    assert halt and reason == lz.STOP_BOUND
    assert lz.check_stop(run, lz.StoppingConfig(), lz.entropy_integrand()) == (True, lz.STOP_BOUND)
    assert lz.check_stop(run, lz.StoppingConfig(), UPPER) == (False, None)
    assert lz.check_stop(run, lz.StoppingConfig(), NONE) == (False, None)


def test_check_stop_upper_bound_violation():
    assert lz.check_stop(make_run([1.0, 1.1]), lz.StoppingConfig(), UPPER) == (False, None)
    run = make_run([1.5, 1.0, 1.1])
    halt, reason = lz.check_stop(run, lz.StoppingConfig(), UPPER)
    assert halt and reason == lz.STOP_BOUND
    assert lz.check_stop(run, lz.StoppingConfig(), LOWER) == (False, None)


def test_entropy_l4_runs_past_a_one_node_value_that_is_no_bound(thermal_cache):
    # step 1's Ritz value, 0.248, lies above e^(-3/2): its 1-node value is
    # above step 2's, and the run must not stop there
    from mpotrace.exact import exact_entropy_dense
    m, _ = thermal_cache(4, 0.1, 20, 0.01)
    S, run = lz.entropy_from_half_state(m)
    assert run.records[0].ritz_max > math.exp(-1.5)
    assert run.records[1].estimate < run.records[0].estimate
    assert run.stop_reason == lz.STOP_CONVERGED
    S_ref = exact_entropy_dense(mt.IsingParams(L=4, J=1.0, g=1.0, h=0.0, beta=0.1))
    assert abs(S - S_ref) < 1e-6 * S_ref


def test_check_stop_ritz_floor_and_ceiling():
    run = make_run([1.0, 2.0], ritz_min=-1e-3)
    halt, reason = lz.check_stop(run, lz.StoppingConfig(spectrum_floor=0.0), NONE)
    assert halt and reason == lz.STOP_RITZ


def test_check_stop_ritz_floor_allows_rounding():
    # an exact zero node that the eigensolver returns as -1e-17 keeps the
    # floor; a Ritz value below it by more than 8 k eps max|theta| breaks it
    cfg = lz.StoppingConfig(spectrum_floor=0.0)
    assert lz.check_stop(make_run([1.0, 2.0], ritz_min=-1e-17, ritz_max=1.0), cfg, NONE) == (
        False, None)
    halt, reason = lz.check_stop(make_run([1.0, 2.0], ritz_min=-1e-13, ritz_max=1.0), cfg, NONE)
    assert halt and reason == lz.STOP_RITZ


def test_ritz_violation_returns_the_step_before(thermal_l6, thermal_cache, caplog):
    # a floor between the smallest Ritz values of steps 2 and 3 stops the
    # run at step 3, which stays in the records but not in the estimate
    _, free = lz.entropy_from_half_state(thermal_l6, kmax=30, dmax=60)
    floor = 0.5 * (free.records[1].ritz_min + free.records[2].ritz_min)
    S, run = lz.entropy_from_half_state(thermal_l6, kmax=30, dmax=60,
                                        stop=lz.StoppingConfig(spectrum_floor=floor))
    assert run.stop_reason == lz.STOP_RITZ and len(run.records) == 3
    assert S == run.estimate == run.records[-2].estimate != run.records[-1].estimate
    # a floor step 1 already breaks: step 1 keeps its own estimate
    S, run = lz.entropy_from_half_state(thermal_l6, kmax=30, dmax=60,
                                        stop=lz.StoppingConfig(spectrum_floor=1.0))
    assert run.stop_reason == lz.STOP_RITZ and len(run.records) == 1
    assert S == run.records[0].estimate
    # a truncated L = 8, beta = 1 run breaks the psd floor on its own, and
    # the floor rule, not a warning, deals with the negative node
    m = thermal_cache(8, 1.0, 20, 0.01)[0]
    with caplog.at_level(logging.WARNING):
        S, run = lz.entropy_from_half_state(m, kmax=30, dmax=12)
    assert run.stop_reason == lz.STOP_RITZ and len(run.records) > 2
    assert run.records[-1].ritz_min < 0
    assert S == run.records[-2].estimate
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_check_stop_ritz_precedes_bound():
    run = make_run([1.0, 0.9], ritz_min=-1.0)
    halt, reason = lz.check_stop(run, lz.StoppingConfig(spectrum_floor=0.0), LOWER)
    assert halt and reason == lz.STOP_RITZ


def test_check_stop_convergence_precedes_everything():
    run = make_run([1.0, 1.0 + 1e-12], ritz_min=-1.0)
    halt, reason = lz.check_stop(run, lz.StoppingConfig(spectrum_floor=0.0), UPPER)
    assert halt and reason == lz.STOP_CONVERGED


def test_check_stop_sigma_outlier():
    cfg = lz.StoppingConfig(sigma_mult=3.0)
    assert lz.SIGMA_WINDOW == 3
    base = [1.0, 1.001, 1.002]
    run = make_run(base + [1.5])
    halt, reason = lz.check_stop(run, cfg, NONE)
    assert halt and reason == lz.STOP_SIGMA
    # the window is the 3 estimates before the current one: a fourth,
    # wildly off, falls outside it
    halt, reason = lz.check_stop(make_run([50.0] + base + [1.5]), cfg, NONE)
    assert halt and reason == lz.STOP_SIGMA
    # identical window (sd = 0) never fires
    run = make_run([1.0, 1.0, 1.0, 2.0])
    halt, reason = lz.check_stop(run, cfg, NONE)
    assert not halt
    # short history never fires
    run = make_run([1.0, 1.5])
    halt, reason = lz.check_stop(run, lz.StoppingConfig(eps_conv=1e-16), NONE)
    assert not halt


def test_driver_validation():
    a = mp.identity_mpo(3)
    with pytest.raises(ValueError):
        lz.global_lanczos(a, kmax=0)
    with pytest.raises(ValueError):
        lz.global_lanczos(a, dmax=0)


def test_scaled_identity_breaks_down_exactly():
    a = mp.shift_log_scale(mp.identity_mpo(5), math.log(3.0))
    run = lz.global_lanczos(a, kmax=10, dmax=None)
    assert run.stop_reason == lz.STOP_BREAKDOWN
    assert len(run.records) == 1
    assert abs(run.records[0].alpha - 3.0) < 1e-12
    assert abs(run.estimate - 96.0) < 1e-10  # tr(3 I) = 3 * 2^5


def test_trace_of_positive_examples():
    # one uncapped step: beta_1^2 alpha_1 is the exact trace
    def trace(m):
        return lz.global_lanczos(m, kmax=1, dmax=None).estimate

    a = mp.shift_log_scale(mp.identity_mpo(5), math.log(3.0))
    assert abs(trace(a) - 96.0) < 1e-10
    for seed in range(3):
        r = random_mpo(6, 3, seed)
        m = mp.hermitian_part(exact_multiply(mp.adjoint(r), r))
        ref = float(np.trace(mp.dense(m)).real)
        assert abs(trace(m) - ref) < 1e-10 * max(abs(ref), 1.0), seed


def test_driver_matches_dense_recurrence():
    # uncapped MPO recurrence vs the dense reference implementation
    for seed in range(3):
        m = mt.random_hermitian_mpo(6, dbond=3, seed=seed)
        run = lz.global_lanczos(m, kmax=5, dmax=None, stop=lz.StoppingConfig(eps_conv=1e-300))
        beta1, tri = mt.dense_global_lanczos(mp.dense(m), kmax=5)
        assert abs(run.beta1 - beta1) < 1e-8 * beta1
        for i, (al, al_ref) in enumerate(zip(run.tridiag.alphas, tri.alphas)):
            assert abs(al - al_ref) < 1e-8 * max(abs(al_ref), 1.0), (seed, i)
        for i, (be, be_ref) in enumerate(zip(run.tridiag.betas, tri.betas)):
            assert abs(be - be_ref) < 1e-8 * max(abs(be_ref), 1.0), (seed, i)


def test_driver_rejects_non_hermitian(monkeypatch):
    # complex, generically non-Hermitian: alpha_1 = tr(r) / tr(I) already
    # has an imaginary part.  The step's fit closes it in its gauge pass
    # over U_1, and the driver raises before the fit solves any site
    fits, solves = [], []
    monkeypatch.setattr(lz, "multiply_and_optimize",
                        lambda *args, **kw: fits.append(1) or multiply_and_optimize(*args, **kw))
    monkeypatch.setattr(sweeping, "_pass", lambda *args: solves.append(1) or real_pass(*args))
    r = random_mpo(4, 3, 5)
    with pytest.raises(HermiticityError):
        lz.global_lanczos(r, kmax=3, dmax=None)
    assert fits == [1] and solves == []


def test_keep_basis_orthonormal():
    m = mt.random_hermitian_mpo(5, dbond=3, seed=2)
    run = lz.global_lanczos(m, kmax=4, dmax=None, keep_basis=True,
                            stop=lz.StoppingConfig(eps_conv=1e-300))
    basis = run.basis
    assert len(basis) == len(run.records)
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            ip = inner(basis[i], basis[j])
            want = 1.0 if i == j else 0.0
            assert abs(ip - want) < 1e-8, (i, j, ip)


def test_driver_logs_each_step(caplog):
    m = mt.random_hermitian_mpo(4, dbond=2, seed=0)
    with caplog.at_level(logging.INFO, logger="mpotrace.lanczos"):
        run = lz.global_lanczos(m, kmax=3, dmax=None)
    lines = [r for r in caplog.records if r.name == "mpotrace.lanczos"]
    assert [r.levelno for r in lines] == [logging.INFO] * len(run.records)
    for line, rec in zip(lines, run.records):
        assert line.getMessage() == f"k={rec.k} estimate={rec.estimate:.12g} beta={rec.beta:.6g}"


def test_run_estimates_helper():
    run = make_run([1.0, 2.0, 3.0])
    assert run.estimates() == [1.0, 2.0, 3.0]


def test_entropy_maximally_mixed():
    L = 10
    m = mp.shift_log_scale(mp.identity_mpo(L), -L / 2 * math.log(2.0))
    S, run = lz.entropy_from_half_state(m, kmax=5, dmax=None)
    assert abs(S - L * math.log(2.0)) < 1e-10
    assert run.stop_reason == lz.STOP_BREAKDOWN


def test_entropy_identity_up_to_the_float_range():
    # the maximally mixed state: S = L ln 2 while beta_1^2 = 2^L is finite
    L = 1000
    m = mp.shift_log_scale(mp.identity_mpo(L), -L / 2 * math.log(2.0))
    S, _ = lz.entropy_from_half_state(m, kmax=5, dmax=None)
    assert abs(S - L * math.log(2.0)) <= 1e-10 * L * math.log(2.0)
    # past it the run raises, naming the limit, instead of returning inf/nan
    for L in (1024, 1030, 2100):
        m = mp.shift_log_scale(mp.identity_mpo(L), -L / 2 * math.log(2.0))
        with pytest.raises(NumericError, match="L <= 1023"):
            lz.entropy_from_half_state(m, kmax=5, dmax=None)


def test_gauss_quadrature_rejects_non_finite_estimate():
    t = lz.TridiagonalMatrix((1.0,), ())
    with pytest.raises(NumericError):
        lz.gauss_quadrature(t, 1e200, lz.identity_function())


@pytest.mark.parametrize("site0, shift, name", [
    # alpha_1 = e^800 for the identity
    (np.eye(2), 800.0, "alpha_1"),
    # Z on site 0 is traceless, so alpha_1 is e^720 times rounding at most,
    # but the new block's norm ||A U_1|| is e^720
    (np.diag([1.0, -1.0]), 720.0, "Frobenius norm"),
], ids=["alpha", "norm"])
def test_driver_overflow_raises_numeric_error(site0, shift, name):
    eye = np.eye(2).reshape(2, 2, 1, 1)
    a = mp.shift_log_scale(mp.Mpo((site0.reshape(2, 2, 1, 1), eye, eye, eye)), shift)
    with pytest.raises(NumericError, match=name):
        lz.global_lanczos(a, kmax=3)


def test_entropy_pure_state_is_zero():
    proj = np.zeros((2, 2, 1, 1))
    proj[0, 0, 0, 0] = 1.0
    m = mp.Mpo(tuple(proj.copy() for _ in range(6)))
    S, run = lz.entropy_from_half_state(m, kmax=5, dmax=None)
    assert abs(S) < 1e-12


def test_entropy_rejects_zero_operator():
    with pytest.raises(NumericError):
        lz.entropy_from_half_state(mp.zero_mpo(4))


def test_entropy_thermal_l6_vs_dense(thermal_l6):
    p = mt.IsingParams(L=6, J=1.0, g=1.0, h=0.0, beta=0.1)
    S, run = lz.entropy_from_half_state(thermal_l6, kmax=30, dmax=60)
    ref = mt.exact_entropy_dense(p)
    assert abs(S - ref) / ref < 1e-6
    assert run.stop_reason in (lz.STOP_CONVERGED, lz.STOP_BREAKDOWN)
    # estimates are nondecreasing lower bounds on the way there
    ests = run.estimates()
    for j in range(1, len(ests)):
        assert ests[j] >= ests[j - 1] - 1e-12
    assert all(e <= ref + 1e-6 * ref for e in ests)


def test_basis_dtype_follows_inputs(thermal_l6):
    assert thermal_l6.dtype == np.float64
    # a degree-9 polynomial keeps the estimates moving, so the run goes on
    # until the blocks sit at the cap
    kw = dict(kmax=5, dmax=6, keep_basis=True, f=lz.polynomial_function([0.0] * 9 + [1.0]),
              stop=lz.StoppingConfig(eps_conv=1e-300, sigma_mult=math.inf))
    run = lz.global_lanczos(thermal_l6, **kw)
    assert [u.max_bond() for u in run.basis].count(6) >= 2
    assert all(s.dtype == np.float64 for u in run.basis for s in u.sites)
    complex_a = mp.Mpo(tuple(s.astype(complex) for s in thermal_l6.sites), thermal_l6.log_scale)
    run = lz.global_lanczos(complex_a, **kw)
    assert [u.max_bond() for u in run.basis].count(6) >= 2
    # the first block is the real identity; every later one is a fit of a
    # product with the complex operator
    assert all(s.dtype == np.complex128 for u in run.basis[1:] for s in u.sites)


def test_real_and_complex_arithmetic_agree(thermal_cache):
    m = thermal_cache(8, 0.1)[0]
    mc = mp.Mpo(tuple(s.astype(complex) for s in m.sites), m.log_scale)
    assert m.dtype == np.float64 and mc.dtype == np.complex128
    dmax = m.max_bond() // 2  # below the exact bond, so the fits truncate
    S, run = lz.entropy_from_half_state(m, kmax=12, dmax=dmax)
    Sc, runc = lz.entropy_from_half_state(mc, kmax=12, dmax=dmax)
    assert len(run.records) == len(runc.records)
    assert run.stop_reason == runc.stop_reason
    assert abs(S - Sc) <= 1e-12 * abs(Sc)


def test_records_count_sweeps(thermal_l6, monkeypatch):
    # one fit per step, and each record reports its fit's sweeps and flag.
    # A fit stops after the first sweep whose right-to-left half lowered
    # the objective by at most 1e-9 of ||x||^2 or 1e-2 of what sweep 1's
    # left-to-right half did, so one sweep can be enough
    fits = []

    def recording(a, u, dnew, opts=None, terms=(), coefficients=None):
        # a step's fit: the run's one fit of A^H A goes through product
        fits.append(multiply_and_optimize(a, u, dnew, opts, terms, coefficients))
        return fits[-1]

    def met_rule(fit, L=6):
        # a sweep makes 2L - 1 updates, its left-to-right half the first L - 1
        obj, last = fit.objectives, fit.objectives[1 - 2 * L:]
        tol = max(1e-9 * mp.frobenius_norm(fit.mpo) ** 2, 1e-2 * (obj[0] - obj[L - 2]))
        return last[L - 2] - last[-1] <= tol

    monkeypatch.setattr(lz, "multiply_and_optimize", recording)
    _, run = lz.entropy_from_half_state(thermal_l6, kmax=4, dmax=8)
    assert [(r.sweeps, r.converged) for r in run.records] == [(f.sweeps, f.converged) for f in fits]
    assert all(f.converged and met_rule(f) for f in fits)
    assert run.records[0].sweeps == 1

    # with one sweep per fit, a fit is converged exactly when that sweep
    # met the rule
    def one_sweep(a, u, dnew, opts=None, terms=(), coefficients=None):
        return recording(a, u, dnew, mt.SweepOptions(max_sweeps=1), terms, coefficients)

    fits.clear()
    monkeypatch.setattr(lz, "multiply_and_optimize", one_sweep)
    capped = lz.global_lanczos(thermal_l6, kmax=3, dmax=4,
                               f=lz.polynomial_function([0.0] * 9 + [1.0]),
                               stop=lz.StoppingConfig(eps_conv=1e-300, sigma_mult=math.inf))
    assert [r.sweeps for r in capped.records] == [1, 1, 1]
    assert [r.converged for r in capped.records] == [met_rule(f) for f in fits]
    assert not all(r.converged for r in capped.records)


@pytest.mark.parametrize("cplx", [False, True])
def test_overlaps_come_from_the_previous_fit(cplx, monkeypatch):
    # A = diag(1, -1, 1, -1) (x) B on d = 4 is Hermitian and traceless, and
    # the identity's sites eye/2 make alpha_1 = 0 exactly: step 1's term
    # -alpha_1 U_1 has weight 0.  Each fit's overlaps with the products of
    # its target match the dense inner products, the weight-0 product's
    # included; global_lanczos builds ||t_k||^2 from them where the fit
    # truncates (from step 2 on), and the next step records
    # |<U_k, U_{k-1}>| and |<U_k, U_{k-2}>|.  B has bond 2, so A^H A is
    # exact at twice A's bond, and so is ||A U_k||^2
    b = mt.random_hermitian_mpo(3, d=4, dbond=2, seed=3)
    if not cplx:
        # the real parts of the sites of M + M^H are those of M_r + M_r^T
        b = real_part(b)
    a = mp.Mpo((np.diag([1.0, -1.0, 1.0, -1.0]).reshape(4, 4, 1, 1),) + b.sites, b.log_scale)
    steps, norms = [], {}

    def recording(a_, u, dnew, opts=None, terms=(), coefficients=None):
        given = []
        fit = multiply_and_optimize(a_, u, dnew, opts, terms, noting(coefficients, given))
        # the coefficients the step read from the fit's start
        cs, = given
        steps.append((u, [(c, t) for c, (_, t) in zip(cs, terms)], fit))
        return fit

    def noted_norm(*args, target_norm_sq=lz._target_norm_sq):
        # ||t_k||^2, formed after step k's fit
        norms[len(steps)] = target_norm_sq(*args)
        return norms[len(steps)]

    monkeypatch.setattr(lz, "multiply_and_optimize", recording)
    monkeypatch.setattr(lz, "_target_norm_sq", noted_norm)
    run = lz.global_lanczos(a, kmax=6, dmax=4, f=lz.polynomial_function([0.0] * 9 + [1.0]),
                            stop=lz.StoppingConfig(eps_conv=1e-300, sigma_mult=math.inf),
                            keep_basis=True)
    assert len(run.records) == 6
    assert run.records[0].alpha == 0.0 and steps[0][1][0][0] == 0.0
    dense_a = mp.dense(a)
    assert sorted(norms) == [k for k, (*_, fit) in enumerate(steps, 1) if fit.truncated] \
        == list(range(2, 7))
    for k, (u, terms, fit) in enumerate(steps, 1):
        x = mp.dense(fit.mpo)
        au = dense_a @ mp.dense(u)
        t = au + sum(c * mp.dense(v) for c, v in terms)
        refs = [np.vdot(x, au)] + [np.vdot(x, mp.dense(v)) for _, v in terms]
        assert len(fit.overlaps) == len(refs), k
        for (mant, log), ref in zip(fit.overlaps, refs):
            scale = np.linalg.norm(x) * np.linalg.norm(au)
            assert abs(mant * math.exp(log) - ref) <= 1e-12 * scale, k
        if k in norms:
            assert abs(norms[k][0] * math.exp(norms[k][1]) - np.linalg.norm(t) ** 2) \
                <= 1e-12 * np.linalg.norm(au) ** 2, k
    # the cap truncates from some step on
    assert max(rec.fit_residual for rec in run.records) > 1e-6
    units = [mp.dense(v) for v in run.basis]
    for k, rec in enumerate(run.records):
        want = [abs(np.vdot(units[k], units[k - j])) if k >= j else 0.0 for j in (1, 2)]
        assert abs(rec.drift_1 - want[0]) <= 1e-12 and abs(rec.drift_2 - want[1]) <= 1e-12, k
    assert run.records[0].drift_1 == run.records[0].drift_2 == run.records[1].drift_2 == 0.0


@pytest.mark.parametrize("state, bonds", [("thermal_l10", (16, 11)),
                                          ("thermal_l10_beta1", (40, 40))])
def test_rank_cut_a2_keeps_the_block_norms(state, bonds, request):
    # A^H A, fitted at twice A's bond and cut to its numerical rank as the
    # driver cuts it, gives ||A U||^2 = <U, A^H A U> of the run's blocks as
    # the uncut fit does, to the expansion's rounding floor: at beta = 0.1
    # the cut drops a third of the bond, at beta = 1 none of it
    from mpotrace.sweeping import expectation
    m = request.getfixturevalue(state)
    a = mp.shift_log_scale(m, -mp.log_norm(m))
    full = multiply_and_optimize(mp.adjoint(a), a, 2 * a.max_bond()).mpo
    cut = mp.truncate_svd(full)[0]
    assert (full.max_bond(), cut.max_bond()) == bonds
    run = lz.global_lanczos(a, kmax=5, dmax=40, keep_basis=True,
                            f=lz.polynomial_function([0.0] * 9 + [1.0]),
                            stop=lz.StoppingConfig(eps_conv=1e-300, sigma_mult=math.inf))
    assert len(run.basis) == 5
    for k, u in enumerate(run.basis, 1):
        want, got = (mant * math.exp(log) for mant, log in (expectation(full, u), expectation(cut, u)))
        assert abs(got - want) <= 1e-13 * want, k


def test_one_fit_per_step(thermal_l6, monkeypatch):
    calls, bonds = [], []

    def counting(*args, **kwargs):
        calls.append(args[2])
        fit = multiply_and_optimize(*args, **kwargs)
        bonds.append(fit.mpo.max_bond())
        return fit

    def counting_product(x, y, cap):
        # the run's one fit of A^H A
        calls.append(cap)
        out = product(x, y, cap)
        bonds.append(out[0].max_bond())
        return out

    monkeypatch.setattr(lz, "multiply_and_optimize", counting)
    monkeypatch.setattr(lz, "product", counting_product)
    run = lz.global_lanczos(thermal_l6, kmax=6, dmax=12,
                            f=lz.polynomial_function([0.0] * 9 + [1.0]),
                            stop=lz.StoppingConfig(eps_conv=1e-300, sigma_mult=math.inf))
    assert len(run.records) == 6 and len(calls) == 7
    # every step's fit gets the cap dmax and clips it to the residual's
    # exact bond: D_a * 1 + 1 = 9 at the first step, where the block is the
    # identity.  Step 2 first fits A^H A once for the run, at twice D_a
    assert thermal_l6.max_bond() == 8
    assert calls == [12, 16] + [12] * 5
    assert bonds[0] <= 9 and bonds[1] <= 16 and all(b <= 12 for b in bonds[2:])


def _haar_conjugated(m, seed):
    """U m U^H for a product U of seeded Haar-random single-site unitaries."""
    rng = np.random.default_rng(seed)
    sites = []
    for s in m.sites:
        z = rng.standard_normal((m.d, m.d)) + 1j * rng.standard_normal((m.d, m.d))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        sites.append(np.einsum("ab,bcij,dc->adij", u, s, u.conj()))
    return mp.Mpo(tuple(sites), m.log_scale)


def test_hermitian_complex_input_matches_real(thermal_cache):
    m = thermal_cache(8, 1.0, 20, 0.01)[0]
    dmax = 12  # below the exact bonds, so every later fit truncates
    S, run = lz.entropy_from_half_state(m, kmax=30, dmax=dmax)
    for seed in (1, 2, 3):
        mc = _haar_conjugated(m, seed)
        assert mc.dtype == np.complex128
        assert max(float(np.max(np.abs(s.imag))) for s in mc.sites) > 0.1
        Sc, runc = lz.entropy_from_half_state(mc, kmax=30, dmax=dmax)
        assert len(runc.records) == len(run.records), seed
        assert runc.stop_reason == run.stop_reason, seed
        assert abs(Sc - S) <= 1e-7 * abs(S), seed

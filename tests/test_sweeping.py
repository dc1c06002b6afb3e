"""The variational fit of a@u + sum_k c_k t_k: exactness, monotonicity,
scaling, the plateau stop."""
import math

import numpy as np
import pytest

import mpotrace as mt
from mpotrace import mpo as mp
from mpotrace import tensors
from mpotrace.sweeping import (SweepOptions, _grow, _run_sweeps, expectation, multiply_and_optimize,
                                product)
from mpotrace.errors import DimensionError, NumericError

from conftest import inner, noting, random_mpo, real_part


def test_options_validation():
    with pytest.raises(ValueError):
        SweepOptions(max_sweeps=0)
    with pytest.raises(DimensionError):
        multiply_and_optimize(mp.identity_mpo(3), mp.identity_mpo(3), 0)


def _scale_into_sites(a, e):
    """a with every site tensor scaled by exp(e) and log_scale compensating,
    so the value is unchanged but the magnitude sits in the tensors."""
    return mp.Mpo(tuple(s * math.exp(e) for s in a.sites), a.log_scale - e * a.L)


def _growth(monkeypatch):
    """The columns every bond growth of the sweeps appends, in order,
    recorded through a wrapped sweeping._grow; 0 for a growth that keeps
    nothing."""
    from mpotrace import sweeping
    grown = []

    def recording(target, i, half, q, bond):
        out = _grow(target, i, half, q, bond)
        grown.append(out.shape[3] - q.shape[3])
        return out

    monkeypatch.setattr(sweeping, "_grow", recording)
    return grown


def _residual(norm_sq, x):
    """||t||^2 - ||x||^2 for a fit x of a target t, ||t||^2 given in log
    form (mantissa, log), as a mantissa on that log: value = mantissa *
    exp(log).  The fit's last local solve leaves x the projection of t,
    so this is ||t - x||^2."""
    mant, log = norm_sq
    return mant - math.exp(2.0 * mp.log_norm(x) - log)


def _output_bonds(a, u, terms, cap):
    """The bonds a fit of a@u + sum_k c_k t_k outputs at cap: the cap,
    clipped by the block bond and by d^2 per site from either end."""
    L, d = u.L, u.d
    blocks = [ba * bu + sum(t.bond_dims()[i] for _, t in terms)
              for i, (ba, bu) in enumerate(zip(a.bond_dims(), u.bond_dims()))]
    return [min(cap, b, (d * d) ** min(i + 1, L - 1 - i)) for i, b in enumerate(blocks)]


def test_multiply_identity_operand():
    for seed in range(3):
        u = random_mpo(4, 4, seed)
        fit = multiply_and_optimize(mp.identity_mpo(4), u, 4)
        ref, ref_err = mp.truncate_svd(u, dmax=4)
        # as good as plain truncation or better
        nrm2 = mp.frobenius_norm(u) ** 2
        assert _residual((nrm2, 0.0), fit.mpo) <= (ref_err**2) * nrm2 + 1e-10 * max(nrm2, 1.0)


def test_multiply_unconstrained_matches_exact():
    for seed in range(8):
        a = random_mpo(4, 3, seed)
        u = random_mpo(4, 3, 100 + seed)
        fit = multiply_and_optimize(a, u, a.max_bond() * u.max_bond())
        dist = np.linalg.norm(mp.dense(fit.mpo) - mp.dense(a) @ mp.dense(u))
        assert dist < 1e-10, (seed, dist)
        # a fit that reproduces its target: its residual is 0
        assert not fit.truncated


def test_multiply_rank_one_times_rank_one():
    rng = np.random.default_rng(3)
    ops = []
    for _ in range(2):
        sites = tuple(rng.standard_normal((2, 2, 1, 1)) + 1j * rng.standard_normal((2, 2, 1, 1)) for _ in range(4))
        ops.append(mp.Mpo(sites))
    fit = multiply_and_optimize(ops[0], ops[1], 1)
    ref = mp.dense(ops[0]) @ mp.dense(ops[1])
    assert not fit.truncated
    assert np.linalg.norm(mp.dense(fit.mpo) - ref) < 1e-10 * np.linalg.norm(ref)


def test_multiply_objectives_monotone():
    # a u above the cap of 3, and one of bond 2 below it, whose first sweep
    # grows its bonds
    for seed in range(5):
        a = random_mpo(4, 4, seed)
        for bond in (4, 2):
            u = random_mpo(4, bond, 40 + seed)
            fit = multiply_and_optimize(a, u, 3, SweepOptions(max_sweeps=4))
            assert fit.mpo.bond_dims() == [3, 3, 3]
            obj = fit.objectives
            for j in range(1, len(obj)):
                assert obj[j] <= obj[j - 1] + 1e-12 * max(abs(obj[0]), 1.0), (seed, bond, j)


def test_multiply_debug_incremental_matches_scratch(monkeypatch):
    # ||target||^2 - ||x||^2 equals the squared distance to the exact
    # target, recomputed from scratch, at a capped bond: the product, and
    # the product with terms.  The sweeps of
    # a u of bond 3, below the cap of 4, grow its bonds to the ones the fit
    # outputs; a u of bond 4, those bonds, grows nothing
    grown = _growth(monkeypatch)
    a = random_mpo(4, 3, 2)
    u_prev = random_mpo(4, 2, 10)
    for bond in (3, 4):
        u = random_mpo(4, bond, 9)
        for terms in ([], [(-0.8, u), (0.3, u_prev)]):
            ref = mp.dense(a) @ mp.dense(u) + sum(c * mp.dense(t) for c, t in terms)
            grown.clear()
            fit = multiply_and_optimize(a, u, 4, terms=terms)
            assert grown == ([1, 1, 1] if bond == 3 else []), (bond, terms)
            assert fit.mpo.bond_dims() == _output_bonds(a, u, terms, 4) == [4, 4, 4]
            dist2 = np.linalg.norm(mp.dense(fit.mpo) - ref) ** 2
            assert dist2 > 1e-6 and fit.truncated
            assert abs(_residual((np.linalg.norm(ref) ** 2, 0.0), fit.mpo) - dist2) < 1e-8 * dist2, \
                (bond, terms)
            # the norm's log form meets the fit's scale: e^600 ||ref||^2
            # is finite, its factors e^600 and e^300 ||a|| ||u|| are not
            # all within reach of a float's square
            big = multiply_and_optimize(mp.shift_log_scale(a, 300.0), u, 4, terms=[
                (c * math.exp(300.0), t) for c, t in terms])
            assert abs(_residual((np.linalg.norm(ref) ** 2, 600.0), big.mpo) - dist2) < 1e-8 * dist2, \
                (bond, terms)


def test_multiply_over_cap_start_path(monkeypatch):
    # u's bond 16 above the cap of 8 starts the sweeps from u truncated
    # (mp.truncate_svd); with carried terms as well
    truncate, starts = mp.truncate_svd, []
    monkeypatch.setattr(mp, "truncate_svd",
                        lambda *args: starts.append(args[1:]) or truncate(*args))
    a = random_mpo(6, 16, 1)
    u = random_mpo(6, 16, 2)
    for terms in ([], [(-0.8, u), (0.3, random_mpo(6, 8, 3))]):
        ref = mp.dense(a) @ mp.dense(u) + sum(c * mp.dense(t) for c, t in terms)
        starts.clear()
        fit = multiply_and_optimize(a, u, 8, SweepOptions(max_sweeps=3), terms)
        assert starts == [(8,)]
        assert fit.truncated and np.isfinite(_residual((np.linalg.norm(ref) ** 2, 0.0), fit.mpo))
        assert fit.mpo.bond_dims() == _output_bonds(a, u, terms, 8)
        obj = fit.objectives
        for j in range(1, len(obj)):
            assert obj[j] <= obj[j - 1] + 1e-10 * max(abs(obj[0]), 1.0), (terms, j)


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


def test_multiply_zero_operand(monkeypatch):
    a = random_mpo(4, 3, 0)
    grown = _growth(monkeypatch)
    fit = multiply_and_optimize(a, mp.zero_mpo(4), 4)
    assert mp.log_norm(fit.mpo) == -math.inf
    assert not fit.truncated
    # the fit runs, and leaves by the cancellation exit: each bond 1 of the
    # start lies below its output bond 3, and each growth, whose products'
    # weights are all 0, keeps nothing
    assert grown == [0, 0, 0]
    assert fit.converged and fit.overlaps == [(0.0, -math.inf)]


def test_growth_keeps_what_the_count_rule_keeps(monkeypatch):
    # the columns each growth appends, against the count of the directions
    # whose tail outweighs TRUNC_EPS^2 of ||H||^2, H the weighted halves
    # side by side, capped at what the bond has room for
    from mpotrace import sweeping
    pairs = []

    def recording(target, i, half, q, bond):
        out = _grow(target, i, half, q, bond)
        h = np.concatenate([w * p for w, p in zip(target.w, half)], axis=1)
        qm = q.transpose(2, 1, 0, 3).reshape(-1, q.shape[3])
        _, s = tensors.svd(h - qm @ (qm.conj().T @ h))
        tail2 = np.cumsum((s * s)[::-1])[::-1]
        budget = mp.TRUNC_EPS * mp.TRUNC_EPS * float(np.vdot(h, h).real)
        room = bond - q.shape[3]
        pairs.append((out.shape[3] - q.shape[3], min(int(np.count_nonzero(tail2 > budget)), room), room))
        return out

    monkeypatch.setattr(sweeping, "_grow", recording)
    for seed in range(4):
        a, u = random_mpo(6, 3, seed), random_mpo(6, 2, 10 + seed)
        for cap in (3, 5, None):
            multiply_and_optimize(a, u, cap)
        # u + (-u) + t: a target of rank t's bond, below the output bond
        t = random_mpo(6, 2, 20 + seed)
        _fit_sum(u, [(-1.0, u), (1.0, t)], 6)
    assert all(grown == count for grown, count, _ in pairs), pairs
    # both the rank and the room bind somewhere
    assert any(0 < count < room for _, count, room in pairs)
    assert any(0 < count == room for _, count, room in pairs)


def _fit_sum(u, terms, dnew, opts=None):
    """u + sum_k c_k t_k, fitted as identity @ u plus the terms."""
    return multiply_and_optimize(mp.identity_mpo(u.L, u.d), u, dnew, opts, terms)


def test_sum_empty_terms_is_truncation():
    u = random_mpo(5, 6, 3)
    nrm2 = mp.frobenius_norm(u) ** 2
    fit = _fit_sum(u, [], 3)
    _, terr = mp.truncate_svd(u, dmax=3)
    assert _residual((nrm2, 0.0), fit.mpo) <= (terr**2) * nrm2 * (1.0 + 1e-6) + 1e-12


def test_sum_cancellation_gives_zero():
    u = random_mpo(4, 3, 8)
    fit = _fit_sum(u, [(-1.0, u)], 5)
    assert mp.frobenius_norm(fit.mpo) == 0.0
    assert fit.converged
    # at cap 3, u's bond, the fit grows nothing and judges the cancellation
    # by its own norm; its cap lies below the target's exact bond 6, and
    # the zero operator keeps that verdict
    fit = _fit_sum(u, [(-1.0, u)], 3)
    # the sweeps ran: the cancellation is judged after them
    assert mp.frobenius_norm(fit.mpo) == 0.0 and fit.sweep_ms > 0
    assert fit.converged and fit.truncated


def test_cancellation_reports_the_sweeps_it_ran(monkeypatch):
    # identity @ u - u at u's bond: the target vanishes, and the sweeps run
    # on rounding noise before the cancellation exit judges it.  The fit
    # reports the sweeps that ran, their objectives on its scale and their
    # own verdict
    from mpotrace import sweeping
    ran = []

    def recording(*args):
        ran.append(_run_sweeps(*args))
        return ran[-1]

    monkeypatch.setattr(sweeping, "_run_sweeps", recording)
    u = random_mpo(4, 3, 8)
    fit = _fit_sum(u, [(-1.0, u)], 3)
    (objectives, converged, sweeps, _), = ran
    assert mp.log_norm(fit.mpo) == -math.inf
    assert sweeps > 1 and fit.sweeps == sweeps and fit.converged == converged
    # the fit's scale is its own product's weight, ||I|| ||u||
    ls = mp.log_norm(mp.identity_mpo(4)) + mp.log_norm(u)
    assert fit.objectives == [mp._scaled(o, 2.0 * ls) for o in objectives]


def test_sum_unconstrained_matches_exact_add():
    for seed in range(6):
        u = random_mpo(4, 3, seed)
        t1 = random_mpo(4, 2, 60 + seed)
        t2 = random_mpo(4, 3, 90 + seed)
        fit = _fit_sum(u, [(-0.5, t1), (2.0, t2)], None)
        ref = mp.dense(u) - 0.5 * mp.dense(t1) + 2.0 * mp.dense(t2)
        assert np.linalg.norm(mp.dense(fit.mpo) - ref) < 1e-10, seed


def test_sum_objectives_monotone():
    for seed in range(5):
        u = random_mpo(4, 4, seed)
        t = random_mpo(4, 4, 30 + seed)
        fit = _fit_sum(u, [(1.5, t)], 3, SweepOptions(max_sweeps=4))
        obj = fit.objectives
        for j in range(1, len(obj)):
            assert obj[j] <= obj[j - 1] + 1e-12 * max(abs(obj[0]), 1.0), (seed, j)


def test_sum_mixed_log_scales():
    u = random_mpo(4, 3, 4)
    t = random_mpo(4, 3, 14)
    shifted = mp.shift_log_scale(t, 3.0)
    fit = _fit_sum(u, [(math.exp(-3.0), shifted)], None)
    ref = mp.dense(u) + mp.dense(t)
    assert np.linalg.norm(mp.dense(fit.mpo) - ref) < 1e-10
    for e in (20.0, -20.0):
        fit = _fit_sum(_scale_into_sites(u, e), [(1.0, _scale_into_sites(t, -e))], None)
        assert np.linalg.norm(mp.dense(fit.mpo) - ref) < 1e-10, e


def test_sum_discards_negligible_term():
    # a term 700 decades below the dominant one must not destabilize the fit
    u = random_mpo(4, 3, 5)
    t = mp.shift_log_scale(random_mpo(4, 3, 15), -1600.0)
    fit = _fit_sum(u, [(1.0, t)], None)
    assert np.linalg.norm(mp.dense(fit.mpo) - mp.dense(u)) < 1e-10


def test_fits_follow_operand_dtype():
    a, u = real_part(random_mpo(5, 3, 0)), real_part(random_mpo(5, 3, 1))
    # fits that grow u's bond 3 to the cap of 4, one whose u of bond 12 is
    # truncated to the natural limit 4 at the ends and grows to 16 inside,
    # and a start from u, whose bond 3 is the cap
    big = real_part(random_mpo(5, 12, 2))
    fits = [multiply_and_optimize(a, u, 4), multiply_and_optimize(big, big, 20),
            _fit_sum(u, [(-0.5, a)], 4), multiply_and_optimize(a, u, 3)]
    for fit in fits:
        assert [s.dtype for s in fit.mpo.sites] == [np.float64] * 5
    c = random_mpo(5, 3, 3)
    fits = [multiply_and_optimize(a, c, 4), multiply_and_optimize(c, u, 4),
            _fit_sum(u, [(-0.5, c)], 4), _fit_sum(c, [(2.0, u)], 4),
            multiply_and_optimize(c, u, 3)]
    for fit in fits:
        assert [s.dtype for s in fit.mpo.sites] == [np.complex128] * 5


def test_fit_reports_sweeps():
    a, u = random_mpo(5, 3, 0), random_mpo(5, 3, 1)
    fit = multiply_and_optimize(a, u, 4, SweepOptions(max_sweeps=3))
    # one sweep makes 2L - 1 local updates, and the first one, which grows
    # u's bond 3 to the cap, one more solve, at site L - 1
    assert fit.sweeps == len(fit.objectives) // 9 and 1 <= fit.sweeps <= 3
    # an exact fit: its growth pass chooses the last bond's directions from
    # the products' bond basis, not from the target's, and ends short of
    # the optimum; the right-to-left half closes the gap, and the next
    # one lowers the objective by no more than 1e-9 of ||x||^2, so it stops
    # after two sweeps
    exact = multiply_and_optimize(a, u, None)
    assert exact.converged and exact.sweeps == 2
    obj = exact.objectives
    assert len(obj) == 10 + 9
    assert obj[-6] - obj[-1] <= 1e-9 * mp.frobenius_norm(exact.mpo) ** 2
    # a zero operand's weights are all 0: its first sweep gains nothing,
    # and the fit stops after that one sweep of 9 updates and reports it
    zero = multiply_and_optimize(mp.zero_mpo(5), u, 4)
    assert zero.converged and zero.sweeps == 1 and len(zero.objectives) == 9


def _lanczos_operands(cplx):
    """a Hermitian a, a normalized u, an older block u_prev, and alpha =
    <u, a u>: the operands of one Lanczos step."""
    a = mt.random_hermitian_mpo(5, dbond=3, seed=4)
    u, u_prev = random_mpo(5, 3, 5), random_mpo(5, 2, 6)
    if not cplx:
        a, u, u_prev = real_part(a), real_part(u), real_part(u_prev)
    u = mp.shift_log_scale(u, -mp.log_norm(u))
    mant, log = expectation(a, u)
    return a, u, u_prev, mant * math.exp(log)


@pytest.mark.parametrize("cplx", [False, True])
def test_expectation_matches_dense(cplx):
    a, u, _, alpha = _lanczos_operands(cplx)
    ref = np.vdot(mp.dense(u), mp.dense(a) @ mp.dense(u))
    assert abs(alpha - ref) < 1e-12 * max(abs(ref), 1.0)
    # real for Hermitian a, whatever u is
    assert abs(np.imag(alpha)) < 1e-14 * np.linalg.norm(mp.dense(a))
    assert isinstance(alpha, float) == (not cplx)
    # the operands' scales ride in the log, past the float range
    mant, log = expectation(mp.shift_log_scale(a, 800.0), mp.shift_log_scale(u, -300.0))
    assert abs(mant * math.exp(log - 200.0) - alpha) < 1e-12 * max(abs(alpha), 1.0)


@pytest.mark.parametrize("cplx", [False, True])
def test_fused_fit_unconstrained_matches_dense(cplx):
    a, u, u_prev, alpha = _lanczos_operands(cplx)
    beta = 0.7
    fit = multiply_and_optimize(a, u, None, terms=[(-alpha, u), (-beta, u_prev)])
    ref = mp.dense(a) @ mp.dense(u) - alpha * mp.dense(u) - beta * mp.dense(u_prev)
    assert np.linalg.norm(mp.dense(fit.mpo) - ref) < 1e-10 * max(np.linalg.norm(ref), 1.0)
    assert fit.mpo.dtype == (np.complex128 if cplx else np.float64)
    # exact after the first half-sweep: one sweep sees the plateau
    assert fit.converged and fit.sweeps == 1


def _in_gauge(m, seed):
    """m with a random non-unitary G_i and its inverse on every bond: the
    same operator in another gauge."""
    rng = np.random.default_rng(seed)
    sites = list(m.sites)
    for i in range(m.L - 1):
        b = sites[i].shape[3]
        g = np.eye(b) + 0.4 * rng.standard_normal((b, b))
        sites[i] = sites[i] @ g
        sites[i + 1] = np.einsum("ab,ojbc->ojac", np.linalg.inv(g), sites[i + 1])
    return mp.Mpo(tuple(sites), m.log_scale)


@pytest.mark.parametrize("dnew", [3, None])
@pytest.mark.parametrize("cplx", [False, True])
def test_start_overlaps_match_closing_passes(cplx, dnew):
    # the fit's start overlaps, read from its gauge pass over u, are the
    # closing passes' <u, a u> (a Lanczos step's alpha), <u, u> and
    # <u, u_prev>, whatever gauge u comes in; coefficients is called once
    # per fit
    a, u, u_prev, alpha = _lanczos_operands(cplx)
    starts = []

    def coefficients(start):
        starts.append(start)
        return [-alpha, -0.7]

    for v in (u, _in_gauge(u, 7)):
        assert np.linalg.norm(mp.dense(v) - mp.dense(u)) < 1e-12
        multiply_and_optimize(a, v, dnew, terms=[(None, v), (None, u_prev)],
                              coefficients=coefficients)
    assert len(starts) == 2
    for start in starts:
        (m_a, l_a), (m_u, l_u), (m_p, l_p) = start
        assert abs(m_a * math.exp(l_a) - alpha) <= 1e-13 * abs(alpha)
        assert abs(m_u * math.exp(l_u) - 1.0) <= 1e-13
        want = inner(u, u_prev)
        assert abs(m_p * math.exp(l_p) - want) <= 1e-13 * mp.frobenius_norm(u_prev)
        assert isinstance(m_a, float) == (not cplx)


def test_two_site_fits_judge_the_plateau_by_their_first_sweep():
    # on two sites, sweep 1's left-to-right half is a single solve and
    # gains nothing against itself: the plateau share is taken of what
    # the whole first sweep gained, so a capped fit stops on the first
    # right-to-left half that gains at most that share, after few sweeps
    from mpotrace import sweeping
    for seed in range(8):
        a, u = random_mpo(2, 2, seed), random_mpo(2, 2, 10 + seed)
        fit = multiply_and_optimize(a, u, 2, SweepOptions(max_sweeps=40), terms=[(0.5, u)])
        # three solves a sweep, and none grows: u has the output bond 2
        assert len(fit.objectives) == 3 * fit.sweeps and u.bond_dims() == [2]
        gains = [fit.objectives[s] - fit.objectives[s + 2] for s in range(0, len(fit.objectives), 3)]
        tol = max(sweeping._REL_TOL * mp.frobenius_norm(fit.mpo) ** 2,
                  sweeping._PLATEAU * gains[0])
        assert fit.converged and fit.sweeps <= 3, seed
        assert gains[-1] <= tol * (1 + 1e-9), seed
        assert all(g > tol * (1 - 1e-9) for g in gains[:-1]), seed


@pytest.mark.parametrize("cplx", [False, True])
def test_fit_overlaps_match_close_and_dense(cplx):
    # the fit's overlap with each product of its target, read from its last
    # local solve, against a closing pass over x (mp._close) and the dense
    # inner product: at a cap that truncates, and with a coefficient of 0,
    # whose product adds nothing to the target but keeps its overlap
    a, u, u_prev, alpha = _lanczos_operands(cplx)
    eye = mp.identity_mpo(5)
    operands = ((a, u), (eye, u), (eye, u_prev))
    products = [mp.dense(op) @ mp.dense(v) for op, v in operands]
    for coeffs in ((-alpha, -0.7), (0.0, -0.7), (-alpha, 0.0)):
        fit = multiply_and_optimize(a, u, 3, terms=[(coeffs[0], u), (coeffs[1], u_prev)])
        x = fit.mpo
        ref = products[0] + sum(c * p for c, p in zip(coeffs, products[1:]))
        assert np.linalg.norm(mp.dense(x) - ref) ** 2 > 1e-6 * np.linalg.norm(ref) ** 2
        assert len(fit.overlaps) == 3
        for (mant, log), (op, v), p in zip(fit.overlaps, operands, products):
            got = mant * math.exp(log)
            scale = mp.frobenius_norm(x) * np.linalg.norm(p)
            (want,), wlog = mp._close(mp._Target([(op.sites, v.sites)]), x.sites)
            want *= math.exp(wlog + x.log_scale + op.log_scale + v.log_scale)
            assert abs(got - want) <= 1e-12 * scale, coeffs
            assert abs(got - np.vdot(mp.dense(x), p)) <= 1e-12 * scale, coeffs
            assert isinstance(mant, float) == (not cplx)


def test_fused_fit_objectives_monotone():
    for seed in range(5):
        a = random_mpo(5, 4, seed)
        u, u_prev = random_mpo(5, 4, 50 + seed), random_mpo(5, 3, 70 + seed)
        fit = multiply_and_optimize(a, u, 3, SweepOptions(max_sweeps=5),
                                    terms=[(-0.8, u), (0.3, u_prev)])
        obj = fit.objectives
        scale = max(abs(obj[0]), 1.0)
        for j in range(1, len(obj)):
            assert obj[j] <= obj[j - 1] + 1e-12 * scale, (seed, j)


def test_capped_fit_stops_on_plateau(monkeypatch):
    # the noise floor out of reach: only the plateau rule can stop the sweeps
    from mpotrace import sweeping
    monkeypatch.setattr(sweeping, "_REL_TOL", 1e-300)
    opts = SweepOptions(max_sweeps=40)
    for seed in range(3):
        a, u = random_mpo(6, 4, seed), random_mpo(6, 4, 20 + seed)
        ref = mp.dense(a) @ mp.dense(u) - 0.5 * mp.dense(u)
        fit = multiply_and_optimize(a, u, 3, opts, terms=[(-0.5, u)])
        assert fit.converged and fit.sweeps < opts.max_sweeps, seed
        # the last sweep's right-to-left half lowered the objective by at
        # most 1e-2 of what sweep 1's left-to-right half did, and every
        # sweep before it by more; the residual it stopped on is far above
        # rounding
        gains, first_gain = _half_gains(fit.objectives, 6)
        assert len(gains) == fit.sweeps, seed
        assert gains[-1] <= 1e-2 * first_gain, seed
        assert all(g > 1e-2 * first_gain for g in gains[:-1]), seed
        assert _residual((np.linalg.norm(ref) ** 2, 0.0), fit.mpo) \
            > 1e-3 * mp.frobenius_norm(fit.mpo) ** 2, seed


def _half_gains(objectives, L):
    """The gain of every sweep's right-to-left half, from the end of its
    left-to-right pass (L - 1 updates) to its last solve at site 0, and
    the gain of sweep 1's left-to-right half."""
    per_sweep = 2 * L - 1
    sweeps = [objectives[s:s + per_sweep] for s in range(0, len(objectives), per_sweep)]
    return [sw[L - 2] - sw[-1] for sw in sweeps], objectives[0] - objectives[L - 2]


def test_capped_fits_sweep_while_the_second_half_gains():
    # random operators at a small cap: their fits keep sweeping while a
    # right-to-left half still gains more than the plateau share, and no
    # fit ends after one sweep that way
    from mpotrace import sweeping
    ones = 0
    for seed in range(12):
        a, u = random_mpo(6, 4, seed), random_mpo(6, 4, 40 + seed)
        fit = multiply_and_optimize(a, u, 3, SweepOptions(max_sweeps=40), terms=[(-0.5, u)])
        gains, first_gain = _half_gains(fit.objectives, 6)
        tol = max(sweeping._REL_TOL * mp.frobenius_norm(fit.mpo) ** 2,
                  sweeping._PLATEAU * first_gain)
        assert fit.converged and len(gains) == fit.sweeps, seed
        # the rule, sweep by sweep: it stops on the first half that gained
        # at most the plateau share (the norm's rounding aside)
        assert gains[-1] <= tol * (1 + 1e-9), seed
        assert all(g > tol * (1 - 1e-9) for g in gains[:-1]), seed
        ones += fit.sweeps == 1
    assert ones == 0


def test_fit_residual_is_exact_or_absent(thermal_cache, monkeypatch):
    # the Gibbs-state fit of `build-thermal --state full`, m m^H at m's own
    # bond cap 8: it truncates, and m^H already has the bonds it outputs,
    # so its sweeps grow nothing.  The fit reports no residual, only that
    # it truncated; ||t||^2 - ||x||^2 is the dense ||t - x||^2, and the
    # objective is -||x||^2
    grown = _growth(monkeypatch)
    m = thermal_cache(10, 1.0, 8, 0.01)[0]
    mh = mp.adjoint(m)
    ref = mp.dense(m) @ mp.dense(mh)
    fit = multiply_and_optimize(m, mh, 8)
    assert grown == []
    assert mh.bond_dims() == fit.mpo.bond_dims() == _output_bonds(m, mh, [], 8)
    assert fit.truncated
    dist2 = np.linalg.norm(mp.dense(fit.mpo) - ref) ** 2
    assert dist2 > 1e-9 * np.linalg.norm(ref) ** 2
    assert abs(_residual((np.linalg.norm(ref) ** 2, 0.0), fit.mpo) - dist2) <= 1e-6 * dist2
    assert fit.objectives[-1] == pytest.approx(-mp.frobenius_norm(fit.mpo) ** 2, rel=1e-12)


def test_lanczos_fits_know_their_target_norm(thermal_cache, monkeypatch):
    # The Lanczos steps of a thermal state at a cap far below their block
    # bonds.  global_lanczos forms ||t_k||^2 from the three-term expansion on a
    # compressed A^H A after each fit that truncates: it matches the dense
    # value, so the record's residual ||t_k||^2 - ||x||^2 is the dense
    # ||t - x||^2 wherever ||t||^2 stands clear of the expansion's rounding
    # floor, eps ||A U||^2.  Every fit outputs the bonds of the rule; one
    # whose U_k sits at the cap grows nothing, and one below it grows its
    # bonds in its first sweep.
    from mpotrace import lanczos as lz
    grown, steps, norms = _growth(monkeypatch), [], {}

    def checked(a, u, dnew, opts=None, terms=(), coefficients=None):
        grown.clear()
        given = []
        fit = multiply_and_optimize(a, u, dnew, opts, terms, noting(coefficients, given))
        assert fit.mpo.bond_dims() == _output_bonds(a, u, terms, dnew)
        # the coefficients the step read from the fit's start
        cs, = given
        terms = [(c, t) for c, (_, t) in zip(cs, terms)]
        au = mp.dense(a) @ mp.dense(u)
        ref = au + sum(c * mp.dense(t) for c, t in terms)
        steps.append((u.max_bond() == dnew, sum(grown), np.linalg.norm(au) ** 2,
                      np.linalg.norm(ref) ** 2, np.linalg.norm(mp.dense(fit.mpo) - ref) ** 2,
                      fit.truncated))
        return fit

    def noted_norm(*args, target_norm_sq=lz._target_norm_sq):
        # ||t_k||^2, formed after step k's fit
        norms[len(steps)] = target_norm_sq(*args)
        return norms[len(steps)]

    monkeypatch.setattr(lz, "multiply_and_optimize", checked)
    monkeypatch.setattr(lz, "_target_norm_sq", noted_norm)
    m = thermal_cache(8, 1.0, 20, 0.01)[0]
    _, run = lz.entropy_from_half_state(m, kmax=30, dmax=12)
    at_cap = [s for s in steps if s[0]]
    assert len(at_cap) >= 10 and len(steps) > len(at_cap) and len(steps) == len(run.records)
    assert sorted(norms) == [k for k, s in enumerate(steps, 1) if s[5]]
    for k, ((cap, columns, au2, t2, res, truncated), rec) in enumerate(zip(steps, run.records), 1):
        assert (columns == 0) == cap, k
        if not truncated:
            assert rec.fit_residual == 0.0, k
            continue
        known = norms[k][0] * math.exp(norms[k][1])
        assert abs(known - t2) <= 1e-12 * au2, k
        if t2 > 1e-6 * au2:
            assert abs(rec.fit_residual - res) <= 1e-8 * t2, k
    # the at-cap fits truncate: their residuals are far from 0
    assert all(s[5] for s in at_cap)
    assert max(s[4] / s[3] for s in at_cap) > 0.1


def test_product_measures_its_cut_unless_the_fit_truncates(thermal_cache):
    # x @ y at caps around the block bond, the largest product of the
    # operands' bonds: below it the fit truncates and the product reports
    # no weight; at it, and uncapped, the product is the fit cut to its
    # numerical rank (mp.truncate_svd at the cap), and reports that cut's
    # weight, the relative distance to the exact product
    m = thermal_cache(6, 1.0, 20, 0.01)[0]
    block = max(b * b for b in m.bond_dims())
    ref = mp.dense(m) @ mp.dense(m)
    for cap in (block - 1, block, None):
        out, disc = product(m, m, cap)
        fit = multiply_and_optimize(m, m, cap)
        assert (disc is None) == fit.truncated == (cap == block - 1), cap
        cut, weight = mp.truncate_svd(fit.mpo, cap)
        assert [np.array_equal(s, t) for s, t in zip(out.sites, cut.sites)] == [True] * 6
        assert out.max_bond() <= fit.mpo.max_bond()
        if disc is not None:
            assert disc == weight, cap
            rel = np.linalg.norm(mp.dense(out) - ref) / np.linalg.norm(ref)
            assert abs(rel - disc) <= 1e-12, cap


def test_product_raises_where_it_vanishes():
    # a product of nonzero operators that comes back as the zero operator:
    # the unit-norm identities of 1100 sites, whose product's squared norm
    # 2^-1100 underflows inside the fit, and an exactly vanishing product,
    # |0><0| @ |1><1| on site 0
    eye = mp.identity_mpo(1100)
    with pytest.raises(NumericError, match="L <= 1023"):
        product(mp.shift_log_scale(eye, -eye.ln_norm), mp.shift_log_scale(eye, -eye.ln_norm), 4)
    up, down = (mp.Mpo((np.diag(v).reshape(2, 2, 1, 1),) + mp.identity_mpo(4).sites[1:])
                for v in ([1.0, 0.0], [0.0, 1.0]))
    assert mp.log_norm(up) > -math.inf and mp.log_norm(down) > -math.inf
    with pytest.raises(NumericError):
        product(up, down, 4)
    # a zero operand gives the zero operator
    out, disc = product(up, mp.zero_mpo(4), 4)
    assert mp.log_norm(out) == -math.inf and disc == 0.0


@pytest.mark.parametrize("cplx", [False, True])
def test_target_mirror_matches_forward(cplx):
    # a target with carried terms, as a Lanczos step fits it, and a trial
    # operator at a smaller bond
    from mpotrace.mpo import _flip, _Target
    a, u, u_prev, x = (random_mpo(5, 3, 1), random_mpo(5, 4, 2), random_mpo(5, 2, 3),
                       random_mpo(5, 3, 4))
    if not cplx:
        a, u, u_prev, x = map(real_part, (a, u, u_prev, x))
    # the carried terms as a fit holds them: the identity, None, times
    # their blocks, with their coefficients as weights
    products = [(list(a.sites), list(u.sites)), (None, list(u.sites)), (None, list(u_prev.sites))]
    target = _Target(products, [1.0, -0.8, 0.3])
    eye = [np.eye(2).reshape(2, 2, 1, 1)] * 5
    mirror = target.mirrored()
    back = _flip(list(x.sites))
    # fwd[i]: environment of sites 0..i-1; bwd[j]: the mirror's of its
    # first j sites, forward sites 5-j..4
    fwd, bwd = [target.boundary()], [target.boundary()]
    for i in range(5):
        fwd.append(target.env(i, target.half(i, fwd[i]), x.sites[i]))
        bwd.append(mirror.env(i, mirror.half(i, bwd[i]), back[i]))
    # <x, target> closes the same from either end
    assert abs(sum(e.item() for e in fwd[5]) - sum(e.item() for e in bwd[5])) < 1e-12
    # the mirror's left environments are the forward right environments:
    # a plain einsum of x^*, a_k, u_k and the next one, from the right end
    ref = target.boundary()
    for i in range(4, -1, -1):
        ref = [np.einsum("ojxy,ocab,cjuv,ybv->xau", x.sites[i].conj(), (ak or eye)[i], uk[i], f)
               for (ak, uk), f in zip(products, ref)]
        for got, want in zip(bwd[5 - i], ref):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), i
    # the mirror's local is the forward one with the bond legs swapped
    for i in range(5):
        local = target.local(i, target.parts(target.half(i, fwd[i]), bwd[4 - i]))
        flipped = mirror.local(4 - i, mirror.parts(mirror.half(4 - i, bwd[4 - i]), fwd[i]))
        assert np.linalg.norm(flipped - local.transpose(0, 1, 3, 2)) <= 1e-12 * np.linalg.norm(
            local), i
    # the fit built on it still never raises its objective between updates
    fit = multiply_and_optimize(a, u, 3, SweepOptions(max_sweeps=5),
                                terms=[(-0.8, u), (0.3, u_prev)])
    obj = fit.objectives
    for j in range(1, len(obj)):
        assert obj[j] <= obj[j - 1] + 1e-12 * max(abs(obj[0]), 1.0), j


def _gauged(sites, seed, unitary=False):
    """The same chain in another gauge: a random invertible matrix on the
    right bond of every site but the last, its inverse on the next left
    bond.  With `unitary`, the matrix is a random rotation of the bond
    basis, complex for complex sites."""
    rng = np.random.default_rng(seed)
    sites = list(sites)
    for i in range(len(sites) - 1):
        dr = sites[i].shape[3]
        g = np.eye(dr) + 0.3 * rng.standard_normal((dr, dr))
        if unitary:
            if np.iscomplexobj(sites[i]):
                g = g + 1j * rng.standard_normal((dr, dr))
            g = np.linalg.qr(g)[0]
        sites[i] = sites[i] @ g
        sites[i + 1] = np.einsum("ab,ojbc->ojac", np.linalg.inv(g), sites[i + 1])
    return sites


@pytest.mark.parametrize("cplx", [False, True])
def test_sweeps_gauge_their_start(cplx, monkeypatch):
    # the sweeps take their start in any gauge: a start with a random
    # gauge on every bond gives the fit of the start itself.  At the cap,
    # bond 3, the start is u.  A bond-2 start grows its bonds in the first
    # sweep, from singular vectors of the half-contractions, which turn
    # with the bond basis: in a random unitary gauge it gives the same fit
    grown = _growth(monkeypatch)
    a, u, u_prev, alpha = _lanczos_operands(cplx)
    small = random_mpo(5, 2, 8) if cplx else real_part(random_mpo(5, 2, 8))
    for start in (u, small):
        terms = [(-alpha, start), (-0.7, u_prev)]
        ref = mp.dense(a) @ mp.dense(start) + sum(c * mp.dense(t) for c, t in terms)
        grown.clear()
        plain = multiply_and_optimize(a, start, 3, terms=terms)
        assert (sum(grown) > 0) == (start is small)
        gauged = mp.Mpo(tuple(_gauged(start.sites, 7, unitary=start is small)), start.log_scale)
        moved = multiply_and_optimize(a, gauged, 3, terms=terms)
        want = mp.dense(plain.mpo)
        # the fits truncate
        assert np.linalg.norm(want - ref) ** 2 > 1e-6 * np.linalg.norm(ref) ** 2
        dist = np.linalg.norm(mp.dense(moved.mpo) - want)
        assert dist <= 1e-12 * np.linalg.norm(want), (start.max_bond(), dist)
        assert moved.sweeps == plain.sweeps and moved.mpo.bond_dims() == plain.mpo.bond_dims()


@pytest.mark.parametrize("cplx", [False, True])
def test_capped_fit_output_is_canonical(cplx):
    # a fit returns canonicalize's form, from a start at the cap (u) and
    # from one that grows (bond 2): a unit center at site 0,
    # right-isometries after it, and its norm in log_scale, equal to
    # ln_norm.  So the balancing step hands back its own sites
    a, u, u_prev, alpha = _lanczos_operands(cplx)
    small = random_mpo(5, 2, 8) if cplx else real_part(random_mpo(5, 2, 8))
    for start in (u, small):
        fit = multiply_and_optimize(a, start, 3, terms=[(-alpha, start), (-0.7, u_prev)])
        x = fit.mpo
        assert fit.truncated and x.dtype == a.dtype
        assert x.log_scale == x.ln_norm
        assert abs(np.linalg.norm(x.sites[0]) - 1.0) < 1e-14
        for i, s in enumerate(x.sites[1:], 1):
            d1, d2, dl, dr = s.shape
            mat = s.transpose(2, 0, 1, 3).reshape(dl, d1 * d2 * dr)
            assert np.linalg.norm(mat @ mat.conj().T - np.eye(dl)) < 1e-12, i
        assert abs(mp.log_norm(mp.Mpo(x.sites, x.log_scale)) - x.ln_norm) < 1e-12
        sites, ln = mp._unit_sites(x)
        assert ln == x.ln_norm and all(s is t for s, t in zip(sites, x.sites))


def test_fit_holds_one_environment_set_and_one_site_set():
    # the tracemalloc peak of one capped three-product fit, as a Lanczos
    # step makes it on canonical operands, against a bound from the
    # shapes: one environment per site for each product, one site set of
    # the output, and four half-contractions of the largest site for the
    # temporaries of one site update
    import tracemalloc
    L, D, d, item = 40, 16, 2, 8
    a, u, u_prev = (mp.canonicalize(mp.truncate_svd(real_part(random_mpo(L, D, s)))[0])
                    for s in range(3))
    terms = [(-0.4, u), (0.3, u_prev)]
    bx = [1] + _output_bonds(a, u, terms, D) + [1]
    ba, bu, bp = ([1] + m.bond_dims() + [1] for m in (a, u, u_prev))
    # (x, a, u) for the fit's own product, (x, u) and (x, u_prev) for the terms
    per_bond = [ba[i] * bu[i] + bu[i] + bp[i] for i in range(L + 1)]
    envs = sum(bx[i] * per_bond[i] for i in range(1, L)) * item
    sites = sum(d * d * bx[i] * bx[i + 1] for i in range(L)) * item
    half = max(bx[i] * d * d * per_bond[i + 1] for i in range(L)) * item
    tracemalloc.start()
    try:
        fit = multiply_and_optimize(a, u, D, terms=terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.truncated and fit.mpo.bond_dims() == bx[1:-1]
    assert peak < envs + sites + 4 * half, (peak, envs, sites, half)

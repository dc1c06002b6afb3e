"""Variational compression of an MPO product plus a linear combination.

`multiply_and_optimize` fits an MPO with capped bonds to the target
a@u + sum_k c_k t_k.  A Lanczos step is one such fit: A U_k - alpha U_k
- beta U_{k-1}.  The target is held as one list of operator products
and their weights: the fit's own (a, u), and the identity times t_k,
(None, t_k), with weight c_k for each carried term.  The weights enter
only where the products' parts are summed, so each product's part, and
its overlap with the fit, survives a weight of 0.  Every contraction here
runs through the package's one kernel, mp._Target: both halves of a
sweep, and `expectation`, which closes <u, a u> in log form (mp._close).

A caller that knows ||target||^2 passes it (a Lanczos step computes it
from a compressed A^H A, see lanczos.global_lanczos).  It offsets the
objectives and turns the fit's ||x||^2 into the exact residual
||target||^2 - ||x||^2 at every bond; a fit that truncates and is not
given it reports no residual.

Every fit starts from u.  Its output bonds are the cap, clipped by the
block bond and by the chain's natural limits; a u with a bond above them
is truncated to the cap first (mp.truncate_svd).  A bond of the start
below its output bond grows inside the first left-to-right pass, as
single-site DMRG's subspace expansion does: the products'
half-contractions at that site, weighted and side by side, with the
solved site's span projected out, give the new directions, their leading
left singular vectors (`_grow`).  They turn with any unitary change of a
bond basis, so the growth does not depend on the orthonormal basis that
rounding picked.  A start that already has its output bonds grows
nothing, and its pass is the pass of every later sweep.

The sweeps are alternating least squares (`_run_sweeps`): the trial
operator is kept in mixed-canonical gauge, so each local problem is
solved exactly by a plain environment contraction, and the squared
Frobenius objective never increases from one site update to the next.
They take their start in any gauge.  The kernel contracts left to right
only: the right-to-left half of a sweep, and the sweeps' gauge pass over
their start, are left-to-right passes over the mirrored chain and
target, whose left environments are the forward right environments.
A complete cancellation is judged once, after the sweeps.  Each site update
forms one half-contraction, the left environment absorbed into the
products' sites, and hands it to both the local tensor and the next
environment.  The plateau is judged at half-sweep granularity: the
sweeps stop after a sweep whose right-to-left half lowered the objective
by no more than _REL_TOL of the fit's own ||x||^2 after its first sweep,
or by no more than a fixed share of what the first sweep's left-to-right
half lowered it by (the truncation plateau of a capped fit).  A growing
first pass ends with a local solve at site L-1, so that its half counts
the growth of the last bond.  A fit whose first half-sweep already
reaches the plateau, as a Lanczos step's does on a thermal state, ends
after one sweep; random operators at a small cap go on sweeping.  Both
gains are differences of objectives, from which ||target||^2 cancels, so
the rule does not need it.

The sweeps end on an exact local solve at site 0, with every other site
isometric.  There the fit's overlap with each product of its target is
the inner product of the center with that product's part, so the fit
returns <x, a@u> and <x, t_k> at no cost (`SweepResult.overlaps`): the
next Lanczos step takes its ||t_k||^2 overlaps and the drift of its
blocks from them.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from . import mpo as mp
from . import tensors

# a sweep that lowers the objective by at most this share of the fit's
# ||x||^2 after its first sweep has converged
_REL_TOL = 1e-9
# a sweep that lowers the objective by at most this share of what the
# first sweep lowered it by has reached the truncation plateau
_PLATEAU = 1e-2
# a target whose squared norm is at most this share of its parts' squared
# scale has cancelled completely: the zero operator is the exact optimum
_CANCELLED = 1e-28


@dataclass
class SweepOptions:
    """Knobs for the alternating sweeps."""

    max_sweeps: int = 8

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass
class SweepResult:
    """Outcome of a variational fit.

    `converged` is true when the objective stopped moving before
    `max_sweeps` (or the fit needed no sweeps), `sweeps` counts the ALS
    sweeps run, and `objectives` is the squared-distance objective after
    every site update, ||target||^2 - ||x||^2, or -||x||^2 when the caller
    did not pass ||target||^2.  `residual` is the squared distance to the
    target: 0 when the cap truncates nothing, else the last objective,
    floored at 0, and NaN when that objective lacks ||target||^2.
    `overlaps` holds <x, a@u> and then <x, t_k> per term, each in log form
    (mantissa, log): the fit's overlap with each product of its target,
    without the product's coefficient, exact also for a coefficient of 0.
    `sweep_ms` is the fit's wall time, its start and the sweeps' gauge
    pass over it included.
    """

    mpo: mp.Mpo
    residual: float
    converged: bool
    sweeps: int = 0
    objectives: list = field(default_factory=list)
    overlaps: list = field(default_factory=list)
    sweep_ms: float = 0.0


def _pass(target, lenvs, renvs, sites, norm_sq: float, objectives: list, bonds=None) -> None:
    """One left-to-right pass of local solves over sites 0..L-2 of
    target's chain, in place.  lenvs[i] is the environment left of site
    i, renvs[j] the one right of site L-1-j (lenvs of the mirrored
    target); each solved site is split into an isometry, sites[i], and the
    environment right of it, lenvs[i + 1].  Given `bonds`, the output bond
    right of every site, an isometry with fewer columns grows towards it
    (`_grow`), and a pass that grew a bond ends with the local solve at
    site L-1, whose objective counts the growth of the last bond."""
    L = len(sites)
    grew = False
    for i in range(L - 1):
        half = target.half(i, lenvs[i])
        t = target.local(i, target.parts(half, renvs[L - 1 - i]))
        objectives.append(norm_sq - float(np.vdot(t, t).real))
        q, _ = mp._split_left(t)
        if bonds is not None and q.shape[3] < bonds[i]:
            b = q.shape[3]
            q = _grow(target, i, half, q, bonds[i])
            grew = grew or q.shape[3] > b
        sites[i] = q
        lenvs[i + 1] = target.env(i, half, q)
        # drop it before the next site forms its own: two are never held
        del half
    if grew:
        t = target.local(L - 1, target.parts(target.half(L - 1, lenvs[L - 1]), renvs[0]))
        objectives.append(norm_sq - float(np.vdot(t, t).real))


def _grow(target, i, half, q, bond: int):
    """The isometry q at site i with at most bond - b columns appended, b
    being its own: the leading left singular vectors of the products'
    weighted half-contractions, side by side, with q's span projected out.
    Of those, it keeps the ones the package's keep rule (mp.TRUNC_EPS)
    keeps when the dropped tail is measured against the half-contractions'
    whole squared weight, so that directions at rounding level stay out."""
    h = np.concatenate([w * p for w, p in zip(target.w, half)], axis=1)
    o, j, lx, b = q.shape
    # q in the parts' layout
    qm = q.transpose(2, 1, 0, 3).reshape(lx * j * o, b)
    left, s = tensors.svd(h - qm @ (qm.conj().T @ h))
    tail2 = np.cumsum((s * s)[::-1])[::-1]  # tail2[k] = sum of s[k:]**2
    budget = mp.TRUNC_EPS * mp.TRUNC_EPS * float(np.vdot(h, h).real)
    keep = min(int(np.count_nonzero(tail2 > budget)), bond - b)
    if keep == 0:
        return q
    return target.site(i, np.concatenate([qm, left[:, :keep]], axis=1))


def _run_sweeps(x_sites, target, norm_sq: float, opts: SweepOptions, bonds: list):
    """Alternate local solves over the chain; x_sites is modified in place.

    x_sites is the start, in any gauge: the pass that closes the right
    environments runs over the mirrored chain and QR-splits each site
    before it closes that site's environment (mp._move_center), so the
    start is right-canonical from site 1 on; its center, site 0, is never
    read, because the first local solve overwrites it.  A sweep is a
    left-to-right pass over the target and one over its mirror, which is
    the right-to-left pass of the chain, and a last solve at site 0.
    Sweep 1's left-to-right pass grows the start's bonds below the output
    bonds, `bonds` (`_pass`).  Returns (objectives, converged, sweeps run, parts), parts being the
    products' unweighted parts at that last solve.  The objective after a
    site update is norm_sq - |center|^2, which is exact given exact
    environments because the local optimum equals the environment tensor.
    It is a difference of nearly equal numbers, so for an exact fit it
    rounds to either sign; convergence is therefore judged only by
    changes of the objective, never by its own size, at half-sweep
    granularity: the sweeps stop after a sweep whose right-to-left half
    (from the end of its left-to-right pass to the last solve at site 0)
    lowered the objective by at most _REL_TOL of |center|^2 after the
    first sweep, or by at most _PLATEAU of what the first sweep's
    left-to-right half lowered it by (the fit sits on its truncation
    plateau).  So a fit whose first half-sweep already reached the
    plateau stops after one sweep.  norm_sq, 0 when the caller does not
    know it, cancels from every gain.
    """
    L = len(x_sites)
    mirror = target.mirrored()
    # fwd[i]: environment of sites 0..i-1; bwd[j]: of sites L-j..L-1,
    # which is the mirror's left environment of its first j sites
    fwd, bwd = [target.boundary()] + [None] * L, [target.boundary()] + [None] * L
    back = mp._flip(x_sites)
    # the sweeps write every site before they read it: drop the start's,
    # and each isometry once its environment is closed
    x_sites[:] = [None] * L
    for j in range(L - 1):
        mp._move_center(back, j)
        bwd[j + 1] = mirror.env(j, mirror.half(j, bwd[j]), back[j])
        back[j] = None
    objectives = []
    converged = False
    for sweeps in range(1, opts.max_sweeps + 1):
        _pass(target, fwd, bwd, x_sites, norm_sq, objectives, bonds if sweeps == 1 else None)
        # the objective where the right-to-left half starts; a one-site
        # chain has no pass, and its one solve is compared across sweeps
        mid = objectives[-1] if objectives else math.inf
        _pass(mirror, bwd, fwd, back, norm_sq, objectives)
        parts = target.parts(target.half(0, fwd[0]), bwd[L - 1])
        t = target.local(0, parts)
        x_sites[0] = t
        xsq = float(np.vdot(t, t).real)
        obj = norm_sq - xsq
        objectives.append(obj)
        if sweeps == 1:
            tol = max(_REL_TOL * xsq, _PLATEAU * (objectives[0] - mid))
        if mid - obj <= tol:
            converged = True
            break
    # the mirror pass wrote sites 1..L-1 last
    x_sites[1:] = mp._flip(back)[1:]
    return objectives, converged, sweeps, parts


def _fit_result(x_sites, ls: float, truncated: bool, known: bool, objectives, converged: bool,
                sweeps: int, overlaps: list, sweep_ms: float) -> SweepResult:
    """Package the swept sites with the output scale exp(ls).  The sweeps
    end with site 0 as the orthogonality center and every other site
    isometric, so ln||x|| is ls plus ln of the center's Frobenius norm.
    A fit whose cap truncates nothing reproduces its target, and its last
    objective is rounding noise of either sign, so its residual reads 0.
    One that truncates has a residual only when ||target||^2 is known."""
    nsq = float(np.vdot(x_sites[0], x_sites[0]).real)
    x = mp.Mpo(tuple(x_sites), ls, ls + 0.5 * math.log(nsq) if nsq > 0 else -math.inf)
    if not truncated:
        residual = 0.0
    elif known:
        residual = mp._scaled(max(objectives[-1], 0.0), 2.0 * ls)
    else:
        residual = math.nan
    return SweepResult(
        mpo=x,
        residual=residual,
        converged=converged,
        sweeps=sweeps,
        objectives=[mp._scaled(o, 2.0 * ls) for o in objectives],
        overlaps=overlaps,
        sweep_ms=sweep_ms,
    )


def _zero_result(L: int, d: int, products: int, residual: float = 0.0,
                 sweep_ms: float = 0.0) -> SweepResult:
    return SweepResult(mpo=mp.zero_mpo(L, d), residual=residual, converged=True,
                       objectives=[residual], overlaps=[(0.0, -math.inf)] * products,
                       sweep_ms=sweep_ms)


def expectation(a: mp.Mpo, u: mp.Mpo) -> tuple[complex, float]:
    """<u, a@u> = tr(u^H a u), closed over x = u by the package's one
    kernel (mp._close), as (mantissa, log): value = mantissa * exp(log).
    The mantissa is a float when a and u are real; real up to rounding for
    any u when a is Hermitian."""
    mp._check_compatible(a, u)
    (mant,), log = mp._close(mp._Target([(a.sites, u.sites)]), u.sites)
    return mant, log + a.log_scale + 2.0 * u.log_scale


def multiply_and_optimize(a: mp.Mpo, u: mp.Mpo, dnew: int | None, opts: SweepOptions | None = None,
                          terms=(), norm_sq: tuple[float, float] | None = None) -> SweepResult:
    """Best bond-dnew approximation of a @ u + sum_k c_k * t_k.

    `terms` is a sequence of (c_k, Mpo) pairs; the default () fits the
    plain product.  `norm_sq` is the target's squared norm when the caller
    knows it, in log form (mantissa, log): value = mantissa * exp(log).
    The sweeps start from u and grow its bonds below the ones the fit
    outputs in their first pass (see the module docstring).  Returns a
    SweepResult whose residual is the final squared Frobenius distance,
    exact at every bond given norm_sq and NaN without it when the cap
    truncates.  With dnew at least the exact bond (D_a * D_u plus the
    terms' bonds) the fit reproduces the exact operator to numerical
    precision.  Its `overlaps` come free from the last local solve, at
    site 0 with every other site isometric: there <x, product> is the
    inner product of the center with the product's part.
    """
    opts = opts or SweepOptions()
    terms = list(terms)
    for op in [u] + [t for _, t in terms]:
        mp._check_compatible(a, op)
    if dnew is not None and dnew < 1:
        raise DimensionError("dnew must be >= 1")
    L, d = a.L, a.d
    t0 = time.perf_counter()
    # the target is a list of products: (a, u), and (None, t_k) per term,
    # the identity times t_k, with weight c_k.  Work with unit-norm
    # operands; every product's true magnitude, rebased onto the largest
    # one, is its weight, and that common scale rides on the output
    # log_scale, so nothing downstream sees compounded scales
    eye = (None, 0.0)
    factors = [(1.0, mp._unit_sites(a), mp._unit_sites(u))] + [
        (c, eye, mp._unit_sites(t)) for c, t in terms]
    log_mags = [la + lu + math.log(abs(c)) if c != 0 else -math.inf
                for c, (_, la), (_, lu) in factors]
    ls = max(log_mags)
    if ls == -math.inf:
        return _zero_result(L, d, len(factors))
    weights = [c / abs(c) * math.exp(lm - ls) if lm != -math.inf else 0.0
               for (c, _, _), lm in zip(factors, log_mags)]
    target = mp._Target([(a_sites, u_sites) for _, (a_sites, _), (u_sites, _) in factors],
                        weights)
    blocks = [sum(target.bonds(i)) for i in range(L - 1)]
    exact_bond = max(blocks, default=1)
    cap = exact_bond if dnew is None else min(dnew, exact_bond)
    # the bonds the fit outputs: the cap, clipped by the block bond and by
    # the chain's natural limit, d^2 per site from either end
    bonds = [min(cap, b, (d * d) ** min(i + 1, L - 1 - i)) for i, b in enumerate(blocks)]
    # the sweeps start from u, truncated where it exceeds those bonds
    if all(b <= c for b, c in zip(u.bond_dims(), bonds)):
        x_sites = list(target.u[0])
    else:
        x_sites = list(mp.truncate_svd(u, cap)[0].sites)
    # the objectives' offset: the known ||target||^2 on the fit's scale
    offset = 0.0 if norm_sq is None else mp._scaled(norm_sq[0], norm_sq[1] - 2.0 * ls)
    objectives, converged, sweeps, parts = _run_sweeps(x_sites, target, offset, opts, bonds)
    sweep_ms = (time.perf_counter() - t0) * 1e3
    # a complete cancellation is judged once, by the norm of the result
    # against the squared sum of the weighted parts' norms: a known norm's
    # rounding floor, eps * ||a u||^2, lies far above the threshold.  The
    # zero operator's residual is ||target||^2 itself, 0 to rounding when
    # it is not known
    scale_sq = sum(abs(w) * math.sqrt(float(np.vdot(p, p).real))
                   for w, p in zip(weights, parts)) ** 2
    if float(np.vdot(x_sites[0], x_sites[0]).real) <= _CANCELLED * scale_sq:
        return _zero_result(L, d, len(parts), mp._scaled(max(offset, 0.0), 2.0 * ls), sweep_ms)
    # the center in the parts' layout; each overlap on the true scales of
    # x and of the product's operands
    center = x_sites[0].transpose(2, 1, 0, 3).reshape(parts[0].shape)
    overlaps = [(np.vdot(center, p).item(), ls + la + lu)
                for p, (_, (_, la), (_, lu)) in zip(parts, factors)]
    return _fit_result(x_sites, ls, cap < exact_bond, norm_sq is not None, objectives, converged,
                       sweeps, overlaps, sweep_ms)

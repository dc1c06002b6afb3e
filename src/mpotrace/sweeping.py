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

The fit returns what it alone knows, and whether its cap truncates
(`SweepResult.truncated`).  Its last local solve leaves x the projection
of the target, so a caller that knows ||target||^2 has the residual
||target||^2 - ||x||^2 (lanczos.global_lanczos).  A Lanczos step knows
its c_k only once it knows alpha_k = <U_k, A U_k>, so it passes a
function of the start's overlaps (`coefficients`).  Plain products go
through `product`.

Every fit starts from u.  Its output bonds are the cap, clipped by the
block bond and by the chain's natural limits; a u with a bond above them
is truncated to the cap first (mp.truncate_svd).  A bond of the start
below its output bond grows inside the first left-to-right pass, as
single-site DMRG's subspace expansion does: the products'
half-contractions at that site, weighted and side by side, with the
solved site's span projected out, give the new directions, their leading
left singular vectors, as many as the package's one keep rule
(mp._truncation_rank) keeps against the half-contractions' whole weight
(`_grow`).  They turn with any unitary change of a bond basis, so the
growth does not depend on the orthonormal basis that rounding picked.  A
start that already has its output bonds grows nothing, and its pass is
the pass of every later sweep.

The sweeps are alternating least squares (`_run_sweeps`): the trial
operator is kept in mixed-canonical gauge, so each local problem is
solved exactly by a plain environment contraction, and the squared
Frobenius objective never increases from one site update to the next.
They take their start in any gauge.  The kernel contracts left to right
only: the right-to-left half of a sweep, and the sweeps' gauge pass over
their start, are left-to-right passes over the mirrored chain and
target, whose left environments are the forward right environments.
A target that vanishes, by cancellation or through a zero operand, is
judged once, after the sweeps, by the same keep rule's budget, and leaves
by one exit, the zero operator.  Each site update
forms one half-contraction, the left environment absorbed into the
products' sites, and hands it to both the local tensor and the next
environment.  The sweeps stop on a plateau rule judged at half-sweep
granularity (`_run_sweeps`): a fit whose first half-sweep already
reaches the plateau, as a Lanczos step's does on a thermal state, ends
after one sweep; random operators at a small cap go on sweeping.

The gauge pass leaves the start, and the sweeps' last exact solve
leaves x, with the center at site 0 and every other site isometric.
There the overlap with each product of the target is the inner product
of the center with the product's part: a Lanczos step reads its
alpha_k = <u, a@u> from the start's before any local solve, and the
next step its ||t_k||^2 overlaps and the drift of its blocks from the
fit's (`SweepResult.overlaps`).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError
from . import mpo as mp
from . import tensors

# a sweep that lowers the objective by at most this share of the fit's
# ||x||^2 after its first sweep has converged
_REL_TOL = 1e-9
# a sweep that lowers the objective by at most this share of what the
# first sweep lowered it by has reached the truncation plateau
_PLATEAU = 1e-2


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
    sweeps run, and `objectives` is -||x||^2 after every local solve: the
    squared distance to the target less ||target||^2.  `truncated` is true
    when the cap lies below the target's exact bond; a fit that is not
    truncated reproduces its target.  `overlaps` holds <x, a@u> and then
    <x, t_k> per term, each in log form (mantissa, log): the fit's overlap
    with each product of its target, without the product's coefficient,
    exact also for a coefficient of 0.
    `sweep_ms` is the fit's wall time, its start and the sweeps' gauge
    pass over it included.
    """

    mpo: mp.Mpo
    truncated: bool
    converged: bool
    sweeps: int = 0
    objectives: list = field(default_factory=list)
    overlaps: list = field(default_factory=list)
    sweep_ms: float = 0.0


def _pass(target, lenvs, renvs, sites, objectives: list, bonds=None) -> None:
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
        objectives.append(-float(np.vdot(t, t).real))
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
        objectives.append(-float(np.vdot(t, t).real))


def _grow(target, i, half, q, bond: int):
    """The isometry q at site i with at most bond - b columns appended, b
    being its own: the leading left singular vectors of the products'
    weighted half-contractions, side by side, with q's span projected out.
    Of those, it keeps the ones the package's keep rule
    (mp._truncation_rank) keeps when the dropped tail is measured against
    the half-contractions' whole squared weight ||H||^2, so that
    directions at rounding level stay out, and all-zero halves add none."""
    h = np.concatenate([w * p for w, p in zip(target.w, half)], axis=1)
    o, j, lx, b = q.shape
    # q in the parts' layout
    qm = q.transpose(2, 1, 0, 3).reshape(lx * j * o, b)
    left, s = tensors.svd(h - qm @ (qm.conj().T @ h))
    keep, _ = mp._truncation_rank(s, bond - b, float(np.vdot(h, h).real))
    if keep == 0:
        return q
    return target.site(i, np.concatenate([qm, left[:, :keep]], axis=1))


def _run_sweeps(x_sites, target, weigh, opts: SweepOptions, bonds: list):
    """Alternate local solves over the chain; x_sites is modified in place.

    x_sites is the start, in any gauge: the gauge pass closes the right
    environments over the mirrored chain and QR-splits each site before
    it closes that site's environment (mp._move_center).  weigh(overlaps)
    gets the start's overlap with each product, its center at site 0
    against the products' parts, and returns the weights before the
    first local solve.  A sweep is a left-to-right pass over the target,
    one over its mirror (the chain's right-to-left pass), and
    a last solve at site 0; sweep 1's first pass grows the start's bonds
    below `bonds` (`_pass`).  Returns (objectives, converged, sweeps run,
    parts), parts being the products' unweighted parts at that last solve.
    The objective after a site update, -|center|^2, is the squared
    distance to the target less ||target||^2, so only its changes are
    judged, at half-sweep granularity: the sweeps stop after a sweep
    whose right-to-left half (from the end of its
    left-to-right pass to the last solve at site 0) lowered it by at most
    _REL_TOL of |center|^2 after the first sweep, or by at most _PLATEAU
    of what sweep 1's left-to-right half lowered it by (the truncation
    plateau), or of what all of sweep 1 did where that half is one solve
    (two sites, no growth).
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
    parts = target.parts(target.half(0, fwd[0]), bwd[L - 1])
    center = mp._flip(back[L - 1:])[0].transpose(2, 1, 0, 3).reshape(parts[0].shape)
    target.w = weigh([np.vdot(center, p).item() for p in parts])
    mirror.w = target.w
    objectives = []
    converged = False
    for sweeps in range(1, opts.max_sweeps + 1):
        _pass(target, fwd, bwd, x_sites, objectives, bonds if sweeps == 1 else None)
        # the objective where the right-to-left half starts; a one-site
        # chain has no pass, and its one solve is compared across sweeps
        mid = objectives[-1] if objectives else math.inf
        _pass(mirror, bwd, fwd, back, objectives)
        parts = target.parts(target.half(0, fwd[0]), bwd[L - 1])
        t = target.local(0, parts)
        x_sites[0] = t
        xsq = float(np.vdot(t, t).real)
        obj = -xsq
        objectives.append(obj)
        if sweeps == 1:
            # sweep 1's left-to-right half made len(objectives) - L solves
            gain = objectives[0] - (obj if len(objectives) == L + 1 else mid)
            tol = max(_REL_TOL * xsq, _PLATEAU * gain)
        if mid - obj <= tol:
            converged = True
            break
    # the mirror pass wrote sites 1..L-1 last
    x_sites[1:] = mp._flip(back)[1:]
    return objectives, converged, sweeps, parts


def expectation(a: mp.Mpo, u: mp.Mpo) -> tuple[complex, float]:
    """<u, a@u> = tr(u^H a u), closed over x = u by the package's one
    kernel (mp._close), as (mantissa, log): value = mantissa * exp(log).
    The mantissa is a float when a and u are real; real up to rounding for
    any u when a is Hermitian."""
    mp._check_compatible(a, u)
    (mant,), log = mp._close(mp._Target([(a.sites, u.sites)]), u.sites)
    return mant, log + a.log_scale + 2.0 * u.log_scale


def multiply_and_optimize(a: mp.Mpo, u: mp.Mpo, dnew: int | None, opts: SweepOptions | None = None,
                          terms=(), coefficients=None) -> SweepResult:
    """Best bond-dnew approximation of a @ u + sum_k c_k * t_k.

    `terms` is a sequence of (c_k, Mpo) pairs; the default () fits the
    plain product.  `coefficients`, given, replaces the c_k (each then
    None): called once before any local solve with the start's overlaps,
    <x0, a@u> and <x0, t_k> per term in log form (mantissa, log): value =
    mantissa * exp(log), it returns the c_k.  The start x0 is u, truncated
    first where its bonds exceed the ones the fit outputs; the sweeps grow
    those below them (see the module docstring).  With dnew at least the
    exact bond (D_a * D_u plus the terms' bonds) the fit is not
    `truncated` and reproduces the exact operator to numerical precision.
    Its `overlaps` come free from the last local solve.  A target that
    vanishes, a zero operand's too, leaves by one exit: the zero operator.
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
    # the identity times t_k, on unit-norm operands; each product's true
    # magnitude, its coefficient's included, rebased onto the largest one,
    # is its weight, and that common scale rides on the output log_scale
    factors = [(mp._unit_sites(a), mp._unit_sites(u))] + [
        ((None, 0.0), mp._unit_sites(t)) for _, t in terms]
    logs = [la + lu for (_, la), (_, lu) in factors]
    target = mp._Target([(a_sites, u_sites) for (a_sites, _), (u_sites, _) in factors])
    blocks = [sum(target.bonds(i)) for i in range(L - 1)]
    exact_bond = max(blocks, default=1)
    cap = exact_bond if dnew is None else min(dnew, exact_bond)
    # the bonds the fit outputs: the cap, clipped by the block bond and by
    # the chain's natural limit, d^2 per site from either end
    bonds = [min(cap, b, (d * d) ** min(i + 1, L - 1 - i)) for i, b in enumerate(blocks)]
    # the start, exp(lx) times x_sites: u, truncated where it exceeds them
    if all(b <= c for b, c in zip(u.bond_dims(), bonds)):
        x_sites, lx = list(target.u[0]), factors[0][1][1]
    else:
        x0 = mp.truncate_svd(u, cap)[0]
        x_sites, lx = list(x0.sites), x0.log_scale
    rule = coefficients or (lambda _: [c for c, _ in terms])
    ls = 0.0

    def weigh(start):
        # the weights, and the fit's scale exp(ls)
        nonlocal ls
        cs = [1.0] + list(rule([(m, lx + lg) for m, lg in zip(start, logs)]))
        log_mags = [lg + math.log(abs(c)) if c != 0 else -math.inf for c, lg in zip(cs, logs)]
        # a target whose every weight is 0 keeps the unit scale
        ls = max(log_mags) if max(log_mags) > -math.inf else 0.0
        return [c / abs(c) * math.exp(lm - ls) if lm != -math.inf else 0.0
                for c, lm in zip(cs, log_mags)]

    objectives, converged, sweeps, parts = _run_sweeps(x_sites, target, weigh, opts, bonds)
    sweep_ms = (time.perf_counter() - t0) * 1e3
    truncated = cap < exact_bond
    # a vanished target is judged once, by the keep rule's budget: the
    # result's squared norm against the squared sum of the weighted parts'
    # norms.  Weights all 0, as a zero operand's are, give 0 <= 0
    scale_sq = sum(abs(w) * math.sqrt(float(np.vdot(p, p).real))
                   for w, p in zip(target.w, parts)) ** 2
    nsq = float(np.vdot(x_sites[0], x_sites[0]).real)
    if nsq <= mp.TRUNC_EPS * mp.TRUNC_EPS * scale_sq:
        return SweepResult(mpo=mp.zero_mpo(L, d), truncated=truncated, converged=True,
                           objectives=[0.0], overlaps=[(0.0, -math.inf)] * len(parts),
                           sweep_ms=sweep_ms)
    # the center in the parts' layout; each overlap on the true scales of
    # x and of the product's operands.  Site 0 is the center, so ln||x|| is
    # ls plus ln of its Frobenius norm
    center = x_sites[0].transpose(2, 1, 0, 3).reshape(parts[0].shape)
    overlaps = [(np.vdot(center, p).item(), ls + lg) for p, lg in zip(parts, logs)]
    return SweepResult(mpo=mp.Mpo(tuple(x_sites), ls, ls + 0.5 * math.log(nsq)), truncated=truncated,
                       converged=converged, sweeps=sweeps,
                       objectives=[mp._scaled(o, 2.0 * ls) for o in objectives],
                       overlaps=overlaps, sweep_ms=sweep_ms)


def product(x: mp.Mpo, y: mp.Mpo, cap: int | None) -> tuple[mp.Mpo, float | None]:
    """x @ y fitted at bond cap and cut to its numerical rank
    (mp.truncate_svd), with the cut's relative discarded weight, or None
    where the fit truncated and its own error is not known.  A product of
    nonzero operators that vanishes raises NumericError: past
    mp._chain_limit a fit's ||x @ y||^2 ~ d^-L underflows."""
    fit = multiply_and_optimize(x, y, cap)
    out, disc = mp.truncate_svd(fit.mpo, cap)
    if out.ln_norm == -math.inf and min(mp.log_norm(x), mp.log_norm(y)) > -math.inf:
        raise NumericError(f"a product of nonzero operators fitted as zero at L = {x.L} (its squared "
                           f"norm underflows float64 past L <= {mp._chain_limit(x.d)})")
    return out, None if fit.truncated else disc

"""Variational compression of MPO products and linear combinations.

Both operations fit an MPO with capped bonds to a target network (a@u or
u + sum_k coeff_k*t_k) by alternating least squares: the trial operator is
kept in mixed-canonical gauge, so each local problem is solved exactly by
a plain environment contraction, and the squared Frobenius objective never
increases from one site update to the next.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from . import mpo as mp
from . import tensors

_TINY = 1e-300


@dataclass
class SweepOptions:
    """Knobs for the alternating sweeps."""

    max_sweeps: int = 8
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")


@dataclass
class SweepResult:
    """Outcome of a variational fit.

    `converged` is true when the sweeps met `rel_tol` (or the fit needed
    none), `sweeps` counts the ALS sweeps run, and `objectives` is the
    squared-distance objective after every site update.
    """

    mpo: mp.Mpo
    residual: float
    converged: bool
    sweeps: int = 0
    objectives: list = field(default_factory=list)


def _warm_start(x0: mp.Mpo) -> list:
    """Sites of x0 in right-canonical gauge (center 0), the form
    _run_sweeps starts from.  The sweeps never read site 0, so x0's
    scale does not matter."""
    return list(mp.canonicalize(x0, center=0).sites)


def _unit_sites(a: mp.Mpo):
    """Site tensors rescaled uniformly to unit Frobenius norm, plus the true
    log-magnitude ln||a|| that was factored out (log_scale included).

    Working with unit-norm operands keeps every intermediate of the sweeps
    O(1) regardless of how log_scale and the raw tensor norm are balanced
    against each other in the input.  Returns (sites, -inf) unchanged for
    the zero operator.
    """
    ln_full = mp.log_norm(a)
    if ln_full == -math.inf:
        return [s.copy() for s in a.sites], -math.inf
    # log of the raw tensor-network norm, spread evenly across the sites
    f = math.exp(-(ln_full - a.log_scale) / a.L)
    return [s * f for s in a.sites], ln_full


def _scaled(v: float, log_factor: float) -> float:
    """v * exp(log_factor), saturating to inf instead of raising."""
    if v == 0.0 or log_factor == 0.0:
        return v
    try:
        return v * math.exp(log_factor)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


class _MultiplyTarget:
    """Environments of <x, a@u> for the product fit.

    The contractions run as plain matrix products on pre-transposed
    views of the (static) operand sites, which keeps every step inside
    BLAS instead of paying per-call tensordot bookkeeping on the many
    small tensors a sweep touches."""

    def __init__(self, a_sites, u_sites, norm_sq):
        self.a = a_sites
        self.u = u_sites
        self.norm_sq = norm_sq
        # u_i: (c, j, lu, ru) -> (lu, c*j*ru) for the left-to-right pass
        self._ul = [s.transpose(2, 0, 1, 3).reshape(s.shape[2], -1) for s in u_sites]
        # and (c*j*lu, ru) for the right-to-left pass
        self._ur = [s.reshape(-1, s.shape[3]) for s in u_sites]
        # a_i: (o, c, la, ra) -> (la*c, o*ra) and (c*ra, o*la)
        self._al = [s.transpose(2, 1, 0, 3).reshape(s.shape[2] * s.shape[1], -1)
                    for s in a_sites]
        self._ar = [s.transpose(1, 3, 0, 2).reshape(s.shape[1] * s.shape[3], -1)
                    for s in a_sites]
        self._tmp = None  # (site, E, half-contracted target) reuse

    def boundary_left(self):
        return np.ones((1, 1, 1))

    boundary_right = boundary_left

    def _half(self, i, E):
        """Target with E absorbed, flattened to (lx*j*o, ra*ru) plus dims."""
        if self._tmp is not None and self._tmp[0] == i and self._tmp[1] is E:
            return self._tmp[2]
        o, c, la, ra = self.a[i].shape
        j, lu, ru = self.u[i].shape[1], self.u[i].shape[2], self.u[i].shape[3]
        lx = E.shape[0]
        # E: (lx, la, lu) @ (lu, c*j*ru) -> (lx, la, c, j, ru)
        t = (E.reshape(lx * la, lu) @ self._ul[i]).reshape(lx, la, c, j, ru)
        # contract (la, c) with a_i -> (lx, j, ru, o, ra)
        t = t.transpose(0, 3, 4, 1, 2).reshape(lx * j * ru, la * c)
        t = (t @ self._al[i]).reshape(lx, j, ru, o, ra)
        half = (t.transpose(0, 1, 3, 4, 2).reshape(lx * j * o, ra * ru),
                (lx, j, o, ra, ru))
        self._tmp = (i, E, half)
        return half

    def local(self, i, E, F):
        flat, (lx, j, o, ra, ru) = self._half(i, E)
        rx = F.shape[0]
        # F: (rx, ra, ru); contract ra, ru -> (lx, j, o, rx)
        t = (flat @ F.transpose(1, 2, 0).reshape(ra * ru, rx)).reshape(lx, j, o, rx)
        return t.transpose(2, 1, 0, 3)  # (o, j, lx, rx)

    def env_left(self, i, E, xq):
        flat, (lx, j, o, ra, ru) = self._half(i, E)
        rx = xq.shape[3]
        # xq: (o, j, lx, rx); contract lx, j, o -> (rx, ra, ru)
        xc = xq.conj().transpose(3, 2, 1, 0).reshape(rx, lx * j * o)
        return (xc @ flat).reshape(rx, ra, ru)

    def env_right(self, i, F, xq):
        o, c, la, ra = self.a[i].shape
        j, lu, ru = self.u[i].shape[1], self.u[i].shape[2], self.u[i].shape[3]
        rx = F.shape[0]
        # u_i: (c*j*lu, ru) @ (ru, rx*ra) -> (c, j, lu, rx, ra)
        t = (self._ur[i] @ F.transpose(2, 0, 1).reshape(ru, rx * ra)).reshape(
            c, j, lu, rx, ra)
        # a_i as (c*ra, o*la); contract c, ra -> (o, la, j, lu, rx)
        t = t.transpose(0, 4, 1, 2, 3).reshape(c * ra, j * lu * rx)
        t = (self._ar[i].T @ t).reshape(o, la, j, lu, rx)
        # xq: contract o, j, rx -> (lx, la, lu)
        xc = xq.conj().transpose(2, 0, 1, 3).reshape(xq.shape[2], o * j * rx)
        t = t.transpose(0, 2, 4, 1, 3).reshape(o * j * rx, la * lu)
        return (xc @ t).reshape(xq.shape[2], la, lu)


class _SumTarget:
    """Environments of <x, sum_k g_k t_k> for the linear-combination fit.

    Same matmul-on-views scheme as the product target; the per-term site
    tensors are static, so their transposed layouts are built once."""

    def __init__(self, term_sites, coeffs, norm_sq):
        self.terms = term_sites
        self.coeffs = coeffs
        self.norm_sq = norm_sq
        # t_i: (o, j, lt, rt) -> (lt, o*j*rt) and (o*j*lt, rt)
        self._tl = [[s.transpose(2, 0, 1, 3).reshape(s.shape[2], -1) for s in tk]
                    for tk in term_sites]
        self._tr = [[s.reshape(-1, s.shape[3]) for s in tk] for tk in term_sites]
        self._tmp = None  # (site, E, per-term absorbed targets) reuse

    def boundary_left(self):
        return [np.ones((1, 1)) for _ in self.terms]

    boundary_right = boundary_left

    def _absorbed(self, i, E):
        """Per term: E_k (lx, lt) @ (lt, o*j*rt), kept as (lx*o*j, rt)."""
        if self._tmp is not None and self._tmp[0] == i and self._tmp[1] is E:
            return self._tmp[2]
        parts = []
        for k, tk in enumerate(self.terms):
            o, j, _, rt = tk[i].shape
            lx = E[k].shape[0]
            parts.append((E[k] @ self._tl[k][i]).reshape(lx * o * j, rt))
        self._tmp = (i, E, parts)
        return parts

    def local(self, i, E, F):
        parts = self._absorbed(i, E)
        out = None
        for k, tk in enumerate(self.terms):
            o, j, _, rt = tk[i].shape
            lx, rx = E[k].shape[0], F[k].shape[0]
            # (lx*o*j, rt) @ (rt, rx) -> (lx, o, j, rx)
            piece = self.coeffs[k] * (parts[k] @ F[k].T).reshape(lx, o, j, rx)
            out = piece if out is None else out + piece
        return out.transpose(1, 2, 0, 3)  # (o, j, lx, rx)

    def env_left(self, i, E, xq):
        parts = self._absorbed(i, E)
        o, j, lx, rx = xq.shape
        # xq: (o, j, lx, rx); contract lx, o, j with each absorbed target
        xc = xq.conj().transpose(3, 2, 0, 1).reshape(rx, lx * o * j)
        return [xc @ p for p in parts]  # each (rx, rt)

    def env_right(self, i, F, xq):
        o, j, lx, rx = xq.shape
        xc = xq.conj().transpose(2, 0, 1, 3).reshape(lx, o * j * rx)
        out = []
        for k, tk in enumerate(self.terms):
            rt = tk[i].shape[3]
            # t_i: (o*j*lt, rt) @ (rt, rx) -> (o, j, lt, rx)
            tmp = (self._tr[k][i] @ F[k].T).reshape(o, j, -1, rx)
            # contract o, j, rx -> (lx, lt)
            out.append(xc @ tmp.transpose(0, 1, 3, 2).reshape(o * j * rx, -1))
        return out


def _run_sweeps(x_sites, target, opts: SweepOptions):
    """Alternate local solves over the chain; x_sites is modified in place.

    x_sites must be right-canonical from site 1 on; site 0 is never read,
    because the first local solve overwrites it.  Returns (objectives,
    converged, sweeps run).  The objective after a site update is
    norm_sq(target) - |center|^2, which is exact given exact environments
    because the local optimum equals the environment tensor.  It is a
    difference of nearly equal numbers, so for an exact fit it rounds to
    either sign; convergence is therefore judged only by the change
    between two sweeps, never by the objective's own size.
    """
    L = len(x_sites)
    C = target.norm_sq
    scale = max(C, _TINY)
    renvs = [None] * (L + 1)
    renvs[L] = target.boundary_right()
    for i in range(L - 1, 0, -1):
        renvs[i] = target.env_right(i, renvs[i + 1], x_sites[i])
    lenvs = [None] * (L + 1)
    lenvs[0] = target.boundary_left()
    objectives = []
    converged = False
    prev = None
    for sweeps in range(1, opts.max_sweeps + 1):
        for i in range(L - 1):
            t = target.local(i, lenvs[i], renvs[i + 1])
            objectives.append(C - float(np.vdot(t, t).real))
            q, _ = mp._split_left(t)
            x_sites[i] = q
            lenvs[i + 1] = target.env_left(i, lenvs[i], q)
        for i in range(L - 1, 0, -1):
            t = target.local(i, lenvs[i], renvs[i + 1])
            objectives.append(C - float(np.vdot(t, t).real))
            _, q = mp._split_right(t)
            x_sites[i] = q
            renvs[i] = target.env_right(i, renvs[i + 1], q)
        t = target.local(0, lenvs[0], renvs[1])
        x_sites[0] = t
        obj = C - float(np.vdot(t, t).real)
        objectives.append(obj)
        if prev is not None and prev - obj <= opts.rel_tol * scale:
            converged = True
            break
        prev = obj
    return objectives, converged, sweeps


def _fit_result(x_sites, ls: float, objectives, converged: bool, sweeps: int) -> SweepResult:
    """Package the swept sites with the output scale exp(ls).  The sweeps
    end with site 0 as the orthogonality center and every other site
    isometric, so ln||x|| is ls plus ln of the center's Frobenius norm."""
    nsq = float(np.vdot(x_sites[0], x_sites[0]).real)
    x = mp.Mpo(tuple(x_sites), ls, ls + 0.5 * math.log(nsq) if nsq > 0 else -math.inf)
    return SweepResult(
        mpo=x,
        residual=_scaled(max(objectives[-1], 0.0), 2.0 * ls),
        converged=converged,
        sweeps=sweeps,
        objectives=[_scaled(o, 2.0 * ls) for o in objectives],
    )


def _zipup_product(a_sites, u_sites, dnew: int):
    """One-pass truncated product: contract site by site, splitting with an
    SVD capped at dnew.  Used as the warm start when the exact product bond
    is too large to materialize.  Also returns the accumulated discarded
    weight, which bounds the distance to the exact product."""
    L = len(a_sites)
    carry = np.ones((1, 1, 1))  # (x, la, lu)
    sites = [None] * L
    disc2 = 0.0
    for i in range(L):
        sa, su = a_sites[i], u_sites[i]
        x, la, lu = carry.shape
        o, c, _, ra = sa.shape
        j, ru = su.shape[1], su.shape[3]
        # carry (x*lu, la) @ sa (la, o*c*ra) -> (x, lu, o, c, ra)
        t = carry.transpose(0, 2, 1).reshape(x * lu, la) @ sa.transpose(2, 0, 1, 3).reshape(la, -1)
        t = t.reshape(x, lu, o, c, ra)
        # t (x*o*ra, c*lu) @ su (c*lu, j*ru) -> (x, o, ra, j, ru)
        t = t.transpose(0, 2, 4, 3, 1).reshape(x * o * ra, c * lu) @ su.transpose(0, 2, 1, 3).reshape(c * lu, -1)
        t = t.reshape(x, o, ra, j, ru).transpose(1, 3, 0, 2, 4)  # (o, j, x, ra, ru)
        d1, d2, dl, ra, ru = t.shape
        if i == L - 1:
            sites[i] = t.reshape(d1, d2, dl, 1)
            break
        u, s, vh = tensors.svd(t.reshape(d1 * d2 * dl, ra * ru))
        tot2 = float(s @ s)
        keep = max(1, int(np.sum(s > 1e-14 * s[0]))) if s.size and s[0] > 0 else 1
        keep = min(keep, dnew)
        disc2 += float(np.sum(s[keep:] ** 2))
        sites[i] = u[:, :keep].reshape(d1, d2, dl, keep)
        carry = (s[:keep, None] * vh[:keep]).reshape(keep, ra, ru)
    return sites, disc2


def _product_norm_sq(a_sites, u_sites) -> float:
    """Exact ||a@u||_F^2 via a transfer contraction over the merged
    product sites (bond D_a*D_u, so only used when that is small)."""
    env = np.ones((1, 1))  # (conj-side bond, ket-side bond)
    logacc = 0.0
    for sa, su in zip(a_sites, u_sites):
        d = sa.shape[0]
        t = np.einsum("ocxy,cizw->oixzyw", sa, su).reshape(
            d * d, sa.shape[2] * su.shape[2], sa.shape[3] * su.shape[3]
        )
        tmp = np.tensordot(env, t, axes=([1], [1]))  # (lc, p, r)
        env = np.tensordot(t.conj(), tmp, axes=([0, 1], [1, 0]))  # (rc, r)
        mag = np.max(np.abs(env))
        if mag == 0.0:
            return 0.0
        env = env / mag
        logacc += math.log(mag)
    return float(env[0, 0].real) * math.exp(logacc)


def multiply_and_optimize(a: mp.Mpo, u: mp.Mpo, dnew: int | None, opts: SweepOptions | None = None) -> SweepResult:
    """Best bond-dnew approximation of the operator product a @ u.

    Returns a SweepResult whose residual is the final squared Frobenius
    distance.  With dnew at least the exact product bond the fit
    reproduces exact_multiply to numerical precision.
    """
    opts = opts or SweepOptions()
    mp._check_compatible(a, u)
    if dnew is not None and dnew < 1:
        raise DimensionError("dnew must be >= 1")
    L, d = a.L, a.d
    # work with unit-norm operands; the product's true magnitude rides on
    # the output log_scale, so nothing downstream sees compounded scales
    a_sites, log_a = _unit_sites(a)
    u_sites, log_u = _unit_sites(u)
    if log_a == -math.inf or log_u == -math.inf:
        return SweepResult(
            mpo=mp.zero_mpo(L, d),
            residual=0.0,
            converged=True,
            objectives=[0.0],
        )
    ls_tot = log_a + log_u
    exact_bond = max((sa.shape[3] * su.shape[3] for sa, su in zip(a_sites[:-1], u_sites[:-1])), default=1)
    cap = exact_bond if dnew is None else min(dnew, exact_bond)

    if exact_bond <= max(4 * cap, 64):
        prod = mp.exact_multiply(mp.Mpo(tuple(a_sites)), mp.Mpo(tuple(u_sites)))
        x0, _ = mp.truncate_svd(prod, dmax=cap)
        norm_sq = _product_norm_sq(a_sites, u_sites)
    else:
        zip_sites, disc2 = _zipup_product(a_sites, u_sites, cap)
        x0 = mp.Mpo(tuple(zip_sites))
        # zip-up leaves the chain left-isometric with all the weight on
        # the last site, so the warm start's norm is a local reduction
        norm_sq = float(np.vdot(zip_sites[-1], zip_sites[-1]).real) + disc2
    x_sites = _warm_start(x0)

    target = _MultiplyTarget(a_sites, u_sites, norm_sq)
    return _fit_result(x_sites, ls_tot, *_run_sweeps(x_sites, target, opts))


def sum_and_optimize(u: mp.Mpo, terms, dnew: int | None, opts: SweepOptions | None = None) -> SweepResult:
    """Best bond-dnew approximation of u + sum_k coeff_k * t_k.

    `terms` is a list of (coeff, Mpo) pairs; an empty list makes this a
    variational truncation of u alone.
    """
    opts = opts or SweepOptions()
    terms = list(terms)
    for _, t in terms:
        mp._check_compatible(u, t)
    if dnew is not None and dnew < 1:
        raise DimensionError("dnew must be >= 1")
    L, d = u.L, u.d
    ops = [u] + [t for _, t in terms]
    raw_coeffs = [1.0] + [c for c, _ in terms]
    # work with unit-norm terms; each coefficient absorbs its operand's true
    # magnitude, rebased onto a common log_scale carried by the output
    unit = [_unit_sites(op) for op in ops]
    term_sites = [sites for sites, _ in unit]
    log_mags = [
        (ln + math.log(abs(c)) if c != 0 and ln != -math.inf else -math.inf)
        for (_, ln), c in zip(unit, raw_coeffs)
    ]
    ls_out = max(log_mags)
    if ls_out == -math.inf:
        ls_out = 0.0
    coeffs = [
        (c / abs(c) * math.exp(lm - ls_out) if lm != -math.inf else 0.0)
        for c, lm in zip(raw_coeffs, log_mags)
    ]

    # exact ||target||^2 from pairwise inner products of the stripped terms;
    # the diagonal is 1 by the unit-norm construction above
    stripped = [mp.Mpo(tuple(s)) for s in term_sites]
    gram = np.eye(len(ops), dtype=np.result_type(*(s[0] for s in term_sites)))
    for j in range(len(ops)):
        for k in range(j + 1, len(ops)):
            gram[j, k] = mp.inner_product(stripped[j], stripped[k])
            gram[k, j] = np.conj(gram[j, k])
    cvec = np.asarray(coeffs)
    norm_sq = float((cvec.conj() @ gram @ cvec).real)
    scale_sq = float(np.abs(cvec.conj()) @ np.abs(gram) @ np.abs(cvec))

    if norm_sq <= 1e-28 * max(scale_sq, _TINY):
        # complete cancellation: the zero operator is the exact optimum
        return SweepResult(
            mpo=mp.zero_mpo(L, d),
            residual=_scaled(max(norm_sq, 0.0), 2.0 * ls_out),
            converged=True,
            objectives=[max(norm_sq, 0.0)],
        )

    exact_bond = 1
    if L > 1:
        exact_bond = max(sum(s[i].shape[3] for s in term_sites) for i in range(L - 1))
    cap = exact_bond if dnew is None else min(dnew, exact_bond)

    acc = mp.scalar_multiply(coeffs[0], stripped[0])
    for k in range(1, len(ops)):
        acc = mp.exact_add(acc, stripped[k], coeffs[k])
    x0, _ = mp.truncate_svd(acc, dmax=cap)
    x_sites = _warm_start(x0)

    target = _SumTarget(term_sites, coeffs, norm_sq)
    return _fit_result(x_sites, ls_out, *_run_sweeps(x_sites, target, opts))

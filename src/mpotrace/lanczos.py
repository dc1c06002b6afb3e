"""Global Lanczos iteration in MPO arithmetic with Gauss-quadrature
evaluation of trace functionals.

The driver builds the three-term recurrence under the Frobenius inner
product <U, V> = tr(U^H V), starting from the identity.  After k steps the
symmetric tridiagonal matrix T_k (diagonal alpha_1..alpha_k, off-diagonal
beta_2..beta_k) defines a k-node Gauss rule: with T_k = V diag(theta) V^T,

    G_k f = beta_1^2 * sum_j |V[0, j]|^2 f(theta_j)

approximates tr f(A) and is exact for polynomials of degree <= 2k-1.

A step makes one variational fit, of t_k = A U_k - alpha_k U_k - beta_k
U_{k-1}, and one closing pass over U_k, ||A U_k||^2 = <U_k, A^H A U_k>.
alpha_k = <U_k, A U_k> comes from the fit's gauge pass over its start
U_k, before its first local solve.  The other terms of ||t_k||^2 are
overlaps of U_k with U_{k-1}, which the previous step's fit returns from
its last local solve, so no pass runs over U_{k-1}.  The same fit gives
the drift of the blocks, |<U_k, U_{k-1}>| and |<U_k, U_{k-2}>|, which
the records carry and no stop rule reads.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, HermiticityError, NumericError
from . import mpo as mp
from . import tensors
from .sweeping import expectation, multiply_and_optimize, product

# share of ||A U_{k-1}|| under which a new block norm counts as exact breakdown
BREAKDOWN_RTOL = 1e-13
# the sigma-outlier rule compares an estimate with this many before it
SIGMA_WINDOW = 3

STOP_CONVERGED = "converged"
STOP_BREAKDOWN = "breakdown"
STOP_RITZ = "ritz-violation"
STOP_BOUND = "bound-monotonicity-violation"
STOP_SIGMA = "sigma-outlier"
STOP_KMAX = "kmax"

logger = logging.getLogger("mpotrace.lanczos")


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Recurrence coefficients: diagonal alphas, off-diagonal betas.

    The initial norm beta_1 is not part of the matrix; it scales the
    quadrature and travels separately.
    """

    alphas: tuple
    betas: tuple

    def __post_init__(self):
        al = tuple(float(a) for a in self.alphas)
        be = tuple(float(b) for b in self.betas)
        if len(al) < 1:
            raise ValueError("need at least one diagonal entry")
        if len(be) != len(al) - 1:
            raise ValueError(f"need len(betas) == len(alphas)-1, got {len(be)} vs {len(al)}")
        if not all(math.isfinite(a) for a in al) or not all(math.isfinite(b) for b in be):
            raise NumericError("tridiagonal entries must be finite")
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "betas", be)

    @property
    def k(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class SpectralFunction:
    """Scalar map f with a name and the sign of its order-2K derivatives
    on the spectral interval for K >= 2 nodes (+1 makes the quadrature a
    lower bound of tr f, -1 an upper bound, 0 unknown/mixed).  The sign
    says nothing of the 1-node rule, so check_stop compares estimates in
    that direction only from step 3 on."""

    name: str
    fn: Callable[[float], float]
    derivative_sign: int = 0


def identity_function() -> SpectralFunction:
    return SpectralFunction("identity", lambda lam: lam, 0)


def polynomial_function(coeffs) -> SpectralFunction:
    """f(lam) = sum_p coeffs[p] * lam**p."""
    cs = [float(c) for c in coeffs]
    if not cs:
        raise ValueError("need at least one coefficient")

    def fn(lam, _cs=tuple(cs)):
        acc = 0.0
        for c in reversed(_cs):
            acc = acc * lam + c
        return acc

    return SpectralFunction("poly:" + ",".join(repr(c) for c in cs), fn, 0)


def entropy_integrand() -> SpectralFunction:
    """f(lam) = -lam^2 ln lam^2, continuously extended by 0 at lam = 0.
    Its order-2K derivatives, 4(2K-3)!/lam^(2K-2) for K > 1, are positive
    on lam > 0, so the quadrature of f approaches tr f(A) from below."""

    def fn(lam):
        a = abs(lam)
        if a < 1e-300:
            return 0.0
        return -2.0 * a * a * math.log(a)

    return SpectralFunction("neg-xx-log-xx", fn, 1)


@dataclass(frozen=True)
class StoppingConfig:
    eps_conv: float = 1e-10
    sigma_mult: float = 3.0
    spectrum_floor: float | None = None

    def __post_init__(self):
        if not (self.eps_conv > 0 and math.isfinite(self.eps_conv)):
            raise ValueError("eps_conv must be finite and > 0")
        if self.spectrum_floor is not None and not math.isfinite(self.spectrum_floor):
            raise ValueError("spectrum_floor must be finite")


@dataclass
class IterationRecord:
    """One Lanczos step.  The step makes one fit; `fit_residual`, `sweeps`
    and `converged` are that fit's squared residual, exact at every bond
    (||t_k||^2 - ||V_{k+1}||^2 where the fit truncated, else 0), ALS sweep
    count and whether it stopped on the plateau rule before max_sweeps (one
    sweep when the first right-to-left half gains no more than the rule
    allows), `sweep_ms` is its wall time (its sweeps start from U_k, read
    alpha_k from their gauge pass over it and grow the bonds of a step
    below the cap in their first pass), and `bond` is the max bond of the
    fitted block.  `drift_1` and `drift_2` are |<U_k, U_{k-1}>| and
    |<U_k, U_{k-2}>|, the loss of orthogonality that truncation brings,
    from the previous step's fit; U_0 = U_{-1} = 0, so both are 0 at step
    1 and drift_2 is 0 at step 2.  `norm_ms` times the contraction of
    ||A U_k||^2 (step 2's includes fitting A^H A once), and `quad_ms` the
    Gauss rule; with the fit they make up most of `wall_ms`."""

    k: int
    alpha: float
    beta: float
    ritz_min: float
    ritz_max: float
    estimate: float
    wall_ms: float
    fit_residual: float = 0.0
    sweeps: int = 0
    converged: bool = True
    sweep_ms: float = 0.0
    bond: int = 0
    drift_1: float = 0.0
    drift_2: float = 0.0
    norm_ms: float = 0.0
    quad_ms: float = 0.0


@dataclass
class QuadratureRun:
    records: list = field(default_factory=list)
    estimate: float = math.nan
    stop_reason: str | None = None
    beta1: float = math.nan
    tridiag: TridiagonalMatrix | None = None
    basis: list | None = None

    def estimates(self) -> list[float]:
        return [r.estimate for r in self.records]


def gauss_quadrature(t: TridiagonalMatrix, beta1: float, f: SpectralFunction):
    """Evaluate the Gauss rule induced by t, scaled by beta1^2.

    Returns (estimate, ritz values ascending, weights).  The weights are
    the squared first components of the normalized eigenvectors of t and
    sum to one.  A non-finite estimate raises NumericError.
    """
    if not beta1 > 0:
        raise ValueError("beta1 must be positive")
    theta, vecs = tensors.symmetric_tridiag_eig(t.alphas, t.betas)
    weights = np.abs(vecs[0, :]) ** 2
    vals = np.empty_like(theta)
    for j, node in enumerate(theta):
        v = f.fn(float(node))
        if not math.isfinite(v):
            raise EvaluationError(f"{f.name} is not finite at Ritz node theta_{j}={node!r}")
        vals[j] = v
    estimate = beta1 * beta1 * float(weights @ vals)
    if not math.isfinite(estimate):
        raise NumericError(f"Gauss estimate of {f.name} is {estimate!r} (beta_1 = {beta1!r})")
    return estimate, [float(x) for x in theta], [float(w) for w in weights]


def check_stop(run: QuadratureRun, stop: StoppingConfig, f: SpectralFunction):
    """First satisfied criterion wins, in the fixed order: convergence of
    successive estimates, a Ritz value below the declared spectrum floor
    by more than the tridiagonal eigensolver's rounding (8 k eps
    max|theta|), violated bound monotonicity (an estimate that moves against
    f.derivative_sign, between estimates of at least 2 nodes, so from step
    3 on: the 1-node rule is no bound, e.g. for the entropy integrand at a
    Ritz value above e^(-3/2)), 3-sigma outlier against the SIGMA_WINDOW
    estimates before it."""
    ests = run.estimates()
    if not ests:
        return False, None
    cur = ests[-1]
    # a change counts only down to one ulp of the estimate, so a
    # bit-exact tie does not stop a run whose eps_conv is below that
    if len(ests) >= 2 and abs(cur - ests[-2]) + np.spacing(abs(cur)) <= stop.eps_conv:
        return True, STOP_CONVERGED
    rec = run.records[-1]
    if stop.spectrum_floor is not None:
        slack = 8 * rec.k * np.finfo(float).eps * max(abs(rec.ritz_min), abs(rec.ritz_max))
        if rec.ritz_min < stop.spectrum_floor - slack:
            return True, STOP_RITZ
    if len(ests) >= 3 and f.derivative_sign * (cur - ests[-2]) < 0:
        return True, STOP_BOUND
    if len(ests) >= SIGMA_WINDOW + 1:
        prev = np.asarray(ests[-1 - SIGMA_WINDOW:-1])
        mu = float(prev.mean())
        sd = float(prev.std(ddof=1))
        if sd > 0 and abs(cur - mu) > stop.sigma_mult * sd:
            return True, STOP_SIGMA
    return False, None


def _target_norm_sq(au_sq, alpha: float, ln_beta: float, overlaps) -> tuple[float, float]:
    """||t_k||^2 for the step's target t_k = A U_k - alpha_k U_k - beta_k
    U_{k-1}, with U_k and U_{k-1} of unit norm and alpha_k = <U_k, A U_k>:

        ||A U_k||^2 - alpha_k^2 + beta_k^2 - 2 beta_k Re<U_{k-1}, A U_k>
            + 2 alpha_k beta_k Re<U_k, U_{k-1}>.

    au_sq is ||A U_k||^2 and ln_beta is ln beta_k, both in log form.  The
    two overlaps are fit k-1's, which made x = beta_k U_k from the
    products (A, U_{k-1}) and (I, U_{k-1}), first in `overlaps`: for
    Hermitian A, beta_k <U_{k-1}, A U_k> = conj<x, A U_{k-1}> and beta_k
    <U_k, U_{k-1}> = <x, U_{k-1}>, so no contraction runs here.
    overlaps None is step 1, where the beta terms vanish.  Every magnitude
    stays a log until global_lanczos subtracts the fit's ||x||^2, so the result
    is in log form too: (mantissa, log), value = mantissa * exp(log)."""
    terms = [(au_sq[0].real, au_sq[1])]
    if alpha != 0:
        terms.append((-1.0, 2.0 * math.log(abs(alpha))))
    if overlaps is not None:
        (m_au, log_au), (m_u, log_u) = overlaps[:2]
        terms += [(1.0, 2.0 * ln_beta), (-2.0 * m_au.real, log_au)]
        if alpha != 0:
            terms.append((math.copysign(2.0, alpha) * m_u.real, log_u + math.log(abs(alpha))))
    top = max(log for _, log in terms)
    if top == -math.inf:
        return 0.0, 0.0
    return sum(m * math.exp(log - top) for m, log in terms), top


def global_lanczos(
    a: mp.Mpo,
    kmax: int = 50,
    dmax: int | None = None,
    f: SpectralFunction | None = None,
    stop: StoppingConfig | None = None,
    keep_basis: bool = False,
) -> QuadratureRun:
    """Run the global Lanczos iteration on the Hermitian operator a,
    started from the identity, so that beta_1^2 = tr(I) and the Gauss rule
    approximates tr f(a).

    Each step normalizes the previous residual block U_k and contracts
    ||A U_k||^2 = <U_k, A^H A U_k>, on A^H A fitted once per run at twice
    a's bond and cut to its numerical rank (from step 2 on; U_1 is the
    identity over its norm, so ||A U_1||^2 = ||A||^2 / ||I||^2).  It then
    makes one variational fit of t_k = A U_k - alpha_k U_k - beta_k
    U_{k-1} at bond cap dmax (None: uncapped), which the fit clips to the
    residual's exact bond.  The fit's gauge pass over its start U_k gives
    alpha_k = <U_k, A U_k>, before any local solve: alpha_k's imaginary
    part is judged against ||A U_k|| there (HermiticityError above 1e-8
    of it).  Where the fit truncated, its residual is ||t_k||^2 -
    ||V_{k+1}||^2, ||t_k||^2 following from its three-term expansion
    (_target_norm_sq), whose overlaps with U_{k-1} the previous step's
    fit returned; where it did not, the residual is 0.  The next step
    judges the new block's norm against ||A U_k|| (breakdown below
    BREAKDOWN_RTOL of it).  The step evaluates the Gauss rule on the
    accumulated tridiagonal matrix and logs (k, estimate, beta) at INFO
    on mpotrace.lanczos.  The run's estimate is the last step's, except on
    a Ritz violation: then it is the step before, whose Ritz values still
    kept the floor (step 1 keeps its own).  Every step stays in the
    records.  The blocks are float64 when
    a is real, complex128 otherwise.  alpha_k and the block norms come in
    log form and become floats through one checked step (mp._from_log;
    mp.frobenius_norm for the norms), which raises NumericError naming
    the quantity when it overflows; ||t_k||^2 stays in log form.  The
    Gauss rule needs beta_1^2 = d^L as a float64, so longer chains (L >
    mp._chain_limit(d), 1023 at d = 2) raise NumericError.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if dmax is not None and dmax < 1:
        raise ValueError("dmax must be >= 1")
    f = f or identity_function()
    stop = stop or StoppingConfig()
    if a.L > mp._chain_limit(a.d):
        raise NumericError(f"beta_1^2 = tr(I) = {a.d}^{a.L} overflows float64; the Gauss rule "
                           f"needs L <= {mp._chain_limit(a.d)}")
    v = mp.identity_mpo(a.L, a.d)

    run = QuadratureRun(basis=[] if keep_basis else None)
    alphas: list[float] = []
    betas: list[float] = []
    beta1 = math.nan
    u_prev: mp.Mpo | None = None
    # the last fit's overlaps: <V_k, A U_{k-1}>, <V_k, U_{k-1}> and, from
    # step 3 on, <V_k, U_{k-2}>, V_k = beta_k U_k being that fit's output
    overlaps: list | None = None
    a2: mp.Mpo | None = None  # A^H A, compressed
    ln_au = -math.inf  # ln ||A U_{k-1}||

    for k in range(1, kmax + 1):
        t0 = time.perf_counter()
        ln_v = mp.log_norm(v)
        beta = mp.frobenius_norm(v)
        if k == 1:
            beta1 = beta
        elif ln_v <= math.log(BREAKDOWN_RTOL) + ln_au:
            # Krylov space exhausted: T_{k-1} reproduces the operator
            # exactly on the subspace and the last estimate is final
            run.stop_reason = STOP_BREAKDOWN
            break
        else:
            betas.append(beta)
        u = mp.shift_log_scale(v, -ln_v)
        if keep_basis:
            run.basis.append(u)

        t_norm = time.perf_counter()
        if u_prev is None:
            # U_1 = I / ||I||
            au_sq = (1.0, 2.0 * (mp.log_norm(a) - ln_v))
        else:
            if a2 is None:  # fitted at twice a's bond, cut to its numerical rank
                a2 = product(mp.adjoint(a), a, 2 * a.max_bond())[0]
            # ||A U||^2 = <U, A^H A U>
            au_sq = expectation(a2, u)
        # ||A U_k||, in log form: the scale of the terms that form the new
        # residual, against which alpha_k's imaginary part is judged
        ln_au = 0.5 * (math.log(au_sq[0].real) + au_sq[1]) if au_sq[0].real > 0 else -math.inf
        norm_ms = (time.perf_counter() - t_norm) * 1e3
        # |<U_k, U_{k-1}>| and |<U_k, U_{k-2}>|; U_0 = U_{-1} = 0
        drift = [mp._scaled(abs(m), log - ln_v) for m, log in (overlaps or [])[1:]]
        drift += [0.0] * (2 - len(drift))
        # beta_1 is the start norm and never enters the subtraction
        terms = [(None, u)] if u_prev is None else [(None, u), (None, u_prev)]

        def coefficients(start):
            # start[0] = <U_k, A U_k>, closed by the fit's gauge pass over U_k
            alpha_c = mp._from_log(*start[0], f"alpha_{k}")
            if mp._scaled(abs(alpha_c.imag), -ln_au) > 1e-8:
                raise HermiticityError(f"step {k}: <U, A U> = {alpha_c!r} has a relative "
                                       f"imaginary part above 1e-8; the operator is not "
                                       f"Hermitian to tolerance")
            alphas.append(float(alpha_c.real))
            return [-alphas[-1], -beta][:len(terms)]

        fit = multiply_and_optimize(a, u, dmax, terms=terms, coefficients=coefficients)
        v, fit_residual = fit.mpo, 0.0
        if fit.truncated:  # its last local solve leaves V_{k+1} the projection of t_k
            mant, log = _target_norm_sq(au_sq, alphas[-1], ln_v, overlaps)
            fit_residual = mp._scaled(max(mant - mp._scaled(1.0, 2.0 * v.ln_norm - log), 0.0), log)

        tri = TridiagonalMatrix(tuple(alphas), tuple(betas))
        t_quad = time.perf_counter()
        est, ritz, _ = gauss_quadrature(tri, beta1, f)
        quad_ms = (time.perf_counter() - t_quad) * 1e3
        rec = IterationRecord(
            k=k,
            alpha=alphas[-1],
            beta=beta,
            ritz_min=ritz[0],
            ritz_max=ritz[-1],
            estimate=est,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            fit_residual=fit_residual,
            sweeps=fit.sweeps,
            converged=fit.converged,
            sweep_ms=fit.sweep_ms,
            bond=v.max_bond(),
            drift_1=drift[0],
            drift_2=drift[1],
            norm_ms=norm_ms,
            quad_ms=quad_ms,
        )
        run.records.append(rec)
        run.tridiag = tri
        run.beta1 = beta1
        logger.info("k=%d estimate=%.12g beta=%.6g", k, est, beta)
        u_prev, overlaps = u, fit.overlaps
        halt, reason = check_stop(run, stop, f)
        if halt:
            run.stop_reason = reason
            break
    if run.stop_reason is None:
        run.stop_reason = STOP_KMAX
    if run.records:
        # a step whose Ritz values broke the floor is not trusted: the run
        # returns the last step that kept it, or step 1 if that one broke it
        kept = -2 if run.stop_reason == STOP_RITZ and len(run.records) > 1 else -1
        run.estimate = run.records[kept].estimate
    return run


def entropy_from_half_state(
    m: mp.Mpo,
    kmax: int = 50,
    dmax: int | None = 100,
    stop: StoppingConfig | None = None,
):
    """Von Neumann entropy of rho = m^H m / tr(m^H m) for Hermitian psd m.

    Runs global_lanczos for f(lam) = -lam^2 ln lam^2 on m rescaled to unit
    Frobenius norm, which folds the normalization S = ln Z2 -
    tr(m^2 ln m^2) / Z2 (Z2 = tr(m^2) = <m, m>) away: the rescaled squared
    eigenvalues sum to one, so -sum lam^2 ln lam^2 over them IS the
    entropy.  The per-iteration estimates are entropy values: from step
    2 on, a nondecreasing sequence of lower bounds while the iteration
    stays clean (step 1's single node is a lower bound only while its
    Ritz value is at most e^(-3/2)).  The default stop rule is
    StoppingConfig(spectrum_floor=0.0): m is psd, so a negative Ritz value
    marks a broken recurrence, and the run returns the step before it.  Z2
    stays in log form, ln Z2 = 2 mp.log_norm(m), read from m or contracted
    once and kept on m, and the rescale moves only log_scale.  The chain
    limit of global_lanczos applies.

    Returns (S, run).
    """
    ln_norm = mp.log_norm(m)  # 0.5 ln Z2
    if ln_norm == -math.inf:
        raise NumericError("tr(m^H m) must be positive")
    m_unit = mp.shift_log_scale(m, -ln_norm)
    run = global_lanczos(
        m_unit,
        kmax=kmax,
        dmax=dmax,
        f=entropy_integrand(),
        stop=stop or StoppingConfig(spectrum_floor=0.0),
    )
    return float(run.estimate), run

"""Benchmark input construction: the thermal half-state exp(-beta/2 H) of
the transverse/longitudinal-field Ising chain, built by second-order
Trotter evolution of the identity, plus a reproducible random Hermitian
MPO generator for tests.

The builder is TEBD for an operator: two-site gates act on the
physical-out legs at the orthogonality center, and each gate's product is
split back by the package's one truncated split (mpo._truncated_split),
cut to the bond cap where it is made, so its discarded weight is exact
(Vidal, PRL 91, 147902 (2003); Zwolak & Vidal, PRL 93, 207205 (2004)).  A
long build powers one step by product fits, sweeping.product (Chen et al.,
PRX 8, 031082 (2018))."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mpo as mp
from . import sweeping
from .mpo import Mpo

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
POWER_STEPS = 64  # longer builds are powered (thermal_half_state_report)


@dataclass(frozen=True)
class IsingParams:
    """Open chain H = J sum_i X_i X_{i+1} + sum_i (g Z_i + h X_i) at
    inverse temperature beta."""

    L: int
    J: float = 1.0
    g: float = 1.0
    h: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.L < 2:
            raise ValueError(f"need L >= 2 sites, got {self.L}")
        if not self.beta > 0:
            raise ValueError(f"need beta > 0, got {self.beta}")
        for name in ("J", "g", "h", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _bond_gate(p: IsingParams, i: int, tau: float) -> np.ndarray:
    """exp(-tau h_i) for the bond (i, i+1), with single-site fields split
    half/half between the adjacent bonds and full weight at the chain
    ends, reshaped to (out_i, out_j, in_i, in_j).  The 4 x 4 bond
    Hamiltonian is real symmetric, so the exponential is V e^(-tau lam) V^T
    from its eigendecomposition."""
    field = p.g * PAULI_Z + p.h * PAULI_X
    wl = 1.0 if i == 0 else 0.5
    wr = 1.0 if i + 1 == p.L - 1 else 0.5
    eye = np.eye(2)
    h4 = (
        p.J * np.kron(PAULI_X, PAULI_X)
        + wl * np.kron(field, eye)
        + wr * np.kron(eye, field)
    )
    lam, v = np.linalg.eigh(h4)
    return ((v * np.exp(-tau * lam)) @ v.T).reshape(2, 2, 2, 2)


def _apply_gate(left, right, gate, dbond):
    """Apply a two-site gate to the physical-out legs of neighboring sites,
    one of which is the orthogonality center, and split back by
    mpo._truncated_split, cut to at most dbond.

    The split's isometry is the left site, and its weights, rescaled to
    unit norm, the right one, the new center.  Returns (new_left,
    new_right, ln of the extracted norm, discarded weight squared relative
    to the norm after the gate).  The environment is isometric, so the
    discarded weight is the exact relative distance the cut adds.
    """
    d, _, dl, dm = left.shape
    dr = right.shape[3]
    # (o1,i1,Dl,Dm),(o2,i2,Dm,Dr) -> (o1 | i1,Dl | o2 | i2,Dr)
    theta = left.reshape(-1, dm) @ right.transpose(2, 0, 1, 3).reshape(dm, -1)
    theta = theta.reshape(d, d * dl, d, d * dr).transpose(0, 2, 1, 3)
    # gate (o1',o2' | o1,o2) x theta -> (o1' | i1,Dl | o2' | i2,Dr)
    theta = (gate.reshape(d * d, d * d) @ theta.reshape(d * d, -1)).reshape(d, d, d * dl, d * dr)
    mat = theta.transpose(0, 2, 1, 3).reshape(d * d * dl, d * d * dr)
    u, vh, tail2 = mp._truncated_split(mat, dbond)
    norm = float(np.linalg.norm(vh))
    vh = vh / norm
    keep = vh.shape[0]
    new_left = u.reshape(d, d, dl, keep)
    new_right = vh.reshape(keep, d, d, dr).transpose(1, 2, 0, 3)
    return new_left, new_right, math.log(norm), tail2 / (norm * norm + tail2)


def _power(step: Mpo, n: int, dbond: int | None, layers: list) -> Mpo:
    """step^n by right-to-left square-and-multiply, each product a
    sweeping.product at dbond, recorded with the power it formed and the
    weight its cut discarded (None where the fit truncated)."""
    def times(x, y, layer, power):
        out, disc = sweeping.product(x, y, dbond)
        layers.append({"step": power, "layer": layer, "discarded": disc, "max_bond": out.max_bond()})
        return out

    acc = step if n & 1 else None
    for j in range(1, n.bit_length()):
        step = times(step, step, "square", 1 << j)
        if n >> j & 1:
            acc = step if acc is None else times(acc, step, "product", n & ((2 << j) - 1))
    return acc


def _max_discarded(layers: list) -> float:
    """The largest discarded weight among the records that carry one."""
    return max((l["discarded"] or 0.0 for l in layers), default=0.0)


def _check_build_flags(dbond: int | None, dtau: float) -> None:
    """ValueError unless dbond is None or >= 1 and dtau is finite and > 0."""
    if not (dtau > 0 and math.isfinite(dtau)):
        raise ValueError(f"need a finite dtau > 0, got {dtau}")
    if dbond is not None and dbond < 1:
        raise ValueError(f"need dbond >= 1, got {dbond}")


def thermal_half_state_report(
    p: IsingParams, dbond: int | None = 20, dtau: float = 0.01
):
    """Build M ~ exp(-(beta/2) H) and return (mpo, metadata).

    Starting from the identity MPO, each Trotter step applies the layer
    sandwich [even tau/2][odd tau][even tau/2] of two-site propagators to
    the physical-out legs (left multiplication by the step propagator).
    The even half layers of successive steps are merged, so the layers run
    even-half, odd-full, (even-full, odd-full)..., even-half: 2*steps + 1
    of them, the even-full after step n counted in step n.

    The evolution is TEBD-style: the operator stays in mixed canonical
    form, and each layer is one sweep over its gates, left to right for
    the even layers and right to left for the odd ones.  An odd layer runs
    as a left-to-right sweep over the mirrored chain (mpo._flip), where
    bond i is bond L-2-i and each gate acts on its two sites swapped.
    Before each gate QR steps move the orthogonality center onto the
    gate's pair; the gate's split (mpo._truncated_split) is then cut to at
    most dbond and to a relative tail weight of at most mpo.TRUNC_EPS, and
    leaves the center on the pair's right site.  Around the center the
    environment is isometric, so each cut's relative discarded weight is
    exact.  The metadata lists, per layer, the root-sum-square of these
    weights ("discarded") and the max bond.

    A build of more than POWER_STEPS steps (L <= mpo._chain_limit(2))
    powers one Trotter step S(tau) (_power): 13 fits, one record each, for
    500 steps.  One BLAS thread on 2 vCPUs: L = 10 1.13 -> 0.09 s, L = 100
    at 25 / 100 steps 0.30 / 1.17 -> 0.29 / 0.36 s, but the powered state
    keeps singular values near 1e-14 relative that gate cuts drop: bond
    10, not 8, at 25 steps, and a 36 % slower L = 100 estimate, so the
    crossover keeps those builds linear.

    It starts from the exact identity, unscaled eye sites (1/sqrt(2) has
    no exact float): each is sqrt(2) times an isometry, which keeps those
    weights exact, and each gate moves its pair's norm into log_scale, so
    the sites stay O(1) at any chain length.  The returned MPO is
    canonical: unit tensors, and log_scale = ln_norm = ln of M's norm.
    """
    _check_build_flags(dbond, dtau)
    half_beta = 0.5 * p.beta
    nsteps = max(1, math.ceil(half_beta / dtau))
    tau = half_beta / nsteps
    even = list(range(0, p.L - 1, 2))
    odd = list(range(1, p.L - 1, 2))
    even_half = ("even-half", even, {i: _bond_gate(p, i, 0.5 * tau) for i in even})
    even_full = ("even-full", even, {i: _bond_gate(p, i, tau) for i in even})
    odd_full = ("odd-full", [p.L - 2 - i for i in reversed(odd)],
                {p.L - 2 - i: _bond_gate(p, i, tau).transpose(1, 0, 3, 2) for i in odd})
    # steps [even tau/2][odd tau][even tau/2] meet as [even tau/2][even tau/2],
    # one exact [even tau] layer since the even gates commute
    schedule = [(1, even_half)]
    gated = 1 if nsteps > POWER_STEPS and p.L <= mp._chain_limit(2) else nsteps
    for step in range(1, gated + 1):
        schedule += [(step, odd_full), (step, even_full if step < gated else even_half)]

    sites = [np.eye(2).reshape(2, 2, 1, 1) for _ in range(p.L)]
    log_scale, center = 0.0, 0
    layers = []
    for step, (name, bonds, gates) in schedule:
        mirrored = name == "odd-full"
        if mirrored:
            sites, center = mp._flip(sites), p.L - 1 - center
        disc2 = 0.0
        for i in bonds:
            while center < i:
                mp._move_center(sites, center)
                center += 1
            sites[i], sites[i + 1], dlog, dd2 = _apply_gate(sites[i], sites[i + 1], gates[i], dbond)
            log_scale += dlog
            disc2 += dd2
            center = i + 1
        if mirrored:
            sites, center = mp._flip(sites), p.L - 1 - center
        layers.append(
            {"step": step, "layer": name, "discarded": math.sqrt(disc2),
             "max_bond": max(s.shape[3] for s in sites)}
        )
    # a unit center among isometries: the norm is exp(log_scale)
    m = Mpo(tuple(sites), log_scale, log_scale)
    m = mp.canonicalize(_power(m, nsteps, dbond, layers) if gated < nsteps else m)
    meta = {
        "steps": nsteps,
        "dtau": tau,
        "dbond": dbond,
        "layers": layers,
        "max_discarded": _max_discarded(layers),
    }
    return m, meta


def thermal_half_state(p: IsingParams, dbond: int | None = 20, dtau: float = 0.01) -> Mpo:
    """M ~ exp(-(beta/2) H) with all bonds <= dbond; see
    thermal_half_state_report for the construction and normalization."""
    m, _ = thermal_half_state_report(p, dbond=dbond, dtau=dtau)
    return m


def random_hermitian_mpo(L: int, d: int = 2, dbond: int = 4, seed: int = 0) -> Mpo:
    """Reproducible random Hermitian MPO with unit Frobenius norm.

    For dbond >= 2 a random complex draft of bond floor(dbond/2) is
    symmetrized as (M + M^H)/2, so the result is exactly Hermitian and its
    bonds stay <= dbond; dbond == 1 draws a product of per-site Hermitian
    matrices instead.
    """
    if L < 1:
        raise ValueError(f"need L >= 1, got {L}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if dbond < 1:
        raise ValueError(f"need dbond >= 1, got {dbond}")
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if dbond == 1:
        sites = []
        for _ in range(L):
            g = cplx(d, d)
            sites.append(((g + g.conj().T) / 2).reshape(d, d, 1, 1))
        draft = Mpo(sites=tuple(sites))
        return mp.shift_log_scale(draft, -mp.log_norm(draft))

    db = max(1, dbond // 2)
    bonds = [1]
    for i in range(1, L):
        cap = (d * d) ** min(i, L - i)
        bonds.append(min(db, cap))
    bonds.append(1)
    sites = []
    for i in range(L):
        dl, dr = bonds[i], bonds[i + 1]
        sites.append(cplx(d, d, dl, dr) / math.sqrt(d * max(dl, dr)))
    draft = Mpo(sites=tuple(sites))
    herm = mp.hermitian_part(draft)
    return mp.shift_log_scale(herm, -mp.log_norm(herm))

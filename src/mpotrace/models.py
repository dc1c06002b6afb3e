"""Benchmark input construction: the thermal half-state exp(-beta/2 H) of
the transverse/longitudinal-field Ising chain, built by second-order
Trotter evolution of the identity, plus a reproducible random Hermitian
MPO generator for tests."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import mpo as mp
from .mpo import Mpo
from .tensors import svd

logger = logging.getLogger("mpotrace.models")

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# singular values below this relative floor are treated as exact zeros
# when splitting a gate application back into two site tensors
RANK_EPS = 1e-14


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
    ends, reshaped to (out_i, out_j, in_i, in_j)."""
    field = p.g * PAULI_Z + p.h * PAULI_X
    wl = 1.0 if i == 0 else 0.5
    wr = 1.0 if i + 1 == p.L - 1 else 0.5
    eye = np.eye(2)
    h4 = (
        p.J * np.kron(PAULI_X, PAULI_X)
        + wl * np.kron(field, eye)
        + wr * np.kron(eye, field)
    )
    return sla.expm(-tau * h4).reshape(2, 2, 2, 2)


def _apply_gate_pair(si, sj, gate):
    """Apply a two-site gate to the physical-out legs of neighboring MPO
    sites and split back by a rank-revealing SVD (no bond cap).

    Returns (new_si, new_sj, log_of_extracted_norm).
    """
    d = si.shape[0]
    dl, dr = si.shape[2], sj.shape[3]
    # (o1,i1,Dl,Dm),(o2,i2,Dm,Dr) -> (o1,i1,Dl,o2,i2,Dr)
    theta = np.tensordot(si, sj, axes=([3], [2]))
    # gate (o1',o2',o1,o2) x theta -> (o1',o2',i1,Dl,i2,Dr)
    theta = np.tensordot(gate, theta, axes=([2, 3], [0, 3]))
    # -> (o1',i1,Dl | o2',i2,Dr)
    theta = theta.transpose(0, 2, 3, 1, 4, 5)
    u, s, vh = svd(theta.reshape(d * d * dl, d * d * dr))
    keep = max(1, int(np.count_nonzero(s > RANK_EPS * s[0])))
    u, s, vh = u[:, :keep], s[:keep], vh[:keep, :]
    norm = float(np.linalg.norm(s))
    if norm > 0:
        s = s / norm
    sq = np.sqrt(s)
    new_si = (u * sq).reshape(d, d, dl, keep)
    new_sj = (sq[:, None] * vh).reshape(keep, d, d, dr).transpose(1, 2, 0, 3)
    return new_si, new_sj, math.log(norm) if norm > 0 else 0.0


def _apply_layer(m: Mpo, bonds, gates) -> Mpo:
    sites = list(m.sites)
    log_acc = m.log_scale
    for i in bonds:
        sites[i], sites[i + 1], dlog = _apply_gate_pair(sites[i], sites[i + 1], gates[i])
        log_acc += dlog
    return Mpo(sites=tuple(sites), log_scale=log_acc)


def thermal_half_state_report(
    p: IsingParams, dbond: int | None = 20, dtau: float = 0.01
):
    """Build M ~ exp(-(beta/2) H) and return (mpo, metadata).

    Starting from the identity MPO, each Trotter step applies the layer
    sandwich [even tau/2][odd tau][even tau/2] of two-site propagators to
    the physical-out legs (left multiplication by the step propagator) and
    recompresses with truncate_svd after every layer.  The metadata lists
    the relative discarded weight and max bond per layer.

    The returned MPO is canonicalized: its tensors carry unit Frobenius
    norm and log_scale holds ln of the true norm of M.
    """
    if dtau <= 0:
        raise ValueError(f"need dtau > 0, got {dtau}")
    if dbond is not None and dbond < 1:
        raise ValueError(f"need dbond >= 1, got {dbond}")
    half_beta = 0.5 * p.beta
    nsteps = max(1, math.ceil(half_beta / dtau))
    tau = half_beta / nsteps
    even = list(range(0, p.L - 1, 2))
    odd = list(range(1, p.L - 1, 2))
    gates_half = {i: _bond_gate(p, i, 0.5 * tau) for i in even}
    gates_full = {i: _bond_gate(p, i, tau) for i in odd}
    schedule = [("even-half", even, gates_half), ("odd-full", odd, gates_full),
                ("even-half", even, gates_half)]

    m = mp.identity_mpo(p.L, d=2)
    layers = []
    for step in range(1, nsteps + 1):
        for name, bonds, gates in schedule:
            if bonds:
                m = _apply_layer(m, bonds, gates)
            m, disc = mp.truncate_svd(m, dmax=dbond)
            layers.append(
                {"step": step, "layer": name, "discarded": float(disc),
                 "max_bond": int(m.max_bond())}
            )
    m = mp.canonicalize(m, center=0)
    meta = {
        "steps": nsteps,
        "dtau": tau,
        "dbond": dbond,
        "layers": layers,
        "max_discarded": max((l["discarded"] for l in layers), default=0.0),
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

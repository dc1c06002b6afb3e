"""The state file as the benchmark sees it: plain JSON, read and written
without importing mpotrace, plus the seeded input transform.

An operator file holds `sites`, one nested list per site with axes
(out, in, left bond, right bond, [re, im]), and a real `log_scale`.
"""
from __future__ import annotations

import json

import numpy as np


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def sites(doc: dict) -> list[np.ndarray]:
    out = []
    for raw in doc["sites"]:
        arr = np.asarray(raw, dtype=float)
        out.append(arr[..., 0] + 1j * arr[..., 1])
    return out


def with_sites(doc: dict, new_sites) -> dict:
    out = dict(doc)
    out["sites"] = [np.stack([s.real, s.imag], axis=-1).tolist() for s in new_sites]
    return out


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a complex Gaussian matrix with
    the phases of R's diagonal moved back into Q (Mezzadri 2007)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rotate(doc: dict, seed: int) -> dict:
    """Conjugate the operator site by site, M -> U M U^H with U a product
    of seeded Haar-random single-site unitaries.  The spectrum and the
    bond dimensions are unchanged; the entries become complex."""
    rng = np.random.default_rng(seed)
    rotated = []
    for s in sites(doc):
        u = haar_unitary(rng, s.shape[0])
        rotated.append(np.einsum("ab,bcij,dc->adij", u, s, u.conj()))
    return with_sites(doc, rotated)


def max_imag(doc: dict) -> float:
    return max(float(np.max(np.abs(s.imag))) for s in sites(doc))


def dense(doc: dict) -> np.ndarray:
    """Dense matrix of the site network (log_scale left out), for short
    chains only."""
    ss = sites(doc)
    d = ss[0].shape[0]
    acc = np.ones((1, 1, 1), dtype=complex)  # (rows, cols, right bond)
    for s in ss:
        # acc (r, c, b) x s (o, i, b, k) -> (r, o, c, i, k)
        acc = np.tensordot(acc, s, axes=([2], [2])).transpose(0, 2, 1, 3, 4)
        r, o, c, i, k = acc.shape
        acc = acc.reshape(r * o, c * i, k)
    n = d ** len(ss)
    return acc.reshape(n, n)


def hermitian_spectrum(doc: dict) -> np.ndarray:
    """Eigenvalues of the Hermitian part of the dense operator, ascending.
    Unitary conjugation leaves them unchanged."""
    m = dense(doc)
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))

"""Matrix product operators on an open chain.

Site tensors have the index order (phys out, phys in, left bond, right
bond), and boundary bonds have extent 1.  Every operator carries a real
`log_scale`: the value represented is exp(log_scale) times the
contraction of the site tensors.  One scale convention holds: site data
stay O(1), and every magnitude, such as 2**(L/2) or a partition function,
rides in log_scale.  The identity is built balanced, and the gauge and
fit kernels balance their operands first (`_unit_sites`), so none
multiplies out or squares a norm.

One contraction kernel, `_Target`, serves the package: the fit's sweeps,
their bond growth included, and every closed contraction (inner
products, norms, <u, a u>).  `_close` runs it once along the chain with
a running scale, so a closed value comes back in log form, (mantissa,
log), and becomes a float only through one checked step (`_from_log`).

Every operator has one dtype, fixed when it is built: float64 unless
some site is complex, and then complex128 for every site.  The kernels
take their dtype from their operands by numpy's promotion, so an
operator built from real data is contracted and factorized in real
arithmetic throughout.

One keep rule, `_truncation_rank`, serves every cut: the truncated split
and the fit's bond growth and cancellation test drop the longest tail of
squared weight at most TRUNC_EPS**2 of the whole.

An operator carries `ln_norm`, its ln Frobenius norm, once it is known:
from the code that made it (the identity, zero, an adjoint, a canonical
form, a truncation, a fit, a rescale), or from `log_norm`, which keeps
what it contracts.  So a norm is contracted at most once per operator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, NumericError
from . import tensors

DENSE_MAX_DIM = 2 ** 14
# relative tail weight the keep rule (_truncation_rank) drops even below a cap
TRUNC_EPS = 1e-14


def _as_site(arr, pos: int):
    a = np.asarray(arr)
    # real input (integer and bool included) becomes float64, complex
    # input complex128
    a = np.ascontiguousarray(a, dtype=np.result_type(a, np.float64))
    if a.ndim != 4:
        raise DimensionError(f"site {pos}: expected rank-4 tensor, got rank {a.ndim}")
    return a


def _check_chain(sites) -> None:
    if not sites:
        raise DimensionError("a chain needs at least one site")
    d0 = sites[0].shape[0]
    for i, s in enumerate(sites):
        if s.shape[0] != d0 or s.shape[1] != d0:
            raise DimensionError(f"site {i}: physical extent differs from site 0")
    if sites[0].shape[2] != 1 or sites[-1].shape[3] != 1:
        raise DimensionError("boundary bonds must have extent 1")
    for i in range(len(sites) - 1):
        if sites[i].shape[3] != sites[i + 1].shape[2]:
            raise DimensionError(f"bond mismatch between sites {i} and {i + 1}")


@dataclass(frozen=True)
class Mpo:
    """Matrix product operator; treated as immutable."""

    sites: tuple
    log_scale: float = 0.0
    # ln of the Frobenius norm once known (module docstring); log_norm sets it
    ln_norm: float | None = field(default=None, compare=False)
    metadata: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        sites = tuple(_as_site(s, i) for i, s in enumerate(self.sites))
        _check_chain(sites)
        dt = np.result_type(*sites)
        sites = tuple(s.astype(dt, copy=False) for s in sites)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "log_scale", float(self.log_scale))

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        return self.sites[0].shape[0]

    @property
    def dtype(self) -> np.dtype:
        """float64 or complex128, shared by every site."""
        return self.sites[0].dtype

    def bond_dims(self) -> list[int]:
        return [s.shape[3] for s in self.sites[:-1]]

    def max_bond(self) -> int:
        return max(self.bond_dims(), default=1)


def identity_mpo(L: int, d: int = 2) -> Mpo:
    """Identity on L sites of local dimension d, all bonds 1, balanced:
    sites eye/sqrt(d), and log_scale = ln_norm = (L/2) ln d."""
    if L < 1 or d < 1:
        raise DimensionError("need L >= 1 and d >= 1")
    # sqrt(1/d) rounds correctly at d = 2, where 1/sqrt(2) lands one ulp low
    site = (np.eye(d) * math.sqrt(1.0 / d)).reshape(d, d, 1, 1)
    ln = 0.5 * L * math.log(d)
    return Mpo(tuple(site.copy() for _ in range(L)), ln, ln)


def zero_mpo(L: int, d: int = 2) -> Mpo:
    site = np.zeros((d, d, 1, 1))
    return Mpo(tuple(site.copy() for _ in range(L)), 0.0, -math.inf)


def shift_log_scale(a: Mpo, delta: float) -> Mpo:
    """Multiply by exp(delta) without touching site data."""
    delta = float(delta)
    ln = None if a.ln_norm is None else a.ln_norm + delta
    return Mpo(a.sites, a.log_scale + delta, ln)


def adjoint(a: Mpo) -> Mpo:
    """Hermitian conjugate: swap the physical legs and conjugate."""
    return Mpo(tuple(s.conj().transpose(1, 0, 2, 3) for s in a.sites), a.log_scale, a.ln_norm)


def _check_compatible(a, b) -> None:
    if a.L != b.L:
        raise DimensionError(f"chain lengths differ: {a.L} vs {b.L}")
    if a.d != b.d:
        raise DimensionError(f"physical dimensions differ: {a.d} vs {b.d}")


def exact_add(a: Mpo, b: Mpo, coeff: complex = 1.0) -> Mpo:
    """a + coeff*b by block embedding; interior bonds add exactly."""
    _check_compatible(a, b)
    L, d = a.L, a.d
    # rebase both prefactors onto a common log_scale so neither block
    # over- or underflows when the scales are far apart
    lb = b.log_scale + math.log(abs(coeff)) if coeff != 0 else -math.inf
    ls = max(a.log_scale, lb)
    fa = math.exp(a.log_scale - ls)
    fb = coeff * math.exp(b.log_scale - ls) if coeff != 0 else 0.0
    if L == 1:
        return Mpo((fa * a.sites[0] + fb * b.sites[0],), ls)
    sites = []
    for i in range(L):
        sa, sb = a.sites[i], b.sites[i]
        if i == 0:
            blk = np.concatenate([fa * sa, fb * sb], axis=3)
        elif i == L - 1:
            blk = np.concatenate([sa, sb], axis=2)
        else:
            dla, dra = sa.shape[2], sa.shape[3]
            dlb, drb = sb.shape[2], sb.shape[3]
            blk = np.zeros((d, d, dla + dlb, dra + drb), dtype=np.result_type(sa, sb, coeff))
            blk[:, :, :dla, :dra] = sa
            blk[:, :, dla:, dra:] = sb
        sites.append(blk)
    return Mpo(tuple(sites), ls)


def _flip(sites):
    """The chain read right to left: sites reversed, bond legs swapped."""
    return [s.transpose(0, 1, 3, 2) for s in reversed(sites)]


class _Target:
    """Environments of <x, sum_k w_k a_k@u_k> over a list of operator
    products and their weights (all 1 by default): the package's one
    contraction kernel.  The fit's own product is (a, u); a carried term
    c*t enters as (None, t) with weight c, None standing for the identity,
    and <a, b> is the target [(None, b)] closed over x = a (`_close`).
    Environments are lists with one (x, a_k, u_k) bond tensor per product,
    the identity's bond being 1, unweighted, and local tensors sum the
    products' parts with their weights, so a part, <x, a_k@u_k> at a
    closing solve, survives a weight of 0.

    The kernel holds no state: a caller forms the half-contraction at a
    site once, `half(i, E)`, and passes it to `parts` and `env`, and a
    sweep that grows the bond right of the site to the growth as well
    (sweeping._grow), which sets the weighted halves side by side.  It
    contracts left to right only; a pass right to left runs over
    `mirrored()`, the target on the chain read right to left, whose left
    environments are this target's right environments.  The contractions
    are plain matrix products, the operand sites transposed into matrices
    at each call: every step stays inside BLAS, and no copy of a whole
    operand is held."""

    def __init__(self, products, weights=None):
        self.a = [a for a, _ in products]
        self.u = [u for _, u in products]
        self.w = [1.0] * len(self.a) if weights is None else list(weights)

    def mirrored(self) -> "_Target":
        """The same target on the chain read right to left."""
        return _Target([(None if a is None else _flip(a), _flip(u))
                        for a, u in zip(self.a, self.u)], self.w)

    def boundary(self):
        return [np.ones((1, 1, 1)) for _ in self.a]

    def half(self, i, E):
        """Per product, E_k absorbed into a_k@u_k at site i, flattened to
        (lx*j*o, ra*ru)."""
        out = []
        for a, u, e in zip(self.a, self.u, E):
            c, j, lu, ru = u[i].shape
            lx, la = e.shape[:2]
            # E: (lx, la, lu) @ u_i as (lu, c*j*ru) -> (lx, la, c, j, ru)
            ul = u[i].transpose(2, 0, 1, 3).reshape(lu, c * j * ru)
            t = e.reshape(lx * la, lu) @ ul
            if a is None:
                # the identity: o = c, and its bonds are 1
                out.append(t.reshape(lx, c, j, ru).transpose(0, 2, 1, 3).reshape(lx * j * c, ru))
                continue
            o, ra = a[i].shape[0], a[i].shape[3]
            # contract (la, c) with a_i as (o*ra, la*c), one product per (lx, j)
            # on a view, straight into the parts' layout (lx, j, o, ra, ru)
            t = np.matmul(a[i].transpose(0, 3, 2, 1).reshape(o * ra, la * c),
                          t.reshape(lx, la * c, j, ru).transpose(0, 2, 1, 3))
            out.append(t.reshape(lx * j * o, ra * ru))
        return out

    def bonds(self, i):
        """Per product, its right bond at site i, ra*ru."""
        return [(1 if a is None else a[i].shape[3]) * u[i].shape[3] for a, u in zip(self.a, self.u)]

    def parts(self, half, F):
        """Per product, its part of the local tensor at a site, as an
        (lx*j*o, rx) matrix, from the half-contraction there and the
        environments F right of it."""
        # F_k: (rx, ra, ru); contract ra, ru -> (lx*j*o, rx)
        return [h @ f.transpose(1, 2, 0).reshape(-1, f.shape[0]) for h, f in zip(half, F)]

    def local(self, i, parts):
        """The target's local tensor at site i, (o, j, lx, rx): the sum of
        the products' parts there, weighted."""
        return self.site(i, sum(w * p for w, p in zip(self.w, parts)))

    def site(self, i, t):
        """An (lx*j*o, rx) matrix at site i, the layout of the parts, as a
        site tensor (o, j, lx, rx): a view, whose transpose(2, 1, 0, 3)
        is t again."""
        d = self.u[0][i].shape[1]
        return t.reshape(-1, d, d, t.shape[1]).transpose(2, 1, 0, 3)

    def env(self, i, half, xq):
        """The environment right of site i, from its half-contraction
        there and x's site xq."""
        o, j, lx, rx = xq.shape
        # xq: (o, j, lx, rx); contract lx, j, o -> (rx, ra, ru) per product
        xc = xq.conj().transpose(3, 2, 1, 0).reshape(rx, lx * j * o)
        return [(xc @ h).reshape(rx, -1, u[i].shape[3]) for h, u in zip(half, self.u)]


def _close(target: _Target, x_sites) -> tuple[list, float]:
    """Close <x, a_k@u_k> for every product of target, left to right,
    dividing the environments by their largest entry at every site.
    Returns (mantissas, log), product k's value being mantissas[k] *
    exp(log) without the operands' log_scales: floats when every operand
    is real, and zeros with log -inf once an environment vanishes."""
    env, log = target.boundary(), 0.0
    for i, xq in enumerate(x_sites):
        env = target.env(i, target.half(i, env), xq)
        mag = max(float(np.max(np.abs(e))) for e in env)
        if mag == 0.0:
            return [0.0] * len(env), -math.inf
        env = [e / mag for e in env]
        log += math.log(mag)
    return [e.item() for e in env], log


def _scaled(v, log: float):
    """v * exp(log), saturating to +-inf instead of raising.  A small v
    can bring back into range what exp(log) alone overflows."""
    try:
        return v * math.exp(log) if v != 0 else v
    except OverflowError:
        return _scaled(v / abs(v), log + math.log(abs(v))) if abs(v) < 1 else v * math.inf


def _from_log(mant, log: float, what: str):
    """mant * exp(log), the one checked step from log form to a float
    (complex when mant is): NumericError naming `what` if it overflows."""
    val = _scaled(mant, log)
    if not math.isfinite(abs(val)):
        raise NumericError(f"{what} = {mant!r} * e^{log!r} overflows float64")
    return val


def inner_product_scaled(a: Mpo, b: Mpo) -> tuple[complex, float]:
    """Frobenius inner product <a, b> = tr(a^H b), closed as the target
    [(None, b)], the identity times b, over x = a, never densified, as
    (mantissa, log): value = mantissa * exp(log).  The mantissa is a float
    when both are real."""
    _check_compatible(a, b)
    (mant,), log = _close(_Target([(None, b.sites)]), a.sites)
    return mant, log + a.log_scale + b.log_scale


def log_norm(a: Mpo) -> float:
    """ln of the Frobenius norm; -inf for the zero operator.  Reads
    a.ln_norm when it is set; otherwise closes <a, a> once and keeps it in
    a.ln_norm, so that later calls read it."""
    if a.ln_norm is None:
        # the kernel itself: a norm is one public call, not two
        (mant,), log = _close(_Target([(None, a.sites)]), a.sites)
        # mant can round to <= 0 only when the norm is lost in roundoff
        ln = 0.5 * (math.log(mant.real) + log) + a.log_scale if mant.real > 0 else -math.inf
        object.__setattr__(a, "ln_norm", ln)
    return a.ln_norm


def _chain_limit(d: int) -> float:
    """The longest chain whose d^L = tr(I) is a float64: 1023 at d = 2, and
    no limit (inf) at d = 1, where tr(I) = 1 at any L."""
    return math.inf if d == 1 else math.ceil(math.log(np.finfo(np.float64).max) / math.log(d)) - 1


def frobenius_norm(a: Mpo) -> float:
    return _from_log(1.0, log_norm(a), "Frobenius norm")


def dense(a: Mpo) -> np.ndarray:
    """Full matrix.  Guarded: refuses when the dense physical dimension
    exceeds 2**14."""
    dim = a.d ** a.L
    if dim > DENSE_MAX_DIM:
        raise CapacityError(f"dense matrix would be {dim}x{dim}; limit is {DENSE_MAX_DIM}")
    acc = np.ones((1,))  # trailing index: right bond
    for s in a.sites:
        acc = np.tensordot(acc, s, axes=([acc.ndim - 1], [2]))
    acc = acc.reshape(acc.shape[:-1])  # drop the trailing unit boundary
    # axes are (o1, i1, o2, i2, ...); bring all outs before all ins
    L = a.L
    perm = list(range(0, 2 * L, 2)) + list(range(1, 2 * L, 2))
    mat = acc.transpose(perm).reshape(dim, dim)
    return mat * math.exp(a.log_scale)


def _split_left(site: np.ndarray):
    """QR split of an Mpo site, orthonormal over (out, in, left)."""
    d1, d2, dl, dr = site.shape
    q, r = tensors.qr(site.reshape(d1 * d2 * dl, dr))
    return q.reshape(d1, d2, dl, -1), r


def _into_left_bond(r: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Contract the matrix r (k, Dl) into the left bond of site."""
    o, j, dl, dr = site.shape
    out = r @ site.transpose(2, 0, 1, 3).reshape(dl, o * j * dr)
    return out.reshape(-1, o, j, dr).transpose(1, 2, 0, 3)


def _move_center(sites: list, i: int) -> None:
    """The one gauge step, in place: QR-split sites[i] into a left
    isometry and absorb R into sites[i + 1], which becomes the
    orthogonality center.  The dense value is unchanged.  A step to the
    left is this step on the mirrored chain (_flip)."""
    sites[i], r = _split_left(sites[i])
    sites[i + 1] = _into_left_bond(r, sites[i + 1])


def _truncation_rank(s: np.ndarray, dmax: int | None, total2: float | None = None) -> tuple[int, float]:
    """The package's one keep rule (_truncated_split, sweeping).  Of the
    descending singular values s, keep the fewest whose dropped tail
    carries at most TRUNC_EPS**2 of the whole squared weight, total2 or
    else sum(s**2), then at most dmax: none where all of s fits in that
    budget, as an all-zero s does.

    Returns (keep, squared weight of the dropped tail)."""
    tail2 = np.concatenate([np.cumsum((s * s)[::-1])[::-1], [0.0]])  # tail2[k] = sum of s[k:]**2
    budget = TRUNC_EPS * TRUNC_EPS * (float(s @ s) if total2 is None else total2)
    keep = int(np.searchsorted(-tail2, -budget))  # smallest k with tail2[k] <= budget
    if dmax is not None:
        keep = min(keep, dmax)
    return keep, float(tail2[keep])


def _truncated_split(mat: np.ndarray, dmax: int | None):
    """The one truncated split: mat ~ u @ c, cut by _truncation_rank to one column at least.

    u holds the kept left singular vectors (orthonormal columns, a copy,
    so that it does not keep the full factor alive) and c = u^H @ mat their
    weights, diag(s) V^H on the kept rows, formed by one matrix product.
    Returns (u, c, tail2), tail2 being the squared weight dropped, so
    ||mat - u @ c||^2 = tail2."""
    u, s = tensors.svd(mat)
    keep, tail2 = _truncation_rank(s, dmax)
    u = u[:, :max(keep, 1)].copy()
    return u, u.conj().T @ mat, tail2


def _unit_sites(a: Mpo):
    """The one balancing step: the sites rescaled uniformly so that their
    contraction has unit Frobenius norm, and ln||a|| (log_scale included),
    read from a known norm (log_norm), for canonicalize and the fit's
    operands; every intermediate that multiplies balanced sites stays O(1).
    (A closed contraction needs none: `_close` carries a running scale.)
    Returns (sites unscaled, -inf) when the norm is 0."""
    ln_full = log_norm(a)
    if ln_full == -math.inf:
        return [s.copy() for s in a.sites], -math.inf
    # log of the raw tensor-network norm, spread evenly across the sites
    f = math.exp(-(ln_full - a.log_scale) / a.L)
    return [s * f for s in a.sites], ln_full


def canonicalize(a: Mpo) -> Mpo:
    """Bring to right-canonical form: every site but site 0 becomes a
    right-isometry, and site 0, the center, is rescaled to unit norm with
    the norm moved into log_scale.  The dense value is unchanged.  The
    gauge steps run on balanced sites, so the center stays O(1); they are
    a left-to-right pass over the mirrored chain, whose left isometries
    are right isometries here.
    """
    sites, ln = _unit_sites(a)
    ls = ln if ln > -math.inf else a.log_scale
    right = _flip(sites)
    for i in range(a.L - 1):
        _move_center(right, i)
    sites = _flip(right)
    nrm = np.linalg.norm(sites[0])
    if nrm > 0:
        sites[0] = sites[0] / nrm
        ls += math.log(nrm)
        # unit center surrounded by isometries: the norm is exp(ls) exactly
        return Mpo(tuple(sites), ls, ls)
    return Mpo(tuple(sites), ls, -math.inf)


def truncate_svd(a: Mpo, dmax: int | None = None) -> tuple[Mpo, float]:
    """Compress every interior bond to at most dmax, discarding relative
    singular-value weight up to TRUNC_EPS per bond (_truncated_split).

    Returns the truncated operator and the accumulated root-sum-square of
    the discarded singular values relative to the norm of a.  A single
    sweep from a right-canonical form; the discarded pieces at different
    bonds are mutually orthogonal, so the reported error equals the true
    relative distance (up to roundoff).  The fit starts from it when its
    operand u has a bond above the ones the fit outputs
    (sweeping.multiply_and_optimize), and the fit tests compare against
    it.
    """
    if dmax is not None and dmax < 1:
        raise DimensionError("dmax must be >= 1")
    w = canonicalize(a)
    sites = list(w.sites)
    L = w.L
    disc2 = 0.0
    for i in range(L - 1):
        d1, d2, dl, dr = sites[i].shape
        u, c, tail2 = _truncated_split(sites[i].reshape(d1 * d2 * dl, dr), dmax)
        disc2 += tail2
        sites[i] = u.reshape(d1, d2, dl, -1)
        sites[i + 1] = _into_left_bond(c, sites[i + 1])
    # left-isometries everywhere except the last site, which carries the
    # remaining weight: the norm reduces to that site's Frobenius norm
    tail = float(np.linalg.norm(sites[L - 1]))
    out = Mpo(tuple(sites), w.log_scale, w.log_scale + math.log(tail) if tail > 0 else -math.inf)
    return out, math.sqrt(max(disc2, 0.0))


def hermitian_part(a: Mpo) -> Mpo:
    """(a + a^H)/2; bonds at most double."""
    return shift_log_scale(exact_add(a, adjoint(a)), math.log(0.5))


def save_json(a: Mpo, path: str, metadata: dict | None = None) -> None:
    """Write an Mpo to a JSON file.  Every entry is stored as an innermost
    [re, im] pair, the imaginary parts of a real operator as 0.  An
    optional metadata dict is stored next to the tensors; load_json hands
    it back on the operator's `metadata`.  The document is encoded in one
    piece by json.dumps, which runs the C encoder; json.dump on a file
    streams through the pure-Python one, three times slower on a long
    chain, for the same bytes."""
    doc = {
        "kind": "mpo",
        "L": a.L,
        "d": a.d,
        "log_scale": a.log_scale,
        "sites": [np.stack([s.real, s.imag], axis=-1).tolist() for s in a.sites],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_json(path: str) -> Mpo:
    """Read an Mpo written by save_json, with the file's metadata (None
    without any) on its `metadata`.  It is float64 when every imaginary
    part in the file is exactly 0, complex128 otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NumericError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    try:
        kind = doc["kind"]
        L, d = doc["L"], doc["d"]
        ls = float(doc["log_scale"])
        raw = doc["sites"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # an integer log_scale past the float range overflows float()
        raise NumericError(f"{path}: missing or malformed field ({exc})") from exc
    if kind != "mpo":
        raise NumericError(f"{path}: unknown kind {kind!r}")
    if type(L) is not int or type(d) is not int:
        raise NumericError(f"{path}: header L and d must be integers, got {L!r} and {d!r}")
    if not isinstance(raw, list) or len(raw) != L:
        raise NumericError(f"{path}: L={L} but sites is not a list of {L} site tensors")
    sites = []
    for i, entry in enumerate(raw):
        try:
            arr = np.asarray(entry, dtype=float)
        except (TypeError, ValueError) as exc:
            raise NumericError(f"{path}: site {i} is not a regular array of numbers ({exc})") from exc
        if arr.ndim == 0 or arr.shape[-1] != 2:
            raise NumericError(f"{path}: site {i} entries must be [re, im] pairs")
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"{path}: site {i} contains non-finite entries")
        # a real site stays real; Mpo promotes every site to complex128
        # when any other site is complex
        re, im = arr[..., 0], arr[..., 1]
        sites.append(re + 1j * im if np.any(im) else re)
    if not math.isfinite(ls):
        raise NumericError(f"{path}: log_scale is not finite")
    try:
        obj = Mpo(tuple(sites), ls, metadata=doc.get("metadata"))
    except DimensionError as exc:
        raise NumericError(f"{path}: inconsistent site shapes ({exc})") from exc
    if obj.d != d:
        raise NumericError(f"{path}: header d={d} but site tensors have d={obj.d}")
    return obj

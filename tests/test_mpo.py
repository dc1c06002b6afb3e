"""MPO value semantics: construction, arithmetic, gauge, truncation, IO."""
import json
import math
import os

import numpy as np
import pytest

from mpotrace import mpo as mp
from mpotrace.sweeping import multiply_and_optimize
from mpotrace.errors import CapacityError, DimensionError, NumericError

from conftest import exact_multiply, inner, random_mpo, real_part, with_spectrum


def test_identity_dense_small():
    assert np.allclose(mp.dense(mp.identity_mpo(1)), np.eye(2))
    assert np.allclose(mp.dense(mp.identity_mpo(3)), np.eye(8))


def test_identity_frobenius_norm():
    # ||I_N||_F = sqrt(N) = 2^(L/2)
    assert abs(mp.frobenius_norm(mp.identity_mpo(10)) - 32.0) < 1e-12


def test_inner_product_identity():
    assert abs(inner(mp.identity_mpo(10), mp.identity_mpo(10)) - 1024.0) < 1e-9


def test_identity_is_balanced_past_float_range():
    # <I, I> = 2^1100 overflows float64; in log form it is 1100 ln 2, and
    # the identity's sites are unit tensors with the norm in log_scale
    eye = mp.identity_mpo(1100)
    mant, logv = mp.inner_product_scaled(eye, eye)
    assert abs(math.log(mant) + logv - 1100 * math.log(2.0)) < 1e-10
    assert eye.log_scale == eye.ln_norm == 550 * math.log(2.0)
    assert all(abs(np.linalg.norm(s) - 1.0) < 1e-15 for s in eye.sites)
    # the trace tr(2 I) = 2^1101 as <I, 2 I>
    mant, logv = mp.inner_product_scaled(eye, mp.shift_log_scale(eye, math.log(2.0)))
    assert abs(math.log(mant) + logv - 1101 * math.log(2.0)) < 1e-10


def test_canonicalize_long_chain_keeps_norm_in_log_scale():
    # 600 sites of 2 I: the network norm (2 sqrt 2)^600 squared overflows
    site = 2.0 * np.eye(2).reshape(2, 2, 1, 1)
    g = mp.canonicalize(mp.Mpo(tuple(site for _ in range(600))))
    want = 600 * math.log(2.0 * math.sqrt(2.0))
    assert abs(g.log_scale - want) < 1e-10 * want
    assert g.ln_norm == g.log_scale
    assert all(np.all(np.isfinite(s)) for s in g.sites)
    assert abs(mp.log_norm(mp.Mpo(g.sites)) - 0.0) < 1e-10
    # a huge identity is already balanced
    big = mp.canonicalize(mp.identity_mpo(1030))
    assert abs(big.log_scale - 515 * math.log(2.0)) < 1e-10


def test_inner_product_dense_oracle():
    for seed in range(6):
        m = random_mpo(6, 4, seed)
        ip = inner(m, m)
        assert ip.real >= 0.0
        ref = np.linalg.norm(mp.dense(m)) ** 2
        assert abs(ip.real - ref) < 1e-8 * max(ref, 1.0)


def test_inner_product_conjugate_symmetry():
    for seed in range(5):
        a = random_mpo(5, 3, seed)
        b = random_mpo(5, 3, 100 + seed)
        assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-10


@pytest.mark.parametrize("cplx", [False, True])
def test_half_matches_einsum(cplx):
    # the half-contraction of every product, a general one and the
    # identity's, in the parts' layout (lx*j*o, ra*ru), on the target and
    # on its mirror, whose sites are transposed views
    rng = np.random.default_rng(3)
    a, u, t = random_mpo(4, 3, 1), random_mpo(4, 2, 2), random_mpo(4, 3, 3)
    if not cplx:
        a, u, t = real_part(a), real_part(u), real_part(t)
    target = mp._Target([(list(a.sites), list(u.sites)), (None, list(t.sites))], [1.0, -0.5])
    for tg in (target, target.mirrored()):
        asites, usites, tsites = tg.a[0], tg.u[0], tg.u[1]
        for i in range(4):
            lx = 1 + i
            envs = [rng.standard_normal((lx, asites[i].shape[2], usites[i].shape[2])),
                    rng.standard_normal((lx, 1, tsites[i].shape[2]))]
            if cplx:
                envs = [e + 1j * rng.standard_normal(e.shape) for e in envs]
            half = tg.half(i, envs)
            o, _, _, ra = asites[i].shape
            ref = np.einsum("xlu,oclr,cjuv->xjorv", envs[0], asites[i], usites[i])
            assert np.allclose(half[0], ref.reshape(lx * 2 * o, -1), rtol=0, atol=1e-13)
            ref = np.einsum("xu,cjuv->xjcv", envs[1][:, 0], tsites[i])
            assert np.allclose(half[1], ref.reshape(lx * 2 * 2, -1), rtol=0, atol=1e-13)
            assert half[0].dtype == half[1].dtype == (np.complex128 if cplx else np.float64)


@pytest.mark.parametrize("cplx", [False, True])
def test_close_returns_each_products_value(cplx):
    # a target with carried terms, as a Lanczos step holds it, closed over
    # a trial operator at another bond
    a, u, u_prev, x = (random_mpo(5, 3, 1), random_mpo(5, 4, 2), random_mpo(5, 2, 3),
                       random_mpo(5, 3, 4))
    if not cplx:
        a, u, u_prev, x = map(real_part, (a, u, u_prev, x))
    # a carried term is the identity, None, times its block; the weights
    # enter only where a fit sums the parts, not in the closed values
    products = [(a.sites, u.sites), (None, u.sites), (None, u_prev.sites)]
    mants, log = mp._close(mp._Target(products, [1.0, -0.8, 0.3]), x.sites)
    assert len(mants) == 3
    for mant, (a_k, u_k) in zip(mants, products):
        assert isinstance(mant, float) == (not cplx)
        got = mant * math.exp(log)
        (alone,), log_alone = mp._close(mp._Target([(a_k, u_k)]), x.sites)
        op = np.eye(32) if a_k is None else mp.dense(mp.Mpo(tuple(a_k)))
        ref = np.vdot(mp.dense(x), op @ mp.dense(mp.Mpo(tuple(u_k))))
        assert abs(got - alone * math.exp(log_alone)) <= 1e-12 * abs(ref)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_close_keeps_the_scale_past_underflow():
    # <x, a@u> over 1100 sites of 0.1 eye is tr(1e-3 I_2)^1100 = 0.002^1100
    sites = [0.1 * np.eye(2).reshape(2, 2, 1, 1)] * 1100
    target = mp._Target([(sites, sites)])
    raw = target.boundary()
    for i, s in enumerate(sites):
        raw = target.env(i, target.half(i, raw), s)
    assert raw[0].item() == 0.0
    (mant,), log = mp._close(target, sites)
    want = 1100 * math.log(0.002)
    assert abs(math.log(mant) + log - want) < 1e-12 * abs(want)


def test_frobenius_norm_homogeneity():
    m = random_mpo(5, 3, 7)
    assert abs(mp.frobenius_norm(mp.shift_log_scale(m, math.log(2.0)))
               - 2.0 * mp.frobenius_norm(m)) < 1e-10


def test_frobenius_norm_dense_oracle():
    for seed in range(5):
        m = random_mpo(6, 4, seed)
        ref = np.linalg.norm(mp.dense(m))
        assert abs(mp.frobenius_norm(m) - ref) < 1e-10 * ref


def test_exact_add_cancellation():
    a = random_mpo(4, 3, 5)
    out = mp.exact_add(a, a, -1.0)
    assert np.max(np.abs(mp.dense(out))) < 1e-12


def test_exact_add_bond_arithmetic():
    a = random_mpo(5, 3, 0)
    b = random_mpo(5, 4, 1)
    out = mp.exact_add(a, b)
    assert out.bond_dims() == [7, 7, 7, 7]


def test_exact_add_dense_oracle():
    for seed in range(5):
        a = random_mpo(5, 3, seed)
        b = random_mpo(5, 4, 50 + seed)
        c = 0.3 - 1.2j
        assert np.allclose(mp.dense(mp.exact_add(a, b, c)), mp.dense(a) + c * mp.dense(b), atol=1e-12)


def test_exact_multiply_identity():
    m = random_mpo(4, 3, 9)
    out = exact_multiply(mp.identity_mpo(4), m)
    assert np.allclose(mp.dense(out), mp.dense(m), atol=1e-12)


def test_exact_multiply_bond_arithmetic():
    a = random_mpo(5, 3, 0)
    b = random_mpo(5, 4, 1)
    assert exact_multiply(a, b).bond_dims() == [12, 12, 12, 12]


def test_exact_multiply_dense_oracle():
    for seed in range(5):
        a = random_mpo(4, 3, seed)
        b = random_mpo(4, 3, 70 + seed)
        assert np.allclose(mp.dense(exact_multiply(a, b)), mp.dense(a) @ mp.dense(b), atol=1e-12)


def test_canonicalize_value_and_isometries():
    # on a real and on a complex operand: a unit center at site 0 and
    # right-isometries after it
    cplx = random_mpo(5, 4, 3)
    for m in (real_part(cplx), cplx):
        ref = mp.dense(m)
        g = mp.canonicalize(m)
        where = m.dtype
        assert g.dtype == m.dtype, where
        assert np.allclose(mp.dense(g), ref, atol=1e-10 * np.max(np.abs(ref))), where
        assert abs(np.linalg.norm(g.sites[0]) - 1.0) < 1e-12, where
        assert abs(g.ln_norm - math.log(np.linalg.norm(ref))) < 1e-12, where
        for i, s in enumerate(g.sites[1:], 1):
            d1, d2, dl, dr = s.shape
            mat = s.transpose(2, 0, 1, 3).reshape(dl, d1 * d2 * dr)
            assert np.linalg.norm(mat @ mat.conj().T - np.eye(dl)) < 1e-12, (where, i, "right")


def test_unit_sites_copies_only_non_canonical_operands():
    # an operand whose norm is its log_scale, as canonicalize and the
    # identity build it and a rescale keeps it, needs no balancing: its own
    # sites come back.  Any other operand's come back scaled, as copies
    cplx = random_mpo(5, 3, 6)
    for m in (real_part(cplx), cplx):
        g = mp.canonicalize(m)
        for op in (g, mp.shift_log_scale(g, -g.ln_norm), mp.identity_mpo(5)):
            sites, ln = mp._unit_sites(op)
            assert ln == op.ln_norm
            assert all(s is t for s, t in zip(sites, op.sites))
        sites, ln = mp._unit_sites(m)
        assert ln == mp.log_norm(m)
        assert not any(np.shares_memory(s, t) for s, t in zip(sites, m.sites))
        assert abs(mp.log_norm(mp.Mpo(tuple(sites)))) < 1e-12


def test_canonicalize_idempotent():
    m = random_mpo(5, 3, 8)
    once = mp.canonicalize(m)
    twice = mp.canonicalize(once)
    assert np.allclose(mp.dense(once), mp.dense(twice), atol=1e-12)


def test_canonicalize_center_of_unit_norm_carries_log_scale():
    m = random_mpo(4, 3, 2)
    g = mp.canonicalize(m)
    # all norm lives in log_scale, tensor network has unit norm
    assert abs(mp.log_norm(mp.Mpo(g.sites)) - 0.0) < 1e-10


def test_truncate_noop_below_cap():
    m = random_mpo(5, 3, 4)
    out, err = mp.truncate_svd(m, dmax=16)
    assert err < 1e-12
    assert np.allclose(mp.dense(out), mp.dense(m), atol=1e-10)


def test_truncate_rank_one_collapses():
    # product operator (true bond 1) stored redundantly at bond 4
    rng = np.random.default_rng(0)
    prod = mp.Mpo(tuple((rng.standard_normal((2, 2, 1, 1)) + 1j * rng.standard_normal((2, 2, 1, 1))) for _ in range(4)))
    padded = mp.exact_add(prod, random_mpo(4, 3, 1), 0.0)
    assert max(padded.bond_dims()) == 4
    out, err = mp.truncate_svd(padded, dmax=4)
    assert max(out.bond_dims()) == 1
    assert err < 1e-12
    assert np.allclose(mp.dense(out), mp.dense(prod), atol=1e-12)


def test_truncate_error_matches_dense_distance():
    # reported error is relative to the input norm
    for seed in range(4):
        m = random_mpo(5, 8, seed)
        out, err = mp.truncate_svd(m, dmax=4)
        rel = np.linalg.norm(mp.dense(out) - mp.dense(m)) / np.linalg.norm(mp.dense(m))
        assert abs(err - rel) < 1e-10, (seed, err, rel)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("shape", [(8, 30), (30, 8), (12, 12)])
def test_truncated_split(shape, cplx):
    m, n = shape
    k = min(m, n)
    # a cap that binds, no cap, and a spectrum whose tail lies below
    # TRUNC_EPS of the total weight, which the rule drops without a cap
    cases = [(0.8 ** np.arange(k), 3, 3), (0.8 ** np.arange(k), None, k),
             (np.r_[1.0, 0.5, 0.25, np.full(k - 3, 1e-16)], None, 3)]
    for seed, (s, dmax, keep) in enumerate(cases):
        mat = with_spectrum(m, n, s, seed, cplx)
        u, c, tail2 = mp._truncated_split(mat, dmax)
        assert u.shape == (m, keep) and c.shape == (keep, n)
        assert u.dtype == c.dtype == mat.dtype
        assert u.flags["C_CONTIGUOUS"]
        assert np.linalg.norm(u.conj().T @ u - np.eye(keep)) < 1e-13
        assert abs(tail2 - float(s[keep:] @ s[keep:])) <= 1e-12 * float(s @ s)
        dist2 = np.linalg.norm(mat - u @ c) ** 2
        assert abs(dist2 - tail2) <= 1e-12 * np.linalg.norm(mat) ** 2, (seed, dist2, tail2)


def test_truncation_rank_against_a_given_total():
    s = np.array([1e-15, 1e-30])
    # against its own weight the rule drops the tail 1e-60; against a
    # total of 1 the whole spectrum, 1e-30, fits in the budget 1e-28, and
    # the rule keeps none
    assert mp._truncation_rank(s, None) == (1, 1e-30 * 1e-30)
    assert mp._truncation_rank(s, 5, 1e-30) == (1, 1e-30 * 1e-30)
    keep, tail2 = mp._truncation_rank(s, None, 1.0)
    assert keep == 0 and tail2 == pytest.approx(1e-30)
    # an all-zero spectrum keeps none, as a bond growth sees it, but the
    # truncated split of a zero matrix still returns one column of weight 0
    assert mp._truncation_rank(np.zeros(3), 2, 0.0) == (0, 0.0)
    assert mp._truncation_rank(np.zeros(3), None) == (0, 0.0)
    u, c, tail2 = mp._truncated_split(np.zeros((6, 4)), None)
    assert u.shape == (6, 1) and c.shape == (1, 4)
    assert np.linalg.norm(u) == pytest.approx(1.0) and not np.any(c) and tail2 == 0.0


def test_hermitian_part_cases():
    h = random_mpo(4, 3, 1)
    herm = mp.exact_add(h, mp.adjoint(h))
    assert np.allclose(mp.dense(mp.hermitian_part(herm)), mp.dense(herm), atol=1e-12)
    anti = mp.exact_add(h, mp.adjoint(h), -1.0)
    assert np.max(np.abs(mp.dense(mp.hermitian_part(anti)))) < 1e-12
    m = random_mpo(4, 3, 2)
    ref = 0.5 * (mp.dense(m) + mp.dense(m).conj().T)
    assert np.allclose(mp.dense(mp.hermitian_part(m)), ref, atol=1e-12)


def test_trace_is_inner_product_with_identity():
    for seed in range(5):
        m = random_mpo(5, 4, seed)
        assert abs(inner(mp.identity_mpo(5), m) - np.trace(mp.dense(m))) < 1e-10


def test_log_scale_semantics_huge_prefactor():
    m = random_mpo(4, 3, 6)
    big = mp.shift_log_scale(m, 500.0)
    # norm arithmetic stays in log space, no overflow
    assert abs(mp.log_norm(big) - (mp.log_norm(m) + 500.0)) < 1e-10
    mant, logv = mp.inner_product_scaled(big, big)
    assert np.isfinite(mant.real) and np.isfinite(logv)
    assert abs((np.log(mant.real) + logv) - 2 * mp.log_norm(big)) < 1e-10


def test_log_norm_reads_ln_norm_and_keeps_what_it_contracts():
    m = random_mpo(5, 4, 13)
    before = [s.copy() for s in m.sites]
    assert m.ln_norm is None
    ln = mp.log_norm(m)
    # the contracted norm is kept; the value is not touched
    assert m.ln_norm == ln
    assert m.log_scale == 0.0
    assert all(np.array_equal(s, b) for s, b in zip(m.sites, before))
    assert abs(ln - np.log(np.linalg.norm(mp.dense(m)))) < 1e-12
    # a set ln_norm is read as is
    tagged = mp.Mpo(m.sites, m.log_scale, ln_norm=1.25)
    assert mp.log_norm(tagged) == 1.25
    assert tagged.ln_norm == 1.25


def test_ln_norm_matches_contraction_where_set():
    m = mp.shift_log_scale(random_mpo(5, 6, 21), 3.0)
    a, u = random_mpo(5, 3, 22), random_mpo(5, 3, 23)
    memo = mp.shift_log_scale(random_mpo(5, 4, 24), -2.0)
    mp.log_norm(memo)
    made = {
        "identity": mp.identity_mpo(7, d=3),
        "adjoint": mp.adjoint(mp.canonicalize(m)),
        "zero": mp.zero_mpo(5),
        "memoized log_norm": memo,
        "canonicalize": mp.canonicalize(m),
        "truncate_svd": mp.truncate_svd(m, dmax=3)[0],
        "shift_log_scale": mp.shift_log_scale(mp.canonicalize(m), -7.5),
        "multiply_and_optimize": multiply_and_optimize(a, u, 4).mpo,
        "multiply_and_optimize with terms": multiply_and_optimize(a, u, 4, terms=[(-0.5, u)]).mpo,
    }
    for name, x in made.items():
        assert x.ln_norm is not None, name
        contracted = mp.log_norm(mp.Mpo(x.sites, x.log_scale))
        assert x.ln_norm == contracted or abs(x.ln_norm - contracted) < 1e-12, \
            (name, x.ln_norm, contracted)
    assert mp.shift_log_scale(random_mpo(5, 6, 25), 1.0).ln_norm is None


def test_dense_includes_log_scale():
    m = random_mpo(3, 2, 3)
    shifted = mp.shift_log_scale(m, 2.0)
    assert np.allclose(mp.dense(shifted), np.exp(2.0) * mp.dense(m), atol=1e-12)


def test_dense_capacity_guard():
    with pytest.raises(CapacityError):
        mp.dense(mp.identity_mpo(20))


def test_chain_validation():
    good = random_mpo(3, 2, 0)
    sites = list(good.sites)
    sites[1] = sites[1][:, :, :1, :]  # break the bond match
    with pytest.raises(DimensionError):
        mp.Mpo(tuple(sites))
    bad_boundary = [s.copy() for s in good.sites]
    bad_boundary[0] = np.concatenate([bad_boundary[0]] * 2, axis=2)
    with pytest.raises(DimensionError):
        mp.Mpo(tuple(bad_boundary))


def test_save_load_roundtrip(tmp_path):
    m = mp.shift_log_scale(random_mpo(4, 3, 12), 1.5)
    path = os.path.join(tmp_path, "m.json")
    mp.save_json(m, path, metadata={"note": "roundtrip"})
    back = mp.load_json(path)
    assert back.log_scale == m.log_scale
    assert back.L == m.L and back.d == m.d
    for s_out, s_in in zip(back.sites, m.sites):
        assert np.array_equal(s_out, s_in)


def test_save_json_bytes_match_streaming_encoder(tmp_path):
    # one json.dumps (C encoder) writes what json.dump (pure Python) would
    m = mp.shift_log_scale(random_mpo(5, 4, 3), -0.25)
    meta = {"steps": 3, "layers": [{"step": 1, "discarded": 1e-17, "max_bond": 4}]}
    path = os.path.join(tmp_path, "m.json")
    mp.save_json(m, path, metadata=meta)
    doc = {"kind": "mpo", "L": m.L, "d": m.d, "log_scale": m.log_scale,
           "sites": [np.stack([s.real, s.imag], axis=-1).tolist() for s in m.sites],
           "metadata": meta}
    ref = os.path.join(tmp_path, "ref.json")
    with open(ref, "w") as fh:
        json.dump(doc, fh)
    with open(path, "rb") as a, open(ref, "rb") as b:
        assert a.read() == b.read()


def test_load_malformed_file_names_path(tmp_path):
    path = os.path.join(tmp_path, "broken.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(NumericError) as exc:
        mp.load_json(path)
    assert "broken.json" in str(exc.value)

    path2 = os.path.join(tmp_path, "wrongkind.json")
    with open(path2, "w") as fh:
        json.dump({"kind": "tensor", "L": 2, "d": 2, "log_scale": 0.0, "sites": []}, fh)
    with pytest.raises(NumericError) as exc:
        mp.load_json(path2)
    assert "wrongkind.json" in str(exc.value)

    # a ragged site, sites that are not a list, a non-numeric entry, and
    # bytes that are not UTF-8
    site = np.zeros((2, 2, 1, 1, 2)).tolist()
    header = '{"kind": "mpo", "L": 2, "d": 2, "log_scale": 0.0, "sites": '
    bodies = {
        "ragged.json": json.dumps([[[1.0, 0.0], [1.0]], site]),
        "scalar.json": "5",
        "text.json": json.dumps([[["one", 0.0]], site]),
        "latin1.json": json.dumps([site, site]) + ', "note": "caf\u00e9"',
    }
    for name, body in bodies.items():
        bad = os.path.join(tmp_path, name)
        with open(bad, "wb") as fh:
            fh.write((header + body + "}").encode("latin-1"))
        with pytest.raises(NumericError) as exc:
            mp.load_json(bad)
        assert name in str(exc.value)


@pytest.mark.parametrize("L, d, key, value", [(4, 2, "L", 4.7), (4, 2, "L", "4"), (1, 2, "L", True),
                                          (4, 2, "d", 2.0), (4, 1, "d", True)])
def test_load_rejects_non_integer_header(tmp_path, L, d, key, value):
    # each header names the file's own count, but not as a JSON integer
    path = os.path.join(tmp_path, "header.json")
    mp.save_json(mp.identity_mpo(L, d), path)
    with open(path) as fh:
        doc = json.load(fh)
    doc[key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(NumericError, match="header.json"):
        mp.load_json(path)


def test_dtype_rule_construction():
    assert mp.identity_mpo(3).dtype == np.float64
    assert mp.zero_mpo(3).dtype == np.float64
    ints = mp.Mpo(tuple(np.eye(2, dtype=int).reshape(2, 2, 1, 1) for _ in range(2)))
    bools = mp.Mpo(tuple(np.eye(2, dtype=bool).reshape(2, 2, 1, 1) for _ in range(2)))
    assert ints.dtype == bools.dtype == np.float64
    # one complex site makes every site complex128
    sites = list(mp.identity_mpo(3).sites)
    sites[1] = sites[1] * 1j
    mixed = mp.Mpo(tuple(sites))
    assert [s.dtype for s in mixed.sites] == [np.complex128] * 3


def test_dtype_rule_real_stays_float64():
    a, b = real_part(random_mpo(5, 3, 0)), real_part(random_mpo(5, 4, 1))
    outs = [mp.exact_add(a, b, -0.5), exact_multiply(a, b), mp.canonicalize(a),
            mp.truncate_svd(exact_multiply(a, b), dmax=5)[0], mp.adjoint(a),
            mp.shift_log_scale(a, math.log(2.0))]
    for out in outs:
        assert [s.dtype for s in out.sites] == [np.float64] * 5
    # the transfer contractions of real operators give real numbers
    assert isinstance(inner(a, b), float)
    assert isinstance(inner(mp.identity_mpo(5), a), float)
    assert mp.dense(a).dtype == np.float64


def test_dtype_rule_complex_stays_complex128():
    a, b = random_mpo(5, 3, 0), real_part(random_mpo(5, 4, 1))
    outs = [mp.exact_add(a, b), mp.exact_add(b, b, 1j), exact_multiply(a, b),
            exact_multiply(b, a), mp.canonicalize(a),
            mp.truncate_svd(exact_multiply(a, b), dmax=5)[0]]
    for out in outs:
        assert [s.dtype for s in out.sites] == [np.complex128] * 5


def test_save_load_dtype(tmp_path):
    real = real_part(random_mpo(4, 3, 12))
    path = os.path.join(tmp_path, "real.json")
    mp.save_json(real, path)
    with open(path) as fh:
        doc = json.load(fh)
    # the file format keeps [re, im] pairs for real operators too
    assert np.asarray(doc["sites"][1]).shape[-1] == 2
    back = mp.load_json(path)
    assert back.dtype == np.float64
    for s_out, s_in in zip(back.sites, real.sites):
        assert np.array_equal(s_out, s_in)
    # one nonzero imaginary part anywhere makes every site complex128
    doc["sites"][2][0][1][0][0][1] = 1e-300
    path2 = os.path.join(tmp_path, "one_imag.json")
    with open(path2, "w") as fh:
        json.dump(doc, fh)
    back2 = mp.load_json(path2)
    assert [s.dtype for s in back2.sites] == [np.complex128] * 4
    assert back2.sites[2][0, 1, 0, 0].imag == 1e-300

"""End-to-end command-line behavior through cli.main(argv)."""
import csv
import json
import math
import os
from dataclasses import asdict

import jsonschema
import numpy as np
import pytest

import mpotrace as mt
from mpotrace import cli
from mpotrace import lanczos as lz
from mpotrace import models
from mpotrace import mpo as mp
from mpotrace.errors import NumericError

from conftest import inner


def run_cli(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def half_state_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "half_l6.json")
    rc = run_cli(
        "build-thermal", "--L", "6", "--beta", "0.1", "--dtau", "0.001", "--out", path,
    )
    assert rc == 0
    return path


def test_build_writes_valid_mpo(half_state_file):
    m = mp.load_json(half_state_file)
    assert isinstance(m, mp.Mpo)
    assert m.L == 6 and m.d == 2
    assert m.max_bond() <= 20


def test_build_roundtrip_identical_tensors(tmp_path, half_state_file):
    # rebuilding with the same flags must reproduce the file bit for bit
    other = str(tmp_path / "again.json")
    rc = run_cli("build-thermal", "--L", "6", "--beta", "0.1", "--dtau", "0.001", "--out", other)
    assert rc == 0
    a = mp.load_json(half_state_file)
    b = mp.load_json(other)
    assert a.log_scale == b.log_scale
    for sa, sb in zip(a.sites, b.sites):
        assert np.array_equal(sa, sb)


def test_build_rejects_bad_beta(tmp_path):
    rc = run_cli("build-thermal", "--L", "6", "--beta", "0", "--out", str(tmp_path / "x.json"))
    assert rc == 2


@pytest.mark.parametrize("flag, value", [("--dtau", "nan"), ("--dtau", "inf"),
                                         ("--trunc-warn", "nan")])
def test_build_rejects_non_finite_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "x.json"
    rc = run_cli("build-thermal", "--L", "4", "--beta", "0.1", flag, value, "--out", str(out))
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("usage error: ")


def test_build_trunc_warn_counts_alarmed_layers(tmp_path, caplog):
    # bond 3 cuts well above 1e-6 per layer at L = 6, beta = 0.5; bond 20
    # cuts only at the rank floor
    counts = {}
    for bond in (3, 20):
        path = str(tmp_path / f"b{bond}.json")
        caplog.clear()
        rc = run_cli("build-thermal", "--L", "6", "--beta", "0.5", "--bond-dim", str(bond),
                     "--trunc-warn", "1e-6", "--out", path)
        assert rc == 0
        counts[bond] = read_json(path)["metadata"]["alarmed_layers"]
        # one summary line per build, carrying the count, not one per layer
        warned = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == (1 if counts[bond] else 0)
        if warned:
            assert warned[0].getMessage().startswith(f"{counts[bond]} of ")
    assert counts[3] > 0
    assert counts[20] == 0


def test_build_trunc_warn_skips_fits_without_a_measure(tmp_path, caplog):
    # 100 steps are powered: 3 gate layers, 6 squarings and 2 products; a
    # fit that truncates records no discarded weight (null), which the
    # alarm and max_discarded skip and the warning counts
    path = str(tmp_path / "powered.json")
    assert run_cli("build-thermal", "--L", "6", "--beta", "1", "--dtau", "0.005",
                   "--bond-dim", "3", "--out", path) == 0
    meta = read_json(path)["metadata"]
    layers = meta["layers"]
    assert [l["layer"] for l in layers].count("square") == 6 and len(layers) == 11
    assert all(set(l) == {"step", "layer", "discarded", "max_bond"} for l in layers)
    unmeasured = sum(l["discarded"] is None for l in layers)
    assert unmeasured > 0
    measured = [l["discarded"] for l in layers if l["discarded"] is not None]
    assert meta["max_discarded"] == max(measured)
    assert meta["alarmed_layers"] == sum(d > 1e-6 for d in measured)
    # one line, also when no measured record is above the threshold
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 1
    assert warned[0].startswith(f"{meta['alarmed_layers']} of 11 layers ")
    assert f", {unmeasured} carry no measure" in warned[0]


def test_build_long_chain_keeps_norm_in_log_scale(tmp_path):
    # at L = 1100 the identity's network norm 2^550, squared, overflows;
    # the build keeps every magnitude in log_scale, which equals the norm
    # contracted afresh from the stored file
    path = str(tmp_path / "long.json")
    assert run_cli("build-thermal", "--L", "1100", "--beta", "0.1", "--dtau", "0.05",
                   "--bond-dim", "4", "--out", path) == 0
    m = mp.load_json(path)
    assert m.ln_norm is None
    assert math.isfinite(m.log_scale)
    assert abs(mp.log_norm(m) - m.log_scale) < 1e-9


def test_build_full_state_has_unit_trace(tmp_path):
    path = str(tmp_path / "full.json")
    rc = run_cli(
        "build-thermal", "--L", "6", "--beta", "0.1", "--state", "full",
        "--dtau", "0.001", "--out", path,
    )
    assert rc == 0
    rho = mp.load_json(path)
    assert abs(inner(mp.identity_mpo(rho.L), rho) - 1.0) < 1e-10
    # the squaring fit knows no ||m m^H||^2, so it reports no residual
    assert "squaring_residual" not in read_json(path)["metadata"]


def test_build_full_state_records_its_gibbs_fit(tmp_path, caplog, monkeypatch):
    # rho = M M^H is one more product fit, recorded after the builder's
    # own: at L = 4 bond 256 lies above its block bond, and the record
    # carries the weight its rank cut discarded; bond 20 lies below it,
    # and the record carries none, which the warning counts
    for bond in (256, 20):
        path = str(tmp_path / f"full{bond}.json")
        caplog.clear()
        assert run_cli("build-thermal", "--L", "4", "--beta", "0.1", "--state", "full",
                       "--bond-dim", str(bond), "--out", path) == 0
        meta = read_json(path)["metadata"]
        layers = meta["layers"]
        gibbs = layers[-1]
        assert (gibbs["step"], gibbs["layer"]) == (meta["steps"], "gibbs"), bond
        assert gibbs["max_bond"] == mp.load_json(path).max_bond(), bond
        measured = [l["discarded"] for l in layers if l["discarded"] is not None]
        assert meta["max_discarded"] == max(measured), bond
        assert meta["alarmed_layers"] == sum(d > 1e-6 for d in measured), bond
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        if bond == 256:
            assert 0.0 <= gibbs["discarded"] < 1e-13 and warned == []
        else:
            assert gibbs["discarded"] is None
            assert len(warned) == 1 and ", 1 carry no measure" in warned[0]
    # a Gibbs fit whose cut drops more than every gate layer: the alarm,
    # its count and max_discarded all read it
    fit = cli.product
    monkeypatch.setattr(cli, "product", lambda x, y, cap: (fit(x, y, cap)[0], 1e-3))
    path = str(tmp_path / "alarmed.json")
    caplog.clear()
    assert run_cli("build-thermal", "--L", "4", "--beta", "0.1", "--state", "full",
                   "--bond-dim", "256", "--out", path) == 0
    meta = read_json(path)["metadata"]
    assert meta["layers"][-1]["discarded"] == meta["max_discarded"] == 1e-3
    assert meta["alarmed_layers"] == 1
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 1 and "layer gibbs, 1.000e-03" in warned[0]


def test_estimate_entropy_rejects_full_state(tmp_path, capsys):
    # the entropy reads its input as the half state M; on the Gibbs state
    # rho it would return the entropy of rho^2 / tr rho^2
    state, out = str(tmp_path / "full.json"), tmp_path / "S.json"
    assert run_cli("build-thermal", "--L", "6", "--beta", "1", "--state", "full",
                   "--out", state) == 0
    capsys.readouterr()
    rc = run_cli("estimate", "--input", state, "--function", "entropy", "--out", str(out))
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("usage error: ")


def test_estimate_trace_of_normalized_state(tmp_path):
    state = str(tmp_path / "full.json")
    out = str(tmp_path / "trace.json")
    assert run_cli("build-thermal", "--L", "6", "--beta", "0.1", "--state", "full",
                   "--dtau", "0.001", "--out", state) == 0
    rc = run_cli("estimate", "--input", state, "--function", "trace",
                 "--kmax", "7", "--dmax", "3", "--out", out)
    assert rc == 0
    payload = read_json(out)
    assert abs(payload["estimate"] - 1.0) < 1e-8
    assert payload["iterations"] == 1
    # the trace is one uncapped step whatever the flags say, and the
    # settings report the run that was made
    assert payload["settings"]["kmax"] == 1
    assert payload["settings"]["dmax"] is None


def test_estimate_poly_identity_is_trace(tmp_path):
    m = mt.random_hermitian_mpo(6, dbond=4, seed=3)
    src = str(tmp_path / "m.json")
    out = str(tmp_path / "est.json")
    mp.save_json(m, src)
    rc = run_cli("estimate", "--input", src, "--function", "poly:0,1",
                 "--kmax", "1", "--dmax", "0", "--out", out)
    assert rc == 0
    ref = float(np.trace(mp.dense(m)).real)
    assert abs(read_json(out)["estimate"] - ref) < 1e-8 * max(abs(ref), 1.0)


def test_estimate_one_dimensional_sites(tmp_path):
    # d = 1: tr(I) = 1 at any L, so the chain has no length limit; the
    # operator is the number 2^4
    src = str(tmp_path / "d1.json")
    mp.save_json(mp.Mpo(tuple(np.full((1, 1, 1, 1), 2.0) for _ in range(4))), src)
    for function, ref in (("trace", 16.0), ("poly:0,0,1", 256.0), ("entropy", 0.0)):
        out = str(tmp_path / "est.json")
        assert run_cli("estimate", "--input", src, "--function", function, "--out", out) == 0
        assert read_json(out)["estimate"] == pytest.approx(ref, rel=1e-12, abs=1e-12), function


def test_estimate_entropy_small_chain(tmp_path, half_state_file):
    out = str(tmp_path / "S.json")
    rc = run_cli("estimate", "--input", half_state_file, "--function", "entropy",
                 "--kmax", "30", "--dmax", "60", "--out", out)
    assert rc == 0
    payload = read_json(out)
    ref = mt.exact_entropy_dense(mt.IsingParams(L=6, beta=0.1))
    assert abs(payload["estimate"] - ref) / ref < 1e-6
    assert payload["ln_z2"] is not None
    assert payload["settings"]["spectrum_floor"] == 0.0


def test_estimate_stop_flags(tmp_path, half_state_file):
    def estimate(*flags):
        out = str(tmp_path / "S.json")
        rc = run_cli("estimate", "--input", half_state_file, "--function", "entropy",
                     "--kmax", "30", "--dmax", "60", "--out", out, *flags)
        return rc, read_json(out) if rc == 0 else None

    _, default = estimate()
    _, loose = estimate("--eps", "1e-3")
    assert default["stop_reason"] == loose["stop_reason"] == "converged"
    assert (loose["iterations"], default["iterations"]) == (3, 7)
    assert loose["settings"]["eps"] == 1e-3
    # the unit-norm state's Ritz values lie in [0, 1]: a floor of 1 stops
    # the first step
    rc, floored = estimate("--spectrum-floor", "1")
    assert rc == 0 and floored["settings"]["spectrum_floor"] == 1.0
    assert (floored["stop_reason"], floored["iterations"]) == ("ritz-violation", 1)
    # the outlier window is a constant of the estimator: argparse rejects
    # the flag as unknown
    assert estimate("--window", "3")[0] == 2
    assert estimate("--eps", "0")[0] == 2


@pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--eps", "inf"),
                                         ("--spectrum-floor", "nan"),
                                         ("--spectrum-floor", "-inf"),
                                         ("--function", "poly:nan"),
                                         ("--function", "poly:inf,1")])
def test_estimate_rejects_non_finite_flags(tmp_path, capsys, half_state_file, flag, value):
    out = tmp_path / "S.json"
    rc = run_cli("estimate", "--input", half_state_file, "--function", "entropy",
                 "--out", str(out), f"{flag}={value}")
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("usage error: ")


def test_estimate_ritz_violation_returns_the_step_before(tmp_path, half_state_file):
    def estimate(*flags):
        out = str(tmp_path / "S.json")
        assert run_cli("estimate", "--input", half_state_file, "--function", "entropy",
                       "--kmax", "30", "--dmax", "60", "--out", out, *flags) == 0
        return read_json(out)

    recs = estimate()["records"]
    floor = 0.5 * (recs[1]["ritz_min"] + recs[2]["ritz_min"])
    stopped = estimate("--spectrum-floor", repr(floor))
    assert (stopped["stop_reason"], stopped["iterations"]) == ("ritz-violation", 3)
    assert stopped["estimate"] == stopped["records"][-2]["estimate"]
    assert stopped["estimate"] != stopped["records"][-1]["estimate"]


def test_estimate_malformed_state_fails_cleanly(tmp_path, capsys):
    src = str(tmp_path / "ragged.json")
    with open(src, "w", encoding="utf-8") as fh:
        json.dump({"kind": "mpo", "L": 1, "d": 2, "log_scale": 0.0,
                   "sites": [[[1.0, 0.0], [1.0]]]}, fh)
    assert run_cli("estimate", "--input", src, "--function", "trace") == 1
    err = capsys.readouterr().err
    assert "ragged.json" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["L", "d"])
def test_estimate_header_past_float_range_fails_cleanly(tmp_path, capsys, field):
    # 1e999 loads as inf, which is no integer: a NumericError naming the
    # file, not a bare OverflowError
    src = tmp_path / "far.json"
    mp.save_json(mp.identity_mpo(4), str(src))
    text = src.read_text(encoding="utf-8")
    old = f'"{field}": {4 if field == "L" else 2},'
    assert old in text
    src.write_text(text.replace(old, f'"{field}": 1e999,'), encoding="utf-8")
    assert run_cli("estimate", "--input", str(src), "--function", "trace") == 1
    err = capsys.readouterr().err
    assert "error: NumericError" in err and "far.json" in err and "Traceback" not in err


def test_estimate_overflow_fails_cleanly(tmp_path, capsys):
    # tr(e^800 I) overflows float64: a NumericError, not a traceback
    src = str(tmp_path / "huge.json")
    mp.save_json(mp.shift_log_scale(mp.identity_mpo(4), 800.0), src)
    assert run_cli("estimate", "--input", src, "--function", "trace") == 1
    err = capsys.readouterr().err
    assert "NumericError" in err and "Traceback" not in err


def test_estimate_result_matches_schema(tmp_path, half_state_file):
    out = str(tmp_path / "S.json")
    assert run_cli("estimate", "--input", half_state_file, "--function", "entropy",
                   "--kmax", "8", "--dmax", "40", "--out", out) == 0
    schema_path = os.path.join(os.path.dirname(cli.__file__), "schemas", "result.schema.json")
    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(read_json(out), schema)


def test_estimate_iterations_csv_header(tmp_path, half_state_file):
    out = str(tmp_path / "S.json")
    table = str(tmp_path / "iters.csv")
    assert run_cli("estimate", "--input", half_state_file, "--function", "entropy",
                   "--kmax", "6", "--dmax", "40", "--out", out,
                   "--iterations-csv", table) == 0
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.CSV_COLUMNS
    records = read_json(out)["records"]
    assert len(rows) == 1 + len(records)
    ks = [int(r[0]) for r in rows[1:]]
    assert ks == list(range(1, len(ks) + 1))
    # the flag is written as 1 or 0
    fit_cols = [cli.CSV_COLUMNS.index(c) for c in ("sweeps", "converged")]
    assert [[int(r[c]) for c in fit_cols] for r in rows[1:]] == \
        [[rec["sweeps"], int(rec["converged"])] for rec in records]
    # the cap keeps (about) every singular value: each fit sees its plateau,
    # a right-to-left half that gains nothing, after one sweep
    assert all(rec["sweeps"] == 1 and rec["converged"] for rec in records)
    # the step's one fit: residual, bond and the split of the step's time
    for name in ("fit_residual", "bond", "drift_1", "drift_2", "norm_ms", "sweep_ms", "quad_ms"):
        col = cli.CSV_COLUMNS.index(name)
        assert [float(r[col]) for r in rows[1:]] == [rec[name] for rec in records], name
    assert all(0 < rec["sweep_ms"] < rec["wall_ms"] for rec in records)
    assert all(rec["norm_ms"] > 0 and rec["quad_ms"] > 0 for rec in records)
    assert all(rec["norm_ms"] + rec["sweep_ms"] + rec["quad_ms"] <= rec["wall_ms"]
               for rec in records)
    assert all(1 <= rec["bond"] <= 40 for rec in records)


def test_iterations_csv_columns_match_record_dict():
    # the CSV and the result JSON records carry the same fields, in order
    rec = lz.IterationRecord(k=1, alpha=0.5, beta=1.0, ritz_min=0.5, ritz_max=0.5,
                             estimate=2.0, wall_ms=3.0, fit_residual=1e-9, sweeps=5,
                             converged=False, sweep_ms=2.0, bond=7,
                             drift_1=1e-12, drift_2=1e-13, norm_ms=0.3, quad_ms=0.1)
    assert cli.CSV_COLUMNS == tuple(asdict(rec))


def test_schema_records_match_csv_columns():
    # the schema allows additional properties, so only this keeps a new
    # record field from skipping it
    schema_path = os.path.join(os.path.dirname(cli.__file__), "schemas", "result.schema.json")
    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    assert tuple(schema["properties"]["records"]["items"]["properties"]) == cli.CSV_COLUMNS


def test_estimate_deterministic(tmp_path, half_state_file):
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert run_cli("estimate", "--input", half_state_file, "--function", "entropy",
                       "--kmax", "6", "--dmax", "40", "--out", out) == 0
        outs.append(read_json(out))
    assert outs[0]["estimate"] == outs[1]["estimate"]
    assert outs[0]["alphas"] == outs[1]["alphas"]
    assert outs[0]["betas"] == outs[1]["betas"]


def test_estimate_unknown_function(tmp_path, half_state_file):
    rc = run_cli("estimate", "--input", half_state_file, "--function", "logdet")
    assert rc == 2


def test_estimate_missing_input(tmp_path):
    rc = run_cli("estimate", "--input", str(tmp_path / "absent.json"), "--function", "trace")
    assert rc == 1


def test_estimate_non_hermitian_input_fails_cleanly(tmp_path):
    from conftest import random_mpo
    src = str(tmp_path / "nh.json")
    mp.save_json(random_mpo(4, 3, 1), src)
    rc = run_cli("estimate", "--input", src, "--function", "poly:0,1", "--kmax", "3")
    assert rc == 1


def test_exact_dense_routing(capsys):
    assert run_cli("exact", "--L", "10", "--beta", "0.1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "dense"


def test_exact_free_fermion_routing(capsys):
    assert run_cli("exact", "--L", "100", "--beta", "0.1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "free-fermion"


def test_exact_methods_agree(capsys):
    assert run_cli("exact", "--L", "10", "--beta", "0.5", "--method", "dense") == 0
    s_dense = json.loads(capsys.readouterr().out)["entropy"]
    assert run_cli("exact", "--L", "10", "--beta", "0.5", "--method", "free-fermion") == 0
    s_ff = json.loads(capsys.readouterr().out)["entropy"]
    assert abs(s_dense - s_ff) < 1e-8


def test_exact_rejects_field_with_free_fermion():
    assert run_cli("exact", "--L", "10", "--beta", "0.5", "--h", "0.3",
                   "--method", "free-fermion") == 2
    assert run_cli("exact", "--L", "14", "--beta", "0.5", "--h", "0.3") == 2


def test_exact_dense_cap_is_usage_error(capsys):
    assert run_cli("exact", "--L", "16", "--beta", "0.5", "--method", "dense") == 2
    assert "usage error" in capsys.readouterr().err


def run_two_cell_sweep(tmp_path):
    manifest = str(tmp_path / "m.json")
    out = str(tmp_path / "rows.csv")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"L": [6, 8], "beta": [0.2], "dmax": [32], "kmax": [16]}, fh)
    rc = run_cli("sweep", "--manifest", manifest, "--out", out,
                 "--dbond", "16", "--dtau", "0.005")
    assert rc == 0
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_two_cells(tmp_path):
    rows = run_two_cell_sweep(tmp_path)
    assert len(rows) == 2
    for row in rows:
        assert row["error"] == ""
        assert float(row["rel_error"]) < 1e-4
        assert row["stop_reason"]


def counted_builds(monkeypatch):
    """The chain lengths of the thermal states sweep builds, in order."""
    built = []
    real = models.thermal_half_state

    def counting(params, **kwargs):
        built.append(params.L)
        return real(params, **kwargs)

    monkeypatch.setattr(models, "thermal_half_state", counting)
    return built


def test_sweep_builds_each_chain_once(tmp_path, monkeypatch):
    # cells of one chain share one build, distinct chains get their own
    built = counted_builds(monkeypatch)
    manifest = str(tmp_path / "m.json")
    out = str(tmp_path / "rows.csv")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"L": [4, 6], "beta": [0.2], "dmax": [8, 16], "kmax": [4]}, fh)
    assert run_cli("sweep", "--manifest", manifest, "--out", out, "--dbond", "8",
                   "--dtau", "0.01") == 0
    with open(out, newline="", encoding="utf-8") as fh:
        assert [r["error"] for r in csv.DictReader(fh)] == [""] * 4
    assert built == [4, 6]


def test_sweep_rejects_non_finite_dtau(tmp_path):
    manifest = str(tmp_path / "m.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"L": [4], "beta": [0.2], "dmax": [8], "kmax": [4]}, fh)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--manifest", manifest, "--out", str(out), "--dtau", "nan") == 2
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("L", [4.7]), ("L", [True]), ("dmax", [8.9]),
                                       ("kmax", 4.5), ("kmax", ["4"]), ("beta", [True]),
                                       ("beta", ["0.1"]), ("J", "1"), ("h", False),
                                       ("beta", [10**400]), ("h", math.nan)])
def test_sweep_rejects_non_integral_manifest_values(tmp_path, key, value):
    # a fraction in an integer key, or a boolean, a string or a value
    # beyond the finite floats in any key, is a usage error, not truncated
    # or read as a number
    manifest = str(tmp_path / "m.json")
    cell = {"L": [4], "beta": [0.2], "dmax": [8], "kmax": [4]}
    cell[key] = value
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(cell, fh)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--manifest", manifest, "--out", str(out)) == 2
    assert not out.exists()


def test_sweep_empty_manifest(tmp_path):
    manifest = str(tmp_path / "empty.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({}, fh)
    rc = run_cli("sweep", "--manifest", manifest, "--out", str(tmp_path / "o.csv"))
    assert rc == 2


@pytest.mark.parametrize("cells", [{"kmax": [0]}, {"L": [4, 1]}, {"L": [4, 14], "h": 0.2}])
def test_sweep_rejects_bad_cells_before_any_build(tmp_path, monkeypatch, capsys, cells):
    # kmax 0, a one-site chain, and a chain no oracle covers (L > 12 with
    # h != 0) are usage errors, as in estimate, build-thermal and exact
    built = counted_builds(monkeypatch)
    manifest = str(tmp_path / "m.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"L": [4], "beta": [0.2], "dmax": [8], "kmax": [4], **cells}, fh)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--manifest", manifest, "--out", str(out)) == 2
    assert built == [] and not out.exists()
    assert capsys.readouterr().err.startswith("usage error: ")


def test_sweep_bad_out_fails_before_any_build(tmp_path, monkeypatch):
    built = counted_builds(monkeypatch)
    manifest = str(tmp_path / "m.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"L": [4, 6], "beta": [0.2], "dmax": [8], "kmax": [4]}, fh)
    out = str(tmp_path / "missing" / "rows.csv")
    assert run_cli("sweep", "--manifest", manifest, "--out", out) == 1
    assert built == []


def test_sweep_isolates_failing_cell(tmp_path, monkeypatch):
    manifest = str(tmp_path / "m.json")
    out = str(tmp_path / "rows.csv")
    # the L=6 cell fails at run time while L=4 succeeds
    real = lz.entropy_from_half_state

    def failing_at_6(m, **kwargs):
        if m.L == 6:
            raise NumericError("injected failure")
        return real(m, **kwargs)

    monkeypatch.setattr(lz, "entropy_from_half_state", failing_at_6)
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"L": [4, 6], "beta": [0.2], "dmax": [16], "kmax": [4]}, fh)
    rc = run_cli("sweep", "--manifest", manifest, "--out", out,
                 "--dbond", "12", "--dtau", "0.01")
    assert rc == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = {r["L"]: r for r in csv.DictReader(fh)}
    assert rows["4"]["error"] == ""
    assert rows["6"]["error"] == "NumericError: injected failure"


def test_usage_error_on_unknown_command():
    assert run_cli("frobnicate") == 2


def test_estimate_reports_dtype(tmp_path, half_state_file):
    out = str(tmp_path / "real.json")
    assert run_cli("estimate", "--input", half_state_file, "--function", "trace",
                   "--out", out) == 0
    assert read_json(out)["dtype"] == "float64"
    # one nonzero imaginary entry in the file makes the arithmetic complex
    doc = read_json(half_state_file)
    doc["sites"][1][0][0][0][0][1] = 1e-14
    src = str(tmp_path / "one_imag.json")
    with open(src, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "complex.json")
    assert run_cli("estimate", "--input", src, "--function", "trace", "--out", out) == 0
    assert read_json(out)["dtype"] == "complex128"



def test_heap_helper_fixes_both_thresholds_or_nothing(monkeypatch):
    # both mallopt thresholds are fixed, and a process without libc, or
    # with a libc that has no mallopt, goes on as it is
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    cli._keep_heap_mapped()
    assert sorted(calls) == [(cli._M_MMAP_THRESHOLD, cli._MMAP_BYTES),
                             (cli._M_TRIM_THRESHOLD, cli._TRIM_BYTES)]

    def no_libc(name):
        raise OSError("no libc")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    assert cli._keep_heap_mapped() is None
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._keep_heap_mapped() is None

"""Command-line front end.

Subcommands:
  build-thermal   build a thermal half-state (or full Gibbs state) MPO file
  estimate        run the Lanczos quadrature on a stored MPO
  exact           evaluate the reference oracles
  sweep           run a manifest of (L, beta, dmax, kmax) pipeline cells

Exit codes: 0 success, 1 numeric/runtime failure, 2 usage error.  The
environment variable MPOTRACE_LOG selects the log level (debug/info/...).
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, fields

from .errors import MpoTraceError
from . import exact as ex
from . import lanczos as lz
from . import models
from . import mpo as mp
from .sweeping import product

logger = logging.getLogger("mpotrace.cli")

CSV_COLUMNS = tuple(f.name for f in fields(lz.IterationRecord))
# glibc's mallopt parameters, and the values the process fixes them at
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 128 << 20, 32 << 20


def _keep_heap_mapped() -> None:
    """Keep freed memory mapped.  glibc otherwise trims and unmaps the
    multi-MB temporaries that every site update frees, and the next one
    faults the same pages in again (glibc 2.36: 92 000 minor faults in
    the L = 10, beta = 1 estimate, 2 000 with the heap kept).  Both
    thresholds are fixed: fixing one turns glibc's dynamic threshold off
    and more than doubles the faults.  Nothing happens where libc has no
    mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def _configure_logging() -> None:
    level_name = os.environ.get("MPOTRACE_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpotrace",
        description="Trace functionals of large Hermitian operators in MPO "
                    "form via global Lanczos quadrature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-thermal", help="build exp(-beta/2 H) for the Ising chain")
    b.add_argument("--L", type=int, required=True, help="number of sites (>= 2)")
    b.add_argument("--J", type=float, default=1.0, help="XX coupling")
    b.add_argument("--g", type=float, default=1.0, help="transverse field")
    b.add_argument("--h", type=float, default=0.0, help="longitudinal field")
    b.add_argument("--beta", type=float, required=True, help="inverse temperature (> 0)")
    b.add_argument("--bond-dim", type=int, default=20, dest="bond_dim",
                   help="bond cap during the evolution (default 20)")
    b.add_argument("--dtau", type=float, default=0.01, help="Trotter step (default 0.01)")
    b.add_argument("--state", choices=("half", "full"), default="half",
                   help="half: exp(-beta/2 H); full: trace-normalized Gibbs state")
    b.add_argument("--trunc-warn", type=float, default=1e-6, dest="trunc_warn",
                   help="warn when a gate layer's cuts discard more relative weight "
                        "than this (root-sum-square), or a product fit truncates unmeasured")
    b.add_argument("--out", required=True, help="output JSON path")

    e = sub.add_parser("estimate", help="estimate tr f(A) for a stored MPO")
    e.add_argument("--input", required=True, help="MPO JSON path")
    e.add_argument("--function", required=True,
                   help="entropy | trace | poly:<c0,c1,...>")
    e.add_argument("--kmax", type=int, default=50)
    e.add_argument("--dmax", type=int, default=100,
                   help="bond cap inside the iteration; <= 0 means unlimited")
    e.add_argument("--eps", type=float, default=1e-10, help="convergence threshold")
    e.add_argument("--spectrum-floor", type=float, default=None, dest="spectrum_floor")
    e.add_argument("--out", default=None, help="result JSON path (default: stdout)")
    e.add_argument("--iterations-csv", default=None, dest="iterations_csv",
                   help="write the per-iteration table to this CSV path")

    x = sub.add_parser("exact", help="reference oracle entropies")
    x.add_argument("--L", type=int, required=True)
    x.add_argument("--J", type=float, default=1.0)
    x.add_argument("--g", type=float, default=1.0)
    x.add_argument("--h", type=float, default=0.0)
    x.add_argument("--beta", type=float, required=True)
    x.add_argument("--method", choices=("dense", "free-fermion", "auto"), default="auto")

    s = sub.add_parser("sweep", help="run a manifest of pipeline cells")
    s.add_argument("--manifest", required=True, help="JSON manifest path")
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--dbond", type=int, default=20, help="input-build bond cap")
    s.add_argument("--dtau", type=float, default=0.01, help="input-build Trotter step")
    return parser


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_build_thermal(args) -> int:
    try:
        params = models.IsingParams(L=args.L, J=args.J, g=args.g, h=args.h, beta=args.beta)
        models._check_build_flags(args.bond_dim, args.dtau)
        if not math.isfinite(args.trunc_warn):
            raise ValueError("--trunc-warn must be finite")
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    m, meta = models.thermal_half_state_report(params, dbond=args.bond_dim, dtau=args.dtau)
    if args.state == "full":
        # rho = M M^H, one more product fit, recorded as the builder records its own
        rho, disc = product(m, mp.adjoint(m), args.bond_dim)
        meta["layers"].append({"step": meta["steps"], "layer": "gibbs", "discarded": disc,
                               "max_bond": rho.max_bond()})
        meta["max_discarded"] = models._max_discarded(meta["layers"])
        # tr rho = <I, rho> = mant * exp(ln_tr), kept in log form
        mant, ln_tr = mp.inner_product_scaled(mp.identity_mpo(rho.L, rho.d), rho)
        if not mant.real > 0:
            print(f"error: Gibbs state trace {mant!r} * e^{ln_tr!r} is not positive", file=sys.stderr)
            return 1
        m = mp.shift_log_scale(rho, -(math.log(mant.real) + ln_tr))
    alarmed = [l for l in meta["layers"] if (l["discarded"] or 0.0) > args.trunc_warn]
    unmeasured = sum(l["discarded"] is None for l in meta["layers"])
    if alarmed or unmeasured:
        worst = max(alarmed, key=lambda l: l["discarded"], default=None)
        logger.warning(
            "%d of %d layers discarded relative weight above %.1e, %d carry no measure%s "
            "(per-layer weights in the state file's layers)",
            len(alarmed), len(meta["layers"]), args.trunc_warn, unmeasured,
            f"; worst: step {worst['step']} layer {worst['layer']}, {worst['discarded']:.3e}"
            if worst else "")
    meta.update(
        state=args.state,
        params={"L": params.L, "J": params.J, "g": params.g, "h": params.h,
                "beta": params.beta},
        alarm_threshold=args.trunc_warn,
        alarmed_layers=len(alarmed),
        wall_s=time.perf_counter() - t0,
    )
    mp.save_json(m, args.out, metadata=meta)
    logger.info("wrote %s (max bond %d, %d layers)", args.out, m.max_bond(),
                len(meta["layers"]))
    return 0


def _parse_function(text: str):
    """Map the --function value to (SpectralFunction or 'entropy'/'trace')."""
    if text in ("entropy", "trace"):
        return text
    if text.startswith("poly:"):
        parts = text[len("poly:"):].split(",")
        try:
            coeffs = [float(c) for c in parts]
        except ValueError:
            raise ValueError(f"bad polynomial coefficients in {text!r}")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"polynomial coefficients must be finite, got {text!r}")
        return lz.polynomial_function(coeffs)
    raise ValueError(f"unknown function {text!r} (want entropy, trace, or poly:<c0,c1,...>)")


def _write_iterations_csv(records, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            row = asdict(rec)
            writer.writerow([rec.k] + [f"{row[c]:.17g}" for c in CSV_COLUMNS[1:]])


def cmd_estimate(args) -> int:
    try:
        fspec = _parse_function(args.function)
        if args.kmax < 1:
            raise ValueError("--kmax must be >= 1")
        floor = args.spectrum_floor
        if fspec == "entropy" and floor is None:
            floor = 0.0  # the half-state is psd: a negative Ritz value is a fault
        stop = lz.StoppingConfig(eps_conv=args.eps, spectrum_floor=floor)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    m = mp.load_json(args.input)
    if fspec == "entropy" and isinstance(m.metadata, dict) and m.metadata.get("state") == "full":
        print(f"usage error: {args.input} holds a full Gibbs state; the entropy needs the "
              f"half state M of rho = M^H M / Z (build-thermal --state half)", file=sys.stderr)
        return 2
    if fspec == "trace":
        # one uncapped step is exact: beta_1^2 alpha_1 = tr(A)
        fspec, kmax, dmax = lz.identity_function(), 1, None
    else:
        kmax, dmax = args.kmax, (args.dmax if args.dmax > 0 else None)
    t0 = time.perf_counter()
    # log_norm keeps what it contracts on m, for the estimator to read
    ln_z2 = 2.0 * mp.log_norm(m) if fspec == "entropy" else None
    if fspec == "entropy":
        estimate, run = lz.entropy_from_half_state(m, kmax=kmax, dmax=dmax, stop=stop)
    else:
        run = lz.global_lanczos(m, kmax=kmax, dmax=dmax, f=fspec, stop=stop)
        estimate = run.estimate

    payload = {
        "function": args.function,
        "input": args.input,
        "dtype": m.dtype.name,
        "settings": {
            "kmax": kmax, "dmax": dmax, "eps": stop.eps_conv,
            "spectrum_floor": stop.spectrum_floor,
        },
        "estimate": estimate,
        "stop_reason": run.stop_reason,
        "beta1": run.beta1,
        "ln_z2": ln_z2,
        "iterations": len(run.records),
        "alphas": list(run.tridiag.alphas) if run.tridiag else [],
        "betas": list(run.tridiag.betas) if run.tridiag else [],
        "wall_s": time.perf_counter() - t0,
        "records": [asdict(r) for r in run.records],
    }
    _write_json(payload, args.out)
    if args.iterations_csv:
        _write_iterations_csv(run.records, args.iterations_csv)
    return 0


def cmd_exact(args) -> int:
    try:
        params = models.IsingParams(L=args.L, J=args.J, g=args.g, h=args.h, beta=args.beta)
        method = ex.oracle_method(params, args.method)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    _write_json({"entropy": ex.ORACLES[method](params), "method": method,
                 "params": asdict(params)}, None)
    return 0


SWEEP_COLUMNS = (
    "L", "beta", "J", "g", "h", "dbond", "dtau", "dmax", "kmax",
    "estimate", "oracle", "rel_error", "stop_reason", "iterations",
    "wall_s", "error",
)


def _as_number(value, name: str) -> float:
    """A manifest number: a boolean, a string or a non-finite value is an
    error (an integer past the float range raises OverflowError)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"manifest key {name!r} must hold finite numbers, got {value!r}")
    return float(value)


def _as_list(value, name: str) -> list[float]:
    """A manifest key of one number or a list of them."""
    return [_as_number(v, name) for v in (value if isinstance(value, list) else [value])]


def _as_ints(value, name: str) -> list[int]:
    """A manifest key of integers: a fraction is an error too."""
    vals = _as_list(value, name)
    if not all(v.is_integer() for v in vals):
        raise ValueError(f"manifest key {name!r} must hold integers, got {vals!r}")
    return [int(v) for v in vals]


def _run_cell(cell, builds, args):
    """One pipeline cell: build (cached), estimate, compare to oracle."""
    p = cell["params"]
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(asdict(p), dbond=args.dbond, dtau=args.dtau, dmax=cell["dmax"], kmax=cell["kmax"])
    t0 = time.perf_counter()
    try:
        if p not in builds:
            builds[p] = models.thermal_half_state(p, dbond=args.dbond, dtau=args.dtau)
        dmax = cell["dmax"] if cell["dmax"] > 0 else None
        estimate, run = lz.entropy_from_half_state(builds[p], kmax=cell["kmax"], dmax=dmax)
        oracle = ex.ORACLES[cell["oracle"]](p)
        row.update(
            estimate=f"{estimate:.17g}", oracle=f"{oracle:.17g}",
            rel_error=f"{abs(estimate - oracle) / max(abs(oracle), 1e-300):.6e}",
            stop_reason=run.stop_reason, iterations=len(run.records),
        )
    except Exception as err:  # per-row isolation: failures become a column
        row["error"] = f"{type(err).__name__}: {err}"
        logger.warning("cell %r failed: %s", cell, row["error"])
    row["wall_s"] = f"{time.perf_counter() - t0:.3f}"
    return row


def cmd_sweep(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ValueError("manifest must be a JSON object")
        ls = _as_ints(manifest.get("L", []), "L")
        betas = _as_list(manifest.get("beta", []), "beta")
        dmaxes = _as_ints(manifest.get("dmax", [100]), "dmax")
        kmaxes = _as_ints(manifest.get("kmax", [50]), "kmax")
        if not all(k >= 1 for k in kmaxes):
            raise ValueError(f"manifest key 'kmax' must hold integers >= 1, got {kmaxes!r}")
        jj, gg, hh = (_as_number(manifest.get(key, default), key)
                      for key, default in (("J", 1.0), ("g", 1.0), ("h", 0.0)))
        # every chain is checked, and its oracle chosen, before any cell runs
        chains = [models.IsingParams(L=L, J=jj, g=gg, h=hh, beta=beta)
                  for L in ls for beta in betas]
        cells = [{"params": p, "oracle": ex.oracle_method(p), "dmax": dmax, "kmax": kmax}
                 for p in chains for dmax in dmaxes for kmax in kmaxes]
        if not cells:
            raise ValueError("manifest produced no cells (need nonempty L and beta)")
        models._check_build_flags(args.dbond, args.dtau)
    except (OSError, json.JSONDecodeError, ValueError, TypeError, OverflowError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2

    builds: dict = {}
    rows = []
    # the table is opened before the first cell and each row written as its
    # cell finishes, so a bad --out costs no work and a crash keeps the rows
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for cell in cells:
            rows.append(_run_cell(cell, builds, args))
            writer.writerow(rows[-1])
            fh.flush()

    # soft monotonicity check: at fixed (L, beta, kmax) the error should
    # not grow with dmax; log, never fail
    by_group: dict = {}
    for row in rows:
        if row["error"]:
            continue
        by_group.setdefault((row["L"], row["beta"], row["kmax"]), []).append(
            (row["dmax"], float(row["rel_error"]))
        )
    for group, pairs in sorted(by_group.items()):
        pairs.sort()
        for (d1, e1), (d2, e2) in zip(pairs, pairs[1:]):
            if e2 > e1 * 1.5 and e2 > 1e-12:
                logger.warning(
                    "group L=%s beta=%s kmax=%s: error rose from %.3e (dmax=%d) "
                    "to %.3e (dmax=%d)", *group, e1, d1, e2, d2,
                )

    succeeded = sum(1 for row in rows if not row["error"])
    logger.info("sweep: %d/%d cells succeeded -> %s", succeeded, len(rows), args.out)
    return 0 if succeeded > 0 else 1


def main(argv=None) -> int:
    _keep_heap_mapped()
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "build-thermal": cmd_build_thermal,
        "estimate": cmd_estimate,
        "exact": cmd_exact,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except MpoTraceError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

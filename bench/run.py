"""Benchmark of the mpotrace entropy pipeline, run from a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A round runs the command line from this checkout (PYTHONPATH=src, nothing
installed): `build-thermal` three times, then `estimate --function
entropy` on the state it built, and checks every answer against the
benchmark's own oracle.  Rounds repeat until --seconds have
passed; every run makes at least one.  With --trace 1 a round builds and
estimates under bench/tracer.py instead, plus one untraced estimate for
the tracing overhead, and reports the per-layer metrics.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  An operation is one run of
the program; it fails when it exits with a nonzero code.  `correct` is
false when any check on a finished operation misses.
"""
from __future__ import annotations

import os

# one BLAS thread, here and in every process the benchmark starts; set
# before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import ctypes
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
import scipy

import layers
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "mpotrace" / "schemas" / "result.schema.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

J, G, H = 1.0, 1.0, 0.0
BOND_DIM = 20
BUILDS_PER_ROUND = 3
# no process is started past this many seconds, so a run ends inside 180 s
DEADLINE_S = 170.0
STOP_REASONS = ("converged", "breakdown", "ritz-violation",
                "bound-monotonicity-violation", "sigma-outlier", "kmax")


@dataclass(frozen=True)
class Workload:
    name: str
    L: int
    beta: float
    dtau: float
    kmax: int
    dmax: int
    tol: float  # relative entropy error the acceptance gate allows at this L


WORKLOADS = {w.name: w for w in (
    Workload("entropy-l20-d60", L=20, beta=0.1, dtau=0.002, kmax=20, dmax=60, tol=1e-5),
    Workload("entropy-l100-d30", L=100, beta=0.1, dtau=0.002, kmax=12, dmax=30, tol=1e-4),
    Workload("hard-l10-beta1", L=10, beta=1.0, dtau=0.001, kmax=50, dmax=40, tol=1e-2),
)}


class OperationFailed(Exception):
    pass


class Runner:
    """Starts the program's processes one at a time, times them, and
    counts the operations attempted and failed."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def cli(self, *args) -> tuple[float, float]:
        return self.run(args[0], [sys.executable, "-m", "mpotrace.cli", *map(str, args)])

    def traced(self, spans: Path, *args) -> tuple[float, float]:
        return self.run(f"traced {args[0]}", [sys.executable, str(HERE / "tracer.py"),
                                              str(spans), "--", *map(str, args)])

    def run(self, what: str, argv: list[str]) -> tuple[float, float]:
        """One operation: (wall seconds, peak resident MB) of the process."""
        self.attempted += 1
        log = self.work / "stderr.txt"
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.failed += 1
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            raise OperationFailed(f"{what} exited with {proc.returncode}: " + " | ".join(tail))
        return wall, usage.ru_maxrss * 1024 / 1e6


def build_args(w: Workload, out: Path) -> list:
    return ["build-thermal", "--L", w.L, "--J", J, "--g", G, "--h", H, "--beta", w.beta,
            "--bond-dim", BOND_DIM, "--dtau", w.dtau, "--out", out]


def estimate_args(w: Workload, inp: Path, out: Path, table: Path) -> list:
    return ["estimate", "--input", inp, "--function", "entropy", "--kmax", w.kmax,
            "--dmax", w.dmax, "--out", out, "--iterations-csv", table]


class Checker:
    """Checks of the program's outputs against the oracle and against
    properties the method must have.  Misses are collected, not raised."""

    def __init__(self, w: Workload):
        self.w = w
        self.reference, self.method = oracle.reference_entropy(w.L, J, G, H, w.beta)
        with open(SCHEMA, encoding="utf-8") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))
        self.misses: list[str] = []

    def result(self, result: Path, table: Path) -> float:
        """Check one estimate's result JSON and iterations CSV; returns S."""
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
        for err in self.validator.iter_errors(doc):
            self.misses.append(f"result JSON breaks the schema: {err.message}")
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if not len(rows) == len(doc["records"]) == doc["iterations"]:
            self.misses.append(f"iterations CSV has {len(rows)} rows for "
                               f"{len(doc['records'])} records")
        if doc["stop_reason"] not in STOP_REASONS:
            self.misses.append(f"undeclared stop reason {doc['stop_reason']!r}")
        s = float(doc["estimate"])
        if not 0.0 < s <= self.w.L * math.log(2.0):
            self.misses.append(f"entropy {s!r} outside (0, L ln 2]")
        rel = self.relative_error(s)
        if not rel <= self.w.tol:
            self.misses.append(f"relative error {rel:.3e} above {self.w.tol:g}")
        return s

    def relative_error(self, s: float) -> float:
        return abs(s - self.reference) / self.reference


def untraced_round(w: Workload, run: Runner, check: Checker) -> dict:
    built = run.work / "state.json"
    setup, rss = [], []
    for _ in range(BUILDS_PER_ROUND):
        wall, mb = run.cli(*build_args(w, built))
        setup.append(wall)
        rss.append(mb)
    result, table = run.work / "result.json", run.work / "iterations.csv"
    wall, mb = run.cli(*estimate_args(w, built, result, table))
    s = check.result(result, table)
    return {"setup_s": setup, "estimate_s": wall, "peak_rss_mb": max(rss + [mb]),
            "entropy_digits": -math.log10(max(check.relative_error(s), 1e-17)), "entropy": s}


def traced_round(w: Workload, run: Runner, check: Checker) -> dict:
    built = run.work / "state.json"
    build_spans, estimate_spans = run.work / "build.spans.json", run.work / "estimate.spans.json"
    run.traced(build_spans, *build_args(w, built))
    result, table = run.work / "result.json", run.work / "iterations.csv"
    plain, _ = run.cli(*estimate_args(w, built, result, table))
    check.result(result, table)
    traced, _ = run.traced(estimate_spans, *estimate_args(w, built, result, table))
    check.result(result, table)
    metrics = layers.per_layer(layers.load_spans(build_spans),
                               layers.load_spans(estimate_spans), w.dmax)
    metrics["cli.state_file_mb"] = built.stat().st_size / 1e6
    metrics["trace.overhead_s"] = traced - plain
    return metrics


def summarize(rounds: list[dict], listed: list[dict]) -> dict:
    """Each listed metric as the median over rounds; setup_s as the median
    over every build of every round."""
    out = {}
    for metric in listed:
        name = metric["name"]
        values = [v for r in rounds
                  for v in (r[name] if isinstance(r[name], list) else [r[name]])]
        out[name] = {"value": statistics.median(values), "unit": metric["unit"]}
    return out


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS build numpy and scipy ship."""
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found or {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "revision": revision(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # every input is fixed by its workload's parameters; the seed is
    # recorded with the result and changes nothing
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "mpotrace" / "cli.py").is_file():
        print(f"error: no mpotrace sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still stops the process it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    w = WORKLOADS[args.workload]
    check = Checker(w)
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                      "reference": check.reference, "reference_method": check.method,
                      "machine": machine_facts()}), flush=True)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    run = Runner(work, start + DEADLINE_S)
    one_round = traced_round if args.trace else untraced_round
    rounds = []
    try:
        while True:
            t0 = time.monotonic()
            rounds.append(one_round(w, run, check))
            now = time.monotonic()
            if now - start >= args.seconds or now + (now - t0) > run.deadline:
                break
    except OperationFailed as err:
        print(f"error: {err}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    for miss in check.misses:
        print(f"check missed: {miss}", file=sys.stderr)
    print(json.dumps({"rounds": rounds}))
    print(json.dumps({"correct": not check.misses, "attempted": run.attempted,
                      "failed": run.failed, "metrics": summarize(rounds, listed) if rounds else {}}))
    return 0 if rounds and not check.misses and not run.failed else 1


if __name__ == "__main__":
    sys.exit(main())

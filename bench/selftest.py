"""Self-tests of the benchmark's own oracle and of the complex-input
transform.

    python3 bench/selftest.py [--seeds 1 2 ...]

1. The oracle agrees with `mpotrace exact` on every workload's parameters
   to 1e-10 relative, and its dense and free-fermion routes agree with
   each other on the hard case's chain.
2. Conjugating the hard case's state by seeded Haar-random single-site
   unitaries (state.rotate) keeps its dense spectrum to 1e-10 and makes
   its entries truly complex (max |Im| > 0.1); every seed then gives the
   same iteration count, the same stop reason, and the same entropy to
   1e-7.  With the program as it stands, seeds 8, 11 and 13 of 1-13 end
   in HermiticityError at step 16 instead; the default seeds 1 and 2 do
   not, so by default the test checks the transform itself.

Prints one line per check and exits 0 when all pass (about 15 s per seed).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
import run
import state

ORACLE_RTOL = 1e-10
SEED_RTOL = 1e-7
SPECTRUM_RTOL = 1e-10
MIN_ROTATED_IMAG = 0.1
HARD = run.WORKLOADS["hard-l10-beta1"]


def oracle_matches_program(runner: run.Runner) -> list[str]:
    failures = []
    for w in run.WORKLOADS.values():
        ours, method = oracle.reference_entropy(w.L, run.J, run.G, run.H, w.beta)
        out = subprocess.run(
            [sys.executable, "-m", "mpotrace.cli", "exact", "--L", str(w.L), "--J", str(run.J),
             "--g", str(run.G), "--h", str(run.H), "--beta", str(w.beta), "--method", "auto"],
            env=runner.env, capture_output=True, text=True, timeout=120, check=True)
        theirs = json.loads(out.stdout)["entropy"]
        rel = abs(ours - theirs) / abs(theirs)
        print(f"  {w.name}: {method} {ours!r} vs mpotrace exact {theirs!r} (rel {rel:.1e})")
        if not rel <= ORACLE_RTOL:
            failures.append(f"{w.name}: oracle differs from mpotrace exact by {rel:.1e}")
    dense = oracle.entropy_dense(HARD.L, run.J, run.G, run.H, HARD.beta)
    fermions = oracle.entropy_free_fermion(HARD.L, run.J, run.G, run.H, HARD.beta)
    if not abs(dense - fermions) <= ORACLE_RTOL * dense:
        failures.append(f"dense {dense!r} and free-fermion {fermions!r} routes disagree")
    return failures


def rotation_seed_is_inert(runner: run.Runner, seeds: list[int]) -> list[str]:
    check = run.Checker(HARD)
    built = runner.work / "state.json"
    runner.cli(*run.build_args(HARD, built))
    doc = state.load(built)
    spectrum = state.hermitian_spectrum(doc)
    failures, outcomes = [], []
    for seed in seeds:
        rotated = state.rotate(doc, seed)
        imag = state.max_imag(rotated)
        gap = float(np.max(np.abs(state.hermitian_spectrum(rotated) - spectrum))
                    / np.max(np.abs(spectrum)))
        if not imag > MIN_ROTATED_IMAG:
            failures.append(f"seed {seed}: max |Im| {imag:.3g} is not above {MIN_ROTATED_IMAG}")
        if not gap <= SPECTRUM_RTOL:
            failures.append(f"seed {seed}: the rotation moved the spectrum by {gap:.1e}")
        fed = runner.work / "rotated.json"
        state.save(rotated, fed)
        result, table = runner.work / "result.json", runner.work / "iterations.csv"
        try:
            runner.cli(*run.estimate_args(HARD, fed, result, table))
        except run.OperationFailed as err:
            print(f"  seed {seed}: max |Im| {imag:.2f}, spectrum moved {gap:.0e}; {err}")
            failures.append(f"seed {seed}: {err}")
            continue
        s = check.result(result, table)
        with open(result, encoding="utf-8") as fh:
            res = json.load(fh)
        outcomes.append((seed, res["iterations"], res["stop_reason"], s))
        print(f"  seed {seed}: max |Im| {imag:.2f}, spectrum moved {gap:.0e}; "
              f"{res['iterations']} iterations, stop {res['stop_reason']}, S = {s!r}")
    failures += check.misses
    for seed, k, stop, s in outcomes[1:]:
        seed0, k0, stop0, s0 = outcomes[0]
        if (k, stop) != (k0, stop0):
            failures.append(f"seeds {seed0} and {seed}: {k0} iterations ({stop0}) vs {k} ({stop})")
        if not abs(s - s0) <= SEED_RTOL * abs(s0):
            failures.append(f"seeds {seed0} and {seed}: S = {s0!r} vs {s!r}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                    help="rotation seeds for the second test (default 1 2)")
    args = ap.parse_args()
    run.WORK.mkdir(exist_ok=True)
    failed = False
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.WORK) as work:
        runner = run.Runner(Path(work), time.monotonic() + 3600.0)
        tests = (("oracle_matches_program", lambda: oracle_matches_program(runner)),
                 ("rotation_seed_is_inert", lambda: rotation_seed_is_inert(runner, args.seeds)))
        for name, test in tests:
            print(f"{name}:")
            failures = test()
            for f in failures:
                print(f"  FAIL {f}")
            print(f"  {'FAIL' if failures else 'ok'}")
            failed |= bool(failures)
    if not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

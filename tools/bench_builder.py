"""Time the thermal builder in-process, N runs per tree, on the build
parameters of the three benchmark workloads, and write BENCH_builder.json.

    python3 tools/bench_builder.py [--repeat 10] [--baseline DIR]

Each timing runs `thermal_half_state_report` in a fresh child process with
one BLAS thread, on the sources under `<tree>/src`.  With --baseline, the
child runs alternate between DIR (another checkout, e.g. the parent
commit) and this checkout, so both see the same machine state.  The file
records, per tree and workload, every time with their minimum, median and
quartiles, the record count (gate layers plus product fits), the count of
product fits (records whose layer is "square" or "product"), the count of
records without a measured weight (discarded null: a fit that
truncated), the step count and the max bond, plus the machine facts and
git revisions.  The file goes to the root of this checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's workload table and build bond cap, so the trajectories
# time what bench/run.py runs
sys.path.append(str(ROOT / "bench"))
from run import BOND_DIM, WORKLOADS  # noqa: E402
CHILD = """
import json, sys, time
import mpotrace as mt
L, beta, dtau, bond = json.loads(sys.argv[1])
p = mt.IsingParams(L=L, J=1.0, g=1.0, h=0.0, beta=beta)
t0 = time.perf_counter()
m, meta = mt.thermal_half_state_report(p, dbond=bond, dtau=dtau)
print(json.dumps({"s": time.perf_counter() - t0, "layers": len(meta["layers"]),
                  "fits": sum(l["layer"] in ("square", "product") for l in meta["layers"]),
                  "unmeasured": sum(l["discarded"] is None for l in meta["layers"]),
                  "steps": meta["steps"], "max_bond": m.max_bond()}))
"""


def child_env(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(tree: Path, code: str, *args) -> dict:
    """Run `code` in a fresh interpreter on the sources under tree/src with
    one BLAS thread, and return the JSON object it prints."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=child_env(tree),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def alternate(trees: dict, workloads: dict, repeat: int, time_one) -> dict:
    """runs[side][name]: `repeat` results of time_one(tree, params) per
    tree and workload.  The trees take turns, and which one goes first
    flips from one repetition to the next, so both see the same machine
    state."""
    runs = {side: {name: [] for name in workloads} for side in trees}
    for rep in range(repeat):
        order = list(trees.items())[::-1 if rep % 2 else 1]
        for name, params in workloads.items():
            for side, tree in order:
                runs[side][name].append(time_one(tree, params))
    return runs


def _time_build(tree: Path, w) -> dict:
    return run_child(tree, CHILD, json.dumps([w.L, w.beta, w.dtau, BOND_DIM]))


def summary(times: list) -> dict:
    """The minimum, median and quartiles of a tree's times, and all of them."""
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"min_s": round(min(times), 4), "median_s": round(statistics.median(times), 4),
            "quartiles_s": [round(q1, 4), round(q3, 4)], "all_s": [round(t, 4) for t in times]}


def revision(tree: Path) -> str:
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"), "blas_threads": 1,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=10, help="timings per tree and workload")
    ap.add_argument("--baseline", type=Path, default=None, help="checkout to compare with")
    args = ap.parse_args(argv)
    trees = {"change": ROOT} if args.baseline is None else {"baseline": args.baseline, "change": ROOT}
    runs = alternate(trees, WORKLOADS, args.repeat, _time_build)
    doc = {
        "topic": "thermal builder, in-process wall time of thermal_half_state_report",
        "method": f"{args.repeat} child processes per tree and workload, alternating trees, "
                  f"bond cap {BOND_DIM}, one BLAS thread (tools/bench_builder.py); min_s, "
                  f"median_s and quartiles_s (25th and 75th percentiles) summarize all_s; "
                  f"layers counts the build's records, fits those of product fits, "
                  f"unmeasured those whose discarded weight is null",
        "machine": machine(),
        "trees": {},
    }
    for side, tree in trees.items():
        doc["trees"][side] = {"revision": revision(tree), "workloads": {
            name: {"L": WORKLOADS[name].L, "beta": WORKLOADS[name].beta,
                   "dtau": WORKLOADS[name].dtau, **summary([r["s"] for r in rs]),
                   "steps": rs[0]["steps"], "layers": rs[0]["layers"], "fits": rs[0]["fits"],
                   "unmeasured": rs[0]["unmeasured"], "max_bond": rs[0]["max_bond"]}
            for name, rs in runs[side].items()}}
    (ROOT / "BENCH_builder.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(doc["trees"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the entropy estimate in-process, N runs per tree, on the parameters
of the three benchmark workloads, and write BENCH_estimate.json.

    python3 tools/bench_estimate.py [--repeat 10] [--baseline DIR]

Each tree builds each workload's state once, at bond cap 20, with its own
builder, and saves it to a temporary file.  Each timing then loads the
tree's state in a fresh child process with one BLAS thread, on the sources
under `<tree>/src`, sets up the heap as the command line does at its start
(a tree without that step runs without it), and runs
`entropy_from_half_state` at the workload's kmax and dmax.  With
--baseline, the child runs alternate between DIR (another checkout, e.g.
the parent commit) and this checkout, as tools/bench_builder.py does.  The
file records, per tree and workload, every time with their minimum, median
and quartiles (the minimum alone did not resolve gaps of 30 % on a shared
host), the median wall time of the at-cap Lanczos steps (those whose fit
reached dmax) and of the growing steps (those whose incoming block, the
previous step's fit, is below dmax, 1 at step 1), the median count of
minor page faults during the estimate, the median peak resident set
(ru_maxrss after the estimate, in MB, as bench/run.py reports it), the
iteration count, the stop reason and S, plus the machine facts and git
revisions.  A child's ru_maxrss starts from the high-water mark of the
process that starts it, so the file also records this tool's own
(launcher_peak_rss_mb): a peak at that value shows the floor, not the
estimate.  With --baseline it also records, and prints, per workload
whether the two trees computed the same numbers: whether the saved
states are equal byte for byte, the relative difference of S and whether
the iteration counts, the stop reasons and every record's sweeps and
fit_residual are equal.  The file goes to the root of this checkout.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path

from bench_builder import (BOND_DIM, ROOT, WORKLOADS, alternate, machine, revision, run_child,
                           summary)

BUILD = """
import json, sys
import mpotrace as mt
from mpotrace import mpo as mp
L, beta, dtau, bond, path = json.loads(sys.argv[1])
p = mt.IsingParams(L=L, J=1.0, g=1.0, h=0.0, beta=beta)
mp.save_json(mt.thermal_half_state(p, dbond=bond, dtau=dtau), path)
print("{}")
"""
CHILD = """
import json, resource, statistics, sys, time
from mpotrace import cli, lanczos as lz, mpo as mp
# the heap set-up of the command line's start, where the tree has one
getattr(cli, "_keep_heap_mapped", lambda: None)()
path, kmax, dmax = json.loads(sys.argv[1])
m = mp.load_json(path)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
S, run = lz.entropy_from_half_state(m, kmax=kmax, dmax=dmax)
s = time.perf_counter() - t0
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
walls = [r.wall_ms for r in run.records]
# a record's bond is that of its step's fit; the run makes other fits too
at_cap = [r.wall_ms for r in run.records if r.bond >= dmax]
incoming = [1] + [r.bond for r in run.records[:-1]]
growing = [r.wall_ms for r, b in zip(run.records, incoming) if b < dmax]
print(json.dumps({"s": s, "S": S, "minor_faults": faults, "peak_rss_mb": rss,
                  "iterations": len(run.records), "stop_reason": run.stop_reason,
                  "at_cap_steps": len(at_cap), "step_ms": statistics.median(at_cap or walls),
                  "growing_steps": len(growing), "growing_ms": statistics.median(growing),
                  "sweeps": [r.sweeps for r in run.records],
                  "fit_residual": [r.fit_residual for r in run.records]}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=10, help="timings per tree and workload")
    ap.add_argument("--baseline", type=Path, default=None, help="checkout to compare with")
    args = ap.parse_args(argv)
    trees = {"change": ROOT} if args.baseline is None else {"baseline": args.baseline, "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        # states[tree][name]: the child's arguments, on the tree's own build
        states = {}
        for side, tree in trees.items():
            states[tree] = {}
            for name, w in WORKLOADS.items():
                path = str(Path(tmp) / f"{side}-{name}.json")
                run_child(tree, BUILD, json.dumps([w.L, w.beta, w.dtau, BOND_DIM, path]))
                states[tree][name] = (path, w.kmax, w.dmax)
        runs = alternate(trees, {name: name for name in WORKLOADS}, args.repeat,
                         lambda tree, name: run_child(tree, CHILD, json.dumps(states[tree][name])))
        state_bytes = {name: len({Path(states[tree][name][0]).read_bytes() for tree in states}) == 1
                       for name in WORKLOADS}
    launcher_rss = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 2)
    doc = {
        "topic": "entropy estimate, in-process wall time of entropy_from_half_state",
        "method": f"{args.repeat} child processes per tree and workload, alternating trees, "
                  f"state built once per tree at bond cap {BOND_DIM}, one BLAS thread "
                  f"(tools/bench_estimate.py); min_s, median_s and quartiles_s (25th and 75th "
                  f"percentiles) summarize all_s; at_cap_step_ms is the smallest per-run "
                  f"median wall time of the steps whose fit reached dmax, growing_step_ms "
                  f"that of the steps whose incoming block (the previous step's bond, 1 at "
                  f"step 1) is below dmax; minor_faults is the median count of minor page "
                  f"faults during the estimate (ru_minflt), peak_rss_mb the median of "
                  f"ru_maxrss after it, in MB, which starts from launcher_peak_rss_mb, the "
                  f"high-water mark of the process that starts the children.  The child "
                  f"sets up the heap as the command line does at its start "
                  f"(cli._keep_heap_mapped), where the tree has that step",
        "machine": machine(),
        "launcher_peak_rss_mb": launcher_rss,
        "trees": {},
    }
    for side, tree in trees.items():
        doc["trees"][side] = {"revision": revision(tree), "workloads": {
            name: {"L": WORKLOADS[name].L, "beta": WORKLOADS[name].beta,
                   "dtau": WORKLOADS[name].dtau, "kmax": WORKLOADS[name].kmax,
                   "dmax": WORKLOADS[name].dmax,
                   **summary([r["s"] for r in rs]),
                   "at_cap_step_ms": round(min(r["step_ms"] for r in rs), 2),
                   "at_cap_steps": rs[0]["at_cap_steps"],
                   "growing_step_ms": round(min(r["growing_ms"] for r in rs), 2),
                   "growing_steps": rs[0]["growing_steps"],
                   "minor_faults": round(statistics.median(r["minor_faults"] for r in rs)),
                   "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in rs), 2),
                   "iterations": rs[0]["iterations"], "stop_reason": rs[0]["stop_reason"],
                   "S": rs[0]["S"]}
            for name, rs in runs[side].items()}}
    if args.baseline is not None:
        doc["same_numbers"] = {}
        for name in WORKLOADS:
            old, new = (runs[side][name][0] for side in ("baseline", "change"))
            doc["same_numbers"][name] = {
                "state_bytes_equal": state_bytes[name],
                "S_rel_diff": (new["S"] - old["S"]) / abs(old["S"]),
                **{f"{key}_equal": new[key] == old[key]
                   for key in ("iterations", "stop_reason", "sweeps", "fit_residual")}}
    (ROOT / "BENCH_estimate.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(doc["trees"], indent=1))
    if "same_numbers" in doc:
        print(json.dumps(doc["same_numbers"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

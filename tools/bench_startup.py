"""Time the command line's cold start and the state-file write, min of N,
and write BENCH_startup.json.

    python3 tools/bench_startup.py --repeat 7 [--baseline DIR]

A cold start is one fresh interpreter running `import mpotrace.cli` on the
sources under `<tree>/src`, with one BLAS thread: its wall time from spawn
to exit and its peak resident set, the number of modules it loaded, and
whether any of them was scipy.  The state-file write is `mpo.save_json` in
a fresh child process, timed alone, on each benchmark workload's state
(built once, at bond cap 20, by this checkout's builder, and saved with
its build report as the command line does).  Every tree writes the same
operators, so with --baseline (another checkout, e.g. the parent commit)
the file also records per workload whether the two trees wrote the same
bytes.  The child runs alternate between the trees as in
tools/bench_builder.py.  The file records every time and their minimum,
plus the machine facts and git revisions, and goes to the root of this
checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_builder import (BOND_DIM, ROOT, WORKLOADS, alternate, child_env, machine, revision,
                           run_child)

IMPORT = """
import json, sys
import mpotrace.cli
print(json.dumps({"modules": len(sys.modules),
                  "scipy": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)}))
"""
BUILD = """
import json, sys
import mpotrace as mt
from mpotrace import mpo as mp
L, beta, dtau, bond, path = json.loads(sys.argv[1])
p = mt.IsingParams(L=L, J=1.0, g=1.0, h=0.0, beta=beta)
m, meta = mt.thermal_half_state_report(p, dbond=bond, dtau=dtau)
mp.save_json(m, path, metadata=meta)
print("{}")
"""
SAVE = """
import hashlib, json, sys, time
from mpotrace import mpo as mp
src, dst = sys.argv[1:]
m = mp.load_json(src)
with open(src, encoding="utf-8") as fh:
    meta = json.load(fh)["metadata"]
t0 = time.perf_counter()
mp.save_json(m, dst, metadata=meta)
s = time.perf_counter() - t0
with open(dst, "rb") as fh:
    print(json.dumps({"s": s, "sha256": hashlib.sha256(fh.read()).hexdigest()}))
"""


def _time_import(tree: Path, _) -> dict:
    """Wall time and peak RSS of one fresh interpreter importing the CLI."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", IMPORT], env=child_env(tree),
                            stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"importing mpotrace.cli failed under {tree}")
    return dict(json.loads(out), s=wall, rss_mb=usage.ru_maxrss * 1024 / 1e6)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="timings per tree and measurement")
    ap.add_argument("--baseline", type=Path, default=None, help="checkout to compare with")
    args = ap.parse_args(argv)
    trees = {"change": ROOT} if args.baseline is None else {"baseline": args.baseline, "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        states = {}
        for name, w in WORKLOADS.items():
            states[name] = Path(tmp) / f"{name}.json"
            run_child(ROOT, BUILD, json.dumps([w.L, w.beta, w.dtau, BOND_DIM, str(states[name])]))
        imports = alternate(trees, {"import": None}, args.repeat, _time_import)
        saves = alternate(trees, states, args.repeat, lambda tree, path: run_child(
            tree, SAVE, str(path), str(Path(tmp) / "out.json")))
        sizes = {name: round(path.stat().st_size / 1e6, 3) for name, path in states.items()}
    doc = {
        "topic": "cold start of the command line (import mpotrace.cli) and the state-file "
                 "write (mpo.save_json)",
        "method": f"min of {args.repeat} child processes per tree and measurement, alternating "
                  f"trees, one BLAS thread; import: wall time from spawn to exit and peak RSS "
                  f"of the child; save_json: in-child time of the call alone, on each "
                  f"workload's state built at bond cap {BOND_DIM} (tools/bench_startup.py)",
        "machine": machine(),
        "trees": {},
    }
    for side, tree in trees.items():
        runs = imports[side]["import"]
        doc["trees"][side] = {
            "revision": revision(tree),
            "import": {"min_s": round(min(r["s"] for r in runs), 4),
                       "all_s": [round(r["s"], 4) for r in runs],
                       "min_rss_mb": round(min(r["rss_mb"] for r in runs), 1),
                       "modules": runs[0]["modules"], "scipy_loaded": runs[0]["scipy"]},
            "save_json": {name: {"state_file_mb": sizes[name],
                                 "min_s": round(min(r["s"] for r in rs), 4),
                                 "all_s": [round(r["s"], 4) for r in rs],
                                 "sha256": rs[0]["sha256"]}
                          for name, rs in saves[side].items()},
        }
    if args.baseline is not None:
        doc["same_bytes"] = {name: saves["baseline"][name][0]["sha256"] == saves["change"][name][0]["sha256"]
                             for name in WORKLOADS}
    (ROOT / "BENCH_startup.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({side: {"import": t["import"], "save_min_s": {
        name: s["min_s"] for name, s in t["save_json"].items()}} for side, t in doc["trees"].items()},
        indent=1))
    if "same_bytes" in doc:
        print("same bytes:", doc["same_bytes"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

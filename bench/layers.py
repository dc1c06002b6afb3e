"""Per-layer metrics from the spans that tracer.py records.

A layer is a module of the package.  `calls` counts spans, `self_s` is a
span's duration minus the durations of its direct children (the program
is single-threaded, so children never overlap), `work` and `bytes` are
computed from the input shapes of the factorizations.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict

# metric name -> the functions whose spans it sums
FUNCTIONS = {
    "sweeping.multiply": ("sweeping.multiply_and_optimize",),
    "sweeping.sum": ("sweeping.sum_and_optimize",),
    "mpo.truncate_svd": ("mpo.truncate_svd",),
    "mpo.canonicalize": ("mpo.canonicalize",),
    "mpo.exact_multiply": ("mpo.exact_multiply",),
    "mpo.exact_add": ("mpo.exact_add",),
    "mpo.transfer": ("mpo.inner_product", "mpo.inner_product_scaled", "mpo.log_norm"),
    "tensors.svd": ("tensors.svd",),
    "tensors.qr": ("tensors.qr",),
    "tensors.tridiag_eig": ("tensors.symmetric_tridiag_eig",),
}
COSTED = ("tensors.svd", "tensors.qr")


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def _self_times(spans) -> list[float]:
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[5] - s[4]
    return own


def _step_ms(spans, dmax: int) -> float:
    """Median IterationRecord.wall_ms over the Lanczos steps whose product
    fit came back at bond dmax; over all steps if none did.  The k-th
    product fit that global_lanczos makes belongs to step k."""
    walls, bonds = [], []
    for s in spans:
        if s[3] == "lanczos.global_lanczos":
            walls += s[6]["wall_ms"]
        elif s[2] == "lanczos.multiply_and_optimize":
            bonds.append(s[6]["bond"])
    at_cap = [w for w, b in zip(walls, bonds) if b >= dmax]
    return statistics.median(at_cap or walls)


def per_layer(build_spans: list, estimate_spans: list, dmax: int) -> dict[str, float]:
    """Every per-layer metric of one traced build plus one traced estimate."""
    spans = build_spans + estimate_spans
    own = _self_times(build_spans) + _self_times(estimate_spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    cost = {f"{fn}.{k}": 0 for fn in COSTED for k in ("work", "bytes")}
    for s, t in zip(spans, own):
        fn = s[3]
        calls[fn] += 1
        self_s[fn] += t
        self_s[fn.split(".")[0]] += t
        if fn in COSTED:
            cost[fn + ".work"] += s[6]["work"]
            cost[fn + ".bytes"] += s[6]["bytes"]

    out: dict[str, float] = {
        "cli.load_json_s": sum(s[5] - s[4] for s in spans if s[3] == "mpo.load_json"),
        "cli.save_json_s": sum(s[5] - s[4] for s in spans if s[3] == "mpo.save_json"),
    }
    (build,) = [s[6] for s in build_spans if s[3] == "models.thermal_half_state_report"]
    out["models.build.self_s"] = self_s["models.thermal_half_state_report"]
    out["models.trotter_layers"] = build["layers"]
    out["models.state_max_bond"] = build["max_bond"]

    (lanczos,) = [s[6] for s in estimate_spans if s[3] == "lanczos.global_lanczos"]
    out["lanczos.iterations"] = len(lanczos["wall_ms"])
    out["lanczos.step_ms"] = _step_ms(estimate_spans, dmax)
    out["lanczos.self_s"] = self_s["lanczos"]
    out["lanczos.gauss_quadrature.self_s"] = self_s["lanczos.gauss_quadrature"]

    fits = [s[6] for s in spans if s[3] in FUNCTIONS["sweeping.multiply"] + FUNCTIONS["sweeping.sum"]]
    for name, fns in FUNCTIONS.items():
        out[name + ".calls"] = sum(calls[f] for f in fns)
        out[name + ".self_s"] = sum(self_s[f] for f in fns)
    # one full sweep makes 2L - 1 local updates
    out["sweeping.sweeps_per_fit"] = statistics.fmean(f["updates"] / (2 * f["L"] - 1) for f in fits)
    out["sweeping.converged_ratio"] = sum(f["converged"] for f in fits) / len(fits)
    out.update(cost)
    return out

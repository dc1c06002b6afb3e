"""Run the mpotrace command line in-process with every public function of
the package wrapped, from outside, in a timing span.

    python3 bench/tracer.py SPANS_JSON -- <mpotrace arguments>

Each function is wrapped under every name a caller looks it up by: the
span's site is `<module>.<name>` of the namespace the call went through
(`models.svd`, `lanczos.multiply_and_optimize`, `mpo.canonicalize`), its
function is `<module>.<name>` where the function is defined
(`tensors.svd`).  A span records its site, function, start, end and parent
span.  Spans stay in memory and are written once, when the command ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

MODULES = ("cli", "exact", "lanczos", "models", "mpo", "sweeping", "tensors")


def _matrix_cost(args, kwargs, out):
    """Computed cost of a factorization: work = m*n*min(m, n) of the
    input matrix, bytes = its nbytes."""
    a = args[0]
    left_axes = args[1] if len(args) > 1 else kwargs.get("left_axes")
    if left_axes is None:
        m, n = a.shape
    else:
        m = math.prod(a.shape[ax] for ax in left_axes)
        n = a.size // m
    return {"work": m * n * min(m, n), "bytes": a.nbytes}


def _fit(args, kwargs, out):
    return {"updates": len(out.objectives), "L": out.mpo.L,
            "converged": bool(out.converged), "bond": out.mpo.max_bond()}


def _lanczos(args, kwargs, out):
    return {"wall_ms": [r.wall_ms for r in out.records]}


def _build(args, kwargs, out):
    m, meta = out
    return {"layers": len(meta["layers"]), "max_bond": m.max_bond()}


# extra facts taken from a call's arguments or result, by function
ANNOTATE = {
    "tensors.svd": _matrix_cost,
    "tensors.qr": _matrix_cost,
    "sweeping.multiply_and_optimize": _fit,
    "sweeping.sum_and_optimize": _fit,
    "lanczos.global_lanczos": _lanczos,
    "models.thermal_half_state_report": _build,
}


class Tracer:
    def __init__(self):
        # one [id, parent, site, function, start, end, attrs] per call
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, site: str, function: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATE.get(function)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], site, function, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every module-level name that refers to a public function
        of the package, in every package module."""
        mods = {name: importlib.import_module(f"mpotrace.{name}") for name in MODULES}
        home = {}
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    home[obj] = f"{name}.{attr}"
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in home:
                    setattr(mod, attr, self.wrap(f"{name}.{attr}", home[obj], obj))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <mpotrace arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("mpotrace.cli")
    try:
        return cli.main(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

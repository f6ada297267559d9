"""Spans around fbmld's public functions, installed from outside the package.

``Tracer.install`` replaces each public function of the traced modules by a
wrapper that records a span (name, parent span, start, end) and a few counts
read from the call's arguments and result.  ``ldp``, ``cmspace`` and ``sde``
bind some of these functions by ``from ... import``, so the wrapper is
installed at every fbmld module attribute that holds the original.

``layer_metrics`` turns the spans into the per-layer metrics named
``module.function.metric``.  Self time is a span's duration minus the time
its direct child spans cover.  Flop counts are computed from array shapes;
byte counts are the sizes of the files written.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("rng", "fbm", "cmspace", "sde", "ldp", "cli")

# rng.stream and rng.mix64 run once per path stream inside rng.normal_block;
# wrapping them would bill per-stream wrapper cost to the layer under study.
UNTRACED = {"rng.stream", "rng.mix64"}


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_normal_block(a, result):
    return {"streams": a["n_streams"]}


def _count_volterra(a, batch):
    p, n, d = batch.n_paths, batch.n_steps, batch.dim
    # dense (n+1) x n table times n x (P d) increments, zero triangle included
    return {"paths": p, "flop": 2.0 * p * d * n * (n + 1)}


def _count_cholesky(a, batch):
    p, n, d = batch.n_paths, batch.n_steps, batch.dim
    # n^3/3 for the factor, dense n x n factor times n x (P d) normals
    return {"paths": p, "flop": n ** 3 / 3.0 + 2.0 * p * d * n * n}


def _count_export_csv(a, result):
    a["fh"].flush()
    return {"bytes": os.fstat(a["fh"].fileno()).st_size}


def _count_export_npz(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _count_solve(a, result):
    rows, n, _ = a["increments"].shape
    return {"rows": rows, "path_steps": rows * n}


def _count_rate(a, result):
    diag = result.diagnostics
    return {"skeleton_solves": diag["n_solves"],
            "iterations": diag["iterations"],
            "starts": len(diag["starts"]),
            "feasible_starts": sum(s["feasible"] for s in diag["starts"])}


def _count_laplace_mc(a, result):
    return {"paths": result.n_samples}


def _count_is(a, result):
    return {"paths": result.n_samples, "hits": result.n_hits}


COUNTERS = {
    "rng.normal_block": _count_normal_block,
    "fbm.sample_volterra": _count_volterra,
    "fbm.sample_cholesky": _count_cholesky,
    "fbm.export_paths_csv": _count_export_csv,
    "fbm.export_increments": _count_export_npz,
    "sde.solve_increments": _count_solve,
    "ldp.rate_minimize": _count_rate,
    "ldp.laplace_mc": _count_laplace_mc,
    "ldp.is_probability": _count_is,
}


def _public_functions(module):
    """Functions defined in ``module`` whose names do not start with ``_``."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    """Collects spans from wrappers installed into the fbmld modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []

    def _wrap(self, qualname: str, fn):
        counter = COUNTERS.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(qualname, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(_bound(fn, args, kwargs), result)
            return result

        return traced

    def install(self) -> "Tracer":
        wrappers = {}
        for mod_name in TRACED_MODULES:
            for name, fn in _public_functions(sys.modules[f"fbmld.{mod_name}"]):
                qualname = f"{mod_name}.{name}"
                if qualname not in UNTRACED:
                    self.originals[qualname] = fn
                    wrappers[id(fn)] = self._wrap(qualname, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "fbmld" or mod_name.startswith("fbmld."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])
        return self


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer metrics and consistency checks from one traced invocation."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def of(name):
        return [(i, s) for i, s in enumerate(spans) if s.name == name]

    def busy(name):
        return sum(s.duration for _, s in of(name))

    def self_s(name):
        return sum(s.duration - child_time[i] for i, s in of(name))

    def total(name, key):
        return sum(s.counts.get(key, 0) for _, s in of(name))

    def under(i, name):
        while spans[i].parent >= 0:
            i = spans[i].parent
            if spans[i].name == name:
                return True
        return False

    m = {}
    streams = total("rng.normal_block", "streams")
    nb_busy = busy("rng.normal_block")
    m["rng.normal_block.calls"] = len(of("rng.normal_block"))
    m["rng.normal_block.streams"] = streams
    m["rng.normal_block.busy_s"] = nb_busy
    m["rng.normal_block.us_per_stream"] = 1e6 * _ratio(nb_busy, streams)

    info = tracer.originals["fbm.kernel_table"].cache_info()
    m["fbm.kernel_table.busy_s"] = busy("fbm.kernel_table")
    m["fbm.kernel_table.hits"] = info.hits
    m["fbm.kernel_table.misses"] = info.misses

    vol_self = self_s("fbm.sample_volterra")
    vol_gflop = total("fbm.sample_volterra", "flop") / 1e9
    m["fbm.sample_volterra.calls"] = len(of("fbm.sample_volterra"))
    m["fbm.sample_volterra.paths"] = total("fbm.sample_volterra", "paths")
    m["fbm.sample_volterra.self_s"] = vol_self
    m["fbm.sample_volterra.gflop_computed"] = vol_gflop
    m["fbm.sample_volterra.gflop_per_s"] = _ratio(vol_gflop, vol_self)

    m["fbm.sample_cholesky.paths"] = total("fbm.sample_cholesky", "paths")
    m["fbm.sample_cholesky.self_s"] = self_s("fbm.sample_cholesky")
    m["fbm.sample_cholesky.gflop_computed"] = \
        total("fbm.sample_cholesky", "flop") / 1e9
    for name in ("fbm.export_paths_csv", "fbm.export_increments"):
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.bytes"] = total(name, "bytes")
    m["cli.run.self_s"] = self_s("cli.run")

    solve = "sde.solve_increments"
    rows, steps = total(solve, "rows"), total(solve, "path_steps")
    solve_busy = busy(solve)
    m[f"{solve}.calls"] = len(of(solve))
    m[f"{solve}.rows"] = rows
    m[f"{solve}.rows_per_call"] = _ratio(rows, len(of(solve)))
    m[f"{solve}.path_steps"] = steps
    m[f"{solve}.busy_s"] = solve_busy
    m[f"{solve}.ns_per_path_step"] = 1e9 * _ratio(solve_busy, steps)

    rate = "ldp.rate_minimize"
    solves, iters = total(rate, "skeleton_solves"), total(rate, "iterations")
    m[f"{rate}.calls"] = len(of(rate))
    m[f"{rate}.self_s"] = self_s(rate)
    m[f"{rate}.skeleton_solves"] = solves
    m[f"{rate}.iterations"] = iters
    m[f"{rate}.solves_per_iteration"] = _ratio(solves, iters)
    m[f"{rate}.starts"] = total(rate, "starts")
    m[f"{rate}.feasible_starts"] = total(rate, "feasible_starts")

    m["ldp.laplace_variational.self_s"] = self_s("ldp.laplace_variational")
    m["ldp.laplace_mc.paths"] = total("ldp.laplace_mc", "paths")
    m["ldp.laplace_mc.self_s"] = self_s("ldp.laplace_mc")
    is_paths = total("ldp.is_probability", "paths")
    m["ldp.is_probability.paths"] = is_paths
    m["ldp.is_probability.self_s"] = self_s("ldp.is_probability")
    m["ldp.is_probability.hit_ratio"] = _ratio(
        total("ldp.is_probability", "hits"), is_paths)
    m["ldp.girsanov_weight.busy_s"] = busy("ldp.girsanov_weight")

    mat = "cmspace.materialize_from_derivative"
    m[f"{mat}.calls"] = len(of(mat))
    m[f"{mat}.busy_s"] = busy(mat)

    sampled = total("fbm.sample_volterra", "paths") \
        + total("fbm.sample_cholesky", "paths")
    rate_rows = sum(s.counts["rows"] for i, s in of(solve) if under(i, rate))
    checks = [
        ("trace_streams_equal_sampled_paths", streams == sampled,
         f"streams={streams} sampled paths={sampled}"),
        ("trace_rate_rows_equal_skeleton_solves", rate_rows == solves,
         f"solve rows under rate_minimize={rate_rows} "
         f"skeleton_solves={solves}"),
    ]
    return m, checks

"""Span recorder for the traced run: wraps the package's public functions.

Each wrapped call records a span (name, thread, start, end, parent).  A name
is patched everywhere it is looked up -- every ``sparsefn`` module global that
holds the original object -- because ``sim``, ``rates`` and ``cli`` import
functions by name.  Methods are patched on their class.  Spans are kept in
memory; metrics are computed, and the spans written, after the run.

Self time is a span's duration minus the union of its children's intervals.
Thread-pool workers start with an empty stack; their root spans are adopted
by the innermost open span of the main thread (``sim.risk_grid``), so the
grid loop's self time is the part of its interval no worker call covers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import statistics
import sys
import threading
from time import perf_counter


def _elements(args, kwargs, result):
    loading = args[0] if args else kwargs["loading"]
    return loading.d


def _variates(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _solution(args, kwargs, result):
    return (result.iterations, abs(result.residual) / result.target)


# (module, attribute, span name, extra recorded from (args, kwargs, result))
TARGETS = [
    ("streams", "generator", "streams.generator", None),
    ("noise", "sample_with", "noise.sample_with", _variates),
    ("loading", "make_loading", "loading.make_loading", None),
    ("threshold", "log_phi_objective", "threshold.log_phi_objective", _elements),
    ("threshold", "solve_beta", "threshold.solve_beta", _solution),
    ("threshold", "solve_lambda_H", "threshold.solve_lambda_H", _solution),
    ("rates", "RateCalculator.__init__", "rates.RateCalculator.init", None),
    ("rates", "RateCalculator.oracle", "rates.oracle", None),
    ("rates", "RateCalculator.star_solution", "rates.star_solution", None),
    ("rates", "RateCalculator.nu_star", "rates.nu_star", None),
    ("rates", "RateCalculator.phi_adp", "rates.phi_adp", None),
    ("estimators", "EstimationInput.__init__", "estimators.EstimationInput", None),
    ("estimators", "oracle_estimate", "estimators.oracle_estimate", None),
    ("estimators", "plugin_estimate", "estimators.plugin_estimate", None),
    ("estimators", "nonsymmetric_estimate", "estimators.nonsymmetric_estimate", None),
    ("estimators", "unknown_sigma_estimate", "estimators.unknown_sigma_estimate", None),
    ("estimators", "adaptive_estimate", "estimators.adaptive_estimate", None),
    ("estimators", "mom_sigma", "estimators.mom_sigma", None),
    ("lowerbound", "build_prior", "lowerbound.build_prior", None),
    ("lowerbound", "draw_prior", "lowerbound.draw_prior", None),
    ("sim", "risk_grid", "sim.risk_grid", None),
    # private, but the only boundary around one grid cell's work in a worker
    ("sim", "_run_cell", "sim.cell", None),
    ("config", "parse_config", "config.parse_config", None),
    ("cli", "main", "cli.main", None),
]

# span names that also get p99: called per replicate or per bisection step,
# so at least one workload gives the 1000+ samples p99 needs
HIGH_VOLUME = ("streams.generator", "noise.sample_with", "estimators.EstimationInput",
               "estimators.oracle_estimate", "estimators.plugin_estimate",
               "estimators.nonsymmetric_estimate", "estimators.unknown_sigma_estimate",
               "estimators.mom_sigma", "threshold.log_phi_objective")

# once per CLI call: only their self time (grid loop, argument parsing,
# output writing) is of interest
SELF_ONLY = ("sim.risk_grid", "cli.main")


class Tracer:
    """Collects spans from every thread; ``install`` patches the package."""

    def __init__(self) -> None:
        self.spans: list = []   # [name, thread id, start, end, parent span, extra]
        self.missing: list = []
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list = []
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, extra=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack and stack is not self._main_stack
                else None)
            span = [name, threading.get_ident(), perf_counter(), 0.0, parent, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                spans.append(span)
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target wherever a ``sparsefn`` module holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sparsefn" or n.startswith("sparsefn.")]
        for mod_name, attr, name, extra in TARGETS:
            module = importlib.import_module("sparsefn." + mod_name)
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                original = cls.__dict__.get(leaf) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                setattr(cls, leaf, self.wrap(name, original, extra))
                self._restore.append((cls, leaf, original))
                continue
            original = getattr(module, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """id(span) -> duration minus the union of its children's intervals."""
        children: dict = {}
        for span in self.spans:
            if span[4] is not None:
                children.setdefault(id(span[4]), []).append((span[2], span[3]))
        out = {}
        for span in self.spans:
            t0, t1 = span[2], span[3]
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(id(span), ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[id(span)] = (t1 - t0) - covered
        return out

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV, times in microseconds from the first."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        base = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,thread,start_us,end_us,parent\n")
            for i, (name, tid, t0, t1, parent, _extra) in enumerate(self.spans):
                p = "" if parent is None else index.get(id(parent), "")
                fh.write(f"{i},{name},{tid},{(t0 - base) * 1e6:.3f},"
                         f"{(t1 - base) * 1e6:.3f},{p}\n")


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics of the traced phase.

    ``.calls`` and ``.self_s`` are per round (one run of the workload's CLI
    calls), so they do not depend on how many rounds fit in the run.
    ``.p50_us``/``.p99_us`` are inclusive per-call durations.  Span times are
    wall clock, so under a thread pool they include waiting for the GIL.  A
    layer a workload never calls reports 0.
    """
    selfs = tracer.self_times()
    by_name: dict = {}
    for span in tracer.spans:
        by_name.setdefault(span[0], []).append(span)

    def calls(name):
        return by_name.get(name, [])

    m: dict = {}

    def put(key, value, unit):
        m[key] = {"value": float(value), "unit": unit}

    for _mod, _attr, name, _extra in TARGETS:
        if name == "sim.cell":
            continue  # reported as sim.cells and through sim.worker_busy_ratio
        spans = calls(name)
        put(f"{name}.self_s", sum(selfs[id(s)] for s in spans) / rounds, "s/round")
        if name in SELF_ONLY:
            continue
        durs = sorted((s[3] - s[2]) * 1e6 for s in spans)
        put(f"{name}.calls", len(spans) / rounds, "calls/round")
        put(f"{name}.p50_us", statistics.median(durs) if durs else 0.0, "us")
        if name in HIGH_VOLUME:
            put(f"{name}.p99_us", _percentile(durs, 0.99) if durs else 0.0, "us")

    sw = [s for s in calls("noise.sample_with") if s[5] is not None]
    sw_self = sum(selfs[id(s)] for s in sw)
    put("noise.variates_per_s", sum(s[5] for s in sw) / sw_self if sw_self else 0.0, "1/s")

    lp = [s for s in calls("threshold.log_phi_objective") if s[5] is not None]
    elems = sum(s[5] for s in lp)
    put("threshold.log_phi_objective.ns_per_elem",
        sum(selfs[id(s)] for s in lp) * 1e9 / elems if elems else 0.0, "ns/elem")

    sb = [s for s in calls("threshold.solve_beta") if s[5] is not None]
    put("threshold.solve_beta.iterations",
        statistics.fmean(s[5][0] for s in sb) if sb else 0.0, "iter/solve")
    put("threshold.solve_beta.worst_rel_residual",
        max((s[5][1] for s in sb), default=0.0), "rel")

    requests = len(calls("rates.oracle")) + len(calls("rates.star_solution"))
    solves = sum(1 for s in sb if s[4] is not None
                 and s[4][0] in ("rates.oracle", "rates.star_solution"))
    put("rates.cache_hit_ratio", 1.0 - solves / requests if requests else 0.0, "ratio")

    cells = calls("sim.cell")
    busy = capacity = 0.0
    for grid in calls("sim.risk_grid"):
        mine = [s for s in cells if s[4] is grid]
        busy += sum(s[3] - s[2] for s in mine)
        # workers: the threads that ran this grid's cells
        capacity += len({s[1] for s in mine}) * (grid[3] - grid[2])
    put("sim.worker_busy_ratio", busy / capacity if capacity else 0.0, "ratio")
    put("sim.cells", len(cells) / rounds, "cells/round")
    # the grid loop validates one EstimationInput per replicate
    put("sim.replicates", sum(1 for s in calls("estimators.EstimationInput")
                              if s[4] is not None and s[4][0] == "sim.cell") / rounds,
        "reps/round")
    return m

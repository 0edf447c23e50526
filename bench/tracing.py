"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of the ``gordian`` modules with
wrappers, in every module namespace that holds them, so calls made inside
the package are seen too; nothing under ``src/`` changes.  A wrapper keeps
one span per call (name, start, end, parent span, problem id) in memory,
plus per-layer counters.  Functions called thousands of times per problem
(``logics.instantiate`` and ``chains.eval_vector``) are counted and timed
without a span each, which keeps the trace small.  :meth:`Tracer.metrics`
gives the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from gordian import chains, density, engine, interpolate, linalg, logics, normalize, oracles, syntax

# (metric prefix, module, function, keeps spans)
WRAPPED = [
    ("syntax.parse", syntax, "parse", True),
    ("normalize.decompose", normalize, "decompose_consequence", True),
    ("linalg.lp", linalg, "feasible_point_or_farkas", True),
    ("linalg.gordan", linalg, "gordan", True),
    ("linalg.fm", linalg, "project_fm", True),
    ("chains.eval_vector", chains, "eval_vector", False),
    ("oracles.decide", oracles, "decide", True),
    ("oracles.sugihara_decide", oracles, "sugihara_decide", True),
    ("oracles.countermodel_scan", oracles, "find_chain_countermodel", True),
    ("oracles.refute_check", oracles, "countermodel_refutes", True),
    ("oracles.hilbert", oracles, "hilbert_search", True),
    ("logics.instantiate", logics, "instantiate", False),
    ("engine.consequence", engine, "prove_consequence", True),
    ("engine.prove", engine, "prove_disjunction", True),
    ("interpolate.lift", interpolate, "lift_interpolant", True),
    ("interpolate.mult", interpolate, "mult_uniform_interpolant", True),
    ("density.transform", density, "density_transform", True),
    ("density.precondition", density, "density_precondition", True),
]

# name -> unit of every per-layer metric, in BENCHMARK.json order
METRICS = {
    "syntax.parse_s": "s",
    "syntax.cache_entries": "count",
    "normalize.decompose_s": "s",
    "normalize.goals": "count",
    "linalg.lp_calls": "count",
    "linalg.lp_s": "s",
    "linalg.lp_cells": "count",
    "linalg.gordan_s": "s",
    "linalg.fm_s": "s",
    "chains.grid_points": "count",
    "chains.eval_vector_calls": "count",
    "chains.eval_vector_s": "s",
    "chains.chain_builds": "count",
    "oracles.decide_calls": "count",
    "oracles.decide_s": "s",
    "oracles.countermodel_scans": "count",
    "oracles.countermodel_scan_s": "s",
    "oracles.refute_checks": "count",
    "oracles.refute_check_s": "s",
    "oracles.hilbert_calls": "count",
    "oracles.hilbert_s": "s",
    "oracles.hilbert_unknown": "count",
    "logics.instances": "count",
    "logics.instantiate_s": "s",
    "engine.goals": "count",
    "engine.prove_s": "s",
    "engine.unknown": "count",
    "engine.decides_per_goal": "ratio",
    "interpolate.s": "s",
    "interpolate.class_decides": "count",
    "density.transform_s": "s",
    "density.precondition_calls": "count",
    "cli.import_s": "s",
    "cli.process_ms": "ms",
    "cli.main_ms": "ms",
}


def _formula_caches():
    return [f for f in vars(syntax).values() if hasattr(f, "cache_info")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.problem: int | None = None
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.extra: Counter = Counter()
        self.interpolating = 0
        self._patched: list = []
        self._chain_misses = 0

    # --- wrapping --------------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("gordian")]
        modules += list(extra_modules)
        for name, module, attr, spans in WRAPPED:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, spans)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        self._chain_misses = chains.sugihara_chain.cache_info().misses

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name, fn, keep_span: bool):
        calls, seconds = self.calls, self.seconds
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        interpolation = name.startswith("interpolate.")

        if not keep_span:
            def counted(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += perf_counter() - start
                    calls[name] += 1
            return counted

        def spanned(*args, **kwargs):
            stack = self.stack
            outermost = interpolation and not self.interpolating
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            if interpolation:
                self.interpolating += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if interpolation:
                    self.interpolating -= 1
                self.spans[index] = (name, start, end, parent, self.problem)
                if outermost:  # lift_interpolant may call mult_uniform_interpolant
                    seconds["interpolate"] += end - start
                elif not interpolation:
                    seconds[name] += end - start
                calls[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return spanned

    # --- counters at the layer boundaries -------------------------------------------

    def _after_normalize_decompose(self, args, kwargs, result):
        self.extra["normalize.goals"] += len(result)

    def _after_linalg_lp(self, args, kwargs, result):
        rows = args[0]
        self.extra["linalg.lp_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _after_oracles_countermodel_scan(self, args, kwargs, result):
        chain_list, sigma, disjuncts = args[:3]
        k = len(syntax.variables_of(list(sigma) + list(disjuncts)))
        self.extra["chains.grid_points"] += sum(len(c.carrier) ** k for c in chain_list)

    def _after_oracles_sugihara_decide(self, args, kwargs, result):
        if self.interpolating:
            self.extra["interpolate.class_decides"] += 1

    def _after_oracles_hilbert(self, args, kwargs, result):
        if result.status == "unknown":
            self.extra["oracles.hilbert_unknown"] += 1

    def _after_engine_prove(self, args, kwargs, result):
        if result.status == "unknown":
            self.extra["engine.unknown"] += 1

    # --- results ---------------------------------------------------------------------

    def metrics(self, import_s: float, process_ms: float, main_ms: float) -> dict:
        c, s, x = self.calls, self.seconds, self.extra
        goals = c["engine.prove"]
        values = {
            "syntax.parse_s": s["syntax.parse"],
            "syntax.cache_entries": sum(f.cache_info().currsize for f in _formula_caches()),
            "normalize.decompose_s": s["normalize.decompose"],
            "normalize.goals": x["normalize.goals"],
            "linalg.lp_calls": c["linalg.lp"],
            "linalg.lp_s": s["linalg.lp"],
            "linalg.lp_cells": x["linalg.lp_cells"],
            "linalg.gordan_s": s["linalg.gordan"],
            "linalg.fm_s": s["linalg.fm"],
            "chains.grid_points": x["chains.grid_points"],
            "chains.eval_vector_calls": c["chains.eval_vector"],
            "chains.eval_vector_s": s["chains.eval_vector"],
            "chains.chain_builds": chains.sugihara_chain.cache_info().misses - self._chain_misses,
            "oracles.decide_calls": c["oracles.decide"],
            "oracles.decide_s": s["oracles.decide"],
            "oracles.countermodel_scans": c["oracles.countermodel_scan"],
            "oracles.countermodel_scan_s": s["oracles.countermodel_scan"],
            "oracles.refute_checks": c["oracles.refute_check"],
            "oracles.refute_check_s": s["oracles.refute_check"],
            "oracles.hilbert_calls": c["oracles.hilbert"],
            "oracles.hilbert_s": s["oracles.hilbert"],
            "oracles.hilbert_unknown": x["oracles.hilbert_unknown"],
            "logics.instances": c["logics.instantiate"],
            "logics.instantiate_s": s["logics.instantiate"],
            "engine.goals": goals,
            "engine.prove_s": s["engine.prove"],
            "engine.unknown": x["engine.unknown"],
            "engine.decides_per_goal": c["oracles.decide"] / goals if goals else 0.0,
            "interpolate.s": s["interpolate"],
            "interpolate.class_decides": x["interpolate.class_decides"],
            "density.transform_s": s["density.transform"],
            "density.precondition_calls": c["density.precondition"],
            "cli.import_s": import_s,
            "cli.process_ms": process_ms,
            "cli.main_ms": main_ms,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def self_times(self) -> dict:
        """Seconds per span name, minus the time its child spans cover."""
        child = Counter()
        for span in self.spans:
            if span is not None and span[3] is not None:
                child[span[3]] += span[2] - span[1]
        out: Counter = Counter()
        for index, span in enumerate(self.spans):
            if span is not None:
                out[span[0]] += span[2] - span[1] - child[index]
        return dict(out)

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "summary": summary,
                    "self_seconds": self.self_times(),
                    "columns": ["name", "start", "end", "parent", "problem"],
                    "spans": [s for s in self.spans if s is not None],
                },
                handle,
            )

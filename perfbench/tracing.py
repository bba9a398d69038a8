"""Outside-in tracing of decaylab's module boundaries.

`Tracer.install()` replaces every public function of each decaylab module
(and every alias other modules imported of it) with a wrapper that records
a span: name, start, end, parent span and job id, kept in memory.  Calls
finer than a microsecond are counted, not timed: the density callables the
spectral factories return, the potential V behind W, and parsed
expressions.  scipy's `quad` as bound in `decaylab.oscint` is counted and
timed but opens no span, so its time stays in the calling span's self time.
Nothing under src/ is edited; `uninstall()` restores every original.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import time
import types
from collections import Counter

MODULES = ("cli", "output", "spectral", "oscint", "pocket", "gkls", "diagnostics",
           "potential", "expressions")
# sub-microsecond helpers called once per written value
UNSPANNED = {"output.fmt", "output.header_lines"}
# one span of these is one evaluated time point; distinct integrand nodes
# are counted within it
POINT_SPANS = {"oscint.fourier_amplitude", "oscint.global_survival",
               "potential.generalized_dephasing_factor"}
DENSITY_FACTORIES = {"spectral.lorentzian_density", "spectral.exponential_density",
                     "spectral.table_density"}
WRITERS = {"output.write_csv", "output.write_report"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job id]
        self.stack: list = []
        self.counts: Counter = Counter()  # exact, repeatable counts
        self.busy: Counter = Counter()  # seconds spent in un-spanned timed calls
        self.job = None
        self._restore: list = []
        self._point_depth = 0
        self._induced_depth = 0
        self._nodes: set = set()
        self._funcs: dict = {}

    # -- recording -------------------------------------------------------

    def reset(self):
        self.spans, self.stack = [], []
        # cleared in place: installed wrappers hold these objects
        self.counts.clear()
        self.busy.clear()

    def _open(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.spans.append(rec)
        self.stack.append(idx)
        return rec

    def _close(self, rec):
        self.stack.pop()
        rec[2] = time.perf_counter()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        wrapper._bench_counted = True
        return wrapper

    def _clear_nodes(self):
        self._nodes.clear()
        self._funcs.clear()

    def _point(self, name, fn, failure_type):
        def wrapper(*args, **kwargs):
            outer = self._point_depth == 0
            if outer:
                self._clear_nodes()
            self._point_depth += 1
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            except failure_type:
                if outer:
                    self.counts["oscint.failures"] += 1
                raise
            finally:
                self._close(rec)
                self._point_depth -= 1
                if outer:
                    self._clear_nodes()
        return wrapper

    def _quad(self, quad):
        counts, busy, nodes, funcs = self.counts, self.busy, self._nodes, self._funcs

        def traced_quad(func, a, b, *args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0].startswith("diagnostics."):
                counts["diagnostics.quad_calls"] += 1
                return quad(func, a, b, *args, **kwargs)
            counts["oscint.quad_calls"] += 1
            if kwargs.get("complex_func"):
                counts["oscint.cells"] += 1
            if kwargs.get("weight") in ("cos", "sin"):
                counts["oscint.qawo_calls"] += 1
            local = self._point_depth == 0
            if local:
                self._clear_nodes()
            # strong reference: an id is never reused while its node set lives
            serial = funcs.setdefault(id(func), (len(funcs), func))[0]
            before = len(nodes)
            calls = [0]

            def integrand(x, *fargs):
                calls[0] += 1
                nodes.add((serial, x))
                return func(x, *fargs)

            t0 = time.perf_counter()
            try:
                return quad(integrand, a, b, *args, **kwargs)
            finally:
                busy["oscint.quad"] += time.perf_counter() - t0
                counts["oscint.integrand_evals"] += calls[0]
                counts["oscint.distinct_nodes"] += len(nodes) - before
                if local:
                    self._clear_nodes()
        return traced_quad

    # -- special boundaries ----------------------------------------------

    def _density_factory(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                d = fn(*args, **kwargs)
                return dataclasses.replace(d, density=self._counted("spectral.density_evals", d.density))
            finally:
                self._close(rec)
        return wrapper

    def _parse_expression(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return self._counted("expressions.evals", fn(*args, **kwargs))
            finally:
                self._close(rec)
        return wrapper

    def _induced_map(self, name, fn):
        counts = self.counts

        def wrapper(V, *args, **kwargs):
            if not getattr(V, "_bench_counted", False):
                inner = V

                def V(x):
                    if self._induced_depth == 0:
                        counts["potential.v_evals"] += 1
                    return inner(x)
                V._bench_counted = True
            rec = self._open(name)
            self._induced_depth += 1
            try:
                p = fn(V, *args, **kwargs)
            finally:
                self._induced_depth -= 1
                self._close(rec)
            return dataclasses.replace(p, W_inverse=self._span("potential.W_inverse", p.W_inverse))
        return wrapper

    def _build_parser(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                parser = fn(*args, **kwargs)
            finally:
                self._close(rec)
            parser.parse_args = self._span("cli.parse_args", parser.parse_args)
            return parser
        return wrapper

    def _writer(self, name, fn):
        def wrapper(path, *args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(path, *args, **kwargs)
            finally:
                self._close(rec)
            self.counts["output.bytes"] += os.path.getsize(path)
            return result
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"decaylab.{m}") for m in MODULES}
        oscint = mods["oscint"]
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__ or name in UNSPANNED):
                    continue
                if name in POINT_SPANS:
                    wrapped[fn] = self._point(name, fn, oscint.QuadratureFailure)
                elif name in DENSITY_FACTORIES:
                    wrapped[fn] = self._density_factory(name, fn)
                elif name == "expressions.parse_expression":
                    wrapped[fn] = self._parse_expression(name, fn)
                elif name == "potential.induced_map":
                    wrapped[fn] = self._induced_map(name, fn)
                elif name == "cli.build_parser":
                    wrapped[fn] = self._build_parser(name, fn)
                elif name in WRITERS:
                    wrapped[fn] = self._writer(name, fn)
                else:
                    wrapped[fn] = self._span(name, fn)
        # rebind every alias (e.g. cli's `from .spectral import table_density`)
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in wrapped:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapped[fn])
        self._restore.append((oscint, "quad", oscint.quad))
        oscint.quad = self._quad(oscint.quad)

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    # -- per-layer metrics -----------------------------------------------

    def repeatable(self) -> dict:
        """Everything that must repeat exactly between two traced passes."""
        out = dict(self.counts)
        for name, *_ in self.spans:
            out["spans:" + name] = out.get("spans:" + name, 0) + 1
        return out

    def layer_metrics(self, jobs: int, points: int) -> dict:
        dur, self_time, calls = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur[name] += end - start
            self_time[name.split(".")[0]] += end - start - child[i]
            calls[name] += 1
        parse = dur["cli.build_parser"] + dur["cli.parse_args"]
        c = self.counts
        ms = 1e3
        return {
            "cli.self_ms_per_job": ("ms", ms * (self_time["cli"] - parse) / jobs),
            "cli.parse_ms_per_job": ("ms", ms * parse / jobs),
            "output.write_ms_per_job": ("ms", ms * (dur["output.write_csv"] + dur["output.write_report"]) / jobs),
            "output.bytes_per_job": ("B", c["output.bytes"] / jobs),
            "spectral.density_evals_per_point": ("count", c["spectral.density_evals"] / points),
            "oscint.quad_calls_per_point": ("count", c["oscint.quad_calls"] / points),
            "oscint.cells_per_point": ("count", c["oscint.cells"] / points),
            "oscint.qawo_calls_per_point": ("count", c["oscint.qawo_calls"] / points),
            "oscint.integrand_evals_per_point": ("count", c["oscint.integrand_evals"] / points),
            "oscint.mass_integral_calls_per_point": ("count", calls["oscint.mass_integral"] / points),
            "oscint.evals_per_distinct_node": (
                "ratio", c["oscint.integrand_evals"] / max(c["oscint.distinct_nodes"], 1)),
            "oscint.quad_ms_per_point": ("ms", ms * self.busy["oscint.quad"] / points),
            "oscint.self_ms_per_point": ("ms", ms * self_time["oscint"] / points),
            "oscint.failures_per_job": ("count", c["oscint.failures"] / jobs),
            "pocket.self_ms_per_job": ("ms", ms * self_time["pocket"] / jobs),
            "gkls.self_ms_per_job": ("ms", ms * self_time["gkls"] / jobs),
            "diagnostics.pw_sweep_ms_per_job": ("ms", ms * dur["diagnostics.pw_sweep"] / jobs),
            "diagnostics.fit_ms_per_job": ("ms", ms * dur["diagnostics.exponential_fit"] / jobs),
            "diagnostics.quad_calls_per_job": ("count", c["diagnostics.quad_calls"] / jobs),
            "potential.w_inverse_calls_per_point": ("count", calls["potential.W_inverse"] / points),
            "potential.w_inverse_ms_per_point": ("ms", ms * dur["potential.W_inverse"] / points),
            # W(x) = V(x) - V(-x): two V calls per W evaluation
            "potential.w_evals_per_point": ("count", c["potential.v_evals"] / 2.0 / points),
            "potential.induced_map_ms_per_job": ("ms", ms * dur["potential.induced_map"] / jobs),
            "expressions.parse_ms_per_job": ("ms", ms * dur["expressions.parse_expression"] / jobs),
            "expressions.evals_per_job": ("count", c["expressions.evals"] / jobs),
        }

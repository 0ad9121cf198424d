"""Spans around the calls into each package layer, recorded from outside.

The tracer replaces public functions of the package modules with timing
wrappers and restores them afterwards; nothing under ``src/`` is edited.
The package binds names with ``from .linalg import lognorm``, so a
wrapper is installed on every package module attribute that holds the
original function, and the modules the layer table relies on are
checked to have been patched.

A span records its name, the command (op) it belongs to, its parent
span, start, end and the time its children covered; its self time is
the rest.  The per-matrix calls (lognorm, induced_norm, the closed-loop
closure, the compiled disturbance) are too many for one span each and
are aggregated per parent span as a count and a total time instead.
The right-hand sides that ``sim._integrate`` is handed are counted per
parent span the same way, untimed.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, what to keep from the result); the
# result hook returns extra fields for the span record
SPANS = (
    ("config", "load_config", "config.load", None),
    ("synthesis", "synthesize", "synthesis.synthesize", None),
    ("synthesis", "verify_c2", "synthesis.verify_c2", None),
    ("synthesis", "verify_c3", "synthesis.verify_c3", None),
    ("analysis", "classify_stability", "analysis.classify", None),
    ("analysis", "check_A1", "analysis.check_A1", None),
    ("analysis", "check_A2_A4", "analysis.check_A2_A4", None),
    ("analysis", "check_A3", "analysis.check_A3", None),
    ("analysis", "integrate", "analysis.integrate",
     lambda r, a: {"evals": r.evals}),
    ("analysis", "cumulative_integral", "analysis.cumulative_integral",
     lambda r, a: {"evals": int(r[2])}),
    ("sim", "simulate", "sim.simulate",
     lambda r, a: {"accepted": len(r.step_sizes), "rejected": r.n_rejected,
                   "max_h_mu": _max_h_mu(r)}),
    ("sim", "fundamental_matrix", "sim.fundamental_matrix",
     lambda r, a: {"accepted": len(r.step_sizes), "rejected": r.n_rejected}),
    ("sim", "verify_sandwich", "sim.verify_sandwich", None),
    ("sim", "write_trace_csv", "sim.write_trace_csv",
     lambda r, a: {"bytes": os.path.getsize(a[1])}),
)

HOT = (
    ("linalg", "lognorm", "linalg.lognorm"),
    ("linalg", "induced_norm", "linalg.induced_norm"),
)

# modules that must hold a patched binding, as the package imports them
REQUIRED = {
    "lognorm": ("linalg", "analysis", "sim", "cli"),
    "closed_loop_function": ("system", "analysis", "sim", "cli"),
    "cumulative_integral": ("analysis", "sim", "cli", "synthesis"),
    "integrate": ("analysis",),
}

QUAD = ("analysis.integrate", "analysis.cumulative_integral")


def _max_h_mu(trace) -> float:
    """Largest h * |mu_cl| over accepted steps, mu_cl interpolated from the
    trace's output grid at the start of each step."""
    h = trace.step_sizes
    if len(h) == 0:
        return 0.0
    starts = trace.times[0] + np.concatenate(([0.0], np.cumsum(h)[:-1]))
    mu = np.interp(starts, trace.times, trace.mu_cl)
    return float(np.max(h * np.abs(mu)))


class Tracer:
    def __init__(self):
        self.spans = []   # dicts, indexed by span id
        self.hot = defaultdict(lambda: [0, 0.0])  # (parent, name) -> n, s
        self._stack = []
        self.op = None

    # -- recording ---------------------------------------------------------
    def _close(self, parent, dt):
        if parent is not None:
            self.spans[parent]["child"] += dt

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = {"id": len(self.spans), "name": name, "op": self.op,
                   "parent": parent, "child": 0.0}
            self.spans.append(rec)
            self._stack.append(rec["id"])
            rec["start"] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = end = perf_counter()
                self._stack.pop()
                self._close(parent, end - start)
            if on_result is not None:
                rec.update(on_result(result, args))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """Count calls of ``fn`` per parent span, without timing them (their
        time is already in the spans and hot calls they make)."""
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self.hot[(parent, name)][0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def hot_call(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                parent = self._stack[-1] if self._stack else None
                agg = self.hot[(parent, name)]
                agg[0] += 1
                agg[1] += dt
                self._close(parent, dt)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        """Patch the package; returns a callable that restores it."""
        pkg = "lognorm_control"
        mods = {k[len(pkg) + 1:]: m for k, m in sys.modules.items()
                if k.startswith(pkg + ".") and m is not None}
        mods[""] = sys.modules[pkg]
        integrate = getattr(mods["sim"], "_integrate", None)
        if integrate is None:
            raise RuntimeError("tracer: sim._integrate is gone, so the "
                               "stepper's right-hand-side calls cannot be "
                               "counted (sim.rhs_calls)")
        undo = []
        patched = defaultdict(set)

        def rebind(original, replacement, attr):
            for mname, mod in mods.items():
                if getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    patched[attr].add(mname)

        for mname, attr, name, hook in SPANS:
            original = getattr(mods[mname], attr)
            rebind(original, self.span(name, original, hook), attr)
        for mname, attr, name in HOT:
            original = getattr(mods[mname], attr)
            rebind(original, self.hot_call(name, original), attr)

        closed_loop = mods["system"].closed_loop_function

        def closed_loop_function(*args, **kwargs):
            return self.hot_call("system.closed_loop",
                                 closed_loop(*args, **kwargs))
        rebind(closed_loop, closed_loop_function, "closed_loop_function")

        def _integrate(f, *args, **kwargs):
            return integrate(self.counted("sim.rhs", f), *args, **kwargs)
        rebind(integrate, _integrate, "_integrate")

        expr = mods["expr"]
        matrix_compiled = expr.MatrixFunction.compiled
        vector_compiled = self.span("expr.compile",
                                    expr.VectorFunction.compiled)

        def omega_compiled(vf):
            # the only VectorFunction of a problem is its disturbance omega
            return self.hot_call("expr.omega", vector_compiled(vf))
        undo.append((expr.MatrixFunction, "compiled", matrix_compiled))
        undo.append((expr.VectorFunction, "compiled",
                     expr.VectorFunction.compiled))
        expr.MatrixFunction.compiled = self.span("expr.compile",
                                                 matrix_compiled)
        expr.VectorFunction.compiled = omega_compiled

        def restore():
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

        missing = [f"{attr} in {m}" for attr, need in REQUIRED.items()
                   for m in need if m not in patched[attr]]
        if missing:
            restore()
            raise RuntimeError("tracer could not patch " + ", ".join(missing))
        return restore

    # -- summaries ---------------------------------------------------------
    def dump(self) -> dict:
        return {"spans": self.spans,
                "hot": [{"parent": p, "name": n, "calls": c, "seconds": s}
                        for (p, n), (c, s) in self.hot.items()]}

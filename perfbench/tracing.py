"""Spans around the public functions of every goh_atlas layer.

``Tracer.install`` replaces each public function of each module with a
wrapper, both where it is defined and in every goh_atlas module that
imported it by name, and wraps ``StructureTable.bracket_elements``,
``Poly.eval_float`` and the evaluators returned by ``compile_polyvec`` and
``compile_jacobian``.  A span records its name, start, end and parent; a
module's self time is its spans' time minus the time their child spans
cover.  Totals are kept as the spans close, so memory stays bounded: only the
first ``KEEP_SPANS`` spans are stored whole.  Times are integer nanoseconds, so
self times add up exactly.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("freelie", "polyfield", "normalform", "metabelian", "goh",
           "trajectories", "scenarios", "serialize", "cli")
KEEP_SPANS = 100_000
INTEGRATORS = ("flow_control", "jacobian_flow", "extremal_residuals",
               "recover_abnormal_covector")


def public_functions(module) -> dict:
    """Functions a module defines and exports (``__all__`` when present)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, name, start_ns, end_ns, parent_id)
        self.total_ns: dict = defaultdict(int)   # outermost spans by name
        self.calls: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)    # by module
        self.errors: dict = defaultdict(int)     # by module
        self.counts: dict = defaultdict(int)     # work counters
        self.state_dim = 0
        self._stack: list = []  # [span id, child ns] of open spans
        self._depth: dict = defaultdict(int)
        self.n_spans = 0
        self._undo: list = []

    def reset(self) -> None:
        """Drop what was recorded; wrappers stay installed."""
        self.spans.clear()
        for d in (self.total_ns, self.calls, self.self_ns, self.errors,
                  self.counts, self._depth):
            d.clear()
        self.state_dim = 0
        self.n_spans = 0

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, name: str, module: str, after=None):
        """A function that runs ``fn`` inside a span called ``name``.

        ``after(args, kwargs, result, ns)`` may add work counters; what it
        returns is handed to the caller in place of the result.
        """
        stack, depth, spans = self._stack, self._depth, self.spans
        total_ns, calls, self_ns = self.total_ns, self.calls, self.self_ns
        errors = self.errors

        def traced(*args, **kwargs):
            sid = self.n_spans
            self.n_spans = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                ns = end - start
                self_ns[module] += ns - frame[1]
                if stack:
                    stack[-1][1] += ns
                calls[name] += 1
                depth[name] -= 1
                if not depth[name]:
                    total_ns[name] += ns
                if sid < KEEP_SPANS:
                    spans.append((sid, name, start, end, parent))
            if after is not None:
                result = after(args, kwargs, result, ns)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, mods: dict) -> None:
        """Wrap every layer of the imported program (see module docstring)."""
        loaded = [m for m in sys.modules.values()
                  if getattr(m, "__name__", "").startswith("goh_atlas")]
        for mod_name in MODULES:
            module = mods[mod_name]
            for fname, fn in public_functions(module).items():
                after = self._after(mod_name, fname)
                wrapped = self.wrap(fn, f"{mod_name}.{fname}", mod_name, after)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)
        table_cls = mods["freelie"].StructureTable
        self._patch(table_cls, "bracket_elements", self.wrap(
            table_cls.bracket_elements, "freelie.bracket_elements", "freelie"))
        poly_cls = mods["polyfield"].Poly
        self._patch(poly_cls, "eval_float", self.wrap(
            poly_cls.eval_float, "polyfield.eval_float", "polyfield"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _after(self, mod_name: str, fname: str):
        """Hook that counts a call's work and may replace its result."""
        counts = self.counts
        if mod_name == "polyfield" and fname in ("compile_polyvec",
                                                 "compile_jacobian"):
            def compiled(args, kwargs, result, ns):
                return self.wrap(result, "polyfield.compiled", "polyfield")
            return compiled
        if (mod_name, fname) == ("normalform", "realize_frame"):
            def realized(args, kwargs, result, ns):
                basis = args[0] if args else kwargs["basis"]
                counts[f"normalform.realize_frame.r{basis.rank}s{basis.step}"
                       ".ns"] += ns
                _, maps = result
                counts["normalform.realize_frame.terms"] += sum(
                    len(p.terms)
                    for p in [*maps.psi, *maps.psi_inv,
                              *(c for f in maps.fields for c in f.comps)])
                return result
            return realized
        if (mod_name, fname) == ("goh", "trace_variety"):
            def traced_variety(args, kwargs, result, ns):
                counts["goh.trace_variety.cells"] += result.resolution ** 2
                counts["goh.trace_variety.vertices"] += sum(
                    len(line) for line in result.polylines)
                counts["goh.trace_variety.singular_candidates"] += len(
                    result.singular_candidates)
                return result
            return traced_variety
        if mod_name == "trajectories" and fname in INTEGRATORS:
            def integrated(args, kwargs, result, ns):
                frame, u = args[0], args[1]
                grid = getattr(u, "ts", None)
                counts["trajectories.nodes"] += len(
                    kwargs["ts"] if grid is None else grid)
                self.state_dim = max(self.state_dim, frame.n)
                return result
            return integrated
        if (mod_name, fname) == ("serialize", "dumps"):
            def dumped(args, kwargs, result, ns):
                counts["serialize.dumps.bytes"] += len(result.encode())
                return result
            return dumped
        return None


def self_times(spans: list) -> dict:
    """Self time of each recorded span: duration minus direct children's."""
    child = defaultdict(int)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: end - start - child[sid]
            for sid, _, start, end, _ in spans}

"""Spans around twofold's public functions, recorded from outside the library.

``Tracer.install`` wraps every public function defined in the layer modules
and rebinds the wrapper in every ``twofold.*`` namespace that holds the
original (``cycles.half_return_X``, ``cli.z_closed_form`` and so on), so calls
between modules are seen whichever name they go through.  Spans stay in
memory as [name, start_ns, end_ns, parent, op] and are written out at the
end; the library itself is not changed.

Self time: a span's duration minus the time covered by descendant spans of
*other* modules.  A call into the same module stays in the caller's self time,
so ``cli.main`` keeps argument parsing, row building and CSV writing, and
``returns.half_return`` keeps its ``first_crossing`` call.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYER_MODULES = ("system", "flow", "sigma", "invariants", "returns", "cycles",
                 "stability", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self.wrapped: dict[str, object] = {}  # "module.func" -> original
        self._rebound: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self):
        for mod_name in LAYER_MODULES:
            module = sys.modules.get(f"twofold.{mod_name}")
            if module is None:
                continue
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self.wrapped[f"{mod_name}.{name}"] = fn
        by_id = {id(fn): self._wrap(key, fn) for key, fn in self.wrapped.items()}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "twofold" or n.startswith("twofold.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and self.wrapped.get(wrapper.span_name) is value:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def has(self, key: str) -> bool:
        return key in self.wrapped

    def _wrap(self, key: str, fn):
        tracer = self
        clock = time.perf_counter_ns
        hook = _HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [key, 0, 0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                tracer.failed[key] += 1
                raise
            span[2] = clock()
            stack.pop()
            return result if hook is None else hook(tracer, result)

        wrapper.span_name = key
        return wrapper

    # -- analysis -------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span self time in ns (see the module docstring)."""
        n = len(self.spans)
        excl = [0] * n
        for i in range(n - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            if parent < 0:
                continue
            if name.split(".")[0] != self.spans[parent][0].split(".")[0]:
                excl[parent] += end - start
            else:
                excl[parent] += excl[i]
        return np.array([s[2] - s[1] - excl[i] for i, s in enumerate(self.spans)],
                        dtype=np.int64)

    def summary(self, op_ids=None):
        """Aggregates over the spans of the given ops (all ops when None).

        Returns ({span name: (calls, self ns, total ns)}, {module: self ns}).
        A module's self time counts only its outermost spans, those whose
        parent belongs to another module, so nested calls are not counted twice.
        """
        selfs = self.self_times()
        calls, self_ns, total_ns, module_ns = Counter(), Counter(), Counter(), Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op_ids is not None and op not in op_ids:
                continue
            calls[name] += 1
            self_ns[name] += int(selfs[i])
            total_ns[name] += end - start
            module = name.split(".")[0]
            if parent < 0 or self.spans[parent][0].split(".")[0] != module:
                module_ns[module] += int(selfs[i])
        by_name = {name: (calls[name], self_ns[name], total_ns[name]) for name in calls}
        return by_name, dict(module_ns)

    def descendants_by_ancestor(self, ancestor: str, op_ids=None) -> Counter:
        """Calls of each span name made (at any depth) inside ``ancestor`` spans."""
        inside: dict[int, bool] = {}
        out: Counter = Counter()
        for i, (name, _, _, parent, op) in enumerate(self.spans):
            under = parent >= 0 and (inside[parent] or self.spans[parent][0] == ancestor)
            inside[i] = under
            if under and (op_ids is None or op in op_ids):
                out[name] += 1
        return out

    def write_spans(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")


def _count_half_return(tracer: Tracer, result):
    tracer.counts["half_return_iterations"] += getattr(result, "iterations", 0) or 0
    return result


def _count_z_points(tracer: Tracer, result):
    """Count the t values evaluated through the callables z_closed_form returns."""
    if not (isinstance(result, tuple) and len(result) == 2
            and all(callable(f) for f in result)):
        tracer.counts["z_closed_form_opaque"] += 1
        return result
    counts = tracer.counts
    ndarray = np.ndarray

    def counted(f):
        def g(t):
            counts["z_points"] += t.size if isinstance(t, ndarray) else 1
            return f(t)
        return g

    return counted(result[0]), counted(result[1])


_HOOKS = {
    "returns.half_return_X": _count_half_return,
    "returns.half_return_Y": _count_half_return,
    "flow.z_closed_form": _count_z_points,
}


# per-layer metric prefix -> the span names it aggregates
SPAN_GROUPS = {
    "returns.half_return": ("returns.half_return_X", "returns.half_return_Y"),
    "returns.first_crossing": ("returns.first_crossing",),
    "flow.flow": ("flow.flow_X", "flow.flow_Y"),
    "flow.fundamental": ("flow.fundamental_X", "flow.fundamental_Y"),
    "cycles.newton": ("cycles.find_cycle_newton",),
    "invariants.branch_x": ("invariants.gamma1_branch_x",),
    "invariants.conic": ("invariants.gamma1_conic",),
    "stability.monodromy": ("stability.monodromy",),
    "stability.band": ("stability.stability_band",),
    "sigma.classify_point": ("sigma.classify_point",),
    "system.eval": ("system.eval_X", "system.eval_Y"),
    "cli.main": ("cli.main",),
}

"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of every symdec module at the names
through which other modules reach them.  symdec modules import names
directly (``from .transform import compose``), so ``jacobi`` calls
``compose`` through its own module namespace; wrapping only
``symdec.transform.compose`` would miss those calls.  Each wrapped call
records one span (name, start, end, parent) in flat arrays that stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over
the spans of its functions.

The program under ``src/`` is not changed: installing the tracer
replaces module attributes and ``uninstall`` restores them.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

ROOT = "bench.op"        # the span the benchmark opens around one operation


class Tracer:
    """Flat span store plus per-site call hooks.

    Span i has name id ``name[i]``, parent span index ``parent[i]`` (-1
    for an operation's root span) and times ``start[i]``/``end[i]`` from
    ``time.perf_counter``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- spans --------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.start.append(0.0)
        self.end.append(0.0)
        self.current = idx
        return idx

    def run_op(self, fn, *args):
        """Call fn(*args) as one traced operation under a root span."""
        self.current = -1
        idx = self._open(self.name_id(ROOT))
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self.current = -1

    def _wrap(self, fn, name: str, hook=None):
        tracer = self
        name_id = self.name_id(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.current < 0:
                return fn(*args, **kwargs)
            parent = tracer.current
            idx = tracer._open(name_id)
            tracer.start[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                tracer.current = parent
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType], hooks=None) -> int:
        """Wrap every public symdec function in every module namespace.

        ``modules`` maps the layer name (``"jacobi"``) to the module.  A
        function is traced under ``<defining layer>.<function name>``
        wherever it is reachable.  ``hooks`` maps (namespace layer,
        function name) to a callable ``hook(tracer, args, kwargs,
        result)`` run after the call.  Returns the number of wrapped
        attributes.
        """
        hooks = hooks or {}
        by_module = {m.__name__: layer for layer, m in modules.items()}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = by_module.get(value.__module__)
                if home is None:
                    continue
                name = f"{home}.{value.__name__}"
                wrapped = self._wrap(value, name, hooks.get((layer, attr)))
                self._saved.append((module, attr, value))
                setattr(module, attr, wrapped)
        return len(self._saved)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def span_table(self):
        """Per span: (name, layer, duration, self time, parent index)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        rows = []
        for i in range(n):
            name = self.names[self.name[i]]
            rows.append((name, name.split(".", 1)[0], dur[i], dur[i] - child[i],
                         self.parent[i]))
        return rows

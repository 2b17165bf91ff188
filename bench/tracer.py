"""Layer spans recorded from outside the package.

A :class:`Tracer` replaces every layer-boundary function of ``immse`` with
a wrapper that records one span per call, and puts the originals back on
:meth:`Tracer.uninstall`.  A function is a boundary when it is public in
the module that defines it, or when another module of the package binds
it by name (``from .riccati import _newton_polish``).  The wrapper is set
at every module namespace that binds the original, so callers that
imported the name pick it up too.  Classes are not wrapped: constructing
a result record counts toward the caller's self time.

Spans live in memory as ``(layer, name, start, end, parent)`` tuples, with
``parent`` the index of the enclosing span or -1, and counters are taken
from arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter

LAYERS = ("cli", "model", "linalg", "sdp", "riccati", "design", "validate", "zdsc")


def _trial_steps(args, kwargs, result) -> int:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.trials * max(1, int(round(cfg.horizon / cfg.dt)))


# Exact work counters: traced function -> (counter, work done by one call).
COUNTERS = {
    "sdp.solve": ("sdp.newton_steps", lambda args, kwargs, result: result.iterations),
    "riccati.integrate_rde": (
        "riccati.rde_steps",
        lambda args, kwargs, result: len(result.times) - 1,
    ),
    "validate.simulate": ("validate.trial_steps", _trial_steps),
    "validate.duncan_check": ("validate.trial_steps", _trial_steps),
    "linalg.solve_lyapunov": ("linalg.lyapunov_calls", lambda args, kwargs, result: 1),
}
COUNT_NAMES = sorted({name for name, _ in COUNTERS.values()})


def _boundary_functions(modules):
    """(layer, name, function) for every boundary function of the layers."""
    defined = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                defined[id(obj)] = (layer, name, obj)
    imported = {
        id(obj)
        for module in modules.values()
        for obj in vars(module).values()
        if id(obj) in defined and defined[id(obj)][2].__module__ != module.__name__
    }
    return [
        entry
        for key, entry in defined.items()
        if not entry[1].startswith("_") or key in imported
    ]


class Tracer:
    """Records spans and counters while installed; one per traced run."""

    def __init__(self):
        self._package = importlib.import_module("immse")
        self._modules = {
            layer: importlib.import_module(f"immse.{layer}") for layer in LAYERS
        }
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.counts: Counter = Counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        qualified = f"{layer}.{name}"
        count_name, count = COUNTERS.get(qualified, (None, None))
        spans = self.spans
        counts = self.counts
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, qualified, start, end, parent)
            if count is not None:
                counts[count_name] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [self._package, *self._modules.values()]
        for layer, name, fn in _boundary_functions(self._modules):
            wrapper = self._wrap(layer, name, fn)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_totals(self) -> dict[str, float]:
        """Per layer: self time in seconds and call count.

        A span's self time is its duration minus the durations of its
        direct children; spans nest, so this is the time not covered by
        any child span.
        """
        child_time = [0.0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "calls")}
        for (layer, _, start, end, _), inner in zip(self.spans, child_time):
            out[f"{layer}.self_s"] += (end - start) - inner
            out[f"{layer}.calls"] += 1
        for name in COUNT_NAMES:
            out[name] = float(self.counts[name])
        return out

"""Call timing through wrappers placed on advrec's module attributes.

A function is wrapped at every module attribute through which the engine
looks it up (``advrec.trainer.sample_negatives`` and
``advrec.evaluation.sample_negatives`` are two lookups of one function), and
all of its wrappers report under one layer name. No program file changes.
"""

from __future__ import annotations

import time


class Recorder:
    """Busy time, self time and call count per layer.

    Self time is busy time minus the time spent in wrapped calls made from
    inside the call; ``callers`` splits each layer's busy time by the wrapped
    layer that called it.
    """

    def __init__(self):
        self.layers: dict[str, dict] = {}
        self.callers: dict[tuple[str, str], list] = {}  # (caller, layer) -> [busy_s, calls]
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def wrap(self, module, attr: str, layer: str, count=None) -> None:
        """Replace ``module.attr`` with a timed wrapper.

        ``count(stats, args, result)`` may add layer counters. A missing
        attribute raises AttributeError, so a renamed function stops the run
        instead of reading as an idle layer.
        """
        original = getattr(module, attr)
        stats = self.layers.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        stack, callers, clock = self._stack, self.callers, time.perf_counter

        def wrapper(*args, **kwargs):
            caller = stack[-1][1] if stack else "benchmark"
            child = [0.0, layer]
            stack.append(child)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spent = end - start
                stats["busy_s"] += spent
                stats["self_s"] += spent - child[0]
                stats["calls"] += 1
                if stack:
                    stack[-1][0] += spent
                edge = callers.setdefault((caller, layer), [0.0, 0])
                edge[0] += spent
                edge[1] += 1
            if count is not None:
                count(stats, args, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def unwrap(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def require(self, layers) -> None:
        """Raise unless every named layer was called at least once."""
        idle = sorted(name for name in layers if self.layers[name]["calls"] == 0)
        if idle:
            raise RuntimeError(f"traced layers never called: {', '.join(idle)}")

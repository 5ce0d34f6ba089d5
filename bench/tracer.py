"""Layer spans recorded from outside ``polysym``.

The tracer wraps the public functions of each layer by replacing the
names where their callers look them up, records one span per call
(name, module, start, end, parent) in memory, and puts every original
function back on ``restore``.  Spans are written out once, by the
caller, when the benchmark ends.

Wrapped names:

* the public functions of every module, in that module's own globals
  (so ``revolutions -> validate_walk`` inside ``polygon_core`` and
  ``cli``'s ``oracle.sweep_period3`` attribute lookups are seen);
* the ``polysym`` functions that ``cli``, ``classification`` and
  ``oracle`` import by name.

``oracle``'s own imports of ``period3_profile`` and ``canonical_period3``
are left alone: they sit inside the (n-1)^3 sweep loop, where a span per
call would swamp the measurement.  ``render``'s imports are left alone
too, so the axis scan counts as render time.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict

import polysym
from polysym import classification, cli, enumeration, oracle, polygon_core, render

LAYERS = ("polygon_core", "classification", "enumeration", "oracle", "render", "cli")
_MODULES = (polygon_core, classification, enumeration, oracle, render, cli)
_IMPORTERS = (cli, classification, oracle)
_UNWRAPPED_IMPORTS = {(oracle, "period3_profile"), (oracle, "canonical_period3")}


def _layer(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    pkg, _, layer = module.partition(".")
    return layer if pkg == "polysym" and layer in LAYERS else None


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) and _layer(obj) is not None


def _counted_report(kind: str):
    def count(report) -> dict:
        classes = (
            len(report.axial_classes)
            + len(report.circular_classes)
            + len(report.regular_classes)
        )
        return {f"{kind}.objects": report.census_size, f"{kind}.classes": classes}

    return count


# Exact work counts taken from the return values at a layer boundary.
COUNTERS = {
    "oracle.sweep_period3": _counted_report("sweep"),
    "oracle.census_full": _counted_report("census"),
    "enumeration.enumerate_axial": lambda reps: {"records": len(reps)},
    "enumeration.enumerate_circular": lambda reps: {"records": len(reps)},
    "render.gallery_svg": lambda doc: {"svg_bytes": len(doc.encode("utf-8"))},
}


def snapshot() -> dict:
    """Identity of every attribute of every polysym module (for restore checks)."""
    mods = (polysym, *_MODULES)
    return {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``restore`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, layer, t0, t1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attr, original)
        self._wrappers: dict = {}

    def wrap(self, fn):
        """A wrapper that records a span around each call of ``fn``."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = _layer(fn)
        name = f"{layer}.{fn.__name__}"
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (sid, parent, name, layer, t0, clock())
                stack.pop()
            if count is not None:
                self.counts.update(count(result))
            return result

        self._wrappers[fn] = traced
        return traced

    def _patch(self, module, attr: str) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original))
        self._patched.append((module, attr, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module in _MODULES:
            for attr, obj in list(vars(module).items()):
                if not _is_function(obj) or (module, attr) in _UNWRAPPED_IMPORTS:
                    continue
                own = obj.__module__ == module.__name__
                if (own and not attr.startswith("_")) or (
                    not own and module in _IMPORTERS
                ):
                    self._patch(module, attr)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(spans: list[tuple]) -> dict:
    """Self time and call count per layer, and total and self time per name.

    A span's self time is its duration minus the durations of its direct
    children (which nest inside it, on one thread).
    """
    child_time = defaultdict(float)
    for _, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    names: dict = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
    for sid, _, name, layer, t0, t1 in spans:
        own = (t1 - t0) - child_time[sid]
        layers[layer]["self_s"] += own
        layers[layer]["calls"] += 1
        entry = names[name]
        entry["total_s"] += t1 - t0
        entry["self_s"] += own
        entry["calls"] += 1
    return {"layers": layers, "names": dict(names)}

"""In-memory spans around calls into the bruhatdiag layers.

A :class:`Tracer` records one span per call: its name, start, end, the
index of the enclosing span and the id of the operation (one draw,
enumeration or limit check) it belongs to.  Spans stay in memory until
the run ends and are then reduced to per-layer figures by
:func:`layer_metrics`.

The untraced runs use :data:`NO_TRACE`, whose ``call`` forwards straight
to the function, so both runs execute the same benchmark code.

Calls that one library module makes into another (``bruhat`` into
``linalg`` and ``cayley``, ``cayley`` into ``linalg``, ``components``
into ``bruhat``) are reached by :func:`patched_layers`, which swaps the
module-level names those modules imported for traced wrappers while the
traced part of a run executes, and restores them afterwards.  The library
source itself is not touched.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Callable

import numpy as np


class NullTracer:
    """Forwards every call; used when timing end to end."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self) -> None:
        pass


NO_TRACE = NullTracer()


class Tracer:
    """Collects ``(name, start, end, parent, op_id)`` spans in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = -1

    def begin_op(self) -> None:
        self.op_id += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn: Callable) -> Callable:
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)


#: (module, attribute, span name) for every cross-layer reference the
#: library resolves through a module global.  A reference the library no
#: longer has is skipped, and its layer then shows fewer calls.
_CROSS_LAYER = (
    ("bruhatdiag.bruhat", "det", "linalg.det"),
    ("bruhatdiag.bruhat", "principal_minor_expansion",
     "linalg.principal_minor_expansion"),
    ("bruhatdiag.bruhat", "cayley", "cayley.cayley"),
    ("bruhatdiag.cayley", "det", "linalg.det"),
    ("bruhatdiag.components", "diagonal_via_cayley", "bruhat.cayley_det"),
)


@contextlib.contextmanager
def patched_layers(tracer: Tracer):
    """Route the library's cross-layer calls through ``tracer``."""
    saved = []
    try:
        for mod_name, attr, span in _CROSS_LAYER:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr, None)
            if original is None:
                continue
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


#: Every layer span name the benchmark reports, in output order.
LAYERS = (
    "spaces.random_coordinates",
    "spaces.build_tangent",
    "cayley.cayley",
    "cayley.verify_image",
    "bruhat.gauss",
    "bruhat.minor_ratio",
    "bruhat.cayley_det",
    "bruhat.fredholm",
    "bruhat.coroot_product",
    "bruhat.max_cross_gap",
    "linalg.det",
    "linalg.principal_minor_expansion",
    "components.enumerate_components",
    "components.construct_witness",
    "components.limit_check",
)

#: Name of the span the benchmark opens around one whole operation.
OP_SPAN = "bench.op"


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer µs per call (median, p90), calls per op and self µs per op.

    A span's self time is its duration minus that of its child spans.
    ``bench.glue`` reports the self time of the operation spans: benchmark
    code between the library calls.  A layer never called reports zeros.
    """
    spans = tracer.spans
    names = np.array([s[0] for s in spans])
    duration = np.array([end - start for _, start, end, _, _ in spans])
    self_time = duration.copy()
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[i]
    out: dict[str, float] = {}
    for layer in LAYERS + ("bench.glue",):
        glue = layer == "bench.glue"
        mask = names == (OP_SPAN if glue else layer)
        per_call = (self_time if glue else duration)[mask] * 1e6
        out[f"{layer}.us_p50"] = float(np.median(per_call)) if per_call.size else 0.0
        out[f"{layer}.us_p90"] = float(np.percentile(per_call, 90)) if per_call.size else 0.0
        out[f"{layer}.calls_per_op"] = per_call.size / max(ops, 1)
        out[f"{layer}.self_us_per_op"] = float(self_time[mask].sum()) * 1e6 / max(ops, 1)
    return out

"""In-memory span recording for the benchmark's traced run.

A :class:`Tracer` hands out :class:`Span` context managers.  Every span
measures its own duration, so the untraced run uses the same calls to
take its end-to-end timings; only an *enabled* tracer keeps the spans
(name, start, end, parent span) for the per-layer breakdown.

Layer boundaries inside the package are timed without touching
``src/repro``: :class:`LayerPatches` temporarily replaces the public
functions one layer calls on another (``compile_source``,
``analyze_module``, ``ArtifactStore.put``, ...) with span-recording
wrappers, and restores them on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

_clock = time.perf_counter

#: (module, attribute path, span name): the public call sites between
#: layers that the traced run wraps.  Each is looked up by name at call
#: time by its caller, so replacing the module attribute intercepts it.
LAYER_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.program", "compile_source", "frontend.compile"),
    ("repro.runtime.program", "analyze_module", "analysis.similarity"),
    ("repro.lint", "lint_module", "lint.races"),
    ("repro.runtime.program", "instrument_module", "instrument"),
    ("repro.opt", "optimize_module", "opt"),
    ("repro.runtime.closures", "compile_module", "closures.codegen"),
    ("repro.store.artifacts", "ArtifactStore.put", "store.put"),
    ("repro.faults.campaign", "golden_run", "faults.golden"),
    ("repro.faults.campaign", "run_one_injection", "faults.trial"),
    ("repro.triage.report", "observe_thread_classes", "triage.observe"),
    ("repro.triage.report", "build_report", "triage.build"),
)


class Span:
    """One timed interval; ``seconds`` is valid after the ``with``."""

    __slots__ = ("tracer", "name", "start", "end", "parent", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = -1
        self.index = -1

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.enabled:
            stack = tracer._stack
            self.parent = stack[-1] if stack else -1
            self.index = len(tracer.spans)
            tracer.spans.append(self)
            stack.append(self.index)
        self.start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        self.end = _clock()
        if self.tracer.enabled:
            self.tracer._stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span factory; records spans only while ``enabled``."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    @contextmanager
    def paused(self):
        """Stop recording (spans still time themselves) for a block."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def wrap(self, func, name: str):
        """``func`` with every call recorded as a span called ``name``."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with Span(self, name):
                return func(*args, **kwargs)
        return traced

    # -- analysis --------------------------------------------------------

    def self_times(self, root: Span) -> Dict[str, float]:
        """Per-name self time (seconds) of every span under ``root``,
        ``root`` included: a span's duration minus its children's."""
        inside = [span for span in self.spans[root.index:]
                  if root.start <= span.start and span.end <= root.end]
        child_time: Dict[int, float] = {}
        for span in inside:
            if span.parent >= 0:
                child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                           + span.seconds)
        totals: Dict[str, float] = {}
        for span in inside:
            own = span.seconds - child_time.get(span.index, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: str) -> int:
        """Dump every recorded span as one JSON line each; returns the
        count.  Times are seconds since the first span started."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.index, "name": span.name,
                    "parent": span.parent,
                    "start": round(span.start - origin, 9),
                    "end": round(span.end - origin, 9)}) + "\n")
        return len(self.spans)


class LayerPatches:
    """Context manager installing span wrappers on
    :data:`LAYER_BOUNDARIES` and restoring the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerPatches":
        for module_name, path, span_name in LAYER_BOUNDARIES:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(original, span_name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one recorded span adds to a call: a wrapped no-op against
    the bare no-op, each the fastest of ``batches`` batches of
    ``calls`` calls."""
    def noop():
        return None

    def batch(func) -> float:
        started = _clock()
        for _ in range(calls):
            func()
        return _clock() - started

    tracer = Tracer(enabled=True)
    wrapped = tracer.wrap(noop, "noop")
    best_plain = best_wrapped = float("inf")
    for _ in range(batches):
        best_plain = min(best_plain, batch(noop))
        best_wrapped = min(best_wrapped, batch(wrapped))
        tracer.spans.clear()
    return (best_wrapped - best_plain) / calls


def median(values) -> Optional[float]:
    """Median of a non-empty sequence (``None`` when empty)."""
    ordered = sorted(values)
    if not ordered:
        return None
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, share: float) -> Optional[float]:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, int(-(-share * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]

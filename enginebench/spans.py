"""Outside-in layer tracing of a live engine.

The tracer records spans by wrapping the public entry points of one
solver's live instances — runner, resilience executor and backend — from
the benchmark's own files; the engine's source is untouched.  A span
carries its name, start, end, parent span, time-step id and thread.
Spans stay in memory and are written at exit as Chrome trace-event JSON
(Perfetto opens it).

Spans run on the island work team's threads too.  Those threads have no
span stack of their own, so a span opened with an empty stack is parented
to the step that is running.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    step: int
    thread: int
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder over wrapped methods."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._step_span: Optional[int] = None
        self._step = -1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: object,
        method: str,
        name: str,
        detail: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
        step_of: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        """Replace ``owner.method`` on the instance with a span recorder.

        ``detail`` extracts span arguments from the call and its result;
        ``step_of`` marks the span as a step root, so spans opened on
        other threads while it runs are parented to it.
        """
        original = getattr(owner, method)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._step_span
            span_id = next(tracer._ids)
            if step_of is not None:
                tracer._step = step_of(args, kwargs)
                tracer._step_span = span_id
            stack.append(span_id)
            begin = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if step_of is not None:
                    tracer._step_span = None
                tracer.spans.append(
                    Span(
                        span_id, name, begin, end, parent, tracer._step,
                        threading.get_ident(),
                        detail(args, kwargs, result) if detail else {},
                    )
                )

        setattr(owner, method, traced)

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children(self) -> Dict[Optional[int], List[Span]]:
        kids: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            kids.setdefault(span.parent, []).append(span)
        return kids

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        kids = self.children()
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = union_seconds(
                [(c.start, c.end) for c in kids.get(span.span_id, ())],
                span.start,
                span.end,
            )
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds - covered
        return totals

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.seconds * 1e6,
                "pid": pid,
                "tid": span.thread,
                "args": {
                    "span": span.span_id,
                    "parent": span.parent,
                    "step": span.step,
                    **span.detail,
                },
            }
            for span in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def union_seconds(
    intervals: List[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _stage_seconds(result: Any) -> Dict[str, Any]:
    stages = getattr(result, "stage_seconds", None) or {}
    return {"stages": dict(stages)}


def instrument(runner, tracer: Tracer) -> None:
    """Wrap the live runner's layer entry points with spans."""
    tracer.wrap(
        runner, "step", "runner.step",
        step_of=lambda args, kwargs: kwargs.get("step_index", -1),
    )
    tracer.wrap(runner, "extend_inputs", "runner.ghost_fill")
    tracer.wrap(
        runner.resilience, "run_island", "resilience.island",
        detail=lambda args, kwargs, result: {
            "island": args[0].index, "fanout": None, **_stage_seconds(result)
        },
    )
    tracer.wrap(
        runner.resilience, "run_island_stage", "resilience.island",
        detail=lambda args, kwargs, result: {
            "island": args[0].index, "fanout": args[1], **_stage_seconds(result)
        },
    )
    for method in ("execute_island", "execute_island_super", "execute_island_stage"):
        tracer.wrap(runner.backend, method, "backend.execute")

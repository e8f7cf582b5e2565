"""Outside-in timing shim: wrappers around public layer calls, an
in-memory span store, self-time arithmetic and a trace dump.

Nothing here edits the program.  :meth:`Tracer.patch` rebinds public
functions and methods (``BatchRunner.run_orders``,
``evaluate_candidates_batch``, ``ShardState.step``, …) to timing wrappers
and :meth:`Tracer.uninstall` puts the originals back.  Each wrapped call
becomes a span ``(id, name, start, end, parent, op)``; the parent comes
from a context variable, so spans nest correctly inside asyncio tasks
too, and ``op`` ties every span of one sweep, decision or training round
together.

Layers that run inside process-pool workers cannot append to this
process's span list.  Every wrapper therefore also folds its duration and
counts into the program's active :mod:`repro.obs` registry under
``bench.<layer>`` names: with telemetry on, the engine ships each
worker's registry snapshot back with the shard results, so worker-side
layers are still counted.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import pickle
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import get_registry

#: Span currently open in this task or thread (its id), or ``None``.
_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None
)
#: Op the current task works for (sweep, decision or round), or ``None``
#: during set-up.
CURRENT_OP: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=None
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, id, name, start, end, parent, op):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    def to_json(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


def _resolve(module: str, attr: str) -> Tuple[object, str]:
    """``(owner, name)`` of ``module.attr``; ``attr`` may be
    ``Class.method``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """The span store plus the wrappers that feed it.

    Spans are only appended in the process that created the tracer; a
    wrapper running in a forked pool worker records into the obs registry
    alone (see the module docstring).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def open(self) -> Tuple[int, object, float]:
        """Start a span by hand (ops, which have no single call of their
        own); returns a handle for :meth:`close`."""
        span_id = next(self._ids)
        return span_id, _PARENT.set(span_id), perf_counter()

    def close(self, handle, name: str) -> None:
        span_id, token, start = handle
        end = perf_counter()
        _PARENT.reset(token)
        self.spans.append(Span(
            span_id, name, start, end, _PARENT.get(), CURRENT_OP.get()
        ))

    def add(self, name: str, start: float, end: float, op) -> None:
        """Record an interval measured across awaits (the batching
        window) as a child of the current span."""
        self.spans.append(Span(
            next(self._ids), name, start, end, _PARENT.get(), op
        ))

    # ---------------------------------------------------------- wrappers

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """A synchronous wrapper timing ``fn`` as span ``layer``.

        ``count(args, kwargs, result)`` returns ``{counter: amount}``
        folded into the obs registry as ``bench.<counter>``.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_parent = os.getpid() == tracer._pid
            if in_parent:
                span_id = next(tracer._ids)
                parent = _PARENT.get()
                token = _PARENT.set(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if in_parent:
                    _PARENT.reset(token)
                    tracer.spans.append(Span(
                        span_id, layer, start, end, parent, CURRENT_OP.get()
                    ))
            registry = get_registry()
            registry.record_span(f"bench.{layer}", end - start)
            if count is not None:
                for name, amount in count(args, kwargs, result).items():
                    registry.counter(f"bench.{name}").inc(amount)
            return result

        return wrapper

    def wrap_async(self, layer: str, fn: Callable) -> Callable:
        """The coroutine counterpart of :meth:`wrap` (parent process only:
        the service runs on one event loop)."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = _PARENT.get()
            token = _PARENT.set(span_id)
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _PARENT.reset(token)
                tracer.spans.append(Span(
                    span_id, layer, start, end, parent, CURRENT_OP.get()
                ))
                get_registry().record_span(f"bench.{layer}", end - start)

        return wrapper

    def original(self, module: str, attr: str):
        """What ``module.attr`` is bound to now (before any patch of
        ours is applied to it)."""
        owner, name = _resolve(module, attr)
        return owner.__dict__[name]

    def patch(self, module: str, attr: str, replacement) -> None:
        """Rebind ``module.attr``; :meth:`uninstall` restores it."""
        owner, name = _resolve(module, attr)
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self, targets: Sequence[Tuple[str, str, str, object]]) -> None:
        """Wrap every ``(module, attr, layer, count)`` target.  A function
        imported by name into several modules is listed once per module,
        so every call site sees the wrapper."""
        for module, attr, layer, count in targets:
            self.patch(module, attr,
                       self.wrap(layer, self.original(module, attr), count))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # ---------------------------------------------------------- analysis

    def _self_time(self, keep: Callable[[Span], bool]
                   ) -> List[Tuple[Span, float]]:
        """``(span, self seconds)`` for every span ``keep`` accepts."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        return [
            (span, (span.end - span.start)
             - _covered(span.start, span.end, children.get(span.id, ())))
            for span in self.spans if keep(span)
        ]

    def self_times(self, keep: Callable[[Span], bool]) -> Dict[str, float]:
        """Total self time per span name over the spans ``keep`` accepts:
        each span's duration minus the part of it its children cover
        (children clipped to the parent and merged, so overlapping async
        children are not double-counted).  For a span that awaits, self
        time is time spent waiting."""
        totals: Dict[str, float] = {}
        for span, seconds in self._self_time(keep):
            totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals

    def unattributed_per_op(self, op_span: str) -> List[float]:
        """For each ``op_span`` span: its self time, the part of the op no
        wrapped layer accounts for."""
        return [seconds for _, seconds
                in self._self_time(lambda span: span.name == op_span)]

    def dump(self, path: Path, extra: Dict[str, object]) -> None:
        """Write every span and ``extra`` as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": [span.to_json() for span in self.spans], **extra}
        path.write_text(json.dumps(payload) + "\n")


def _covered(start: float, end: float,
             intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def pickled_bytes(value) -> int:
    """Size of ``value`` as the process backend would pickle it."""
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

"""In-memory wall-clock spans around the repro package's public functions.

A :class:`Tracer` patches named functions (class attributes or module
attributes) with thin wrappers that record one span per call: name,
start, end, parent span and the context id (workload phase, pass and
episode) that was current when the call started.  Spans stay in memory
until the run ends; :func:`self_times` turns them into per-layer self
time (a span's duration minus the part covered by its direct children).

Nothing here is imported by the package under test, and every patch is
undone by :meth:`Tracer.uninstall`, so an untraced run executes the
package's code unchanged.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: A span as stored: (name, start_s, end_s, parent index or -1, context id).
Span = tuple


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` recorded as span ``name``.

    ``sample`` optionally maps ``(result, args)`` to a number kept under
    the span's name with the current context id, so counts are taken at
    the same boundary as the span.
    """

    owner: Any
    attr: str
    name: str
    sample: Callable[[Any, tuple], float] | None = None


class Tracer:
    """Records nested spans for the functions it wraps (one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.samples: dict[str, list[tuple[str, float]]] = defaultdict(list)
        self.context = ""
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the caller's ``with`` block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.context])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if target.sample is not None:
                tracer.samples[target.name].append(
                    (tracer.context, float(target.sample(result, args)))
                )
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        return traced

    # -- patching --------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; inherited methods are shadowed on the owner."""
        for target in targets:
            owned = target.attr in vars(target.owner)
            original = vars(target.owner)[target.attr] if owned else None
            fn = getattr(target.owner, target.attr)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot trace {target.name}: not a plain function")
            setattr(target.owner, target.attr, self._wrap(fn, target))
            self._patches.append((target.owner, target.attr, original, owned))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def export(self) -> list[Span]:
        """The recorded spans as plain tuples (picklable)."""
        return [tuple(s) for s in self.spans]


def self_times(
    spans: list[Span], context: Callable[[str], bool] | None = None
) -> dict[str, float]:
    """Total self time (seconds) per span name.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, since one thread
    records them.  ``context`` keeps only spans whose context id it
    accepts (children are subtracted from their parent either way).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, ctx) in enumerate(spans):
        if context is None or context(ctx):
            totals[name] += (end - start) - child[i]
    return dict(totals)


__all__ = ["Span", "Target", "Tracer", "self_times"]

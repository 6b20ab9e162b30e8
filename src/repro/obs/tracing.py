"""Request/decision tracing: lightweight spans on explicit clocks.

Second pillar of the observability subsystem.  A :class:`Span` is a
closed interval on a named *track* (one row in a trace viewer):
scheduler decisions land on the ``scheduler`` track, sampled tier
visits on one track per tier.  Timestamps are **explicit** — callers
pass simulation time in seconds; the tracer never reads a wall clock,
so tracing a deterministic episode yields a deterministic artifact and
the hot paths stay free of ``time.time()``-style syscalls.

Exports:

* :meth:`Tracer.write_jsonl` — one JSON object per line, trivially
  greppable/streamable;
* :meth:`Tracer.write_chrome` / :meth:`Tracer.to_chrome` — the Chrome
  ``trace_event`` format (complete ``"ph": "X"`` events plus
  ``thread_name`` metadata per track), loadable in ``chrome://tracing``
  and Perfetto.

Sampling is deterministic: :meth:`Tracer.sampled` keeps every
``sample_every``-th index, so two runs of the same episode sample the
same intervals/requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: Synthetic process id used in Chrome trace events (one simulated
#: cluster = one "process").
TRACE_PID = 1


@dataclass(frozen=True)
class Span:
    """One completed interval of work on a track."""

    name: str
    ts_us: int
    """Start, microseconds of simulation time."""

    dur_us: int
    """Duration in microseconds (>= 0)."""

    track: str = "main"
    cat: str = ""
    args: dict | None = None

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "track": self.track,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
        }
        if self.cat:
            out["cat"] = self.cat
        if self.args:
            out["args"] = self.args
        return out


class Tracer:
    """Collects spans with deterministic sampling and bounded size."""

    def __init__(self, sample_every: int = 1, max_spans: int = 200_000) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._tracks: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.spans)

    def sampled(self, index: int) -> bool:
        """Deterministic keep/drop decision for the ``index``-th unit."""
        return index % self.sample_every == 0

    def span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        track: str = "main",
        cat: str = "",
        args: dict | None = None,
    ) -> None:
        """Record one completed span; clocks are caller-supplied seconds
        (simulation time), never read from the host."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(Span(
            name=name,
            ts_us=int(round(start_s * 1e6)),
            dur_us=max(int(round(duration_s * 1e6)), 0),
            track=track,
            cat=cat,
            args=args,
        ))

    def _track_id(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = self._tracks[track] = len(self._tracks) + 1
        return tid

    # -- exporters -----------------------------------------------------

    def _ordered(self) -> list[Span]:
        """Spans in start-time order (stable for ties).

        Spans can be *recorded* out of time order — e.g. a request span
        is emitted at completion but timestamped at arrival — so the
        exporters re-sort to keep each track monotonic.
        """
        return sorted(self.spans, key=lambda s: s.ts_us)

    def to_chrome(self) -> dict:
        """Chrome ``trace_event`` JSON (complete events + track names)."""
        events: list[dict] = []
        for span in self._ordered():
            event = {
                "name": span.name,
                "ph": "X",
                "ts": span.ts_us,
                "dur": span.dur_us,
                "pid": TRACE_PID,
                "tid": self._track_id(span.track),
            }
            if span.cat:
                event["cat"] = span.cat
            if span.args:
                event["args"] = span.args
            events.append(event)
        for track, tid in sorted(self._tracks.items(), key=lambda kv: kv[1]):
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": track},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_chrome()) + "\n")

    def to_jsonl_lines(self) -> list[str]:
        return [json.dumps(span.to_json()) for span in self._ordered()]

    def write_jsonl(self, path) -> None:
        lines = self.to_jsonl_lines()
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    def write(self, path) -> None:
        """Write to ``path``: ``.jsonl`` gets the line format, anything
        else the Chrome ``trace_event`` JSON."""
        path = Path(path)
        if path.suffix == ".jsonl":
            self.write_jsonl(path)
        else:
            self.write_chrome(path)


__all__ = ["Span", "Tracer", "TRACE_PID"]

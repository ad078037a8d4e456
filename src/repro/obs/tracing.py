"""Structured span-based tracing with a JSON-lines timeline exporter.

A :class:`Tracer` records two record types:

* **spans** — wall-clock intervals with a name, parent and attributes
  (``compile``, ``compile.lower``, ``simulate`` …), and
* **events** — instantaneous marks attached to the enclosing span; the
  engine emits one per threadlet epoch transition (``epoch.spawn``,
  ``epoch.commit``, ``epoch.squash``) carrying the *simulated* cycle in
  its attributes, so a timeline interleaves wall time and machine time.

Tracing is disabled by default and purely observational: instrumented code
asks :func:`current_tracer` once (engines cache the answer at
construction) and skips all recording when it is ``None``, so simulated
cycle counts are bit-identical with tracing on, off, or absent.

Export format (one JSON object per line)::

    {"type":"span","id":1,"parent":null,"name":"simulate",
     "start":0.0012,"end":0.0470,"attrs":{"program":"kernel", ...}}
    {"type":"event","parent":1,"name":"epoch.spawn",
     "t":0.0013,"attrs":{"cycle":41,"slot":1,"epoch":1,"region":"L0"}}

``start``/``end``/``t`` are seconds relative to the tracer's creation.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


@dataclass
class SpanRecord:
    """One wall-clock interval in the timeline."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_record(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "end": round(self.end, 6) if self.end is not None else None,
            "attrs": self.attrs,
        }


@dataclass
class EventRecord:
    """An instantaneous mark attached to the enclosing span."""

    parent_id: Optional[int]
    name: str
    t: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        return {
            "type": "event",
            "parent": self.parent_id,
            "name": self.name,
            "t": round(self.t, 6),
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans and events for one traced activity."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self._next_id = 1
        self._stack: List[SpanRecord] = []
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []

    def _now(self) -> float:
        return self._clock() - self._t0

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Open a child span of the innermost active span."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start=self._now(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(record)  # appended at open: stable start order
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._now()

    def event(self, name: str, **attrs: Any) -> None:
        record = EventRecord(
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            t=self._now(),
            attrs=dict(attrs),
        )
        self.events.append(record)

    # -- export --------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """All spans and events as plain dicts, in timeline order."""
        merged = [(s.start, 0, s.to_record()) for s in self.spans]
        merged += [(e.t, 1, e.to_record()) for e in self.events]
        merged.sort(key=lambda item: (item[0], item[1]))
        return [record for _, _, record in merged]

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.records()
        ) + "\n"

    def write_jsonl(self, path) -> int:
        """Write the timeline to ``path``; returns the record count."""
        records = self.records()
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def summary(self) -> str:
        return summarize_records(self.records())


# ---------------------------------------------------------------------------
# Timeline summarization (shared by Tracer.summary and `repro trace FILE.jsonl`)
# ---------------------------------------------------------------------------

def read_jsonl(path) -> List[Dict[str, Any]]:
    """Parse a timeline file, skipping malformed lines."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("type") in (
                "span", "event"
            ):
                records.append(record)
    return records


def summarize_records(records: Iterable[Dict[str, Any]]) -> str:
    """Render a span tree with durations plus per-name event counts."""
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    if not spans and not events:
        return "(empty timeline)"

    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)

    lines: List[str] = []

    def walk(parent: Optional[int], depth: int) -> None:
        for span in sorted(children.get(parent, []),
                           key=lambda s: s.get("start") or 0.0):
            start = span.get("start") or 0.0
            end = span.get("end")
            dur_ms = ((end - start) * 1000.0) if end is not None else 0.0
            attrs = span.get("attrs") or {}
            noted = " ".join(
                f"{k}={attrs[k]}" for k in sorted(attrs)
            )
            pad = "  " * depth
            lines.append(
                f"{pad}{span['name']:<{max(1, 28 - 2 * depth)}s} "
                f"{dur_ms:9.3f} ms" + (f"  {noted}" if noted else "")
            )
            walk(span.get("id"), depth + 1)

    walk(None, 0)

    if events:
        counts: Dict[str, int] = {}
        reasons: Dict[str, int] = {}
        for event in events:
            name = event.get("name", "?")
            counts[name] = counts.get(name, 0) + 1
            reason = (event.get("attrs") or {}).get("reason")
            if reason:
                reasons[f"{name}:{reason}"] = (
                    reasons.get(f"{name}:{reason}", 0) + 1
                )
        lines.append("")
        lines.append("events:")
        for name in sorted(counts):
            detail = ", ".join(
                f"{key.split(':', 1)[1]}={n}"
                for key, n in sorted(reasons.items())
                if key.startswith(name + ":")
            )
            lines.append(
                f"  {name:<16s} x{counts[name]}"
                + (f"  ({detail})" if detail else "")
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The active tracer: one process-wide slot.
# ---------------------------------------------------------------------------

_active: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled (default)."""
    return _active


def enable_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-wide tracer."""
    global _active
    _active = tracer if tracer is not None else Tracer()
    return _active


def disable_tracing() -> None:
    global _active
    _active = None


@contextmanager
def trace_scope(tracer: Optional[Tracer] = None):
    """Scoped tracing: installs a tracer, restores the old one on exit."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else Tracer()
    try:
        yield _active
    finally:
        _active = previous


def span(name: str, **attrs: Any):
    """Span context manager against the active tracer; no-op when disabled.

    The disabled path costs one global read and returns a shared inert
    context manager — cheap enough for compile-phase granularity (it is
    never called per-instruction or per-cycle).
    """
    if _active is None:
        return _NULL_CM
    return _active.span(name, **attrs)


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CM = _NullContext()

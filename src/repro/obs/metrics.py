"""Typed metrics registry: the uniform observation surface of the stack.

Every instrumented subsystem (``uarch.core``, ``uarch.executor``,
``uarch.ssb``, ``uarch.conflict``, ``uarch.packing``, ``uarch.caches``,
the compiler pipeline) declares its metrics here as :class:`MetricSpec`
entries at import time.  The registry is a *catalog plus extractor*, not a
second storage layer: the hot simulation path keeps incrementing the plain
:class:`~repro.uarch.statistics.SimStats` attribute bag (the compatibility
shim — its dataclass layout, round-trip serialization and the result-store
digests are unchanged), and :meth:`MetricsRegistry.collect` maps a stats
object into a flat ``{metric_name: value}`` snapshot on demand.

This split is what keeps instrumentation free when nobody is looking:
collection walks the catalog once per *run*, never once per cycle, so
cycle counts stay bit-identical and throughput is untouched.

A coverage test pins the contract from the other side: every ``SimStats``
counter field must be described by exactly one registered spec, so new
engine counters cannot be added without documenting them in the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
_KINDS = (COUNTER, GAUGE, HISTOGRAM)


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one observable metric.

    ``source`` names the attribute to read off the collected object
    (usually a ``SimStats`` field); ``derive`` computes the value from the
    whole object instead (ratios and other derived gauges).  Exactly one
    of the two must be set.
    """

    name: str                 # qualified, e.g. "uarch.ssb.reads"
    kind: str                 # COUNTER / GAUGE / HISTOGRAM
    subsystem: str            # owning subsystem, e.g. "uarch.ssb"
    description: str
    unit: str = ""
    source: Optional[str] = None
    derive: Optional[Callable[[Any], Any]] = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if (self.source is None) == (self.derive is None):
            raise ValueError(
                f"{self.name}: exactly one of source/derive must be set"
            )


class MetricsRegistry:
    """Process-wide catalog of metric declarations."""

    def __init__(self):
        self._specs: Dict[str, MetricSpec] = {}

    # -- registration --------------------------------------------------------

    def register(self, *specs: MetricSpec) -> None:
        """Add specs to the catalog.

        Re-registering an identical spec is a no-op (modules may be
        re-imported); registering a *different* spec under an existing
        name is an error — metric names are a public, documented schema.
        """
        for spec in specs:
            existing = self._specs.get(spec.name)
            if existing is None:
                self._specs[spec.name] = spec
            elif existing != spec:
                raise ValueError(
                    f"metric {spec.name!r} already registered with a "
                    f"different definition"
                )

    # -- lookup --------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def get(self, name: str) -> Optional[MetricSpec]:
        return self._specs.get(name)

    def specs(self, subsystem: Optional[str] = None) -> List[MetricSpec]:
        """All specs, optionally restricted to a subsystem prefix."""
        out = [
            spec for spec in self._specs.values()
            if subsystem is None
            or spec.subsystem == subsystem
            or spec.subsystem.startswith(subsystem + ".")
        ]
        return sorted(out, key=lambda s: s.name)

    def subsystems(self) -> List[str]:
        return sorted({spec.subsystem for spec in self._specs.values()})

    def sources(self) -> List[str]:
        """Every attribute name the catalog reads (coverage testing)."""
        return sorted(
            spec.source for spec in self._specs.values()
            if spec.source is not None
        )

    # -- collection ----------------------------------------------------------

    def collect(self, obj: Any,
                subsystem: Optional[str] = None) -> Dict[str, Any]:
        """Snapshot ``obj`` into ``{metric_name: value}``.

        Specs whose source attribute is absent from ``obj`` (or whose
        derivation raises on it) are skipped, so one catalog serves
        ``SimStats``, ``RunResult`` and ``CompileResult`` alike.
        """
        snapshot: Dict[str, Any] = {}
        for spec in self.specs(subsystem):
            if spec.derive is not None:
                try:
                    value = spec.derive(obj)
                except (AttributeError, KeyError, TypeError, ZeroDivisionError):
                    continue
            else:
                if not hasattr(obj, spec.source):
                    continue
                value = getattr(obj, spec.source)
            if spec.kind == HISTOGRAM and isinstance(value, dict):
                value = dict(sorted(value.items(), key=lambda kv: str(kv[0])))
            snapshot[spec.name] = value
        return snapshot

    # -- rendering -----------------------------------------------------------

    def catalog(self) -> str:
        """Markdown table of every registered metric, grouped by subsystem
        (the source of truth behind ``docs/observability.md``)."""
        lines: List[str] = []
        for subsystem in self.subsystems():
            lines.append(f"### `{subsystem}`\n")
            lines.append("| metric | kind | unit | description |")
            lines.append("|---|---|---|---|")
            for spec in self.specs(subsystem):
                if spec.subsystem != subsystem:
                    continue
                unit = spec.unit or "—"
                lines.append(
                    f"| `{spec.name}` | {spec.kind} | {unit} "
                    f"| {spec.description} |"
                )
            lines.append("")
        return "\n".join(lines)


def diff_snapshots(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Tuple[Any, Any]]:
    """``{name: (before, after)}`` for every metric whose value changed."""
    out: Dict[str, Tuple[Any, Any]] = {}
    for name in sorted(set(before) | set(after)):
        a, b = before.get(name), after.get(name)
        if a != b:
            out[name] = (a, b)
    return out


def format_snapshot(snapshot: Dict[str, Any]) -> str:
    """Human-readable ``name  value`` listing, sorted by name."""
    if not snapshot:
        return "(no metrics)"
    width = max(len(name) for name in snapshot)
    lines = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, float):
            value = f"{value:.4f}"
        lines.append(f"{name:<{width}}  {value}")
    return "\n".join(lines)


# The process-wide registry all subsystems register into.
_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return _REGISTRY


def register(*specs: MetricSpec) -> None:
    """Register into the default registry (module-import-time helper)."""
    _REGISTRY.register(*specs)


def load_all() -> MetricsRegistry:
    """Import every instrumented module so the catalog is complete.

    Registration happens at module import; callers that only want the
    catalog (docs, tests, the CLI) may not have pulled in the whole
    simulator yet.
    """
    from ..analysis import advise, lint  # noqa: F401
    from ..compiler import pipeline  # noqa: F401
    from ..experiments import spec  # noqa: F401
    from ..fuzz import engine  # noqa: F401
    from ..sampling import runner  # noqa: F401
    from ..uarch import (  # noqa: F401
        caches, conflict, core, executor, packing, ssb,
    )
    return _REGISTRY

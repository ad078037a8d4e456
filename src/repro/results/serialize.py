"""SimStats <-> plain-dict round-trip serialization.

The persistent result store keeps one JSON record per simulation; this
module owns the (de)serialization so the store never needs to know the
statistics schema.  Round-tripping must be *exact*: the acceptance bar for
cached results is bit-identical equality with a fresh run, so every field —
including the int-keyed ``active_threadlet_cycles`` histogram, which JSON
forces to string keys — is restored to its original type.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

from ..uarch.statistics import RegionStats, SimStats

_REGION_FIELDS = {f.name for f in dataclasses.fields(RegionStats)}
_STATS_FIELDS = {f.name for f in dataclasses.fields(SimStats)}


def stats_to_dict(stats: SimStats) -> Dict[str, Any]:
    """Serialize ``stats`` into a JSON-compatible dict."""
    return dataclasses.asdict(stats)


def stats_sha256(stats: SimStats) -> str:
    """Fingerprint of every field of ``stats``: equal iff the records are."""
    encoded = json.dumps(stats_to_dict(stats), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def stats_from_dict(data: Dict[str, Any]) -> SimStats:
    """Rebuild a :class:`SimStats` from :func:`stats_to_dict` output.

    Tolerates JSON's string keys in the threadlet histogram and ignores
    unknown fields (a newer writer adding a counter does not brick older
    readers — the schema version, not this function, decides validity).
    """
    fields = {k: v for k, v in data.items() if k in _STATS_FIELDS}
    fields["active_threadlet_cycles"] = {
        int(k): v for k, v in (data.get("active_threadlet_cycles") or {}).items()
    }
    fields["regions"] = {
        label: RegionStats(**{k: v for k, v in rd.items() if k in _REGION_FIELDS})
        for label, rd in (data.get("regions") or {}).items()
    }
    return SimStats(**fields)

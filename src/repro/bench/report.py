"""Render experiment results as JSON artifacts (``python -m
repro.bench --out``) and compare them modulo measurement metadata."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any


def results_payload(value: Any) -> Any:
    """Experiment results (nested dicts/lists of PointResult and
    friends) as plain JSON-serializable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return results_payload(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): results_payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [results_payload(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def canonical_json(payload: Any) -> str:
    """The artifact encoding: normalized payload, sorted keys, stable
    indentation.  Two payloads holding equal results render the same
    bytes — the form in which the ``--jobs`` determinism guarantee
    ("``--jobs N`` artifacts are byte-identical to sequential ones")
    is stated and tested.  Timing metadata lives under ``perf`` keys
    and is excluded from that guarantee: compare artifacts with
    :func:`comparable_json` (or ``python -m repro.bench.compare``)."""
    return json.dumps(results_payload(payload), indent=2, sort_keys=True) + "\n"


#: The reserved metadata key carrying nondeterministic measurement
#: context (wall-clock, events/sec, hot-path counters).
PERF_KEY = "perf"

#: The reserved metadata key carrying observability output (trace span
#: counts, metric snapshots, embedded trace JSONL).  Deterministic per
#: seed, but present only when tracing is on — stripped alongside
#: ``perf`` so traced and untraced artifacts compare equal.
OBS_KEY = "obs"

_METADATA_KEYS = frozenset((PERF_KEY, OBS_KEY))


def strip_perf(payload: Any) -> Any:
    """A deep copy of ``payload`` without any ``perf``/``obs`` metadata
    blocks (at any nesting level) — the deterministic-results
    projection the byte-identity guarantee is stated over."""
    if isinstance(payload, dict):
        return {
            k: strip_perf(v)
            for k, v in payload.items()
            if k not in _METADATA_KEYS
        }
    if isinstance(payload, (list, tuple)):
        return [strip_perf(v) for v in payload]
    return payload


def comparable_json(payload: Any) -> str:
    """:func:`canonical_json` modulo perf metadata — two artifacts from
    the same seed must render identical bytes through this, regardless
    of job count, machine, or load."""
    return canonical_json(strip_perf(results_payload(payload)))


def write_json(path: str | Path, payload: Any) -> Path:
    """Write one experiment's results where ``--out`` pointed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(payload), encoding="utf-8")
    return path

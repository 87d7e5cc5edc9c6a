"""SQL-backed ledger analytics: off-replica indexed queries.

Qanaat's replicas answer point queries from in-process state
(:mod:`repro.ledger.queries`, :mod:`repro.ledger.provenance`), but
collaborative workflows also need history scans, point-in-time reads,
and provenance closures that should not compete with consensus for
replica cycles.  This package moves those to an off-replica analytics
database fed from the durable journal:

- :mod:`repro.analytics.schema` — typed, indexed tables (transactions,
  key versions, provenance edges, segment manifests) plus materialized
  listing views (per-entity latest state, per-chain heads);
- :mod:`repro.analytics.ingest` — incremental watermark catch-up from
  read-only journal connections, snapshot floors for compacted logs;
- :mod:`repro.analytics.engine` — the query API (window-function SQL:
  ``key_history``, ``provenance_chain``, ``as_of``, window
  aggregates), every family cross-checkable against the in-process
  implementation;
- ``python -m repro.analytics`` — ad-hoc CLI over a journal file or
  directory.

The fill/bench halves (:mod:`repro.analytics.fill`,
:mod:`repro.analytics.bench`) import the execution stack and are left
out of the package namespace on purpose — importing the query side
must stay cheap.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "engine": ("AnalyticsEngine", "HistoryEntry"),
        "ingest": ("AnalyticsIngest", "IngestStats"),
        "schema": ("SCHEMA_VERSION", "initialize", "open_analytics"),
    },
)

"""Causal transaction tracing, plus the waterfall CLI.

When tracing is enabled (:func:`repro.obs.enable`), every transaction
carries a trace from ``Session.submit`` through every consensus phase
to the client reply.  Spans form a tree:

    tx                          client-observed request lifetime
    └─ block.{local,isce,csie,csce}   the batch the tx was ordered in
       ├─ pbft.instance / paxos.instance   one internal-consensus run
       │  ├─ pbft.pre-prepare / paxos.accept   message flight spans
       │  ├─ pbft.prepare, pbft.commit         per-node quorum waits
       │  └─ paxos.learn
       ├─ cross.lock            cross-shard guard wait
       ├─ cross.propose / cross.prepare       cross-cluster flights
       ├─ cross.vote            collecting accepts / prepared votes
       ├─ cross.decide          commit round until the block commits
       └─ execute               committed execution on a replica

All timestamps are **virtual** simulation seconds; span ids are a
process-local monotonic counter.  Nothing here draws randomness,
hashes, or schedules simulator events, so a traced run replays the
untraced run's event sequence exactly and the exported JSONL is
byte-identical across same-seed runs.

Render a trace with ``python -m repro.obs.trace TRACE.jsonl``
(``--tx RID`` / ``--cross`` for one waterfall, ``--aggregate`` for
per-phase critical-path totals).
"""

from __future__ import annotations

import json
from typing import Any

#: Version of the JSONL span schema (recorded in the artifact header
#: and in ``BENCH_scenarios.json``); bump on incompatible changes.
TRACE_SCHEMA_VERSION = 1


class Span:
    """One named interval of virtual time on one node."""

    __slots__ = ("sid", "parent", "name", "node", "start", "end", "attrs")

    def __init__(
        self,
        sid: int,
        parent: int | None,
        name: str,
        node: str | None,
        start: float,
        end: float | None = None,
        attrs: dict[str, Any] | None = None,
    ):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.node = node
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (
            f"<Span {self.sid} {self.name} node={self.node} "
            f"[{self.start:.6f}..{end}] {self.attrs}>"
        )


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Tracer:
    """Collects spans; all timestamps are passed in explicitly by the
    instrumented call sites (``sim.now``), never read from a clock."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._tx: dict[int, int] = {}            # rid -> root sid
        self._blocks: dict[Any, int] = {}        # block key -> sid
        self._instances: dict[Any, int] = {}     # (cluster, slot) -> sid
        self._open: dict[Any, int] = {}          # phase key -> sid
        self._owned: dict[Any, list[Any]] = {}   # owner -> open phase keys

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def _new(
        self,
        name: str,
        node: str | None,
        start: float,
        parent: int | None,
        end: float | None = None,
        **attrs: Any,
    ) -> int:
        sid = len(self._spans)
        self._spans.append(Span(sid, parent, name, node, start, end, attrs))
        return sid

    def _end(self, sid: int, t: float, extend: bool = False) -> None:
        span = self._spans[sid]
        if span.end is None or (extend and t > span.end):
            span.end = t

    def new_run(self) -> None:
        """Start tracing a fresh run without dropping spans.

        Every key restarts per run (``(cluster, slot)`` tuples, request
        ids), so a tracer spanning several runs (``bench --trace`` over
        a matrix) must forget the previous run's key -> span indexes or
        later runs alias earlier spans.
        """
        self._tx.clear()
        self._blocks.clear()
        self._instances.clear()
        self._open.clear()
        self._owned.clear()

    @property
    def span_count(self) -> int:
        return len(self._spans)

    def spans(self) -> list[Span]:
        return self._spans

    def completed(
        self,
        name: str,
        node: str | None,
        start: float,
        end: float,
        parent: int | None,
        **attrs: Any,
    ) -> int:
        """Record an already-finished interval (message flights)."""
        return self._new(name, node, start, parent, end=end, **attrs)

    def point(
        self, name: str, node: str | None, t: float, parent: int | None,
        **attrs: Any,
    ) -> int:
        """A zero-duration marker."""
        return self._new(name, node, t, parent, end=t, **attrs)

    # ------------------------------------------------------------------
    # transaction roots
    # ------------------------------------------------------------------
    def tx_begin(self, rid: int, node: str | None, t: float, **attrs: Any) -> int:
        sid = self._tx.get(rid)
        if sid is None:
            sid = self._tx[rid] = self._new("tx", node, t, None, rid=rid, **attrs)
        return sid

    def tx_sid(self, rid: int) -> int | None:
        return self._tx.get(rid)

    def tx_annotate(self, rid: int, **attrs: Any) -> None:
        sid = self._tx.get(rid)
        if sid is not None:
            self._spans[sid].attrs.update(attrs)

    def tx_end(self, rid: int, t: float, ok: bool = True) -> None:
        sid = self._tx.get(rid)
        if sid is not None:
            self._end(sid, t)
            self._spans[sid].attrs["ok"] = ok

    # ------------------------------------------------------------------
    # blocks (one span per ordered batch, parented on its first tx)
    # ------------------------------------------------------------------
    def block_begin(
        self,
        key: Any,
        name: str,
        first_rid: int,
        node: str | None,
        t: float,
        **attrs: Any,
    ) -> int:
        sid = self._blocks.get(key)
        if sid is None:
            parent = self._tx.get(first_rid)
            sid = self._blocks[key] = self._new(
                name, node, t, parent, **attrs
            )
        return sid

    def block_sid(self, key: Any) -> int | None:
        return self._blocks.get(key)

    def block_end(self, key: Any, t: float) -> None:
        sid = self._blocks.get(key)
        if sid is not None:
            self._end(sid, t, extend=True)

    # ------------------------------------------------------------------
    # internal-consensus instances
    # ------------------------------------------------------------------
    def instance_begin(
        self,
        proto: str,
        cluster: str,
        slot: Any,
        node: str | None,
        t: float,
        parent: int | None,
    ) -> int:
        key = (cluster, slot)
        sid = self._instances.get(key)
        if sid is None:
            sid = self._instances[key] = self._new(
                f"{proto}.instance", node, t, parent,
                cluster=cluster, slot=repr(slot),
            )
        return sid

    def instance_sid(self, cluster: str, slot: Any) -> int | None:
        return self._instances.get((cluster, slot))

    def instance_start(self, cluster: str, slot: Any) -> float | None:
        sid = self._instances.get((cluster, slot))
        return self._spans[sid].start if sid is not None else None

    def decided(self, cluster: str, slot: Any, node: str, t: float) -> None:
        """One node decided the slot: close its open phases and extend
        the instance span and a local batch's span to the decision."""
        self.close_owner((cluster, slot, node), t)
        sid = self._instances.get((cluster, slot))
        if sid is not None:
            self._end(sid, t, extend=True)
            block = self._spans[sid].parent
            if block is not None and self._spans[block].name == "block.local":
                self._end(block, t, extend=True)

    # ------------------------------------------------------------------
    # open phases (keyed; grouped under an owner for bulk closing)
    # ------------------------------------------------------------------
    def phase_begin(
        self,
        key: Any,
        name: str,
        node: str | None,
        t: float,
        parent: int | None,
        owner: Any = None,
        **attrs: Any,
    ) -> int:
        sid = self._open.get(key)
        if sid is None:
            sid = self._open[key] = self._new(name, node, t, parent, **attrs)
            if owner is not None:
                self._owned.setdefault(owner, []).append(key)
        return sid

    def phase_end(self, key: Any, t: float) -> None:
        sid = self._open.pop(key, None)
        if sid is not None:
            self._end(sid, t)

    def close_owner(self, owner: Any, t: float) -> None:
        for key in self._owned.pop(owner, ()):
            self.phase_end(key, t)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The trace artifact: a schema header line, then one JSON
        object per span in creation (sid) order.  Deterministic: same
        seed, same bytes."""
        lines = [
            json.dumps(
                {"kind": "repro.obs.trace", "schema": TRACE_SCHEMA_VERSION},
                sort_keys=True,
                separators=(",", ":"),
            )
        ]
        for span in self._spans:
            record = {
                "sid": span.sid,
                "parent": span.parent,
                "name": span.name,
                "node": span.node,
                "start": round(span.start, 9),
                "end": round(span.end, 9) if span.end is not None else None,
                "attrs": {
                    str(k): _json_safe(v) for k, v in sorted(span.attrs.items())
                },
            }
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
        return "\n".join(lines) + "\n"


# ======================================================================
# CLI: waterfalls and per-phase aggregates
# ======================================================================
def load_trace(path: str) -> list[dict[str, Any]]:
    """Parse a trace JSONL file into span records (header skipped)."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "repro.obs.trace":
                continue  # header
            spans.append(record)
    return spans


def _children_index(spans: list[dict[str, Any]]) -> dict[int | None, list[dict]]:
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    return children


def _subtree(root: dict, children: dict) -> list[tuple[int, dict]]:
    """Depth-first (depth, span) walk, stable by (start, sid)."""
    out: list[tuple[int, dict]] = []

    def walk(span: dict, depth: int) -> None:
        out.append((depth, span))
        for child in sorted(
            children.get(span["sid"], ()), key=lambda s: (s["start"], s["sid"])
        ):
            walk(child, depth + 1)

    walk(root, 0)
    return out


def _has_cross_descendant(root: dict, children: dict) -> bool:
    for _, span in _subtree(root, children):
        if span["name"] in ("block.isce", "block.csie", "block.csce"):
            return True
    return False


def _tx_roots(spans: list[dict], rid: int) -> list[dict]:
    return [s for s in spans if s["name"] == "tx" and s["attrs"].get("rid") == rid]


def render_waterfall(spans: list[dict], rid: int, width: int = 56) -> str:
    """Text waterfall of one transaction's span tree."""
    children = _children_index(spans)
    roots = _tx_roots(spans, rid)
    if not roots:
        return f"no tx span for rid {rid}"
    root = roots[0]
    tree = _subtree(root, children)
    t0 = root["start"]
    t1 = max(
        (s["end"] if s["end"] is not None else s["start"] for _, s in tree),
        default=t0,
    )
    total = max(t1 - t0, 1e-9)
    label_width = max(
        len("  " * depth + s["name"]) for depth, s in tree
    ) + 2
    lines = [
        f"tx {rid}: {1000.0 * (t1 - t0):.3f} ms "
        f"({len(tree)} spans, t0={t0:.6f}s)",
        "",
    ]
    for depth, span in tree:
        start = span["start"]
        end = span["end"] if span["end"] is not None else t1
        left = int(round((start - t0) / total * width))
        length = max(1, int(round((end - start) / total * width)))
        length = min(length, width - min(left, width - 1))
        bar = " " * min(left, width - 1) + "#" * length
        label = "  " * depth + span["name"]
        node = span["node"] or "-"
        open_mark = "" if span["end"] is not None else " (open)"
        lines.append(
            f"{label:<{label_width}}|{bar:<{width}}| "
            f"{1000.0 * (start - t0):8.3f} -> {1000.0 * (end - t0):8.3f} ms"
            f"  {node}{open_mark}"
        )
    return "\n".join(lines)


def aggregate_phases(spans: list[dict]) -> list[dict[str, Any]]:
    """Per-phase totals across the whole trace: the critical-path view
    ('where did the virtual time go, by protocol phase')."""
    stats: dict[str, list[float]] = {}
    for span in spans:
        if span["end"] is None:
            continue
        stats.setdefault(span["name"], []).append(span["end"] - span["start"])
    rows = []
    for name in sorted(stats):
        durations = stats[name]
        total = sum(durations)
        rows.append(
            {
                "phase": name,
                "count": len(durations),
                "total_ms": 1000.0 * total,
                "mean_ms": 1000.0 * total / len(durations),
                "max_ms": 1000.0 * max(durations),
            }
        )
    rows.sort(key=lambda r: -r["total_ms"])
    return rows


def list_transactions(spans: list[dict]) -> str:
    children = _children_index(spans)
    lines = ["rid        spans   duration_ms  cross  ok"]
    for span in spans:
        if span["name"] != "tx":
            continue
        rid = span["attrs"].get("rid")
        end = span["end"]
        duration = (
            f"{1000.0 * (end - span['start']):11.3f}" if end is not None
            else "       open"
        )
        cross = "yes" if _has_cross_descendant(span, children) else "no"
        count = len(_subtree(span, children))
        lines.append(
            f"{rid!s:<10} {count:<7} {duration}  {cross:<5} "
            f"{span['attrs'].get('ok', '-')}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Render trace JSONL: per-tx waterfalls and "
        "per-phase critical-path aggregates.",
    )
    parser.add_argument("trace", help="trace JSONL file (see docs/observability.md)")
    parser.add_argument(
        "--tx", type=int, default=None, metavar="RID",
        help="render the waterfall of one transaction",
    )
    parser.add_argument(
        "--cross", action="store_true",
        help="render the waterfall of the first cross-cluster transaction",
    )
    parser.add_argument(
        "--aggregate", action="store_true",
        help="print per-phase duration aggregates over the whole trace",
    )
    args = parser.parse_args(argv)
    spans = load_trace(args.trace)
    if args.cross and args.tx is None:
        children = _children_index(spans)
        for span in spans:
            if span["name"] == "tx" and _has_cross_descendant(span, children):
                args.tx = span["attrs"]["rid"]
                break
        if args.tx is None:
            print("no cross-cluster transaction in this trace")
            return 1
    printed = False
    if args.tx is not None:
        roots = len(_tx_roots(spans, args.tx))
        if roots > 1:
            parser.error(
                f"rid {args.tx} names {roots} tx spans: this trace holds "
                "several runs, and request ids restart with every run"
            )
        print(render_waterfall(spans, args.tx))
        printed = True
    if args.aggregate:
        if printed:
            print()
        print("phase                     count   total_ms    mean_ms     max_ms")
        for row in aggregate_phases(spans):
            print(
                f"{row['phase']:<25} {row['count']:>5} "
                f"{row['total_ms']:>10.3f} {row['mean_ms']:>10.3f} "
                f"{row['max_ms']:>10.3f}"
            )
        printed = True
    if not printed:
        print(list_transactions(spans))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())

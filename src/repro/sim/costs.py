"""CPU cost model for simulated nodes.

In the paper's testbed, throughput saturates when some node's CPU does:
the primary verifying client signatures and building batches, execution
nodes running transactions, Fabric's orderer hashing everything.  The
simulator reproduces that by charging each message handler a processing
time on a serial per-node CPU queue.

A model prices a delivery once per (node, message class) through
:meth:`CostModel.node_entry`; :meth:`repro.sim.node.SimNode.deliver`
keeps the entry beside the class's handler in the node's dispatch table
and charges ``(base + per_tx * n) * discount``.
Messages advertise two hints:

- ``CPU_WEIGHT`` (class attribute, default 1.0): relative handler cost;
- ``tx_count()`` (method; a class without one counts as 1): how many
  transactions the message carries, for batch messages whose cost
  scales with the batch.

Calibration targets the paper's absolute numbers loosely (§5: c4.2xlarge,
Flt-C ≈ 110 ktps over 16 clusters); shapes come from the protocols.
"""

from __future__ import annotations

from typing import Any


class CostModel:
    """Interface: the CPU a node spends handling one message class."""

    def node_entry(self, node: Any, cls: type) -> tuple[float, float, float, bool]:
        """``(base, per_tx, discount, has_tx_count)`` for messages of
        class ``cls`` delivered to ``node``: a delivery carrying ``n``
        transactions costs ``(base + per_tx * n) * discount`` seconds,
        with ``n = msg.tx_count()`` when ``has_tx_count`` else 1."""
        raise NotImplementedError

    def execution_time(self, tx_count: int) -> float:
        """CPU seconds to execute ``tx_count`` transactions locally."""
        return 0.0

    def journal_time(self, record_count: int) -> float:
        """CPU+I/O seconds to journal ``record_count`` committed
        transactions to a durable storage backend (repro.storage).
        The simulation charges this instead of performing real I/O on
        the event loop, keeping the kernel deterministic."""
        return 0.0


class ZeroCost(CostModel):
    """Free CPU — used by correctness tests to keep schedules simple."""

    def node_entry(self, node: Any, cls: type) -> tuple[float, float, float, bool]:
        return (0.0, 0.0, 1.0, False)


class CalibratedCost(CostModel):
    """Per-message base cost plus per-transaction marginal cost.

    ``BASE`` covers deserialization and one signature verification;
    ``PER_TX`` covers per-transaction hashing/MAC work in batch
    messages; ``EXECUTE`` is charged per executed transaction;
    ``JOURNAL`` is the amortized per-transaction WAL append
    (group-committed sequential writes, not per-record fsyncs), all in
    seconds.  ``BYZANTINE_FACTOR`` models the heavier cryptographic
    work of BFT message handling (certificate assembly, extra
    verifications) — applied to ``BASE`` when the receiving node
    belongs to a Byzantine cluster.

    The constants are calibrated against §5's c4.2xlarge numbers: a
    crash-only cluster saturates near ~6.5-7 ktps (Flt-C reaches
    ~110 ktps over 16 clusters in Figure 7a).
    """

    BASE = 100e-6
    PER_TX = 30e-6
    EXECUTE = 25e-6
    JOURNAL = 12e-6
    BYZANTINE_FACTOR = 1.35

    def node_entry(self, node: Any, cls: type) -> tuple[float, float, float, bool]:
        base = self.BASE
        config = getattr(node, "config", None)
        if config is not None and config.failure_model == "byzantine":
            base *= self.BYZANTINE_FACTOR
        return (
            base * getattr(cls, "CPU_WEIGHT", 1.0),
            self.PER_TX,
            getattr(node, "CPU_DISCOUNT", 1.0),
            hasattr(cls, "tx_count"),
        )

    def execution_time(self, tx_count: int) -> float:
        return self.EXECUTE * tx_count

    def journal_time(self, record_count: int) -> float:
        return self.JOURNAL * record_count

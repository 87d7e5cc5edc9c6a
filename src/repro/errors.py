"""Exception hierarchy for the Qanaat reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A topology or protocol configuration is invalid."""


class CryptoError(ReproError):
    """A signing, envelope or zero-knowledge-proof operation was given
    input it cannot accept: an unenrolled signer, an identity outside an
    envelope's audience, or a value outside a proof's range."""


class DataModelError(ReproError):
    """Violation of data-collection or ordering rules."""


class AccessViolation(DataModelError):
    """An enterprise touched a collection it is not involved in."""


class ConsistencyViolation(DataModelError):
    """Local or global consistency of transaction IDs was violated."""


class LedgerError(ReproError):
    """The blockchain ledger rejected or failed to verify a record."""


class WorkloadError(ReproError):
    """A workload generator was misconfigured."""


class SimulationLimitError(ReproError):
    """A simulator run hit its event budget — almost always a protocol
    bug scheduling a timer loop.  The message carries the virtual time
    and the head of the event queue so the loop is identifiable."""


class PartitionError(ReproError):
    """A per-cluster kernel rule was violated: scheduling or touching
    network state outside any partition context, running without an
    end time, or a boundary envelope due before the barrier it
    crossed."""


class StorageError(ReproError):
    """A durable storage backend rejected or failed an operation."""


class InvariantViolation(ReproError):
    """An observability probe caught a broken protocol invariant
    (sequence regression, conflicting quorum decision, divergent
    shared chains).  Raised only while tracing is enabled; the message
    carries the offending trace spans."""


class AssetError(ReproError):
    """A confidential-asset operation was invalid (bad proof, double
    spend, unbalanced transfer)."""

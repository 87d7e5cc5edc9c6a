"""Durable storage: pluggable WAL + snapshot backends.

``make_backend`` is the one constructor the rest of the stack uses;
``DeploymentConfig.storage_backend`` selects the flavor and
``storage_dir`` the on-disk root (one subtree per node).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.base import StorageBackend

BACKENDS = ("memory", "wal", "sqlite")


def make_backend(
    kind: str, storage_dir: str | None = None, node_id: str = "node"
) -> StorageBackend:
    """Build one node's backend from the deployment knobs.

    ``memory`` ignores ``storage_dir``; ``wal`` uses a directory per
    node; ``sqlite`` a database file per node.  Re-opening the same
    (kind, storage_dir, node_id) triple after a crash sees the same
    durable state — that is the recovery path.  Only the chosen
    backend's module is imported (``sqlite`` loads :mod:`sqlite3`).
    """
    if kind == "memory":
        from repro.storage.memory import MemoryBackend

        return MemoryBackend()
    if storage_dir is None:
        raise StorageError(f"storage backend {kind!r} needs a storage_dir")
    root = Path(storage_dir)
    if kind == "wal":
        from repro.storage.wal import WalBackend

        return WalBackend(root / node_id)
    if kind == "sqlite":
        from repro.storage.sqlite import SqliteBackend

        return SqliteBackend(root / f"{node_id}.sqlite")
    raise StorageError(f"unknown storage backend {kind!r} (choose from {BACKENDS})")


__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": (
            "KIND_HEAD",
            "KIND_MARK",
            "KIND_SEGMENT",
            "KIND_WRITE",
            "LogRecord",
            "Namespace",
            "RecoveredNamespace",
            "Snapshot",
            "StorageBackend",
            "decode_namespace",
            "encode_namespace",
        ),
        "memory": ("MemoryBackend",),
        "sqlite": ("SqliteBackend",),
        "wal": ("WalBackend",),
    },
)
__all__ += ["BACKENDS", "make_backend"]

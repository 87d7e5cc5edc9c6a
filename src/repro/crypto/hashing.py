"""Collision-resistant digest D(.) over arbitrary python values.

Values are canonicalized (sorted dict keys, type-tagged containers) so
that logically-equal messages hash identically across nodes.

The encoder is iterative and appends into one shared ``bytearray``:
profiling the scenario matrix showed the old recursive encoder spending
most of its time allocating and joining intermediate ``bytes`` objects
(hundreds of thousands per smoke run).  The byte *layout* is unchanged
— ``tests/test_canonical_encoding.py`` pins it against golden vectors
produced by the recursive implementation.

Per-run counters (:func:`counters`, zeroed by :func:`run_scope`)
instrument the hot path: every ``BENCH_*.json`` point records its
``digest_calls`` and ``encode_bytes`` so hot-path regressions show up
in the artifacts (and are pinned by CI for a fixed seed).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Builtin types the canonical encoding covers directly.  An object
#: carrying ``canonical_bytes`` is only treated as opaque when it is
#: not also one of these (matching the old dispatch order, where the
#: builtin checks ran first).
_BUILTIN_TYPES = (bool, int, float, str, bytes, list, tuple, set, frozenset, dict)

#: Sentinels for literal emissions on the encoder's work stack.  They
#: can never collide with encodable values.
_COMMA = object()
_CLOSE = object()

# Instrumentation counters (zeroed when a run scope opens).
_digest_calls = 0
_encode_bytes = 0
_verify_calls = 0
_sign_calls = 0


def count_sign() -> None:
    """Record one signature made (here for :func:`count_verify`'s reason)."""
    global _sign_calls
    _sign_calls += 1


def count_verify(n: int = 1) -> None:
    """Record ``n`` signature verifications.

    The counter lives here (not in :mod:`repro.crypto.signatures`) so
    :func:`counters` exposes every hot-path counter from one place and
    the perf plumbing — ``run_scenario``'s per-worker counter merge —
    needs no extra import edges.
    """
    global _verify_calls
    _verify_calls += n


def encode_into(value: Any, out: bytearray) -> None:
    """Append the canonical encoding of ``value`` to ``out``.

    Iterative: containers push their elements (and literal separators)
    on an explicit work stack instead of recursing, and everything is
    appended straight into ``out`` — no per-node intermediate objects.
    Sets and dicts are the one exception: their elements must be
    encoded to standalone byte strings so they can be sorted, exactly
    like the recursive encoder sorted them.
    """
    stack: list[Any] = [value]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        if v is _COMMA:
            out += b","
            continue
        if v is _CLOSE:
            out += b")"
            continue
        cls = v.__class__
        if cls is str:
            out += b"S"
            out += v.encode("utf-8")
        elif cls is int:
            out += b"I%d" % v
        elif cls is bool:
            out += b"B1" if v else b"B0"
        elif v is None:
            out += b"N"
        elif cls is list or cls is tuple:
            out += b"L("
            push(_CLOSE)
            for elem in reversed(v):
                push(_COMMA)
                push(elem)
        elif cls is bytes:
            out += b"Y"
            out += v
        elif cls is float:
            out += b"F"
            out += repr(v).encode()
        elif cls is dict:
            _dict_into(v, out)
        elif cls is set or cls is frozenset:
            _set_into(v, out)
        else:
            cb = getattr(v, "canonical_bytes", None)
            if cb is not None and not isinstance(v, _BUILTIN_TYPES):
                out += b"O"
                out += cb()
            else:
                _subclass_into(v, out)


def _set_into(value: Any, out: bytearray) -> None:
    # E( sorted full encodings joined by "," )
    parts = []
    for elem in value:
        tmp = bytearray()
        encode_into(elem, tmp)
        parts.append(bytes(tmp))
    parts.sort()
    out += b"E("
    out += b",".join(parts)
    out += b")"


def _dict_into(value: dict, out: bytearray) -> None:
    # D( k:v, pairs sorted by (encoded key, encoded value) )
    items = []
    for k, v in value.items():
        kb = bytearray()
        encode_into(k, kb)
        vb = bytearray()
        encode_into(v, vb)
        items.append((bytes(kb), bytes(vb)))
    items.sort()
    out += b"D("
    for kb, vb in items:
        out += kb
        out += b":"
        out += vb
        out += b","
    out += b")"


def _subclass_into(value: Any, out: bytearray) -> None:
    """Subclasses of builtins (and the error case), in the exact
    dispatch order of the classic recursive encoder."""
    if isinstance(value, bool):
        out += b"B1" if value else b"B0"
    elif isinstance(value, int):
        out += b"I%d" % value
    elif isinstance(value, float):
        out += b"F"
        out += repr(value).encode()
    elif isinstance(value, str):
        out += b"S"
        out += value.encode("utf-8")
    elif isinstance(value, bytes):
        out += b"Y"
        out += value
    elif isinstance(value, (list, tuple)):
        out += b"L("
        for elem in value:
            encode_into(elem, out)
            out += b","
        out += b")"
    elif isinstance(value, (set, frozenset)):
        _set_into(value, out)
    elif isinstance(value, dict):
        _dict_into(value, out)
    elif hasattr(value, "canonical_bytes"):
        out += b"O"
        out += value.canonical_bytes()
    else:
        raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _canonical(value: Any) -> bytes:
    """The full canonical encoding as ``bytes`` (compatibility surface
    for tests and tooling; hot callers use :func:`encode_into`)."""
    buf = bytearray()
    encode_into(value, buf)
    return bytes(buf)


# The shared encode buffer.  ``digest`` reuses it across calls instead
# of allocating per call; the busy flag keeps a reentrant digest (a
# ``canonical_bytes`` implementation that itself digests) off the
# shared buffer.
_shared_buf = bytearray()
_buf_busy = False


def digest(value: Any) -> str:
    """Hex digest of a canonicalized value (16 bytes of SHA-256).

    Hot callers memoize: frozen transaction/block types cache their
    ``canonical_bytes`` (see :class:`Canonical`), consensus caches
    value digests via :func:`value_digest`, and the cross-cluster
    engines intern their vote-payload digests — because every
    verification site re-hashes the same immutable payload otherwise.
    """
    global _digest_calls, _encode_bytes, _buf_busy
    _digest_calls += 1
    if _buf_busy:
        buf = bytearray()
        _encode_value(value, buf)
        _encode_bytes += len(buf)
        return hashlib.sha256(buf).hexdigest()[:32]
    _buf_busy = True
    buf = _shared_buf
    try:
        _encode_value(value, buf)
        _encode_bytes += len(buf)
        return hashlib.sha256(buf).hexdigest()[:32]
    finally:
        del buf[:]
        _buf_busy = False


def digest_int(value: Any) -> int:
    """The full 256-bit SHA-256 of a canonicalized value, as an integer.

    For additive commitments (the store's multiset state root sums leaf
    hashes mod 2**256), which need every bit of the hash and arithmetic
    on it rather than a printable prefix.  Counted like :func:`digest`.
    """
    global _digest_calls, _encode_bytes
    _digest_calls += 1
    buf = bytearray()
    _encode_value(value, buf)
    _encode_bytes += len(buf)
    return int.from_bytes(hashlib.sha256(buf).digest(), "big")


def _encode_value(value: Any, buf: bytearray) -> None:
    """Encode one digest preimage, fast-pathing the dominant shape:
    a flat list/tuple of str/bytes/int (record digests, vote payloads,
    reply keys).  Falls back to the generic encoder on the first
    element that needs it."""
    cls = value.__class__
    if cls is list or cls is tuple:
        buf += b"L("
        for v in value:
            c = v.__class__
            if c is str:
                buf += b"S"
                buf += v.encode("utf-8")
            elif c is bytes:
                buf += b"Y"
                buf += v
            elif c is int:
                buf += b"I%d" % v
            else:
                del buf[:]
                encode_into(value, buf)
                return
            buf += b","
        buf += b")"
    else:
        encode_into(value, buf)


def value_digest(value: Any) -> str:
    """Digest of a consensus value, memoized on the value object.

    The digest is recomputed at proposal, at every backup's
    pre-prepare check, and at decide time — all over the same frozen
    value, so it is cached on the instance (``object.__setattr__``
    bypasses frozen-dataclass immutability, which only guards the
    declared fields).  Values without ``canonical_bytes`` (plain test
    payloads) are hashed directly and never cached.
    """
    if not hasattr(value, "canonical_bytes"):
        return digest(value)
    cached = getattr(value, "_value_digest_cache", None)
    if cached is None:
        cached = digest(value.canonical_bytes())
        try:
            object.__setattr__(value, "_value_digest_cache", cached)
        except (AttributeError, TypeError):
            pass  # __slots__ or C-level objects: just recompute
    return cached


class Canonical:
    """Mixin for frozen message/transaction dataclasses: memoized
    ``canonical_bytes`` (and, through :func:`value_digest`, a memoized
    digest).

    Subclasses implement :meth:`_canonical_bytes` — the uncached
    encoding — and every sign/verify/cost site that re-encodes the
    same immutable payload gets the cached bytes instead.  The cache
    is written with ``object.__setattr__`` (frozen dataclasses only
    guard their declared fields), which is safe precisely because all
    declared fields are frozen: the bytes can never go stale.
    """

    __slots__ = ()

    def _canonical_bytes(self) -> bytes:
        raise NotImplementedError(
            f"{type(self).__name__} must implement _canonical_bytes()"
        )

    def canonical_bytes(self) -> bytes:
        cached = getattr(self, "_canonical_cache", None)
        if cached is None:
            cached = self._canonical_bytes()
            try:
                object.__setattr__(self, "_canonical_cache", cached)
            except (AttributeError, TypeError):
                pass  # __slots__ subclasses: just recompute
        return cached


#: Resets of per-run module state (interning tables, request ids).
_RUN_RESETS: list[Callable[[], None]] = []


def register_run_reset(reset: Callable[[], None]) -> Callable[[], None]:
    """Register per-run module state: :func:`run_scope` calls ``reset``
    when a run opens and again when it closes."""
    _RUN_RESETS.append(reset)
    return reset


def register_intern_cache(cache: dict) -> dict:
    """Register an interning table for :func:`run_scope` to empty."""
    register_run_reset(cache.clear)
    return cache


@contextmanager
def run_scope() -> Iterator[None]:
    """One run's hot-path state: opening zeroes the counters and runs
    every registered reset; closing, on every exit path, runs them
    again.  Tables are cleared in place, not hung on the ``Simulator``:
    message classes with no simulator reference read them.  One run
    is live per process; forked workers inherit the open scope."""
    global _digest_calls, _encode_bytes, _verify_calls, _sign_calls
    _digest_calls = _encode_bytes = _verify_calls = _sign_calls = 0
    for reset in _RUN_RESETS:
        reset()
    try:
        yield
    finally:
        for reset in _RUN_RESETS:
            reset()


def typed_key(value: Any):
    """A cache key that distinguishes values whose canonical encodings
    differ even though they compare equal (``True == 1 == 1.0`` but
    ``B1``/``I1``/``F1.0`` digest differently).  Returns None for
    shapes that cannot be keyed safely (unhashable, or containers
    whose members could alias) — callers skip interning then."""
    cls = value.__class__
    if cls is tuple:
        parts = []
        for item in value:
            key = typed_key(item)
            if key is None:
                return None
            parts.append(key)
        return ("t", tuple(parts))
    if cls in (str, bytes, bool, int, float) or value is None:
        return (cls, value)
    return None


def counters() -> dict[str, int]:
    """Snapshot of the hot-path instrumentation counters.

    ``digest_calls`` counts :func:`digest` invocations;
    ``encode_bytes`` totals the canonical bytes those calls encoded;
    ``verify_calls`` counts individual signature verifications (see
    :func:`repro.crypto.signatures.verify_many` for how certificates
    amortize them); ``sign_calls`` counts signatures made, sent or
    not.  All count from the last :func:`run_scope` opening, so a
    run's ``perf`` block is its own, whatever ran before it.
    """
    return {
        "digest_calls": _digest_calls,
        "encode_bytes": _encode_bytes,
        "verify_calls": _verify_calls,
        "sign_calls": _sign_calls,
    }

"""Golden-vector tests for the iterative canonical encoder.

The byte layout of ``repro.crypto.hashing`` is a wire/storage format:
digests derived from it live in signatures, ledger chains, and archive
manifests.  The vectors below were produced by the *original recursive*
encoder (pre-rewrite) and pin the layout exactly — nested dicts, sets
and tuples, non-ASCII strings, bool-vs-int tagging, and opaque
``canonical_bytes`` objects.  A reference recursive implementation
cross-checks arbitrary structures on top of the pinned literals.
"""

import hashlib

import pytest

from repro.crypto import hashing
from repro.crypto.hashing import Canonical, _canonical, digest, value_digest


class Opaque:
    """Minimal canonical_bytes carrier (what messages look like)."""

    def __init__(self, blob: bytes):
        self._blob = blob

    def canonical_bytes(self) -> bytes:
        return self._blob


def reference_canonical(value):
    """The classic recursive encoder, kept verbatim as the oracle."""
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"I" + str(value).encode()
    if isinstance(value, float):
        return b"F" + repr(value).encode()
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"Y" + value
    if isinstance(value, (list, tuple)):
        parts = b"".join(reference_canonical(v) + b"," for v in value)
        return b"L(" + parts + b")"
    if isinstance(value, (set, frozenset)):
        parts = sorted(reference_canonical(v) for v in value)
        return b"E(" + b",".join(parts) + b")"
    if isinstance(value, dict):
        items = sorted(
            (reference_canonical(k), reference_canonical(v))
            for k, v in value.items()
        )
        parts = b"".join(k + b":" + v + b"," for k, v in items)
        return b"D(" + parts + b")"
    if hasattr(value, "canonical_bytes"):
        return b"O" + value.canonical_bytes()
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


#: Byte vectors captured from the recursive encoder before the
#: iterative rewrite (PR 5).  Do not regenerate: they ARE the format.
GOLDEN_CANONICAL = {
    "none": (None, b"N"),
    "true": (True, b"B1"),
    "false": (False, b"B0"),
    "zero": (0, b"I0"),
    "neg": (-42, b"I-42"),
    "big": (2**80, b"I1208925819614629174706176"),
    "float": (3.141592653589793, b"F3.141592653589793"),
    "neg_float": (-0.5, b"F-0.5"),
    "str": ("hello", b"Shello"),
    "non_ascii": (
        "héllo wörld — ünïcode ✓ 漢字",
        b"Sh\xc3\xa9llo w\xc3\xb6rld \xe2\x80\x94 \xc3\xbcn\xc3\xafcode"
        b" \xe2\x9c\x93 \xe6\xbc\xa2\xe5\xad\x97",
    ),
    "bytes": (b"\x00\xffraw", b"Y\x00\xffraw"),
    "empty_list": ([], b"L()"),
    "tuple": ((1, "a", None), b"L(I1,Sa,N,)"),
    "nested": (
        [1, [2, (3, "x")], {"k": {1, 2, 3}}],
        b"L(I1,L(I2,L(I3,Sx,),),D(Sk:E(I1,I2,I3),),)",
    ),
    "dict": (
        {"b": 1, "a": 2, "c": [True, False]},
        b"D(Sa:I2,Sb:I1,Sc:L(B1,B0,),)",
    ),
    "int_keys": ({1: "one", 2: "two", 10: "ten"}, b"D(I1:Sone,I10:Sten,I2:Stwo,)"),
    "set": ({3, 1, 2}, b"E(I1,I2,I3)"),
    "frozenset": (frozenset({"b", "a"}), b"E(Sa,Sb)"),
    "set_of_tuples": ({(1, 2), (1, 1)}, b"E(L(I1,I1,),L(I1,I2,))"),
    "bool_vs_int_list": ([True, 1, False, 0], b"L(B1,I1,B0,I0,)"),
    "dict_bool_int_keys": ({True: "t", 2: "i"}, b"D(B1:St,I2:Si,)"),
    "obj": (Opaque(b"payload-bytes"), b"Opayload-bytes"),
    "list_of_obj": ([Opaque(b"x"), Opaque(b"y")], b"L(Ox,Oy,)"),
    "deep": (
        {"outer": [{"inner": ({"s"}, (1,), b"\x01")}, "tail"]},
        b"D(Souter:L(D(Sinner:L(E(Ss),L(I1,),Y\x01,),),Stail,),)",
    ),
}

#: Digest strings captured alongside (16 bytes of SHA-256, hex).
GOLDEN_DIGESTS = {
    "none": "8ce86a6ae65d3692e7305e2c58ac62ee",
    "non_ascii": "885bc2e7fa07709c772edc99be85c186",
    "nested": "9954be4f4a3b243f5dc24f98cbbecd19",
    "dict": "fb4b4ac4b7d1eab50c0c301152627416",
    "bool_vs_int_list": "21e599163351d1930fa57c6a10134a13",
    "obj": "21fbb0b428c560d93430f5279b67c945",
    "deep": "bf463cddab93cf59b52a53d231ea6a2e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CANONICAL))
def test_iterative_encoder_matches_recursive_golden_bytes(name):
    value, expected = GOLDEN_CANONICAL[name]
    assert _canonical(value) == expected
    assert _canonical(value) == reference_canonical(value)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_digests_pinned_against_recursive_encoder(name):
    value, _ = GOLDEN_CANONICAL[name]
    assert digest(value) == GOLDEN_DIGESTS[name]


def test_flat_fastpath_and_generic_agree_mid_list():
    # A flat prefix that degrades to the generic encoder mid-way (the
    # digest fast path restarts from scratch) must still match.
    cases = [
        ["flat", b"bytes", 7, True],          # bool breaks out
        ["flat", b"bytes", 7, [1]],           # nesting breaks out
        ["flat", b"bytes", 7, 2.5],           # float breaks out
        ("reply", 9, {"k": ({1}, None)}),
        [Opaque(b"z"), "s"],
    ]
    for value in cases:
        ref = reference_canonical(value)
        assert _canonical(value) == ref
        assert digest(value) == hashlib.sha256(ref).hexdigest()[:32]


def test_unencodable_value_raises_typeerror():
    with pytest.raises(TypeError, match="cannot canonicalize"):
        digest(object())


def test_builtin_subclasses_encode_like_their_base():
    class MyInt(int):
        pass

    class MyStr(str):
        pass

    assert _canonical([MyInt(5), MyStr("x")]) == _canonical([5, "x"])


def test_counters_track_calls_and_bytes():
    with hashing.run_scope():
        digest([1, 2])
        snap = hashing.counters()
        digest("x")
    assert snap["digest_calls"] == 1
    assert snap["encode_bytes"] == len(b"L(I1,I2,)")
    after = hashing.counters()
    assert after["digest_calls"] == 2
    assert after["encode_bytes"] == snap["encode_bytes"] + len(b"Sx")


def test_canonical_mixin_caches_bytes_and_value_digest():
    calls = {"n": 0}

    class Msg(Canonical):
        def _canonical_bytes(self):
            calls["n"] += 1
            return b"msg-payload"

    msg = Msg()
    first = msg.canonical_bytes()
    second = msg.canonical_bytes()
    assert first == b"msg-payload"
    assert first is second  # cached object, not re-encoded
    assert calls["n"] == 1
    # value_digest memoizes on the same instance.
    with hashing.run_scope():
        d1 = value_digest(msg)
        d2 = value_digest(msg)
    assert d1 == d2
    assert hashing.counters()["digest_calls"] == 1


def test_canonical_mixin_requires_subclass_hook():
    class Bare(Canonical):
        pass

    with pytest.raises(NotImplementedError):
        Bare().canonical_bytes()


def test_frozen_message_taxonomy_has_cached_canonical_bytes():
    # A representative sweep over the message taxonomy: the cached
    # bytes object is reused, and digests are stable per instance.
    from repro.consensus.messages import Block
    from repro.datamodel.transaction import Operation, OrderedTransaction, Transaction
    from repro.datamodel.txid import LocalPart, TxId

    tx = Transaction(
        client="c1",
        timestamp=1,
        operation=Operation("kv", "put", ("k", "v")),
        scope=frozenset({"A"}),
        confidential=False,
    )
    otx = OrderedTransaction(tx, (TxId(LocalPart("A", 0, 1)),))
    block = Block((otx,))
    for obj in (tx, otx, block):
        assert obj.canonical_bytes() is obj.canonical_bytes()
    assert value_digest(block) == value_digest(block)

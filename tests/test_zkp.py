"""Pedersen commitments and sigma-protocol proofs."""

import random

import pytest

from repro.crypto.zkp import (
    Commitment,
    balances,
    default_params,
    prove_bit,
    prove_opening,
    prove_range,
    verify_bit,
    verify_opening,
    verify_range,
)
from repro.errors import CryptoError

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def params():
    return default_params()


def rng():
    return random.Random(7)


# ----------------------------------------------------------------------
# commitments
# ----------------------------------------------------------------------
def test_commitment_is_deterministic(params):
    assert params.commit(42, 1234).c == params.commit(42, 1234).c


def test_commitment_hides_value_behind_blinding(params):
    assert params.commit(42, 1).c != params.commit(42, 2).c


def test_commitment_binds_value(params):
    assert params.commit(42, 5).c != params.commit(43, 5).c


def test_homomorphic_addition(params):
    a = params.commit(10, 111)
    b = params.commit(32, 222)
    assert a.combine(b, params).c == params.commit(42, 333).c


def test_commit_rejects_out_of_range_value(params):
    with pytest.raises(CryptoError):
        params.commit(-1, 5)
    with pytest.raises(CryptoError):
        params.commit(params.q, 5)


# ----------------------------------------------------------------------
# opening proofs
# ----------------------------------------------------------------------
def test_opening_proof_roundtrip(params):
    r = rng()
    proof = prove_opening(params, 42, 999, r)
    assert verify_opening(params, params.commit(42, 999), proof)


def test_opening_proof_fails_for_wrong_commitment(params):
    proof = prove_opening(params, 42, 999, rng())
    assert not verify_opening(params, params.commit(43, 999), proof)


def test_opening_proof_bound_to_context(params):
    proof = prove_opening(params, 42, 999, rng(), context="tx-1")
    commitment = params.commit(42, 999)
    assert verify_opening(params, commitment, proof, context="tx-1")
    assert not verify_opening(params, commitment, proof, context="tx-2")


def test_tampered_opening_proof_rejected(params):
    proof = prove_opening(params, 42, 999, rng())
    import dataclasses

    bad = dataclasses.replace(proof, s_value=(proof.s_value + 1) % params.q)
    assert not verify_opening(params, params.commit(42, 999), bad)


# ----------------------------------------------------------------------
# bit proofs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bit", [0, 1])
def test_bit_proof_roundtrip(params, bit):
    r = rng()
    blinding = params.random_blinding(r)
    proof = prove_bit(params, bit, blinding, r)
    assert verify_bit(params, params.commit(bit, blinding), proof)


def test_bit_proof_rejects_two(params):
    r = rng()
    blinding = params.random_blinding(r)
    with pytest.raises(CryptoError):
        prove_bit(params, 2, blinding, r)
    # And a commitment to 2 cannot reuse a proof made for a bit.
    proof = prove_bit(params, 1, blinding, r)
    assert not verify_bit(params, params.commit(2, blinding), proof)


def test_bit_proof_bound_to_commitment(params):
    r = rng()
    blinding = params.random_blinding(r)
    proof = prove_bit(params, 1, blinding, r)
    other = params.commit(1, blinding + 1)
    assert not verify_bit(params, other, proof)


# ----------------------------------------------------------------------
# range proofs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", [0, 1, 255, 256, 65535])
def test_range_proof_roundtrip(params, value):
    r = rng()
    blinding = params.random_blinding(r)
    proof = prove_range(params, value, blinding, 16, r)
    assert verify_range(params, params.commit(value, blinding), proof, 16)


def test_range_proof_rejects_out_of_range_value(params):
    r = rng()
    with pytest.raises(CryptoError):
        prove_range(params, 1 << 16, params.random_blinding(r), 16, r)


def test_range_proof_rejected_for_wrong_commitment(params):
    r = rng()
    blinding = params.random_blinding(r)
    proof = prove_range(params, 100, blinding, 16, r)
    assert not verify_range(params, params.commit(101, blinding), proof, 16)


def test_range_proof_wrong_width_rejected(params):
    r = rng()
    blinding = params.random_blinding(r)
    proof = prove_range(params, 100, blinding, 16, r)
    assert not verify_range(params, params.commit(100, blinding), proof, 8)


def test_range_proof_context_binding(params):
    r = rng()
    blinding = params.random_blinding(r)
    proof = prove_range(params, 7, blinding, 16, r, context="coin-1")
    commitment = params.commit(7, blinding)
    assert verify_range(params, commitment, proof, 16, context="coin-1")
    assert not verify_range(params, commitment, proof, 16, context="coin-2")


# ----------------------------------------------------------------------
# conservation
# ----------------------------------------------------------------------
def test_balances_holds_when_values_and_blindings_balance(params):
    q = params.q
    r1, r2 = 111, 222
    inputs = [params.commit(30, r1), params.commit(12, r2)]
    out_r1 = 555
    out_r2 = (r1 + r2 - out_r1) % q
    outputs = [params.commit(25, out_r1), params.commit(17, out_r2)]
    assert balances(params, inputs, outputs)


def test_balances_fails_when_value_created(params):
    q = params.q
    r1 = 111
    inputs = [params.commit(30, r1)]
    outputs = [params.commit(31, r1)]
    assert not balances(params, inputs, outputs)


# ----------------------------------------------------------------------
# equality proofs
# ----------------------------------------------------------------------
def test_equality_proof_roundtrip(params):
    from repro.crypto.zkp import prove_equality, verify_equality

    r = rng()
    r1, r2 = params.random_blinding(r), params.random_blinding(r)
    proof = prove_equality(params, 42, r1, r2, r)
    assert verify_equality(
        params, params.commit(42, r1), params.commit(42, r2), proof
    )


def test_equality_proof_rejects_different_values(params):
    from repro.crypto.zkp import prove_equality, verify_equality

    r = rng()
    r1, r2 = params.random_blinding(r), params.random_blinding(r)
    proof = prove_equality(params, 42, r1, r2, r)
    assert not verify_equality(
        params, params.commit(42, r1), params.commit(43, r2), proof
    )


def test_equality_proof_context_binding(params):
    from repro.crypto.zkp import prove_equality, verify_equality

    r = rng()
    r1, r2 = params.random_blinding(r), params.random_blinding(r)
    proof = prove_equality(params, 7, r1, r2, r, context="coin-1")
    a, b = params.commit(7, r1), params.commit(7, r2)
    assert verify_equality(params, a, b, proof, context="coin-1")
    assert not verify_equality(params, a, b, proof, context="coin-2")


def test_equality_is_symmetric_statement_but_directional_proof(params):
    from repro.crypto.zkp import prove_equality, verify_equality

    r = rng()
    r1, r2 = params.random_blinding(r), params.random_blinding(r)
    proof = prove_equality(params, 5, r1, r2, r)
    a, b = params.commit(5, r1), params.commit(5, r2)
    assert verify_equality(params, a, b, proof)
    # Swapping the commitments inverts the blinding difference: the
    # same proof must not verify in the other direction.
    assert not verify_equality(params, b, a, proof)

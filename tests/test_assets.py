"""Confidential assets end-to-end over deployments (§3.2 extension)."""

import pytest

from tests.helpers import make_deployment as _spec_deployment
from repro.core.assets import AMOUNT_BITS, AssetWallet
from repro.crypto.zkp import default_params
from repro.datamodel import Operation
from repro.errors import AssetError

pytestmark = pytest.mark.slow


def make_deployment(enterprises=("A", "B"), **overrides):
    overrides.setdefault("batch_size", 2)
    return _spec_deployment(
        workflow="assets-wf", contract="assets",
        enterprises=enterprises, **overrides,
    )


def submit(deployment, client, scope, operation, key, duration=2.0):
    tx = client.make_transaction(scope, operation, keys=(key,))
    rid = client.submit(tx)
    deployment.run(duration)
    result = dict((c[0], c[2]) for c in client.completed).get(rid)
    return rid, result


def coin_record(deployment, cluster, label, coin_id):
    executor = deployment.executors_of(cluster)[0]
    return executor.store.read(label, f"coin:{coin_id}")


# ----------------------------------------------------------------------
# mint on the local collection
# ----------------------------------------------------------------------
def test_mint_records_plaintext_only_on_owner_enterprise():
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=1)
    _, result = submit(
        deployment, client, {"A"}, wallet.mint_op("c1", 500), "c1"
    )
    assert result == "minted"
    coin = coin_record(deployment, "A1", "A", "c1")
    assert coin["amount"] == 500 and not coin["spent"]
    # B's executors never see the coin at all (d_A is not replicated).
    assert coin_record(deployment, "B1", "A", "c1") is None


def test_double_mint_rejected():
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=1)
    submit(deployment, client, {"A"}, wallet.mint_op("c1", 500), "c1")
    _, result = submit(
        deployment, client, {"A"}, Operation(
            "assets", "mint", ("c1", 7, wallet.commitment("c1").c, "A")
        ), "c1",
    )
    assert "rejected" in result


# ----------------------------------------------------------------------
# deposit into the shared collection
# ----------------------------------------------------------------------
def test_deposit_verified_by_counterparty_without_revealing_amount():
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=2)
    submit(deployment, client, {"A"}, wallet.mint_op("c1", 500), "c1")
    _, result = submit(
        deployment, client, {"A", "B"}, wallet.deposit_op("c1"), "c1"
    )
    assert result == "deposited"
    # Both enterprises replicate d_AB and hold the commitment...
    for cluster in ("A1", "B1"):
        coin = coin_record(deployment, cluster, "AB", "c1")
        assert coin["c"] == wallet.commitment("c1").c
        # ... but the record carries no plaintext amount.
        assert "amount" not in coin


def test_existence_check_reveals_only_the_commitment():
    deployment = make_deployment()
    a = deployment.create_client("A")
    wallet = AssetWallet("A", seed=3)
    submit(deployment, a, {"A"}, wallet.mint_op("c1", 123), "c1")
    submit(deployment, a, {"A", "B"}, wallet.deposit_op("c1"), "c1")
    b = deployment.create_client("B")
    _, result = submit(
        deployment, b, {"A", "B"}, Operation("assets", "exists", ("c1",)), "c1"
    )
    assert result["exists"] is True
    assert result["c"] == wallet.commitment("c1").c
    assert "amount" not in result


def test_deposit_with_forged_proof_rejected():
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=4)
    submit(deployment, client, {"A"}, wallet.mint_op("c1", 500), "c1")
    honest = wallet.deposit_op("c1")
    coin_id, commitment_c, opening, range_proof, owner = honest.args
    forged = Operation(
        "assets", "deposit",
        (coin_id, commitment_c + 1, opening, range_proof, owner),
    )
    _, result = submit(deployment, client, {"A", "B"}, forged, "c1")
    assert "rejected" in result
    assert coin_record(deployment, "B1", "AB", "c1") is None


# ----------------------------------------------------------------------
# confidential transfers
# ----------------------------------------------------------------------
def deposit_coin(deployment, client, wallet, coin_id, amount):
    submit(deployment, client, {"A"}, wallet.mint_op(coin_id, amount), coin_id)
    submit(deployment, client, {"A", "B"}, wallet.deposit_op(coin_id), coin_id)


def test_confidential_transfer_conserves_value():
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=5)
    deposit_coin(deployment, client, wallet, "c1", 500)
    op = wallet.transfer_op(
        ("c1",), (("pay", 180, "B"), ("change", 320, "A"))
    )
    _, result = submit(deployment, client, {"A", "B"}, op, "c1")
    assert result == "transferred"
    for cluster in ("A1", "B1"):
        assert coin_record(deployment, cluster, "AB", "c1")["spent"]
        pay = coin_record(deployment, cluster, "AB", "pay")
        assert pay["owner"] == "B" and not pay["spent"]
        change = coin_record(deployment, cluster, "AB", "change")
        assert change["owner"] == "A" and not change["spent"]
    # B can later open its coin with the shared-out-of-band opening.
    b_wallet = AssetWallet("B", seed=6)
    b_wallet.track("pay", *wallet.coins["pay"])
    b = deployment.create_client("B")
    _, revealed = submit(
        deployment, b, {"A", "B"}, b_wallet.reveal_op("pay"), "c1"
    )
    assert revealed == 180


def test_unbalanced_transfer_rejected_by_wallet():
    wallet = AssetWallet("A", seed=7)
    wallet.track("c1", 500, 999)
    with pytest.raises(AssetError, match="balance"):
        wallet.transfer_op(("c1",), (("pay", 600, "B"),))


def test_overdraw_with_forged_outputs_rejected_on_chain():
    """Bypass the wallet's balance check: commit outputs that sum right
    homomorphically only if one output is negative — the range proof
    must catch it (the reason range proofs exist)."""
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=8)
    deposit_coin(deployment, client, wallet, "c1", 100)
    params = default_params()
    # pay 150 and "change" -50 == q-50: balances homomorphically.
    import random

    from repro.crypto.zkp import prove_range

    rng = random.Random(9)
    amount, blinding = wallet.coins["c1"]
    r_pay = 4242
    pay_c = params.commit(150, r_pay)
    pay_proof = prove_range(params, 150, r_pay, AMOUNT_BITS, rng, context="pay")
    r_change = (blinding - r_pay) % params.q
    neg_value = (amount - 150) % params.q  # wraps: q - 50
    change_c = params.commit(neg_value, r_change)
    # A range proof for the wrapped value cannot be produced honestly;
    # reuse the pay proof as the forgery attempt.
    forged = Operation(
        "assets", "transfer",
        ("A", ("c1",), (("pay", pay_c.c, pay_proof, "B"),
                        ("change", change_c.c, pay_proof, "A"))),
    )
    _, result = submit(deployment, client, {"A", "B"}, forged, "c1")
    assert "rejected" in result
    assert coin_record(deployment, "B1", "AB", "pay") is None
    assert not coin_record(deployment, "B1", "AB", "c1")["spent"]


def test_double_spend_rejected():
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=10)
    deposit_coin(deployment, client, wallet, "c1", 100)
    op1 = wallet.transfer_op(("c1",), (("p1", 100, "B"),))
    _, r1 = submit(deployment, client, {"A", "B"}, op1, "c1")
    assert r1 == "transferred"
    wallet.track("c1", 100, wallet.coins["p1"][1])  # pretend it's unspent
    op2 = Operation(
        "assets", "transfer", ("A", ("c1",), op1.args[2])
    )
    _, r2 = submit(deployment, client, {"A", "B"}, op2, "c1")
    assert "rejected" in r2


def test_spend_of_foreign_coin_rejected():
    deployment = make_deployment()
    a = deployment.create_client("A")
    wallet = AssetWallet("A", seed=11)
    deposit_coin(deployment, a, wallet, "c1", 100)
    thief = Operation(
        "assets", "transfer",
        ("B", ("c1",), (("stolen", 0, "B"),)),
    )
    b = deployment.create_client("B")
    _, result = submit(deployment, b, {"A", "B"}, thief, "c1")
    assert "rejected" in result


def test_reveal_with_wrong_opening_rejected():
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=12)
    deposit_coin(deployment, client, wallet, "c1", 100)
    amount, blinding = wallet.coins["c1"]
    bad = Operation("assets", "reveal", ("c1", amount + 1, blinding))
    _, result = submit(deployment, client, {"A", "B"}, bad, "c1")
    assert "rejected" in result


def test_rerandomized_deposit_links_to_local_attestation():
    """§3.2 end to end with unlinkability: the d_AB commitment differs
    from the d_A mint, yet a link proof ties them together."""
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=20)
    _, minted = submit(
        deployment, client, {"A"}, wallet.mint_op("c1", 250), "c1"
    )
    assert minted == "minted"
    attested_c, attested_blinding = wallet.rerandomize("c1")
    _, deposited = submit(
        deployment, client, {"A", "B"}, wallet.deposit_op("c1"), "c1"
    )
    assert deposited == "deposited"
    shared = coin_record(deployment, "B1", "AB", "c1")
    local = coin_record(deployment, "A1", "A", "c1")
    assert shared["c"] != local["c"]  # unlinkable without the proof
    assert local["c"] == attested_c
    _, linked = submit(
        deployment, client, {"A", "B"},
        wallet.link_op("c1", attested_c, attested_blinding), "c1",
    )
    assert linked == "linked"
    assert coin_record(deployment, "B1", "AB", "c1")["linked"] == attested_c


def test_link_with_wrong_attestation_rejected():
    deployment = make_deployment()
    client = deployment.create_client("A")
    wallet = AssetWallet("A", seed=21)
    deposit_coin(deployment, client, wallet, "c1", 100)
    params = default_params()
    from repro.crypto.zkp import EqualityProof

    forged = Operation(
        "assets", "link", ("c1", params.commit(999, 1).c, EqualityProof(1, 1))
    )
    _, result = submit(deployment, client, {"A", "B"}, forged, "c1")
    assert "rejected" in result


def test_wallet_link_op_checks_its_own_opening():
    wallet = AssetWallet("A", seed=22)
    wallet.track("c1", 100, 777)
    with pytest.raises(AssetError, match="does not open"):
        wallet.link_op("c1", 123456, 888)

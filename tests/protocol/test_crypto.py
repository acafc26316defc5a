"""Ideal cryptographic functionalities."""

import math

import pytest

from repro.protocol.crypto import (
    IdealSignatureScheme,
    IdealVrf,
    _digest_to_unit,
    hash_data,
)


class TestHash:
    def test_deterministic(self):
        assert hash_data("a", 1) == hash_data("a", 1)

    def test_different_inputs_differ(self):
        assert hash_data("a") != hash_data("b")

    def test_no_concatenation_ambiguity(self):
        """Length-prefixed encoding: ('ab','c') != ('a','bc')."""
        assert hash_data("ab", "c") != hash_data("a", "bc")

    def test_accepts_bytes_and_ints(self):
        assert hash_data(b"raw", 42, "s")


class TestSignatures:
    def test_sign_verify_round_trip(self):
        scheme = IdealSignatureScheme()
        keypair = scheme.generate_keypair()
        signature = scheme.sign(keypair, "message")
        assert scheme.verify(keypair.public, "message", signature)

    def test_wrong_message_rejected(self):
        scheme = IdealSignatureScheme()
        keypair = scheme.generate_keypair()
        signature = scheme.sign(keypair, "message")
        assert not scheme.verify(keypair.public, "other", signature)

    def test_wrong_key_rejected(self):
        scheme = IdealSignatureScheme()
        alice = scheme.generate_keypair()
        bob = scheme.generate_keypair()
        signature = scheme.sign(alice, "message")
        assert not scheme.verify(bob.public, "message", signature)

    def test_unregistered_key_cannot_sign(self):
        scheme = IdealSignatureScheme()
        other_scheme = IdealSignatureScheme(seed="other")
        foreign = other_scheme.generate_keypair()
        with pytest.raises(ValueError):
            scheme.sign(foreign, "message")

    def test_unregistered_public_key_never_verifies(self):
        scheme = IdealSignatureScheme()
        assert not scheme.verify("nobody", "m", "sig")

    def test_distinct_keypairs(self):
        scheme = IdealSignatureScheme()
        assert scheme.generate_keypair() != scheme.generate_keypair()


class TestVrf:
    def test_evaluate_verify_round_trip(self):
        vrf = IdealVrf()
        keypair = vrf.generate_keypair()
        value, proof = vrf.evaluate(keypair, "slot-7")
        assert 0.0 <= value < 1.0
        assert vrf.verify(keypair.public, "slot-7", value, proof)

    def test_deterministic_per_input(self):
        vrf = IdealVrf()
        keypair = vrf.generate_keypair()
        assert vrf.evaluate(keypair, "x") == vrf.evaluate(keypair, "x")
        assert vrf.evaluate(keypair, "x") != vrf.evaluate(keypair, "y")

    def test_wrong_value_rejected(self):
        vrf = IdealVrf()
        keypair = vrf.generate_keypair()
        value, proof = vrf.evaluate(keypair, "slot-7")
        assert not vrf.verify(keypair.public, "slot-7", value / 2, proof)

    def test_outputs_look_uniform(self):
        vrf = IdealVrf()
        keypair = vrf.generate_keypair()
        values = [vrf.evaluate(keypair, f"slot-{i}")[0] for i in range(2000)]
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.03
        assert abs(sum(1 for v in values if v < 0.25) / 2000 - 0.25) < 0.04

    def test_seed_separates_lotteries(self):
        first = IdealVrf(seed="epoch-1")
        second = IdealVrf(seed="epoch-2")
        k1 = first.generate_keypair()
        k2 = second.generate_keypair()
        assert first.evaluate(k1, "s")[0] != second.evaluate(k2, "s")[0]


class TestDigestToUnit:
    def test_max_digest_stays_below_one(self):
        assert _digest_to_unit("f" * 64) == math.nextafter(1.0, 0.0)

    def test_rounding_tail_is_clamped(self):
        """Prefixes from 0xfffffffffffffc00 up round to 2**64 as floats."""
        assert _digest_to_unit("fffffffffffffc00" + "0" * 48) < 1.0
        assert _digest_to_unit("fffffffffffffbff" + "f" * 48) == (
            0xFFFFFFFFFFFFFBFF / 2.0**64
        )

    def test_zero_digest_is_zero(self):
        assert _digest_to_unit("0" * 64) == 0.0


class TestEvaluateMany:
    def test_equals_one_evaluate_per_input(self):
        vrf = IdealVrf(seed="batch")
        keypair = vrf.generate_keypair()
        inputs = [f"epoch-0|slot-{slot}" for slot in range(1, 60)] + ["", "é"]
        batch = vrf.evaluate_many(keypair, inputs)
        assert [(value, digest.hex()) for value, digest in batch] == [
            vrf.evaluate(keypair, vrf_input) for vrf_input in inputs
        ]

    def test_batch_values_verify(self):
        vrf = IdealVrf()
        keypair = vrf.generate_keypair()
        [(value, digest)] = vrf.evaluate_many(keypair, ["slot-7"])
        assert vrf.verify(keypair.public, "slot-7", value, digest.hex())

    def test_foreign_key_rejected(self):
        vrf = IdealVrf(seed="ours")
        foreign = IdealVrf(seed="theirs").generate_keypair()
        with pytest.raises(ValueError):
            vrf.evaluate_many(foreign, ["slot-1"])

    def test_tampered_secret_rejected(self):
        vrf = IdealVrf()
        keypair = vrf.generate_keypair()
        forged = type(keypair)(keypair.public, "0" * 64)
        with pytest.raises(ValueError):
            vrf.evaluate_many(forged, [])

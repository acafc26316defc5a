"""Ideal cryptographic functionalities."""

import math

import numpy as np
import pytest

from repro.protocol.crypto import (
    _BELOW_ONE,
    IdealSignatureScheme,
    IdealVrf,
    _digest_to_unit,
    _prefix_to_unit,
    hash_data,
    unit_cutoff,
)
from repro.protocol.leader import phi


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


#: Thresholds where an inexact cutoff would show: φ = 1 (one party at
#: activity 1), tiny stakes, powers of two and their float neighbours
#: (where ``p / 2**64`` rounds up onto the threshold), the clamp region
#: next to 1.0, and the degenerate 0.
CUTOFF_THRESHOLDS = [
    phi(1.0, 1.0),
    phi(0.3, 1e-6),
    phi(0.05, 1e-12),
    phi(0.5, 1e-18),
    5e-324,
    0.0,
    _BELOW_ONE,
    math.nextafter(_BELOW_ONE, 0.0),
    0.3,
    0.1,
] + [
    neighbour
    for exponent in (1, 2, 10, 40, 53, 60, 63)
    for neighbour in (
        math.nextafter(2.0**-exponent, 0.0),
        2.0**-exponent,
        math.nextafter(2.0**-exponent, 1.0),
    )
]


class TestUnitCutoff:
    """``p < unit_cutoff(t)`` ⟺ ``_prefix_to_unit(p) < t``, exactly."""

    @pytest.mark.parametrize("threshold", CUTOFF_THRESHOLDS)
    def test_cutoff_is_the_boundary(self, threshold):
        cutoff = unit_cutoff(threshold)
        assert 0 <= cutoff <= 1 << 64
        if cutoff > 0:
            assert _prefix_to_unit(cutoff - 1) < threshold
        if cutoff < 1 << 64:
            assert not _prefix_to_unit(cutoff) < threshold

    def test_full_threshold_admits_every_prefix(self):
        """φ = 1: the clamp keeps even the all-ones prefix below 1.0."""
        assert unit_cutoff(1.0) == 1 << 64

    def test_empty_threshold_admits_nothing(self):
        assert unit_cutoff(0.0) == 0
        assert unit_cutoff(5e-324) == 1

    def test_power_of_two_boundary_is_below_the_naive_product(self):
        """Prefixes just under 2**63 round up to 0.5 as floats."""
        cutoff = unit_cutoff(0.5)
        assert cutoff < 1 << 63
        assert cutoff == (1 << 63) - 512

    @pytest.mark.parametrize("seed", range(5))
    def test_random_thresholds(self, seed):
        rng = np.random.default_rng(seed)
        for threshold in rng.random(50) ** 4:
            threshold = float(threshold)
            cutoff = unit_cutoff(threshold)
            assert _prefix_to_unit(cutoff - 1) < threshold
            assert not _prefix_to_unit(cutoff) < threshold


class TestEvaluateBelow:
    INPUTS = [f"epoch-0|slot-{slot}" for slot in range(1, 60)] + ["", "é"]

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.5, 0.9, 1.0])
    def test_equals_evaluate_filtered_by_threshold(self, threshold):
        vrf = IdealVrf(seed="batch")
        keypair = vrf.generate_keypair()
        below = vrf.evaluate_below(
            keypair, vrf.encode_inputs(self.INPUTS), unit_cutoff(threshold)
        )
        expected = []
        for index, vrf_input in enumerate(self.INPUTS):
            value, proof = vrf.evaluate(keypair, vrf_input)
            if value < threshold:
                expected.append((index, value, proof))
        assert [
            (index, value, digest.hex()) for index, value, digest in below
        ] == expected

    def test_encoding_is_the_hash_data_part(self):
        """A midstate over ("vrf", secret) plus the encoded input is
        exactly hash_data("vrf", secret, input)."""
        vrf = IdealVrf()
        keypair = vrf.generate_keypair()
        [(_, value, digest)] = vrf.evaluate_below(
            keypair, vrf.encode_inputs(["slot-7"]), 1 << 64
        )
        assert digest.hex() == hash_data("vrf", keypair.secret, "slot-7")
        assert vrf.verify(keypair.public, "slot-7", value, digest.hex())

    def test_foreign_key_rejected(self):
        vrf = IdealVrf(seed="ours")
        foreign = IdealVrf(seed="theirs").generate_keypair()
        with pytest.raises(ValueError):
            vrf.evaluate_below(foreign, vrf.encode_inputs(["slot-1"]), 1)

    def test_tampered_secret_rejected(self):
        vrf = IdealVrf()
        keypair = vrf.generate_keypair()
        forged = type(keypair)(keypair.public, "0" * 64)
        with pytest.raises(ValueError):
            vrf.evaluate_below(forged, [], 1)

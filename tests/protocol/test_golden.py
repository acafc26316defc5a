"""Known-answer pins for the protocol's hashes, VRF and executions.

The determinism suite compares two modes of the same code, so a change
that altered the VRF bytes in both modes would pass it.  These pins do
not: they fix the exact ``hash_data`` encoding, the exact VRF outputs,
and, for every registered protocol scenario, a SHA-256 over each run's
characteristic string and per-slot adopted tips together with the
settlement / CP / reorg verdicts.  Any change to the lottery, the
validation or the chain selection that is meant to be behaviour-
preserving must leave every value here untouched.
"""

import hashlib
import json

import pytest

from repro.engine.scenarios import get_scenario
from repro.protocol.crypto import IdealVrf, hash_data
from tests.protocol.reference_validation import per_node_validation


class TestHashKnownAnswers:
    def test_mixed_parts(self):
        assert hash_data("text", 42, b"\x00raw") == (
            "d609bb9bd86963f1a88647d654692427289fdeee19b8ef612087ebed1f0b7784"
        )

    def test_no_parts_is_empty_sha256(self):
        assert hash_data() == hashlib.sha256(b"").hexdigest()

    def test_empty_parts(self):
        assert hash_data("", 0, b"") == (
            "3a00f00fcee615896e55ab3d99cfbc590ffbf15fca52151cd9450298063f9143"
        )

    def test_encoding_is_eight_byte_big_endian_length_prefix(self):
        stream = b"".join(
            len(encoded).to_bytes(8, "big") + encoded
            for encoded in (b"text", b"42", b"\x00raw")
        )
        assert hash_data("text", 42, b"\x00raw") == (
            hashlib.sha256(stream).hexdigest()
        )


class TestVrfKnownAnswers:
    def setup_method(self):
        self.vrf = IdealVrf(seed="golden")
        self.keypair = self.vrf.generate_keypair()

    def test_keypair(self):
        assert self.keypair.public == (
            "34e42873d2a95c30e9e060ffc8dda028416817cdc31a53e059e5eae891bbdf68"
        )
        assert self.keypair.secret == (
            "34d2a42e41bc7276c962711540c38034541cea0a147bf6c2f66581764d054570"
        )

    @pytest.mark.parametrize(
        "vrf_input, value, proof",
        [
            (
                "epoch-0|slot-1",
                0.1215511379249542,
                "1f1df9b22de4382ea87037107bf0352c66a6501dc3a6f8b13e875d10ec98fd4e",
            ),
            (
                "epoch-0|slot-2",
                0.0706735095968599,
                "1217a8bc697c76e8ba6c825644857a6ae7c7bf52cb32269267517e14edc796e9",
            ),
        ],
    )
    def test_evaluate(self, vrf_input, value, proof):
        assert self.vrf.evaluate(self.keypair, vrf_input) == (value, proof)


def execution_fingerprint(result) -> str:
    """SHA-256 over the characteristic string and every adopted tip."""
    payload = {
        "w": result.characteristic_string,
        "tips": [
            [record.slot, sorted(record.adopted_tips.items())]
            for record in result.records
        ],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


#: Pinned scenario variants that are not registered under their own name:
#: label → (registered scenario, field overrides).  ``wan-uniform-ring``
#: is the WAN the engine bench's ``wan`` record runs (uniform jitter on a
#: ring); the registered ``protocol-wan`` draws exponential jitter on a
#: random graph.
VARIANTS = {
    "wan-uniform-ring": (
        "protocol-honest",
        dict(
            network="wan",
            latency=0.4,
            bandwidth=4096.0,
            jitter="uniform",
            jitter_scale=0.5,
            topology="ring",
        ),
    ),
}


def pinned_scenario(label: str):
    """The registered scenario, or the variant, a pin label names."""
    name, overrides = VARIANTS.get(label, (label, {}))
    return get_scenario(name, **overrides)


#: (scenario, randomness) → (fingerprint, settlement, CP, max reorg depth)
EXECUTION_PINS = {
    ("protocol-honest", "golden-0"): (
        "d5960ac7b2c6f725d05ab3d53cac5502fe5998059aee79dc9b609bf117264480",
        False, False, 1,
    ),
    ("protocol-honest", "golden-1"): (
        "cd3467cf1ae6a3296f7c71dd179af68da8b9560ce5b7257fb79433f9654c2bd4",
        False, False, 2,
    ),
    ("protocol-honest", "golden-2"): (
        "8b1ce9db7c6b1b9bd78b22af99dd8c8c63f69a3eee2905cf0de2330e5c0a4a70",
        False, False, 2,
    ),
    ("protocol-private-chain", "golden-0"): (
        "16d586879c3fab5d1d66d878682aa2f70d602519cd4a114b3b3467707ae98fa6",
        False, False, 1,
    ),
    ("protocol-private-chain", "golden-1"): (
        "06a079069484535ca93c0cbae76aadbe4f50a2b1e18de6df15fef0ace746e6e3",
        False, False, 1,
    ),
    ("protocol-private-chain", "golden-2"): (
        "4dee2850052680effb9c4a1980a7790400540213476824189ad57627e8001a97",
        True, True, 1,
    ),
    ("protocol-split", "golden-0"): (
        "d7df8941b6248d2334c5462caeb026b8ca208304ec1b4a63132beb2764f7786a",
        False, True, 3,
    ),
    ("protocol-split", "golden-1"): (
        "94b282ada431c6bcd76bf8063cf4cb835c77c43c20547881f160e0973726de95",
        False, True, 6,
    ),
    ("protocol-split", "golden-2"): (
        "d94081b0b92e4b5bb0dc49ad0cce26afc49d851ee7dcaa3d25a350f2aed403e6",
        False, True, 4,
    ),
    ("protocol-wan", "golden-0"): (
        "99b35a1e62939b1680c53401fb5c35a4366c4bbbb9828e5f338210175e97add1",
        False, True, 1,
    ),
    ("protocol-wan", "golden-1"): (
        "03d0bff3ef19a93730e68d53ae73de1ebe691410307571110209ced99f2d1a29",
        True, True, 3,
    ),
    ("protocol-wan", "golden-2"): (
        "af47335e6bf83066fbac227a993e0f8ab5adffa6ac3489dcee35bdedb56ec39a",
        False, True, 3,
    ),
    ("protocol-delta", "golden-0"): (
        "e6947252c6e5e0367aafbe09974a50713a70df0f1c433e4aba05f4f1d06f5d1a",
        True, True, 3,
    ),
    ("protocol-delta", "golden-1"): (
        "18558f3dc4376f01241ed88cd91aba148dd018f2651eba86f8d520f6bfbbcd66",
        False, True, 4,
    ),
    ("protocol-delta", "golden-2"): (
        "44d6cd0e35f5086f196cd79d2c75ab526afe19700ecb0ed73a5652bfee6caddf",
        False, True, 5,
    ),
    ("wan-uniform-ring", "golden-0"): (
        "d0045130ddbb4f08812a9d14d101c36a747c003a469417a5b8c61d4f2125c936",
        False, False, 2,
    ),
    ("wan-uniform-ring", "golden-1"): (
        "82d9a926ba8fc559e1ecdc62606cb0556bfa2a90e9216a57bb04e5638390ba98",
        False, False, 2,
    ),
    ("wan-uniform-ring", "golden-2"): (
        "fb34d3d597bcdf7893988cc96b059f4ca1babbe89b8b12ab1e5ed5ea87ffafd3",
        False, False, 3,
    ),
}


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "reference"])
@pytest.mark.parametrize(
    "name, randomness",
    sorted(EXECUTION_PINS),
    ids=[f"{name}/{randomness}" for name, randomness in sorted(EXECUTION_PINS)],
)
def test_execution_pinned(name, randomness, shared):
    scenario = pinned_scenario(name)
    simulation = scenario.build_simulation(randomness)
    if not shared:
        per_node_validation(simulation)
    result = simulation.run()
    fingerprint, settlement, cp, reorg = EXECUTION_PINS[(name, randomness)]
    assert execution_fingerprint(result) == fingerprint
    assert result.settlement_violation(
        scenario.target_slot, scenario.depth
    ) is settlement
    assert result.cp_slot_violation(scenario.depth) is cp
    assert result.max_reorg_depth() == reorg

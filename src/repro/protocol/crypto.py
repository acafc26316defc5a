"""Ideal cryptographic functionalities for the protocol simulation.

The paper's axioms assume cryptography works perfectly: blocks carry
unforgeable slot labels (A1–A3, "guaranteed with digital signatures") and
leader election is an ideal lottery.  Following the standard
ideal-functionality methodology, this module implements the *interfaces*
of a hash, a signature scheme and a VRF with perfect security inside the
simulation:

* hashing is real SHA-256 (collision resistance is inherited);
* :class:`IdealSignatureScheme` keeps a private registry of issued keys —
  verification consults the registry, so forging a signature for a key
  the scheme issued is impossible by construction;
* :class:`IdealVrf` derives outputs by hashing (seed, secret, input), so
  evaluations are deterministic, uniformly distributed, and only the key
  holder can produce them; proofs verify through the same registry.

These are *simulated* primitives: the substitution (documented in
DESIGN.md) preserves exactly the properties the analysis consumes and
nothing else.  Do not use them outside a simulation.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable
from dataclasses import dataclass


def hash_data(*parts: bytes | str | int) -> str:
    """SHA-256 over a canonical encoding of the parts (hex digest).

    Each part is encoded (an int as its decimal string, a str as UTF-8,
    bytes as given) and prefixed by its byte length as an 8-byte
    big-endian integer; the digest is over the concatenation.  The
    length prefixes make the encoding injective, so ``("ab", "c")`` and
    ``("a", "bc")`` hash differently.
    """
    return hashlib.sha256(_encode(parts)).hexdigest()


def _encode(parts: tuple[bytes | str | int, ...]) -> bytes:
    """The length-prefixed byte stream :func:`hash_data` digests."""
    chunks = []
    for part in parts:
        if isinstance(part, int):
            encoded = str(part).encode()
        elif isinstance(part, str):
            encoded = part.encode()
        else:
            encoded = part
        chunks.append(len(encoded).to_bytes(8, "big"))
        chunks.append(encoded)
    return b"".join(chunks)


@dataclass(frozen=True)
class KeyPair:
    """A verification/signing key pair issued by an ideal scheme."""

    public: str
    secret: str


class IdealSignatureScheme:
    """EUF-CMA "by construction": verification consults the key registry.

    ``sign`` derives a deterministic tag from (secret, message); ``verify``
    recomputes it from the registry entry for the public key.  Signatures
    by unregistered keys or on altered messages never verify.
    """

    def __init__(self, seed: str = "repro-signatures") -> None:
        self._seed = seed
        self._registry: dict[str, str] = {}
        self._counter = 0

    def generate_keypair(self) -> KeyPair:
        """Issue a fresh key pair and record it in the registry."""
        self._counter += 1
        secret = hash_data(self._seed, "secret", self._counter)
        public = hash_data(self._seed, "public", secret)
        self._registry[public] = secret
        return KeyPair(public, secret)

    def sign(self, keypair: KeyPair, message: str) -> str:
        """Deterministic signature of ``message`` under ``keypair``."""
        if self._registry.get(keypair.public) != keypair.secret:
            raise ValueError("signing key was not issued by this scheme")
        return hash_data("sig", keypair.secret, message)

    def verify(self, public: str, message: str, signature: str) -> bool:
        """True iff ``signature`` is the registered key's tag on ``message``."""
        secret = self._registry.get(public)
        if secret is None:
            return False
        return signature == hash_data("sig", secret, message)


class IdealVrf:
    """A verifiable random function with ideal uniqueness and uniformity.

    ``evaluate(keypair, input)`` returns ``(value, proof)`` where ``value``
    is a float in [0, 1) deterministic in (scheme seed, secret, input).
    The seed separates independent lotteries (e.g. per-epoch randomness).
    """

    def __init__(self, seed: str = "repro-vrf") -> None:
        self._seed = seed
        self._registry: dict[str, str] = {}
        self._counter = 0

    def generate_keypair(self) -> KeyPair:
        """Issue a fresh VRF key pair."""
        self._counter += 1
        secret = hash_data(self._seed, "vrf-secret", self._counter)
        public = hash_data(self._seed, "vrf-public", secret)
        self._registry[public] = secret
        return KeyPair(public, secret)

    def evaluate(self, keypair: KeyPair, vrf_input: str) -> tuple[float, str]:
        """``(value, proof)`` for the key holder; value uniform in [0, 1)."""
        if self._registry.get(keypair.public) != keypair.secret:
            raise ValueError("VRF key was not issued by this scheme")
        proof = hash_data("vrf", keypair.secret, vrf_input)
        return _digest_to_unit(proof), proof

    def evaluate_many(
        self, keypair: KeyPair, inputs: Iterable[str]
    ) -> list[tuple[float, bytes]]:
        """``(value, digest)`` per input, equal to :meth:`evaluate`.

        The same outputs as one :meth:`evaluate` call per input, with
        the proof as the raw 32-byte digest (``digest.hex()`` is the
        proof).  The ``("vrf", secret)`` prefix of the encoding is
        hashed once into a SHA-256 midstate; each input then costs one
        ``copy`` and one ``update``.
        """
        if self._registry.get(keypair.public) != keypair.secret:
            raise ValueError("VRF key was not issued by this scheme")
        midstate = hashlib.sha256(_encode(("vrf", keypair.secret)))
        evaluations = []
        for vrf_input in inputs:
            encoded = vrf_input.encode()
            hasher = midstate.copy()
            hasher.update(len(encoded).to_bytes(8, "big") + encoded)
            digest = hasher.digest()
            value = _prefix_to_unit(int.from_bytes(digest[:8], "big"))
            evaluations.append((value, digest))
        return evaluations

    def verify(
        self, public: str, vrf_input: str, value: float, proof: str
    ) -> bool:
        """Check the proof against the registry and the claimed value."""
        secret = self._registry.get(public)
        if secret is None:
            return False
        expected = hash_data("vrf", secret, vrf_input)
        return proof == expected and value == _digest_to_unit(expected)


#: The largest float below 1.0: the image of the top ~5.6e-17 of the
#: 64-bit prefixes, which would otherwise round up to exactly 1.0.
_BELOW_ONE = math.nextafter(1.0, 0.0)
_TWO_TO_64 = float(1 << 64)


def _digest_to_unit(digest: str) -> float:
    """Map a hex digest to [0, 1) with 53 bits of precision."""
    return _prefix_to_unit(int(digest[:16], 16))


def _prefix_to_unit(prefix: int) -> float:
    """Map a digest's leading 64 bits (big-endian) to [0, 1)."""
    return min(prefix / _TWO_TO_64, _BELOW_ONE)

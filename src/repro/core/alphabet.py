"""Characteristic strings over the multi-leader alphabet ``{h, H, A}``.

Definition 1 of the paper encodes the outcome of leader election for each
slot as one symbol:

* ``h`` — *uniquely honest*: exactly one honest leader, no adversarial one;
* ``H`` — *multiply honest*: at least one honest leader (by convention more
  than one), no adversarial one;
* ``A`` — *adversarial*: at least one adversarial leader.

Section 8 extends the alphabet with ``⊥`` (an empty slot, no leader at
all), which this module writes as ``"."`` so that characteristic strings
remain plain ASCII.

Throughout the library a characteristic string is simply a ``str`` over
``"hHA."``; this module provides the canonical constants, validation,
counting helpers, and the partial order / stochastic-dominance machinery of
Definition 6.  A thin :class:`CharacteristicString` wrapper is offered for
users who prefer a typed object, but every algorithm in the library accepts
plain strings.
"""

from __future__ import annotations

#: Type alias: symbols are single-character strings over ``"hHA."``.
Symbol = str

#: Uniquely honest slot (exactly one honest leader).
HONEST_UNIQUE = "h"
#: Multiply honest slot (several honest leaders, no adversarial one).
HONEST_MULTI = "H"
#: Adversarial slot (at least one adversarial leader).
ADVERSARIAL = "A"
#: Empty slot (no leader at all); only valid in the Δ-synchronous setting.
EMPTY = "."

#: The synchronous alphabet of Definition 1.
SYNCHRONOUS_ALPHABET = frozenset((HONEST_UNIQUE, HONEST_MULTI, ADVERSARIAL))
#: The semi-synchronous alphabet of Definition 20.
SEMI_SYNCHRONOUS_ALPHABET = frozenset(
    (HONEST_UNIQUE, HONEST_MULTI, ADVERSARIAL, EMPTY)
)
#: The bivalent alphabet of Definition 8 (used with consistent tie-breaking).
BIVALENT_ALPHABET = frozenset((HONEST_MULTI, ADVERSARIAL))

#: Rank of each symbol in the partial order ``h < H < A`` of Definition 6.
_ORDER_RANK = {HONEST_UNIQUE: 0, HONEST_MULTI: 1, ADVERSARIAL: 2}


class InvalidCharacteristicString(ValueError):
    """Raised when a string contains symbols outside the chosen alphabet."""


def validate(word: str, alphabet: frozenset[str] = SYNCHRONOUS_ALPHABET) -> str:
    """Return ``word`` unchanged if every symbol lies in ``alphabet``.

    Raises :class:`InvalidCharacteristicString` otherwise.  The empty string
    is always valid (it is the characteristic string of the genesis-only
    execution).
    """
    bad = set(word) - alphabet
    if bad:
        raise InvalidCharacteristicString(
            f"invalid symbols {sorted(bad)!r} for alphabet {sorted(alphabet)!r}"
        )
    return word


def is_honest(symbol: str) -> bool:
    """True for ``h`` and ``H`` (the slot is honest; see Definition 1)."""
    return symbol == HONEST_UNIQUE or symbol == HONEST_MULTI


def is_adversarial(symbol: str) -> bool:
    """True exactly for ``A``."""
    return symbol == ADVERSARIAL


def count_symbols(word: str) -> dict[str, int]:
    """Return ``#σ(word)`` for every σ in the semi-synchronous alphabet."""
    return {symbol: word.count(symbol) for symbol in "hHA."}


def honest_count(word: str) -> int:
    """``#h(word) + #H(word)`` — honest slots of either kind."""
    return word.count(HONEST_UNIQUE) + word.count(HONEST_MULTI)


def adversarial_count(word: str) -> int:
    """``#A(word)``."""
    return word.count(ADVERSARIAL)


def is_hh_heavy(word: str) -> bool:
    """True when ``#h(word) + #H(word) > #A(word)`` (Section 3.1).

    An interval of slots is *hH-heavy* when honest slots strictly outnumber
    adversarial slots inside it; otherwise the interval is *A-heavy*.
    """
    return honest_count(word) > adversarial_count(word)


def is_a_heavy(word: str) -> bool:
    """True when the interval is not hH-heavy (Section 3.1)."""
    return not is_hh_heavy(word)


def symbol_leq(left: str, right: str) -> bool:
    """The single-symbol partial order ``h < H < A`` of Definition 6."""
    return _ORDER_RANK[left] <= _ORDER_RANK[right]


def string_leq(left: str, right: str) -> bool:
    """Coordinate-wise partial order on equal-length strings (Definition 6).

    ``left ≤ right`` means ``right`` is "more adversarial": any fork for
    ``left`` is also a fork for ``right``, so any settlement violation for
    ``left`` carries over to ``right``.
    """
    if len(left) != len(right):
        raise ValueError("strings of different lengths are incomparable")
    return all(symbol_leq(a, b) for a, b in zip(left, right))


def walk_increments(word: str) -> list[int]:
    """Map symbols to walk steps: ``+1`` for ``A``, ``−1`` for honest.

    This is the process ``W_t`` of Section 5 (empty slots contribute 0 and
    are only meaningful in the semi-synchronous setting).
    """
    steps = []
    for symbol in word:
        if symbol == ADVERSARIAL:
            steps.append(1)
        elif symbol == EMPTY:
            steps.append(0)
        else:
            steps.append(-1)
    return steps


def prefix_sums(word: str) -> list[int]:
    """Prefix sums ``S_0 = 0, S_t = Σ_{i≤t} W_i`` of the walk (Section 5)."""
    sums = [0]
    total = 0
    for step in walk_increments(word):
        total += step
        sums.append(total)
    return sums


class CharacteristicString:
    """A validated characteristic string with convenience accessors.

    The class is a thin, immutable wrapper around ``str``; it exists for
    users who want parse-time validation and readable ``repr`` output.  All
    library algorithms accept plain strings, and instances compare equal to
    the underlying string's wrapper.
    """

    __slots__ = ("_word", "_alphabet")

    def __init__(
        self,
        word: str,
        alphabet: frozenset[str] = SYNCHRONOUS_ALPHABET,
    ) -> None:
        self._word = validate(word, alphabet)
        self._alphabet = alphabet

    @property
    def word(self) -> str:
        """The underlying plain string."""
        return self._word

    def __str__(self) -> str:
        return self._word

    def __repr__(self) -> str:
        return f"CharacteristicString({self._word!r})"

    def __len__(self) -> int:
        return len(self._word)

    def __getitem__(self, index):
        return self._word[index]

    def __iter__(self):
        return iter(self._word)

    def __eq__(self, other) -> bool:
        if isinstance(other, CharacteristicString):
            return self._word == other._word
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._word)

    def __le__(self, other: "CharacteristicString") -> bool:
        return string_leq(self._word, other._word)

    def slot(self, index: int) -> str:
        """Symbol of slot ``index`` using the paper's 1-based indexing."""
        if not 1 <= index <= len(self._word):
            raise IndexError(f"slot {index} outside [1, {len(self._word)}]")
        return self._word[index - 1]

    def interval(self, start: int, stop: int) -> str:
        """Substring for the closed slot interval ``[start, stop]`` (1-based)."""
        if not 1 <= start <= stop <= len(self._word):
            raise IndexError(f"interval [{start}, {stop}] out of range")
        return self._word[start - 1 : stop]

    def counts(self) -> dict[str, int]:
        """Symbol counts, as :func:`count_symbols`."""
        return count_symbols(self._word)

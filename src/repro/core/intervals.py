"""Heavy intervals and the walk view of characteristic strings (Section 3.1).

For a characteristic string ``w`` of length ``T`` the paper studies closed
slot intervals ``I = [i, j] ⊆ [T]``:

* ``I`` is *hH-heavy* when ``#h(I) + #H(I) > #A(I)``;
* otherwise ``I`` is *A-heavy*.

A-heavy intervals are exactly the intervals over which an adversary can keep
a viable chain alive using only adversarial blocks (Fact 1), so all the
structural results reduce to questions about heavy intervals.  This module
provides O(1)-per-query interval counting via prefix sums.
"""

from __future__ import annotations

from repro.core.alphabet import ADVERSARIAL, EMPTY, prefix_sums


class IntervalOracle:
    """Precomputed prefix sums answering heavy-interval queries in O(1).

    Slots are 1-based as in the paper; intervals are closed ``[i, j]`` with
    ``1 ≤ i ≤ j ≤ T``.
    """

    __slots__ = ("word", "_sums")

    def __init__(self, word: str) -> None:
        self.word = word
        #: ``_sums[t] = #A(w[1..t]) − #honest(w[1..t])`` — the walk S_t.
        self._sums = prefix_sums(word)

    def __len__(self) -> int:
        return len(self.word)

    def walk(self, t: int) -> int:
        """The walk value ``S_t`` after slot ``t`` (``S_0 = 0``)."""
        return self._sums[t]

    def adversarial_minus_honest(self, start: int, stop: int) -> int:
        """``#A([start, stop]) − #h − #H`` for the closed interval."""
        self._check(start, stop)
        return self._sums[stop] - self._sums[start - 1]

    def is_hh_heavy(self, start: int, stop: int) -> bool:
        """True when honest slots strictly outnumber adversarial ones."""
        return self.adversarial_minus_honest(start, stop) < 0

    def is_a_heavy(self, start: int, stop: int) -> bool:
        """True when the interval is not hH-heavy."""
        return self.adversarial_minus_honest(start, stop) >= 0

    def honest_count(self, start: int, stop: int) -> int:
        """``#h(I) + #H(I)`` over the closed interval."""
        self._check(start, stop)
        total = stop - start + 1
        adversarial = self.adversarial_count(start, stop)
        empty = self.empty_count(start, stop)
        return total - adversarial - empty

    def adversarial_count(self, start: int, stop: int) -> int:
        """``#A(I)`` over the closed interval."""
        self._check(start, stop)
        return self.word.count(ADVERSARIAL, start - 1, stop)

    def empty_count(self, start: int, stop: int) -> int:
        """``#⊥(I)`` — nonzero only for semi-synchronous strings."""
        self._check(start, stop)
        return self.word.count(EMPTY, start - 1, stop)

    def _check(self, start: int, stop: int) -> None:
        if not 1 <= start <= stop <= len(self.word):
            raise IndexError(
                f"interval [{start}, {stop}] outside [1, {len(self.word)}]"
            )

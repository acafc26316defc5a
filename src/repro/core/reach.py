"""Gap, reserve, reach and maximum reach (Definitions 13, 14; Theorem 5).

For a *closed* fork ``F ⊢ w`` with longest tine ``t̂`` and a tine ``t``:

* ``gap(t) = length(t̂) − length(t)`` — how far behind ``t`` is;
* ``reserve(t)`` — the number of adversarial indices of ``w`` after
  ``ℓ(t)`` (blocks the adversary may still mint on top of ``t``);
* ``reach(t) = reserve(t) − gap(t)``.

A tine with non-negative reach can be padded with adversarial blocks into a
maximum-length — hence adoptable — chain; reach measures the adversary's
remaining budget on that tine.  ``ρ(F)`` is the maximum reach over tines
and ``ρ(w)`` its maximum over closed forks; Theorem 5 shows ``ρ(w)``
satisfies the reflected-walk recurrence implemented by :func:`rho` /
:func:`reach_sequence`.

Structural computations here take any fork and evaluate the definitions
directly; they are deliberately independent of the recurrence so the tests
can compare the two.
"""

from __future__ import annotations

from repro.core.alphabet import ADVERSARIAL, is_honest
from repro.core.forks import Fork, Vertex


def reserve(fork: Fork, vertex: Vertex) -> int:
    """``reserve(t)`` — adversarial indices of ``w`` strictly after ``ℓ(t)``."""
    return fork.word.count(ADVERSARIAL, vertex.label)


def gap(fork: Fork, vertex: Vertex) -> int:
    """``gap(t) = height(F) − length(t)`` (meaningful for closed forks)."""
    return fork.height - vertex.depth


def reach(fork: Fork, vertex: Vertex) -> int:
    """``reach(t) = reserve(t) − gap(t)`` (Definition 13)."""
    return reserve(fork, vertex) - gap(fork, vertex)


def max_reach(fork: Fork) -> int:
    """``ρ(F)`` — maximum reach over all tines of ``F`` (Definition 14)."""
    return max(reach(fork, v) for v in fork.vertices())


def rho(word: str) -> int:
    """``ρ(w)`` via the Theorem 5 recurrence.

    ``ρ(ε) = 0``; ``ρ(wA) = ρ(w) + 1``; for honest ``b``,
    ``ρ(wb) = max(ρ(w) − 1, 0)``.  This is the reflected ε-biased walk on
    the non-negative integers.
    """
    value = 0
    for symbol in word:
        if symbol == ADVERSARIAL:
            value += 1
        elif is_honest(symbol):
            value = max(value - 1, 0)
        else:
            raise ValueError(f"unexpected symbol {symbol!r} in reach recurrence")
    return value


def reach_sequence(word: str) -> list[int]:
    """``[ρ(ε), ρ(w_1), ρ(w_1 w_2), …]`` — all prefix reaches in O(n)."""
    values = [0]
    value = 0
    for symbol in word:
        if symbol == ADVERSARIAL:
            value += 1
        elif is_honest(symbol):
            value = max(value - 1, 0)
        else:
            raise ValueError(f"unexpected symbol {symbol!r} in reach recurrence")
        values.append(value)
    return values

"""Relative margin μ_x(y) and the Theorem 5 recurrence (Definitions 16, 17).

For a closed fork ``F ⊢ w`` with ``w = xy``, the *relative margin*

    ``μ_x(F) = max over tine pairs t1 ≁_x t2 of min(reach(t1), reach(t2))``

is the "second-best" reach among tines disjoint over the suffix ``y``; the
string quantity ``μ_x(y)`` maximises over closed forks.  Margin is the
paper's bridge between settlement and stochastics:

* ``μ_x(y) ≥ 0``  ⇔  an x-balanced fork for ``xy`` exists (Fact 6), i.e.
  slot ``|x| + 1`` can be left unsettled;
* slot ``s`` (uniquely honest) has the UVP in ``w``  ⇔  ``μ_x(y) < 0``
  for every split ``w = xy`` with ``|x| = s − 1`` and ``|y| ≥ 1``
  (Lemma 1).

Theorem 5 gives the exact joint recurrence on ``(ρ(xy), μ_x(y))``::

    μ_x(ε)  = ρ(x)
    μ_x(yA) = μ_x(y) + 1
    μ_x(yb) = 0          if ρ(xy) > μ_x(y) = 0
            = 0          if ρ(xy) = μ_x(y) = 0 and b = H
            = μ_x(y) − 1 otherwise                     (b ∈ {h, H})

This module implements both the structural definition (on explicit forks)
and the recurrence; the test-suite cross-validates them and the exact
settlement DP of :mod:`repro.analysis.exact` vectorises the same
recurrence.
"""

from __future__ import annotations

from repro.core.alphabet import ADVERSARIAL, HONEST_MULTI, is_honest
from repro.core.forks import Fork, lowest_common_ancestor
from repro.core.reach import reach, reach_sequence


def margin_of_fork(fork: Fork, prefix_length: int = 0) -> int:
    """``μ_x(F)`` computed directly from Definition 17.

    ``prefix_length`` is ``|x|``; tine pairs must be disjoint over the
    suffix ``y`` (their last common vertex is labelled ≤ ``|x|``).  A tine
    whose own label is ≤ ``|x|`` counts as disjoint with itself — exactly
    the convention the paper uses to make ``μ_x(ε) = ρ(x)``.

    Quadratic in the number of vertices; intended for moderate forks and
    for ground-truthing the recurrence.
    """
    vertices = fork.vertices()
    reaches = {v: reach(fork, v) for v in vertices}
    best: int | None = None
    for i, left in enumerate(vertices):
        for right in vertices[i:]:
            meet = lowest_common_ancestor(left, right)
            if left is right and left.label > prefix_length:
                continue
            if meet.label > prefix_length:
                continue
            candidate = min(reaches[left], reaches[right])
            if best is None or candidate > best:
                best = candidate
    if best is None:
        raise ValueError("fork has no disjoint tine pair (impossible: root)")
    return best


def margin(word: str) -> int:
    """``μ(w) = μ_ε(w)`` via the Theorem 5 recurrence."""
    return relative_margin(word, 0)


def relative_margin(word: str, prefix_length: int) -> int:
    """``μ_x(y)`` for ``x = word[:prefix_length]``, ``y`` the rest.

    Runs the Theorem 5 recurrence in O(|word|).
    """
    if not 0 <= prefix_length <= len(word):
        raise ValueError(
            f"prefix length {prefix_length} outside [0, {len(word)}]"
        )
    return margin_sequence(word, prefix_length)[-1]


def margin_sequence(word: str, prefix_length: int) -> list[int]:
    """``[μ_x(ε), μ_x(y_1), μ_x(y_1 y_2), …]`` along the suffix.

    Entry ``t`` is ``μ_x(y_1 … y_t)``; entry 0 is ``μ_x(ε) = ρ(x)``.
    Together with :func:`repro.core.reach.reach_sequence` this exposes the
    full joint trajectory used by Lemma 1 and the exact DP.
    """
    prefix = word[:prefix_length]
    suffix = word[prefix_length:]
    rho_prefix = reach_sequence(prefix)[-1]

    values = [rho_prefix]
    margin_value = rho_prefix
    rho_value = rho_prefix
    for symbol in suffix:
        margin_value = _margin_step(rho_value, margin_value, symbol)
        rho_value = _rho_step(rho_value, symbol)
        values.append(margin_value)
    return values


def _rho_step(rho_value: int, symbol: str) -> int:
    """One step of the reach recurrence (Theorem 5, Eq. (13))."""
    if symbol == ADVERSARIAL:
        return rho_value + 1
    if is_honest(symbol):
        return max(rho_value - 1, 0)
    raise ValueError(f"unexpected symbol {symbol!r}")


def _margin_step(rho_value: int, margin_value: int, symbol: str) -> int:
    """One step of the relative-margin recurrence (Theorem 5, Eq. (14)).

    ``rho_value`` is ``ρ(xy)`` *before* consuming ``symbol``.
    """
    if symbol == ADVERSARIAL:
        return margin_value + 1
    if not is_honest(symbol):
        raise ValueError(f"unexpected symbol {symbol!r}")
    if margin_value == 0 and rho_value > 0:
        return 0
    if margin_value == 0 and rho_value == 0 and symbol == HONEST_MULTI:
        return 0
    return margin_value - 1

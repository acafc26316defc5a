"""Reference definitions that only the tests read.

Each function here states a definition directly, so that the tests can
hold the library's faster forms to it; no library code calls them:

* :func:`dominating_strings` — the Definition 6 partial order, for the
  monotonicity checks;
* :func:`reflected_walk` — the reflected walk whose height is the
  maximum reach (Theorem 5);
* :func:`margin_step` — one step of the reach and relative-margin
  recurrences (Theorem 5), the scalar twin of the batched margin scan
  and of the exact DP's transitions;
* :func:`encode_word`, :func:`encode_words` and :func:`decode_matrix` —
  strings to and from the ``uint8`` code matrices of
  :mod:`repro.engine.kernels`, for comparing the batched kernels with
  the scalar string functions.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.alphabet import (
    ADVERSARIAL,
    HONEST_MULTI,
    HONEST_UNIQUE,
    walk_increments,
)
from repro.engine.kernels import CODE_EMPTY, SYMBOLS


def dominating_strings(word: str) -> Iterable[str]:
    """Yield every string ``w' ≥ word`` in the Definition 6 partial order.

    Exponential in the number of non-``A`` symbols, so short strings only.
    """
    if not word:
        yield ""
        return
    head, tail = word[0], word[1:]
    heads = {
        HONEST_UNIQUE: (HONEST_UNIQUE, HONEST_MULTI, ADVERSARIAL),
        HONEST_MULTI: (HONEST_MULTI, ADVERSARIAL),
        ADVERSARIAL: (ADVERSARIAL,),
    }[head]
    for rest in dominating_strings(tail):
        for symbol in heads:
            yield symbol + rest


def reflected_walk(word: str) -> list[int]:
    """``X_t = S_t − min_{i ≤ t} S_i`` — height above the running minimum.

    This is the ε-biased walk with a reflecting barrier used in the
    |x| ≥ 1 case of Bounds 1 and 2; ``X_{|x|}`` equals the maximum reach
    ρ(x) (Theorem 5 / [4, Lemma 6.1]).
    """
    heights = [0]
    total = 0
    minimum = 0
    for step in walk_increments(word):
        total += step
        minimum = min(minimum, total)
        heights.append(total - minimum)
    return heights


def margin_step(
    rho_value: int, margin_value: int, symbol: str
) -> tuple[int, int]:
    """``(ρ(xy), μ_x(y)) → (ρ(xyb), μ_x(yb))`` on the symbol ``b``.

    Eq. (13): ``A`` raises ρ by one, an honest symbol lowers it to no
    less than 0.  Eq. (14): ``A`` raises μ by one and an honest symbol
    lowers it, except that μ = 0 holds when ρ > 0, or on ``H``.
    """
    if symbol == ADVERSARIAL:
        return rho_value + 1, margin_value + 1
    if symbol not in (HONEST_UNIQUE, HONEST_MULTI):
        raise ValueError(f"unexpected symbol {symbol!r}")
    holds = margin_value == 0 and (rho_value > 0 or symbol == HONEST_MULTI)
    return max(rho_value - 1, 0), margin_value if holds else margin_value - 1


_ENCODE_TABLE = np.full(128, 255, dtype=np.uint8)
for _code, _char in enumerate(SYMBOLS):
    _ENCODE_TABLE[ord(_char)] = _code


def encode_word(word: str) -> np.ndarray:
    """Encode one characteristic string as a ``(T,)`` uint8 vector.

    Any character outside the four-symbol alphabet — unknown ASCII and
    non-ASCII alike — raises ``ValueError``; nothing ever maps through
    the 255 sentinel of the encode table into a kernel.
    """
    try:
        raw = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        bad = sorted(set(word) - set(SYMBOLS))
        raise ValueError(
            f"invalid symbols {bad!r} for alphabet {SYMBOLS!r}"
        ) from None
    codes = _ENCODE_TABLE[raw]
    if (codes == 255).any():
        bad = sorted(set(word) - set(SYMBOLS))
        raise ValueError(f"invalid symbols {bad!r} for alphabet {SYMBOLS!r}")
    return codes


def encode_words(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Encode a batch of strings into a padded ``(n, T)`` matrix.

    Rows shorter than the longest string are padded with ``CODE_EMPTY``
    (a no-op for every kernel); the returned ``lengths`` vector records
    each row's true length.
    """
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    width = int(lengths.max()) if len(words) else 0
    matrix = np.full((len(words), width), CODE_EMPTY, dtype=np.uint8)
    for i, word in enumerate(words):
        matrix[i, : lengths[i]] = encode_word(word)
    return matrix, lengths


def decode_matrix(
    symbols: np.ndarray, lengths: np.ndarray | None = None
) -> list[str]:
    """Decode a ``(n, T)`` code matrix back into strings.

    With ``lengths`` given, each row is truncated to its true length
    (inverse of :func:`encode_words`).
    """
    table = np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8)
    rows = table[symbols]
    out = []
    for i in range(symbols.shape[0]):
        row = rows[i] if lengths is None else rows[i, : lengths[i]]
        out.append(row.tobytes().decode("ascii"))
    return out

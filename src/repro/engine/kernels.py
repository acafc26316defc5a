"""Batched NumPy kernels for the Theorem 5 recurrences and their relatives.

Every probability in the paper reduces to running a small per-symbol
recurrence over characteristic strings: the reflected-walk reach
(Eq. (13)), the joint ``(ρ, μ)`` margin recurrence (Eq. (14)), the
Catalan-slot walk characterisation (Definition 11), and the ρ_Δ
reduction map (Definition 22).  The scalar reference implementations
live in :mod:`repro.core` and :mod:`repro.delta`; this module implements
the *same* transitions on ``(trials, T)`` symbol matrices so that Monte
Carlo throughput scales with array width instead of the Python
interpreter.  The scalar paths are retained as cross-validation oracles;
``tests/engine`` asserts exact agreement symbol-for-symbol.

Symbol encoding
---------------

Characteristic strings are encoded as ``uint8`` codes::

    h -> 0   (CODE_UNIQUE)      A -> 2   (CODE_ADVERSARIAL)
    H -> 1   (CODE_MULTI)       . -> 3   (CODE_EMPTY)

``CODE_EMPTY`` doubles as the padding value for ragged batches: an empty
slot is a no-op for the reach and margin recurrences and contributes a
zero step to the Section 5 walk, so trailing padding never changes a
row's trajectory (the scalar recurrences reject ``.`` outright; the
batched ones treat it as the identity transition, which is the unique
consistent extension).

Seed discipline
---------------

All samplers consume a ``numpy.random.Generator``.  Randomness is drawn
in documented *phases* (e.g. one ``(trials,)`` uniform block for initial
reaches, then one ``(trials, T)`` block for suffix symbols, row-major).
Scalar oracles that reproduce a batched estimator bit-for-bit must draw
the same blocks in the same order and map uniforms to symbols with the
same thresholds — see ``*_from_uniforms`` below, which make the mapping
explicit and deterministic given the uniform block.

The kernels use ``out=``/in-place forms where the result is
bit-identical (``BENCH_engine.json``'s ``backend.kernels`` records the
throughput).  The joint margin recurrence is one slot-major, in-place
scan in the narrowest of int8, int16, int32 and int64 that the state
can never leave, so narrowing never changes a value.  The settlement-DP
kernels at the bottom of this module update the band of a float64
(reach, margin) table in place for the exact-DP layer, stored by
diagonal r − m in a rescaled basis where both diagonal moves have
weight 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.alphabet import (
    ADVERSARIAL,
    EMPTY,
    HONEST_MULTI,
    HONEST_UNIQUE,
)
from repro.core.distributions import SlotProbabilities
from repro.core.walks import stationary_reach_ratio

#: uint8 code of each symbol (also the index into :data:`SYMBOLS`).
CODE_UNIQUE = 0
CODE_MULTI = 1
CODE_ADVERSARIAL = 2
CODE_EMPTY = 3

#: Decode table: ``SYMBOLS[code]`` is the character of that code.
SYMBOLS = HONEST_UNIQUE + HONEST_MULTI + ADVERSARIAL + EMPTY


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------


def symbol_thresholds(
    probabilities: SlotProbabilities,
) -> tuple[float, float, float]:
    """Cumulative thresholds ``(p_h, p_h+p_H, p_h+p_H+p_A)``.

    A uniform ``u`` maps to ``h`` when ``u < p_h``, to ``H`` when
    ``u < p_h + p_H``, to ``A`` when ``u < p_h + p_H + p_A`` and to ``⊥``
    otherwise — the exact chained-comparison discipline of the scalar
    :func:`repro.core.distributions.sample_characteristic_string`.
    """
    p_h, p_bigh, p_adv, _p_empty = probabilities.as_tuple()
    return p_h, p_h + p_bigh, p_h + p_bigh + p_adv


def symbols_from_uniforms(
    probabilities: SlotProbabilities, uniforms: np.ndarray
) -> np.ndarray:
    """Map a uniform array to i.i.d. symbol codes (shape-preserving).

    The code is the number of thresholds a uniform reaches; the three
    comparison masks are summed as uint8 views, with no cast.
    """
    t_h, t_bigh, t_adv = symbol_thresholds(probabilities)
    codes = (uniforms >= t_h).view(np.uint8)
    codes += (uniforms >= t_bigh).view(np.uint8)
    codes += (uniforms >= t_adv).view(np.uint8)
    return codes


def sample_characteristic_matrix(
    probabilities: SlotProbabilities,
    trials: int,
    length: int,
    generator: np.random.Generator,
) -> np.ndarray:
    """Draw ``(trials, length)`` i.i.d. symbol codes (one uniform block)."""
    return symbols_from_uniforms(
        probabilities, generator.random((trials, length))
    )


def martingale_from_uniforms(
    probabilities: SlotProbabilities,
    uniforms: np.ndarray,
    correlation: float,
) -> np.ndarray:
    """Correlated (martingale-damped) symbols from a ``(n, T)`` uniform block.

    Column ``t`` of the block decides slot ``t`` of every trial at once.
    This models the martingale-type guarantee of adaptive-adversary
    analyses (Ouroboros Praos): given any history, ``Pr[w_t = A] ≤ p_A``.
    After an adversarial slot the conditional adversarial probability is
    damped by ``correlation`` and the slack moved to uniquely honest
    slots, which only lowers every monotone event's probability, so the
    i.i.d. law stochastically dominates this one (Definition 6).
    """
    if not 0 <= correlation <= 1:
        raise ValueError("correlation must lie in [0, 1]")
    p_h, p_bigh, p_adv, _p_empty = probabilities.as_tuple()
    trials, length = uniforms.shape
    codes = np.empty((trials, length), dtype=np.uint8)
    previous_adversarial = np.zeros(trials, dtype=bool)
    for t in range(length):
        adv = np.where(previous_adversarial, p_adv * correlation, p_adv)
        slack = p_adv - adv
        t_h = p_h + slack
        t_bigh = t_h + p_bigh
        t_adv = t_bigh + adv
        u = uniforms[:, t]
        codes[:, t] = (
            (u >= t_h).astype(np.uint8) + (u >= t_bigh) + (u >= t_adv)
        )
        previous_adversarial = codes[:, t] == CODE_ADVERSARIAL
    return codes


def sample_martingale_matrix(
    probabilities: SlotProbabilities,
    trials: int,
    length: int,
    generator: np.random.Generator,
    correlation: float = 0.5,
) -> np.ndarray:
    """Draw ``(trials, length)`` martingale-damped symbol codes."""
    return martingale_from_uniforms(
        probabilities, generator.random((trials, length)), correlation
    )


def initial_reaches_from_uniforms(
    epsilon: float, uniforms: np.ndarray
) -> np.ndarray:
    """Map uniforms to X_∞ draws (Eq. (9)): ``Pr[X ≥ k] = β^k``.

    Inverse-CDF form of the scalar rejection loop ``sample_initial_reach``
    in ``tests/analysis/test_montecarlo.py``:
    ``X = ⌊log u / log β⌋`` satisfies ``Pr[X ≥ k] = Pr[u < β^k] = β^k``.
    The division stays a division: multiplying by ``1 / log β`` is not
    bit-identical.
    """
    beta = stationary_reach_ratio(epsilon)
    reaches = np.maximum(uniforms, np.finfo(float).tiny)
    np.log(reaches, out=reaches)
    reaches /= np.log(beta)
    np.floor(reaches, out=reaches)
    return reaches.astype(np.int64)


def sample_initial_reaches(
    epsilon: float, trials: int, generator: np.random.Generator
) -> np.ndarray:
    """Draw ``(trials,)`` initial reaches from the X_∞ law of Eq. (9)."""
    return initial_reaches_from_uniforms(epsilon, generator.random(trials))


# ----------------------------------------------------------------------
# Reach: the reflected walk (Theorem 5, Eq. (13))
# ----------------------------------------------------------------------


def prefix_sum_matrix(symbols: np.ndarray) -> np.ndarray:
    """``(n, T+1)`` prefix sums ``S_0 = 0, …, S_T`` of the walk.

    The walk steps are written straight into the output buffer's
    ``[:, 1:]`` view and accumulated there in place — no separate step
    matrix is ever materialized.
    """
    trials = symbols.shape[0]
    sums = np.zeros((trials, symbols.shape[1] + 1), dtype=np.int64)
    body = sums[:, 1:]
    body += symbols == CODE_ADVERSARIAL
    body -= symbols < CODE_ADVERSARIAL
    np.cumsum(body, axis=1, out=body)
    return sums


# ----------------------------------------------------------------------
# The joint (reach, margin) recurrence (Theorem 5, Eq. (14))
# ----------------------------------------------------------------------
#
# One slot-major scan runs the recurrence for every caller.  The codes
# are transposed once, so slot t is one contiguous row of every trial,
# and decoded once into the walk step (+1 for A, −1 honest, 0 for ⊥) and
# a hold threshold (0 for h, −1 for H, the state type's maximum for A
# and ⊥).  The state is one (2, n) array, row 0 ρ and row 1 μ, in
# the narrowest integer type that cannot wrap (int8 on the Table 1
# grid).  Each slot then updates it in place with preallocated boolean
# scratch:
#
#     hold = (ρ > threshold) & (μ == 0)     read before the step
#     (ρ, μ) += step;  ρ = max(ρ, 0);  μ += hold
#
# which is Theorem 5's case split: A raises both, an honest slot
# lowers both, except that μ = 0 holds when ρ > 0, or ρ ≥ 0 on H.
# Six ufunc calls per slot, all same-type on an int8 state: a scalar
# operand or a bool added to an integer array sends NumPy down a slower
# casting loop.

#: Limits of the scan state's integer types, narrowest first.
_STATE_LIMITS = tuple(
    np.iinfo(dtype) for dtype in (np.int8, np.int16, np.int32, np.int64)
)


def _working_state(rho: np.ndarray, mu: np.ndarray, length: int) -> np.ndarray:
    """A fresh ``(2, n)`` copy of ``(ρ, μ)`` in the narrowest safe type.

    Each slot moves ρ and μ by at most one, so a type can never wrap
    while ``max |state| + length`` fits it.  The scan takes the first of
    int8, int16 and int32 that holds that bound, else int64: int8 for
    the Table 1 grid, int16 once a row is longer than ~127 slots, and
    int64 only for a stationary initial reach beyond the int32 range
    (ε < ~1.6e-7, α just below ½).
    """
    bound = length
    if rho.size:
        bound += max(
            int(rho.max()), -int(rho.min()), int(mu.max()), -int(mu.min())
        )
    limits = next(
        (info for info in _STATE_LIMITS if bound <= info.max),
        _STATE_LIMITS[-1],
    )
    state = np.empty((2, rho.size), dtype=limits.dtype)
    state[0] = rho
    state[1] = mu
    return state


def _decode_slots(codes: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Walk steps and hold thresholds of some codes, both in ``dtype``.

    Both are built from int8 views of the comparison masks, so the
    common int8 scan decodes with no cast at all.
    """
    steps = (codes == CODE_ADVERSARIAL).view(np.int8)
    steps -= (codes < CODE_ADVERSARIAL).view(np.int8)  # codes h = 0, H = 1
    thresholds = np.multiply(
        (codes > CODE_MULTI).view(np.int8), np.iinfo(dtype).max, dtype=dtype
    )
    thresholds -= (codes == CODE_MULTI).view(np.int8)
    return steps.astype(dtype, copy=False), thresholds


def _margin_scan(
    symbols: np.ndarray,
    rho: np.ndarray,
    mu: np.ndarray,
    prefix_lengths: np.ndarray | int,
    record: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Run Eq. (14) over every column of ``symbols`` from ``(ρ, μ)``.

    Returns the final ``(ρ, μ)`` as int64 and, with ``record``, the
    slot-major ``(T+1, n)`` margins (row 0 the state passed in).  While
    column ``t`` is inside a row's prefix (``t < prefix_lengths``) its
    margin tracks the reach.  The inputs are not modified.
    """
    trials, length = symbols.shape
    starts = np.asarray(prefix_lengths, dtype=np.int64)
    prefix_end = int(starts.max(initial=0))
    state = _working_state(rho, mu, length)
    rho, mu = state
    steps, thresholds = _decode_slots(symbols.T.copy(), state.dtype)
    zeros = np.zeros(trials, dtype=state.dtype)
    hold = np.empty(trials, dtype=bool)
    scratch = np.empty(trials, dtype=bool)
    increment = hold.view(np.int8)
    margins = None
    if record:
        margins = np.empty((length + 1, trials), dtype=state.dtype)
        margins[0] = mu
    for t in range(length):
        np.greater(rho, thresholds[t], out=hold)
        np.equal(mu, zeros, out=scratch)
        hold &= scratch
        state += steps[t]
        np.maximum(rho, zeros, out=rho)
        mu += increment
        if t < prefix_end:
            np.less(t, starts, out=scratch)
            np.copyto(mu, rho, where=scratch)
        if record:
            margins[t + 1] = mu
    return rho.astype(np.int64), mu.astype(np.int64), margins


def _initial_state(
    trials: int, initial_reaches: np.ndarray | None
) -> np.ndarray:
    """ρ before the first symbol (zero unless the X_∞ model seeds it)."""
    if initial_reaches is None:
        return np.zeros(trials, dtype=np.int64)
    return np.asarray(initial_reaches)


def joint_final_states(
    symbols: np.ndarray,
    prefix_lengths: np.ndarray | int = 0,
    initial_reaches: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Final ``(ρ(xy), μ_x(y))`` of every row without storing trajectories.

    ``prefix_lengths`` gives ``|x|`` per row (or one int for all): while a
    row is still inside its prefix the margin simply tracks the reach
    (``μ_x(ε) = ρ(x)``), after which the Theorem 5 margin transition takes
    over.  ``initial_reaches`` seeds ``ρ`` before the first symbol (the
    X_∞ model of Table 1); it defaults to zero.

    One slot-major pass updates the state in place, in the narrowest
    integer type it cannot wrap (int8 on the Table 1 grid, int64 for a
    huge initial reach); the values returned are int64 either way.
    """
    initial = _initial_state(symbols.shape[0], initial_reaches)
    rho, mu, _ = _margin_scan(
        symbols, initial, initial, prefix_lengths, False
    )
    return rho, mu


def margin_trajectories(
    symbols: np.ndarray,
    prefix_lengths: np.ndarray | int = 0,
    initial_reaches: np.ndarray | None = None,
) -> np.ndarray:
    """``(n, T+1)`` int64 margin values along every row.

    Column ``t`` holds ``μ_x(y_1 … y_{t−|x|})`` once ``t ≥ |x|`` and the
    running reach ``ρ(w_1 … w_t)`` while still inside the prefix (so that
    column ``|x|`` is ``μ_x(ε) = ρ(x)``, matching
    :func:`repro.core.margin.margin_sequence` entry 0).  The same scan as
    :func:`joint_final_states` (and the same type ladder), recording
    each slot's margins slot-major and transposing once at the end.
    """
    initial = _initial_state(symbols.shape[0], initial_reaches)
    _rho, _mu, margins = _margin_scan(
        symbols, initial, initial, prefix_lengths, True
    )
    return np.ascontiguousarray(margins.T, dtype=np.int64)


# ----------------------------------------------------------------------
# Catalan slots (Definition 11, walk characterisation)
# ----------------------------------------------------------------------


def catalan_slot_mask(symbols: np.ndarray) -> np.ndarray:
    """Boolean ``(n, T)`` mask: column ``s−1`` marks slot ``s`` Catalan.

    Vector form of :func:`repro.core.catalan.catalan_slots`: a strict new
    walk minimum at ``s`` (left-Catalan) whose level is never revisited
    (right-Catalan).  Padding rows with ``⊥`` is harmless — the walk is
    flat there and ``⊥`` is never honest.
    """
    sums = prefix_sum_matrix(symbols)
    prefix_min = np.minimum.accumulate(sums, axis=1)
    suffix_max = np.maximum.accumulate(sums[:, ::-1], axis=1)[:, ::-1]
    honest = symbols < CODE_ADVERSARIAL  # codes h = 0, H = 1
    new_minimum = sums[:, 1:] < prefix_min[:, :-1]
    never_returns = suffix_max[:, 1:] < sums[:, :-1]
    return honest & new_minimum & never_returns


def uniquely_honest_catalan_mask(symbols: np.ndarray) -> np.ndarray:
    """Columns of uniquely honest Catalan slots (the UVP slots of Thm 3)."""
    return catalan_slot_mask(symbols) & (symbols == CODE_UNIQUE)


def consecutive_catalan_mask(symbols: np.ndarray) -> np.ndarray:
    """``(n, T−1)`` mask: column ``s−1`` marks both ``s``, ``s+1`` Catalan."""
    mask = catalan_slot_mask(symbols)
    return mask[:, :-1] & mask[:, 1:]


# ----------------------------------------------------------------------
# The ρ_Δ reduction map (Definition 22)
# ----------------------------------------------------------------------


def reduce_matrix(
    symbols: np.ndarray,
    delta: int,
    lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ρ_Δ: reduce every row of a semi-synchronous symbol matrix.

    Returns ``(reduced, reduced_lengths)`` where ``reduced`` is padded
    with :data:`CODE_EMPTY` to the input width.  Matches
    :func:`repro.delta.reduction.reduce_string` row-for-row under its
    default empty-run rule, the only one implemented here (see that
    module's erratum note): an honest symbol is kept iff it is followed
    — *within its row's true length* — by Δ empty slots, otherwise it is
    relabelled adversarial; empty slots are deleted and the survivors
    compacted to the left.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    trials, width = symbols.shape
    if lengths is None:
        lengths = np.full(trials, width, dtype=np.int64)

    columns = np.arange(width)
    valid = columns[None, :] < lengths[:, None]

    # Window check: positions j+1 … j+Δ must all be empty and lie inside
    # the row (j + Δ < length).  Prefix sums of the empty mask give every
    # window count in one subtraction.
    empty = symbols == CODE_EMPTY
    counts = np.zeros((trials, width + 1), dtype=np.int64)
    body = counts[:, 1:]
    body += empty & valid
    np.cumsum(body, axis=1, out=body)
    hi = np.minimum(columns[None, :] + 1 + delta, width)
    window = np.take_along_axis(
        counts, np.broadcast_to(hi, (trials, width)), axis=1
    ) - counts[:, 1:]
    quiet = (window == delta) & (columns[None, :] + delta < lengths[:, None])

    honest = symbols < CODE_ADVERSARIAL  # codes h = 0, H = 1
    relabeled = np.where(
        honest & ~quiet, np.uint8(CODE_ADVERSARIAL), symbols
    )

    keep = valid & (symbols != CODE_EMPTY)
    reduced_lengths = keep.sum(axis=1)
    positions = np.cumsum(keep, axis=1) - 1
    reduced = np.full((trials, width), CODE_EMPTY, dtype=np.uint8)
    rows = np.nonzero(keep)[0]
    reduced[rows, positions[keep]] = relabeled[keep]
    return reduced, reduced_lengths


def reduced_slot_columns(
    symbols: np.ndarray, target_slot: int, lengths: np.ndarray | None = None
) -> np.ndarray:
    """Per-row 0-based column of ``π(target_slot)`` in the reduced matrix.

    ``π`` is the increasing bijection of
    :func:`repro.delta.reduction.slot_bijection`: the image of a
    non-empty source slot is its rank among non-empty slots.  Rows whose
    target slot is empty (no image — vacuously settled in Definition 23)
    or out of range get the sentinel ``−1``.
    """
    trials, width = symbols.shape
    if not 1 <= target_slot <= width:
        raise ValueError(f"slot {target_slot} outside [1, {width}]")
    if lengths is None:
        lengths = np.full(trials, width, dtype=np.int64)
    non_empty = symbols[:, :target_slot] != CODE_EMPTY
    rank = non_empty.sum(axis=1) - 1
    has_image = non_empty[:, -1] & (target_slot <= lengths)
    return np.where(has_image, rank, -1)


# ----------------------------------------------------------------------
# The Section 6.6 settlement DP: band kernels driven by
# repro.analysis.exact (which proves the band exact and owns the sweep)
# ----------------------------------------------------------------------
#
# The sweep stores the (reach, margin) law P_t in a rescaled basis,
#
#     P_t[r, m] = σ_t · θ^r · g_t[r, m],   θ = √(p_A / p_hon),
#     σ_{t+1} = σ_t · c,                   c = √(p_A · p_hon),
#
# a diagonal similarity transform of the transition matrix.  An interior
# cell receives p_A·P[r−1, m−1] + p_hon·P[r+1, m+1]; in g both weights
# are exactly 1 (p_A / (c·θ) = p_hon·θ / c = 1), so one step of the
# interior is one add.  Only the boundary moves keep a coefficient:
# reach 0's honest self-move (1/θ), the corner (p_h/c and p_H/c) and the
# merged top row (θ^(r − top + 1)).  Every coefficient is positive, so
# every cell stays a sum of non-negative terms and no step subtracts.
# The scalar σ lives in the sweep; a read-out weights reach r by σ·θ^r
# from SettlementBasis.powers, through SettlementReadout.  For
# p_A < p_hon, σ·θ^r ≤ 1, so |g| ≥ |P| and no cell underflows where P
# would not; once σ < 1e-100 the sweep folds it into the band
# (settlement_fold) and restarts it at 1, which keeps g ≤ 1e100.  The
# analysis.exact module docstring proves these bounds.
#
# A DP of horizon k_max lives in two ping-pong buffers from
# settlement_buffers(), stored by diagonal: row d holds d = r − m and
# column r + 1 holds reach r, so cell (r, m) is buffer [r − m, r + 1].
# Column 0 is reach −1, always zero, so the adversarial move into reach
# 0 reads zeros and needs no special case.  Both interior moves keep d,
# so the interior step is g'[d, r] = g[d, r − 1] + g[d, r + 1]: one
# 1-D add over the contiguous flat span of rows [0, D], gap columns
# included.  After step t, with s steps left, the live band is rows
# d ∈ [0, min(t, 2s)] × reaches [0, s]; reach s is the merged top row
# (every reach ≥ s).  Columns past the top are zero: each step zeroes
# the two columns that leave the band, so the flat add writes zeros
# there.  Only column 0 is spoiled, since a row's last cell and the next
# row's reach 0 sum into it, and the step re-zeroes it right after the
# add.  As s falls, settlement_repack() narrows both buffers to row
# width s + 3 whenever their width exceeds 1.25× that, down to 32
# columns (11 times in a k_max = 500 sweep), so the add spans at most
# ~1.25× the live reaches, or 32 columns.
# Rows past the band's depth are stale only once the depth shrinks
# (t > 2·k_max/3), and no step reads them: every read is in a row the
# previous step wrote, or in one never written, which is zero.
# Step t reads the band of ``src`` and writes rows [0, D] × reaches
# [0, s − 1] of ``dst`` (s steps left before it, D = min(t, 2(s − 1))):
# the adversarial step first (it overwrites), then the honest step (it
# adds, and consumes ``src``).  In the array, the margin −1 cells are
# the diagonal [i, i] and the margin 0 cells the diagonal [i, i + 1]
# above it.  The decided top cell (d = 0, r = s) leaves the band as it
# is counted, so a read-out is the dot of the contiguous rows
# [0, min(D, s)] with the weights θ^r·[r ≥ d] (SettlementReadout): one
# matrix per sweep, whose left columns serve every narrower width.  A
# trailing axis of laws (a stack of sweeps sharing k_max) would keep the
# interior one flat add, with every flat offset scaled by the number of
# laws.


class SettlementBasis(NamedTuple):
    """Constants of the rescaled basis for one law and horizon."""

    #: c = √(p_A·p_hon): the factor σ gains per step.
    step_scale: float
    #: θ^r for r = 0..k_max: the reach weights of a read-out.
    powers: np.ndarray
    #: 1/θ: reach 0's honest self-move (r, m) = (0, m) → (0, m − 1).
    self_move: float
    #: p_h/c and p_H/c: the corner (0, 0) → (0, −1) and → (0, 0).
    corner_unique: float
    corner_multi: float
    #: (θ, θ²): reaches top and top + 1 merging into the top row.
    merge: np.ndarray


#: Largest row weight θ^k_max an adversarial-majority law (θ > 1) may
#: need.  A cell of P below 2.2e-308·θ^k_max ≤ 1e-27 may underflow in g;
#: with at most ~k_max² such cells the loss stays far below an ulp of
#: the read-out, which is at least 1/2 when p_A > p_hon.
MAX_ROW_WEIGHT = 1e280


def settlement_basis(
    probabilities: SlotProbabilities, k_max: int
) -> SettlementBasis:
    """The rescaled basis of a law with both adversarial and honest slots.

    Raises ``ValueError`` when θ > 1 and θ^k_max exceeds
    :data:`MAX_ROW_WEIGHT`: the rows of the band would then span more
    than the float range.
    """
    root_adv = math.sqrt(probabilities.p_adversarial)
    root_hon = math.sqrt(probabilities.p_honest)
    theta = root_adv / root_hon
    # θ² is also the weight of reach s merging into the top row.
    if theta > 1 and max(k_max, 2) * math.log(theta) > math.log(MAX_ROW_WEIGHT):
        raise ValueError(
            f"θ = √(p_A/p_hon) = {theta:.6g} to k = {k_max}: row weights "
            f"θ^k exceed {MAX_ROW_WEIGHT:g}; use a shorter horizon"
        )
    step_scale = root_adv * root_hon
    return SettlementBasis(
        step_scale=step_scale,
        powers=theta ** np.arange(k_max + 1, dtype=float),
        self_move=root_hon / root_adv,
        corner_unique=probabilities.p_unique / step_scale,
        corner_multi=probabilities.p_multi / step_scale,
        merge=np.array([theta, theta * theta]),
    )


def settlement_buffers(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Two zeroed ``(2·k_max // 3 + 3, k_max + 2)`` band buffers.

    Rows are diagonals d = r − m, columns reaches [−1, k_max].  The band
    after step t reaches row min(t, 2(k_max − t)), at most 2·k_max // 3,
    and a step reads two rows past its output (the merged top row).
    :func:`settlement_repack` narrows them as the band narrows.
    """
    shape = (2 * k_max // 3 + 3, k_max + 2)
    return np.zeros(shape), np.zeros(shape)


def settlement_initial_band(
    probabilities: SlotProbabilities,
    prefix_length: int | None,
    grid: np.ndarray,
    powers: np.ndarray,
) -> float:
    """Write the law of ``(ρ(x), μ_x(ε)) = (r₀, r₀)`` into a fresh
    :func:`settlement_buffers` buffer, in the basis σ = 1: row d = 0,
    column r₀ + 1 holds ``Pr[ρ(x) = r₀] / θ^r₀``.

    Returns the decided mass ``Pr[r₀ ≥ k_max]``: such a start keeps
    ``m ≥ r₀ − t ≥ 0`` at every checkpoint.  ``prefix_length=None`` uses
    the X_∞ geometric law; an integer uses the exact reach law of an
    i.i.d. prefix of that length.
    """
    k_max = grid.shape[1] - 2
    if prefix_length is None:
        beta = stationary_reach_ratio(probabilities.epsilon)
        reach = (1.0 - beta) * beta ** np.arange(k_max)
        decided = beta**k_max
    else:
        pmf = prefix_reach_pmf(probabilities, prefix_length, k_max)
        reach, decided = pmf[:k_max], pmf[k_max]
    # Pr[ρ = r] ≤ θ^(2r) wherever θ ≤ 1, so a reach with mass never has
    # an underflowed weight; empty reaches stay 0 (no 0/0).
    weights = powers[:k_max]
    np.divide(reach, weights, out=grid[0, 1 : k_max + 1], where=reach > 0)
    return float(decided)


def prefix_reach_pmf(
    probabilities: SlotProbabilities, length: int, cap: int
) -> np.ndarray:
    """Law of ρ(x) for an i.i.d. prefix of given length, cut at ``cap``.

    ``pmf[r] = Pr[ρ(x) = r]`` for ``r < cap`` and ``pmf[cap] = Pr[ρ(x) ≥
    cap]``.  The reach recurrence is a reflected walk: +1 on ``A``
    (probability p_A), max(·−1, 0) on honest symbols.  It moves by one per
    slot, so with u slots left a reach ≥ cap + u ends ≥ cap; that mass
    moves to the top cell as it arises.  The walk itself is never
    saturated, so every cell is exact; the price is work quadratic in
    ``length`` once it exceeds ``cap``.
    """
    p_adv = probabilities.p_adversarial
    p_honest = probabilities.p_honest
    live = np.ones(1)
    above = 0.0
    for left in range(length - 1, -1, -1):  # slots left after this one
        nxt = np.zeros(live.size + 1)
        nxt[1:] += p_adv * live
        nxt[:-2] += p_honest * live[1:]
        nxt[0] += p_honest * live[0]
        keep = cap + left
        if nxt.size > keep:
            above += float(nxt[keep:].sum())
            nxt = nxt[:keep]
        live = nxt
    pmf = np.zeros(cap + 1)
    pmf[: min(live.size, cap)] = live[:cap]
    pmf[cap] = above + float(live[cap:].sum())
    return pmf


#: settlement_repack narrows the band buffers to no fewer columns: below
#: this a repack costs more than the cells it saves the steps that
#: follow it (measured on sweeps to k = 10–200).
MIN_REPACK_WIDTH = 32


def settlement_repack(
    src: np.ndarray, dst: np.ndarray, steps_left: int
) -> tuple[np.ndarray, np.ndarray]:
    """The two band buffers for the next step (s = ``steps_left`` before
    it), narrowed to row width s + 3 once their width exceeds 1.25× that
    and s + 3 is at least :data:`MIN_REPACK_WIDTH`.

    A step reads reaches up to s and writes up to s + 1, and in the
    band's rows every column past the top is zero, so narrowing drops
    only zeros there (and stale cells of deeper rows, which no step
    reads); it also drops the rows past 2s, which no step reads again.
    Nothing is allocated: ``src`` is copied into the memory of ``dst``,
    and ``dst``, whose cells a step writes before it reads them,
    restarts zeroed in the memory of ``src``.
    """
    width = steps_left + 3
    if 4 * src.shape[1] <= 5 * width or width < MIN_REPACK_WIDTH:
        return src, dst
    shape = (min(src.shape[0], 2 * steps_left + 1), width)
    size = shape[0] * width
    packed = dst.reshape(-1)[:size].reshape(shape)
    packed[...] = src[: shape[0], :width]
    cleared = src.reshape(-1)[:size].reshape(shape)
    cleared.fill(0.0)
    return packed, cleared


def settlement_adversarial_step(
    src: np.ndarray,
    dst: np.ndarray,
    steps_left: int,
    depth: int,
    basis: SettlementBasis,
) -> None:
    """The moves that keep d = r − m; overwrites every output cell of
    ``dst``.

    Writes rows [0, D] × reaches [0, s − 1] (s = ``steps_left`` before
    the step, D = ``depth``, the deepest live diagonal after it).  Each
    cell gets ``A``, (r, m) → (r+1, m+1), and the honest move (r, m) →
    (r−1, m−1) from reach r + 1, both with weight 1 and both along row
    d: one 1-D add over the flat span of rows [0, D].  It writes zeros
    past the top, and into column 0 the next row's reach 0, so column 0
    is re-zeroed.  Two kinds of cell then get ``A`` only: margin −1 (the
    array diagonal [i, i]), whose honest source is margin 0, whose moves
    the honest step places; and the top cell (d = 0, r = s − 1), whose
    honest source has margin s, already decided.  The top column adds
    the reaches that merge into it, with weights (θ, θ²), from rows
    d + 1 and d + 2.  Last, the two columns that leave the band are
    zeroed.
    """
    s, bottom = steps_left, depth + 1
    width = src.shape[1]
    diagonal = width + 1  # flat stride along the array diagonal
    flat_src, flat_dst = src.reshape(-1), dst.reshape(-1)
    span = depth * width + s  # up to row D, reach s − 1
    np.add(flat_src[:span], flat_src[2 : span + 2], out=flat_dst[1 : span + 1])
    dst[1:bottom, 0] = 0.0
    # Margin −1 cells [i, i], i = 1..min(D, s), take A only: src[i, i − 1].
    last = min(depth, s) * diagonal
    flat_dst[diagonal : last + 1 : diagonal] = flat_src[width:last:diagonal]
    dst[0, s] = src[0, s - 1]
    # Row d: src[d + 1, s] (reach s − 1) and src[d + 2, s + 1] (reach s).
    merging = np.ndarray(
        (bottom, 2),
        buffer=src,
        offset=(width + s) * src.itemsize,
        strides=(width * src.itemsize, diagonal * src.itemsize),
    )
    top = dst[:bottom, s]
    top += merging @ basis.merge
    dst[:bottom, s + 1 : s + 3] = 0.0


def settlement_honest_step(
    src: np.ndarray,
    dst: np.ndarray,
    steps_left: int,
    depth: int,
    basis: SettlementBasis,
) -> None:
    """The honest moves that change d = r − m (Theorem 5, Eq. (14));
    adds into ``dst`` and scales ``src``'s reach-0 column in place.

    At m = 0 with r > 0 the margin stays 0 for both symbols, so d falls
    by one: the margin 0 cells [d, d + 1] of reaches [0, s − 1] take
    src[d + 1, d + 2].  Reach 0 holds no margin above 0 (m ≤ r); its
    m < 0 cells move within reach 0 with weight 1/θ, so d rises by one:
    rows [2, D] of column r = 0 take rows [1, D − 1].  The corner
    (0, 0) goes to (0, −1) on ``h`` and stays on ``H``.
    """
    s = steps_left
    diagonal = src.shape[1] + 1
    # Margin 0 cells [i, i + 1], i = 0..min(D, s − 1), add src[i + 1, i + 2].
    last = min(depth, s - 1) * diagonal + 1
    hold = dst.reshape(-1)[1 : last + 1 : diagonal]
    hold += src.reshape(-1)[diagonal + 1 : last + diagonal + 1 : diagonal]
    corner = src[0, 1]
    moving = src[1:depth, 1]
    moving *= basis.self_move
    reach_zero = dst[2 : depth + 1, 1]
    reach_zero += moving
    dst[1, 1] += basis.corner_unique * corner
    dst[0, 1] += basis.corner_multi * corner


def settlement_decided_mass(
    src: np.ndarray, dst: np.ndarray, steps_left: int, basis: SettlementBasis
) -> float:
    """Mass (in units of σ) a step pushed to ``m ≥ s`` (s = ``steps_left``,
    after it), moved out of the band.

    Such states violate at every remaining checkpoint.  Only the merged
    top row holds any (m ≤ r elsewhere), and one step reaches at most
    margin s + 1: the top cell (d = 0) of ``dst``, which is zeroed here,
    and its d = −1 cell, which the layout does not store, so it is taken
    from its merge terms in ``src``.  No step reads the top cell's value
    again: its only move that stays in the band, the honest one, lands
    on a cell the next step overwrites.
    """
    s = steps_left
    theta, theta_squared = basis.merge
    above = theta * src[0, s + 1] + theta_squared * src[1, s + 2]
    top = dst[0, s + 1]
    dst[0, s + 1] = 0.0
    return float(basis.powers[s] * (top + above))


class SettlementReadout:
    """The read-out weights θ^r·[r ≥ d] of one sweep: row d, column r + 1,
    and column 0 (reach −1) weighs 0, as in the band buffers.  A weight
    does not depend on the row width, so one matrix of the buffers'
    first ``shape`` serves every narrower band through its left columns.
    Rows are built as read-outs first need them, at least doubling the
    count built, so a sweep with few checkpoints touches few of them."""

    def __init__(self, powers: np.ndarray, shape: tuple[int, int]) -> None:
        self.powers = powers
        self.matrix = np.empty(shape)
        self.built = 0

    def weights(self, grid: np.ndarray, rows: int) -> np.ndarray:
        """The weights of the first ``rows`` rows of ``grid``."""
        if rows > self.built:
            start = self.built
            stop = min(self.matrix.shape[0], max(rows, 2 * start))
            width = self.matrix.shape[1]
            row = np.concatenate(([0.0], self.powers[: width - 1]))
            # Row d keeps the columns c > d, i.e. reaches r ≥ d.
            above = np.arange(width) > np.arange(start, stop)[:, None]
            np.multiply(above, row, out=self.matrix[start:stop])
            self.built = stop
        return self.matrix[:rows, : grid.shape[1]]


def settlement_violation_mass(
    grid: np.ndarray, steps_left: int, depth: int, readout: SettlementReadout
) -> float:
    """Band mass (in units of σ) at ``m ≥ 0``; add the decided mass for
    ``Pr[m ≥ 0]``.

    Row d holds margin m ≥ 0 at reaches r ≥ d, the cells past the top
    reach s are zero, and the decided top cell has left the band, so the
    mass is the dot of rows [0, min(D, s)], a contiguous block, with the
    weights θ^r·[r ≥ d]: a sum of non-negative products.  It is taken as
    one dot per row (a stacked ``matmul``), then summed across rows.  A
    row holds at most k_max + 2 terms, so each dot runs in this thread:
    one BLAS dot over the whole block, past 10⁴ terms, may wake BLAS
    worker threads, which cost milliseconds per call on a 2-vCPU host.
    """
    rows = min(depth, steps_left) + 1
    weights = readout.weights(grid, rows)
    return float((grid[:rows, None, :] @ weights[:, :, None]).sum())


def settlement_fold(grid: np.ndarray, depth: int, scale: float) -> None:
    """Multiply the band (deepest diagonal ``depth``) by ``scale``, so the
    sweep's σ can restart at 1: one flat multiply of rows [0, D], whose
    cells past the top are zero."""
    grid.reshape(-1)[: (depth + 1) * grid.shape[1]] *= scale

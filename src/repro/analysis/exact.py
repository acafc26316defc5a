"""Exact k-settlement violation probabilities (the Section 6.6 algorithm).

The paper's Theorem 5 recurrence makes the pair

    state_t = ( ρ(x y_1…y_t),  μ_x(y_1…y_t) )

a Markov chain over ``{(r, m) : r ≥ 0, m ≤ r}`` when the symbols of ``y``
are i.i.d.; the probability that slot ``|x| + 1`` incurs a k-settlement
violation is ``Pr[μ_x(y) ≥ 0]`` at ``|y| = k`` (Fact 6 / Lemma 1).  The
initial state is ``(ρ(x), ρ(x))``; for ``|x| → ∞`` the reach ``ρ(x)`` is
distributed as the dominating geometric law X_∞ of Eq. (9).  Table 1 of
the paper tabulates these probabilities; this module regenerates them.

The band of live states
-----------------------

One forward sweep to ``k_max = max(checkpoints)`` reads out every
checkpoint.  It never stores the whole (reach, margin) plane, only the
band of states that can still change a read-out.  Five facts about
characteristic strings (Theorem 5; cf. "Linear Consistency for
Proof-of-Stake Blockchains", Blum et al.) make the band exact.  Reach
and margin each move by at most one per slot.  The margin starts at
``ρ(x) ≥ 0``.  The margin transition reads the reach only through the
predicate ``r = 0``.  ``m ≤ r`` always holds: it holds at the start
(``m = r``), ``A`` raises both by one, an honest symbol lowers ``m`` by
one and ``r`` by at most one, and where ``m = 0`` stays put, ``r ≥ 0``
is all that is needed.  So reach 0 holds no positive margin, which the
honest step uses.  And the diagonal ``d = r − m`` rises by at most one
per step, so ``d ≤ t`` after step t: it starts at 0, ``A`` keeps it, an
honest symbol keeps it at ``r > 0`` and lowers it by one where ``m = 0``
stays put, and only an honest move within reach 0 raises it, by one.

With t steps done and ``s = k_max − t`` steps left:

* **decided** — a state with ``m ≥ s`` keeps ``m ≥ 0`` at every
  remaining checkpoint, so its mass moves into one ``decided`` scalar;
* **dropped** — a state with ``m < −s`` can never climb back to 0, so
  its mass leaves the sweep;
* **merged top row** — a reach ``r ≥ s`` stays positive for the
  remaining steps, so every such row acts like one row ``s``.  Storing
  ``min(r, s)`` only lowers d;
* **strip** — ``0 ≤ d ≤ t``, and a live state has ``r ≤ s`` and
  ``m ≥ −s``, so ``d ≤ 2s``: the band is the diagonals
  ``[0, min(t, 2s)]`` of reaches ``[0, s]``.  Its cells with ``m < −s``
  hold dropped mass, which stays dropped and is never read;
* **read-out** — a checkpoint's value is ``decided`` plus the band's
  mass at ``m ≥ 0``, i.e. at ``d ≤ r``;
* **start** — an initial reach ``r₀ ≥ k_max`` gives ``m ≥ r₀ − t ≥ 0``
  at every checkpoint, so that mass is decided before the first step:
  ``β^k_max`` under X_∞, and for a finite prefix the top cell of its
  exact reach law, accumulated as it arises rather than as ``1 −`` the
  rest.

The band is stored by diagonal: row d, column ``r + 1``, and column 0
an always-zero reach −1.  Both interior moves, ``A`` (r, m) → (r + 1,
m + 1) and an honest (r, m) → (r − 1, m − 1), keep d, so the interior
of a step is one 1-D add over the contiguous flat span of rows
``[0, min(t, 2s)]``, gap columns included.  Columns past the top are
zero, so the add writes zeros there; only column 0 is spoiled (a row's
last cell and the next row's reach 0 sum into it), and it is re-zeroed
right after the add.  The moves that change d are short strided
fix-ups: the margin −1 cells (the array diagonal) take ``A`` only, the
``m = 0`` hold feeds the diagonal above it, and reach 0's honest
self-move shifts column ``r = 0`` one row down.  Two buffers, first
``(2·k_max/3 + 3) × (k_max + 2)`` cells, are updated in place,
ping-pong; as s falls, both are repacked, in the same memory, to row
width ``s + 3`` whenever their width exceeds 1.25× that, down to 32
columns (11 times at ``k_max = 500``), so the add spans at most ~1.25×
the live reaches, or 32 columns.  A
sweep adds about ``0.17·k_max³`` cells (21 M at ``k_max = 500``, at
most 80 k in one step), against the ``0.15·k_max³`` of the live
rectangles, of which about ``0.14·k_max³`` can ever hold mass.  After a
step the merged top row may reach ``m = s + 1``, i.e. ``d = −1``: that
cell is decided, and the layout does not store it, so its mass is read
from the two cells that merge into it; the decided top cell ``(d = 0,
r = s)`` is moved into ``decided`` and zeroed.  So a read-out is the
dot of the contiguous rows ``[0, min(t, s)]`` with the weights
``θ^r·[r ≥ d]``, one matrix per sweep whose left columns serve every
narrower width.  Different horizons prune different states, so a per-k
run and a multi-checkpoint sweep may differ in the last ulp.

The rescaled basis
------------------

Off its edges the band is a birth–death walk along each diagonal d: a
cell receives ``p_A·P[r−1, m−1] + p_hon·P[r+1, m+1]`` (``p_hon = p_h +
p_H``).  A diagonal similarity transform symmetrises such a walk.  The
sweep stores ``g`` with

    P_t[r, m] = σ_t · θ^r · g_t[r, m],   θ = √(p_A / p_hon),
    σ_{t+1} = σ_t · c,                   c = √(p_A · p_hon),

and in ``g`` both interior moves have weight exactly 1 (``p_A/(c·θ) =
p_hon·θ/c = 1``), so one step of the interior is one add.  Only the
boundary moves keep a coefficient: reach 0's honest self-move (``1/θ``),
the corner (``p_h/c`` and ``p_H/c``) and the reaches merging into the
top row (``θ^(r − top + 1)``).  A read-out weights reach r by
``σ·θ^r``, from ``θ^r`` weights built once per sweep.

* **no subtraction** — every coefficient is positive, so every cell of
  ``g`` is a sum of non-negative terms, as every cell of ``P`` was; the
  margin-0 mass of an honest step is placed in its cell directly;
* **no new underflow** — for p_A < p_hon, θ < 1 and c ≤ 1/2, so
  ``σ·θ^r ≤ 1`` and ``|g| ≥ |P|`` in every cell: a Table 1 cell down to
  1e-264 is stored at least that large;
* **renormalisation** — σ falls by c ≤ 1/2 per step, so once it is below
  ``FOLD_BELOW = 1e-100`` one pass multiplies the band by σ and σ
  restarts at 1.  The reach law is dominated by X_∞, whose tail is
  ``β^r = θ^(2r)``, so with σ ≥ 1e-100 every cell of ``g`` is at most
  ``1e100·θ^r`` and nothing overflows;
* **edges** — a law with p_A = 0 or p_hon = 0 (θ = 0 or ∞) moves one
  way only and has closed-form read-outs (``p_H^k`` and 1).  X_∞ needs
  an honest majority, so θ > 1 only arises with a finite prefix; there
  ``|g| ≥ |P| / θ^k_max``, and horizons with ``θ^k_max > 1e280``
  (:data:`repro.engine.kernels.MAX_ROW_WEIGHT`) raise ``ValueError``
  rather than lose mass to underflow.

The band kernels (``settlement_*``) live in :mod:`repro.engine.kernels`
beside the batched Monte-Carlo kernels; this module owns only the sweep
orchestration and the Table 1 presentation.
"""

from __future__ import annotations

from repro.core.distributions import SlotProbabilities, from_adversarial_stake
from repro.engine.kernels import (
    SettlementReadout,
    settlement_adversarial_step,
    settlement_basis,
    settlement_buffers,
    settlement_decided_mass,
    settlement_fold,
    settlement_honest_step,
    settlement_initial_band,
    settlement_repack,
    settlement_violation_mass,
)

#: The sweep folds σ into the band once it falls below this: with
#: σ ≥ 1e-100 and θ ≤ 1, every cell of g is at most 1e100.
FOLD_BELOW = 1e-100


def settlement_violation_probability(
    probabilities: SlotProbabilities,
    k: int,
    prefix_length: int | None = None,
) -> float:
    """``Pr[slot |x|+1 is not k-settled]`` for one horizon.

    ``prefix_length=None`` uses the |x| → ∞ model (initial reach ~ X_∞,
    as in Table 1); an integer uses the exact reach distribution of a
    length-``prefix_length`` i.i.d. prefix.
    """
    return compute_settlement_probabilities(
        probabilities, [k], prefix_length=prefix_length
    )[k]


def compute_settlement_probabilities(
    probabilities: SlotProbabilities,
    checkpoints: list[int],
    prefix_length: int | None = None,
) -> dict[int, float]:
    """Run the joint (reach, margin) DP, reading out each checkpoint.

    Returns ``{k: Pr[slot |x| + 1 is not k-settled]}`` for every
    checkpoint ``k`` (margin non-negative at suffix length ``k``).

    One banded sweep to ``max(checkpoints)`` serves every requested
    ``k`` (see the module docstring for why the band is exact).  Raises
    ``ValueError`` for empty slots, non-positive checkpoints, a negative
    ``prefix_length``, X_∞ without an honest majority, and an
    adversarial-majority law whose row weights θ^k_max exceed the float
    range.
    """
    if probabilities.p_empty:
        raise ValueError(
            "empty slots are not part of the synchronous model; reduce the "
            "string first via repro.delta.reduction"
        )
    if not checkpoints or min(checkpoints) < 1:
        raise ValueError("checkpoints must be positive suffix lengths")
    if prefix_length is not None and prefix_length < 0:
        raise ValueError(f"prefix_length must be ≥ 0, got {prefix_length}")
    if probabilities.p_adversarial <= 0 or probabilities.p_honest <= 0:
        if prefix_length is None:
            raise ValueError(
                "the |x| → ∞ reach law X_∞ needs adversarial and honest slots"
            )
        return _one_sided(probabilities, checkpoints)
    k_max = max(checkpoints)
    wanted = set(checkpoints)

    basis = settlement_basis(probabilities, k_max)
    powers = basis.powers
    src, dst = settlement_buffers(k_max)
    readout = SettlementReadout(powers, src.shape)
    decided = settlement_initial_band(probabilities, prefix_length, src, powers)
    scale = 1.0  # σ: P = σ · θ^r · g

    results: dict[int, float] = {}
    for t in range(1, k_max + 1):
        left = k_max - t
        depth = min(t, 2 * left)  # deepest live diagonal r − m after this step
        src, dst = settlement_repack(src, dst, left + 1)
        settlement_adversarial_step(src, dst, left + 1, depth, basis)
        settlement_honest_step(src, dst, left + 1, depth, basis)
        scale *= basis.step_scale
        decided += scale * settlement_decided_mass(src, dst, left, basis)
        if t in wanted:
            results[t] = decided + scale * settlement_violation_mass(
                dst, left, depth, readout
            )
        if scale < FOLD_BELOW:
            settlement_fold(dst, depth, scale)
            scale = 1.0
        src, dst = dst, src

    return results


def _one_sided(
    probabilities: SlotProbabilities, checkpoints: list[int]
) -> dict[int, float]:
    """Read-outs of a law with one kind of move (θ = 0 or ∞), which has no
    walk to rescale.  Such a law only has a finite-prefix model.

    Without ``A`` the reach stays 0 and only ``H`` keeps the corner's
    margin at 0; without honest slots the margin never falls.
    """
    if probabilities.p_adversarial <= 0:
        return {k: probabilities.p_multi**k for k in checkpoints}
    return {k: 1.0 for k in checkpoints}


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------

#: Column parameters of Table 1: adversarial probability α = Pr[A].
TABLE1_ALPHAS = (0.01, 0.10, 0.20, 0.30, 0.40, 0.49)
#: Row-group parameters: Pr[h] / (1 − α), the uniquely honest fraction.
TABLE1_UNIQUE_FRACTIONS = (1.0, 0.9, 0.8, 0.5, 0.25, 0.01)
#: Row parameters within each group: settlement depths k.
TABLE1_DEPTHS = (100, 200, 300, 400, 500)


def settlement_table(
    alphas: tuple[float, ...] = TABLE1_ALPHAS,
    unique_fractions: tuple[float, ...] = TABLE1_UNIQUE_FRACTIONS,
    depths: tuple[int, ...] = TABLE1_DEPTHS,
) -> dict[tuple[float, float, int], float]:
    """Regenerate (a sub-grid of) Table 1.

    Keys are ``(unique_fraction, alpha, k)``; values are exact
    k-settlement violation probabilities with |x| → ∞ initial reach.
    One DP run per (fraction, alpha) pair serves all depths.
    """
    table: dict[tuple[float, float, int], float] = {}
    for fraction in unique_fractions:
        for alpha in alphas:
            probabilities = from_adversarial_stake(alpha, fraction)
            computation = compute_settlement_probabilities(
                probabilities, list(depths)
            )
            for k in depths:
                table[(fraction, alpha, k)] = computation[k]
    return table


def format_table(table: dict[tuple[float, float, int], float]) -> str:
    """Render a :func:`settlement_table` result in the paper's layout."""
    fractions = sorted({key[0] for key in table}, reverse=True)
    alphas = sorted({key[1] for key in table})
    depths = sorted({key[2] for key in table})
    lines = []
    header = "frac   k   " + "  ".join(f"α={alpha:<8.2f}" for alpha in alphas)
    lines.append(header)
    lines.append("-" * len(header))
    for fraction in fractions:
        for k in depths:
            cells = "  ".join(
                f"{table[(fraction, alpha, k)]:10.2E}" for alpha in alphas
            )
            lines.append(f"{fraction:<5.2f} {k:4d} {cells}")
        lines.append("")
    return "\n".join(lines)

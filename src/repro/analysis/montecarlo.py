"""Monte-Carlo estimators cross-validating the exact and asymptotic results.

Sampling characteristic strings and evaluating the Theorem 5 recurrence
makes Monte Carlo a practical oracle for every probability in the paper:
settlement violations (against the exact DP), Catalan-slot rarity
(against Bounds 1 and 2), and consistency under non-i.i.d. (martingale)
leader sequences (against the dominance claim of Theorem 1).

The estimators here are *batched*: they draw ``(trials, T)`` uniform
blocks from a seeded ``numpy.random.Generator`` and run the vectorized
recurrences of :mod:`repro.engine.kernels`, so throughput scales with
array width instead of the Python interpreter.  The scalar reference
estimators that consume the **same uniform blocks in the same order**
(the documented seed discipline) but evaluate the recurrences of
:mod:`repro.core` symbol by symbol live in ``tests/engine/test_runner.py``,
which requires the pairs to agree bit-for-bit on equal seeds.

For backwards compatibility every estimator also accepts a
``random.Random``: its ``getrandbits(64)`` seeds the NumPy generator, so
legacy call sites stay deterministic (though on a different stream than
before the batching refactor).
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.distributions import SlotProbabilities
from repro.core.walks import stationary_reach_ratio
from repro.engine import kernels
from repro.engine.runner import Estimate, estimate_from_hits

__all__ = [
    "Estimate",
    "coerce_generator",
    "estimate_no_consecutive_catalan_in_window",
    "estimate_no_unique_catalan_in_window",
    "estimate_settlement_violation",
    "estimate_violation_from_sampler",
    "sample_initial_reach",
]


def coerce_generator(
    rng: random.Random | np.random.Generator | int,
) -> np.random.Generator:
    """Turn any supported randomness source into a ``numpy`` Generator.

    Integers seed a fresh generator; a ``random.Random`` contributes 64
    bits of its stream as the seed (deterministic given its state);
    generators pass through untouched.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(64))
    return np.random.default_rng(rng)


def sample_initial_reach(epsilon: float, rng: random.Random) -> int:
    """Draw from the X_∞ law of Eq. (9) (geometric with ratio β).

    Scalar rejection-loop sampler, kept as the distributional oracle for
    :func:`repro.engine.kernels.sample_initial_reaches`.
    """
    beta = stationary_reach_ratio(epsilon)
    reach = 0
    while rng.random() < beta:
        reach += 1
    return reach


# ----------------------------------------------------------------------
# Settlement violations (the Table 1 probability)
# ----------------------------------------------------------------------


def _settlement_uniform_phases(
    depth: int,
    trials: int,
    generator: np.random.Generator,
    prefix_length: int | None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """The shared randomness discipline of the settlement estimators.

    Phase 1 (stationary model only): one ``(trials,)`` block for the
    initial reaches.  Phase 2: one ``(trials, |x| + depth)`` block,
    row-major, for the symbols.  The scalar reference estimator in the
    tests calls this too, which is what makes the pair bit-identical on
    equal seeds.
    """
    reach_uniforms = None
    length = depth
    if prefix_length is None:
        reach_uniforms = generator.random(trials)
    else:
        length = prefix_length + depth
    symbol_uniforms = generator.random((trials, length))
    return reach_uniforms, symbol_uniforms


def estimate_settlement_violation(
    probabilities: SlotProbabilities,
    depth: int,
    trials: int,
    rng: random.Random | np.random.Generator | int,
    prefix_length: int | None = None,
) -> Estimate:
    """Monte-Carlo ``Pr[μ_x(y) ≥ 0]`` at ``|y| = depth``, batched.

    Samples the initial reach (X_∞ for ``prefix_length=None``, otherwise
    by running the reach recurrence over a sampled prefix), then runs the
    joint Theorem 5 recurrence over a sampled suffix — all on
    ``(trials, T)`` arrays.  This is the same quantity the exact DP
    computes, by an entirely independent route — the test-suite requires
    agreement within sampling error.
    """
    if probabilities.p_empty:
        raise ValueError("synchronous probabilities required")
    generator = coerce_generator(rng)
    reach_uniforms, symbol_uniforms = _settlement_uniform_phases(
        depth, trials, generator, prefix_length
    )
    symbols = kernels.symbols_from_uniforms(probabilities, symbol_uniforms)
    initial = (
        kernels.initial_reaches_from_uniforms(
            probabilities.epsilon, reach_uniforms
        )
        if reach_uniforms is not None
        else None
    )
    starts = 0 if prefix_length is None else prefix_length
    _rho, mu = kernels.joint_final_states(symbols, starts, initial)
    return estimate_from_hits(int((mu >= 0).sum()), trials)


# ----------------------------------------------------------------------
# Catalan-slot rarity (Bounds 1 and 2)
# ----------------------------------------------------------------------


def estimate_no_unique_catalan_in_window(
    probabilities: SlotProbabilities,
    window_start: int,
    window_length: int,
    total_length: int,
    trials: int,
    rng: random.Random | np.random.Generator | int,
) -> Estimate:
    """Monte-Carlo probability that a window has no uniquely honest Catalan slot.

    The event of Bound 1; Catalan-ness is evaluated in the whole sampled
    string (one ``(trials, total_length)`` block), so the estimate
    includes the boundary effects the bound's prefix correction accounts
    for.
    """
    generator = coerce_generator(rng)
    symbols = kernels.sample_characteristic_matrix(
        probabilities, trials, total_length, generator
    )
    mask = kernels.uniquely_honest_catalan_mask(symbols)
    window = mask[:, window_start - 1 : window_start - 1 + window_length]
    return estimate_from_hits(int((~window.any(axis=1)).sum()), trials)


def estimate_no_consecutive_catalan_in_window(
    probabilities: SlotProbabilities,
    window_start: int,
    window_length: int,
    total_length: int,
    trials: int,
    rng: random.Random | np.random.Generator | int,
) -> Estimate:
    """Monte-Carlo probability of no two consecutive Catalan slots (Bound 2)."""
    generator = coerce_generator(rng)
    symbols = kernels.sample_characteristic_matrix(
        probabilities, trials, total_length, generator
    )
    pairs = kernels.consecutive_catalan_mask(symbols)
    window = pairs[:, window_start - 1 : window_start - 1 + window_length]
    return estimate_from_hits(int((~window.any(axis=1)).sum()), trials)


# ----------------------------------------------------------------------
# Arbitrary samplers (the Theorem 1 dominance check)
# ----------------------------------------------------------------------


def estimate_violation_from_sampler(
    sampler,
    target_slot: int,
    depth: int,
    trials: int,
) -> Estimate:
    """Violation rate for strings drawn from an arbitrary sampler.

    ``sampler()`` must return a characteristic string of length at least
    ``target_slot + depth − 1``.  Used to check the dominance claim: a
    martingale-damped sampler must not exceed the i.i.d. probability.
    Stays scalar by design — the sampler is an opaque callable; batched
    martingale workloads go through
    :func:`repro.engine.runner.run_scenario` instead.
    """
    from repro.core.margin import relative_margin

    hits = 0
    for _ in range(trials):
        word = sampler()
        needed = target_slot + depth - 1
        if len(word) < needed:
            raise ValueError("sampler returned a string that is too short")
        if relative_margin(word[:needed], target_slot - 1) >= 0:
            hits += 1
    return estimate_from_hits(hits, trials)

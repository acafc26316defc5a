"""Rare-event settlement estimation: exponential tilting and splitting.

The settlement-failure probabilities of Table 1 decay as
``exp(−Θ(k))`` in the depth ``k`` (Theorem 1's dominating series has
radius > 1), so the cells that matter in production — 10⁻⁹ and below —
are unreachable by direct Monte Carlo: at ``n`` trials the smallest
resolvable probability is ~``1/n`` and an all-miss run certifies
nothing beyond the rule-of-three bound.  This module supplies two
estimators that do reach them, both flowing through the engine's
weighted-accumulator contract (:mod:`repro.engine.runner`):

**Exponential tilting (importance sampling).**  The synchronous
characteristic string is i.i.d. over ``{h, H, A}`` with
``Pr[A] = p_A = (1 − ε)/2``.  Tilting by ``θ`` reweights the per-slot
law to ``p'_A = p_A e^θ / Z``, ``p'_h = p_h e^{−θ} / Z``,
``p'_H = p_H e^{−θ} / Z`` with ``Z = p_A e^θ + (p_h + p_H) e^{−θ}`` —
the honest/adversarial *split* moves, the relative weight of ``h``
versus ``H`` inside the honest mass does not (both carry the same
likelihood ratio, so the tilt cannot distort the uniquely-honest
structure the margin recursion depends on).  The per-symbol log
likelihood ratios are ``−θ + ln Z`` for ``A`` and ``+θ + ln Z`` for
either honest symbol.  Sampling runs under the *tilted* scenario —
including its stationary initial reach, drawn with the tilted
``β' = (1 − ε')/(1 + ε')`` — and :class:`TiltedSettlementViolation`
emits per-trial weights ``1[μ ≥ 0] · exp(Σ log-ratios + ln w_init)``
where ``w_init(r) = (1 − β)β^r / ((1 − β')β'^r)`` corrects the initial
reach back to the base law.  Choosing ``ε' < ε`` (a *weaker* tilted
adversary margin) makes violations common while keeping every weight
factor bounded: ``β < β'`` ensures ``w_init`` is bounded in ``r``.

**Tilt-parameter heuristic.**  ``θ`` is parameterised by the target
tilted margin ``ε'`` via ``θ = ½[ln(p_hon/p_A) + ln((1−ε')/(1+ε'))]``
(the value that makes the tilted conditional adversarial mass exactly
``(1 − ε')/2``).  The default ``ε' = clip(1/√depth, 0.01, ε)`` places
the tilted walk's expected deficit ``ε'·k`` at the walk's own
fluctuation scale ``√k``, so the violation boundary sits about one
standard deviation into the tilted distribution.  Tilting all the way
to common violations (``ε' ≈ 2/k``) is counterproductive: the event
stops being rare but the per-trial likelihood ratios spread over many
orders of magnitude and the weight variance dominates — empirically
``1/√depth`` beats ``2/depth`` by ~3× in variance at depth 120.

**Fixed-effort multilevel splitting.**  The margin walk gains at most
``+1`` per slot, so a path with ``μ_t < −(k − t)`` can never reach
``μ_k ≥ 0``: the events ``L_j = {μ_{t_j} ≥ −(k − t_j)}`` at stage
times ``t_1 < … < t_m = k`` are nested supersets of the violation
event, and ``Pr[μ_k ≥ 0] = Π_j Pr[L_j | L_{j−1}]``.  The fixed-effort
scheme estimates each conditional factor with a constant population of
``N`` particles, resampling survivors uniformly with replacement after
each stage.  The product of stage survival fractions is a consistent
estimator with O(1/N) resampling bias (documented, not corrected); the
reported standard error is the delta-method approximation
``p̂ · sqrt(Σ_j (1 − p̂_j)/(N · p̂_j))``, which ignores the (positive)
resampling correlation between stages and is therefore a mild
underestimate at small N — use it for sizing, not certification.

Both estimators are validated against the exact DP
(:func:`repro.analysis.exact.settlement_violation_probability`) in
``tests/analysis/test_rare_event.py``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.core.distributions import SlotProbabilities
from repro.core.walks import stationary_reach_ratio
from repro.engine import kernels
from repro.engine.runner import Estimate, ExperimentRunner
from repro.engine.scenarios import Batch, Scenario

__all__ = [
    "SplittingEstimate",
    "TiltedSettlementViolation",
    "default_tilted_epsilon",
    "direct_mc_projection",
    "importance_scenario",
    "settlement_is_estimate",
    "splitting_settlement_estimate",
    "tilt_parameter",
    "tilted_probabilities",
]


def _require_synchronous(probabilities: SlotProbabilities) -> None:
    """The tilting algebra assumes the synchronous law (no empty slots
    and honest majority); semi-synchronous parameters must be reduced
    first (``repro.oracle.tables.effective_probabilities``)."""
    if probabilities.p_empty != 0.0:
        raise ValueError(
            "rare-event estimators need a synchronous law (p_empty == 0); "
            "reduce semi-synchronous parameters first"
        )
    if not 0.0 < probabilities.epsilon < 1.0:
        raise ValueError(
            f"need an honest-majority margin, got epsilon = "
            f"{probabilities.epsilon}"
        )


def default_tilted_epsilon(depth: int, epsilon: float) -> float:
    """The tilt-selection heuristic: ``ε' = clip(1/√depth, 0.01, ε)``.

    Deeper cells get a weaker tilted adversary margin, chosen so the
    tilted walk's expected deficit ``ε'·depth`` matches its fluctuation
    scale ``√depth`` — the violation boundary then sits roughly one
    standard deviation into the tilted distribution.  Tilting harder
    (``ε' ≈ 2/depth``, which makes violations outright common) trades a
    higher hit rate for per-trial likelihood ratios spread over many
    orders of magnitude and loses badly on net variance.  The floor
    0.01 keeps ``β' < 1`` well away from the degenerate boundary, and
    the cap at the base ``ε`` means we never tilt toward an even
    stronger honest majority — that would make the event rarer still.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return min(max(1.0 / math.sqrt(depth), 0.01), epsilon)


def tilt_parameter(
    probabilities: SlotProbabilities, tilted_epsilon: float
) -> float:
    """The ``θ`` whose tilted law has adversarial mass ``(1 − ε')/2``.

    Solving ``p_A e^θ / Z = (1 − ε')/2`` for the synchronous law gives
    ``θ = ½[ln(p_hon/p_A) + ln((1 − ε')/(1 + ε'))]``.
    """
    _require_synchronous(probabilities)
    if not 0.0 < tilted_epsilon < 1.0:
        raise ValueError(
            f"tilted epsilon must lie in (0, 1), got {tilted_epsilon}"
        )
    return 0.5 * (
        math.log(probabilities.p_honest / probabilities.p_adversarial)
        + math.log((1.0 - tilted_epsilon) / (1.0 + tilted_epsilon))
    )


def tilted_probabilities(
    probabilities: SlotProbabilities, theta: float
) -> SlotProbabilities:
    """The exponentially tilted slot law (synchronous input required)."""
    _require_synchronous(probabilities)
    up = math.exp(theta)
    down = math.exp(-theta)
    a = probabilities.p_adversarial * up
    h = probabilities.p_unique * down
    big_h = probabilities.p_multi * down
    z = a + h + big_h
    return SlotProbabilities(h / z, big_h / z, a / z)


@dataclass(frozen=True)
class TiltedSettlementViolation:
    """Likelihood-ratio-weighted settlement-violation estimator.

    Runs against the *tilted* scenario and reweights each trial back to
    the base law whose parameters are stored here as plain floats (a
    frozen dataclass of JSON-able fields, so the estimator pickles to
    process/distributed workers and fingerprints deterministically for
    the chunk ledger).  The per-trial weight is::

        1[μ_k ≥ 0] · exp(n_A·(−θ + ln Z) + n_hon·(+θ + ln Z) + ln w_init)

    with ``Z = p_A e^θ + p_hon e^{−θ}`` of the base law and ``w_init``
    the stationary-initial-reach correction of the module docstring.
    """

    p_unique: float
    p_multi: float
    p_adversarial: float
    theta: float

    def __post_init__(self) -> None:
        _require_synchronous(self.base_probabilities())

    def base_probabilities(self) -> SlotProbabilities:
        return SlotProbabilities(
            self.p_unique, self.p_multi, self.p_adversarial
        )

    def __call__(self, scenario: Scenario, batch: Batch) -> np.ndarray:
        base = self.base_probabilities()
        expected = tilted_probabilities(base, self.theta)
        sampled = scenario.probabilities
        if not all(
            math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)
            for a, b in zip(expected.as_tuple(), sampled.as_tuple())
        ):
            raise ValueError(
                "scenario law does not match the tilt of this estimator; "
                "build the pair with importance_scenario()"
            )
        _rho, mu = kernels.joint_final_states(
            batch.symbols, batch.start_columns, batch.initial_reaches
        )
        violated = mu >= 0
        n_adv = (batch.symbols == kernels.CODE_ADVERSARIAL).sum(axis=1)
        n_hon = (batch.symbols < kernels.CODE_ADVERSARIAL).sum(axis=1)
        z = self.p_adversarial * math.exp(self.theta) + (
            base.p_honest
        ) * math.exp(-self.theta)
        log_z = math.log(z)
        log_w = n_adv * (-self.theta + log_z) + n_hon * (self.theta + log_z)
        if batch.initial_reaches is not None:
            beta = stationary_reach_ratio(base.epsilon)
            beta_tilted = stationary_reach_ratio(sampled.epsilon)
            log_w = log_w + (
                math.log((1.0 - beta) / (1.0 - beta_tilted))
                + batch.initial_reaches
                * (math.log(beta) - math.log(beta_tilted))
            )
        return np.where(violated, np.exp(log_w), 0.0)


def importance_scenario(
    scenario: Scenario, tilted_epsilon: float | None = None
) -> tuple[Scenario, TiltedSettlementViolation]:
    """The (tilted scenario, weighted estimator) pair for one cell.

    ``scenario`` must be a plain synchronous settlement workload (the
    Table 1 model: i.i.d. symbols, no reduction).  The returned
    scenario samples under the tilted law — so violations are common —
    and the returned estimator reweights every trial back to
    ``scenario``'s law; running the pair through
    :class:`~repro.engine.runner.ExperimentRunner` estimates the *base*
    scenario's violation probability.
    """
    if scenario.reduced:
        raise ValueError(
            "importance sampling runs on the reduced synchronous law "
            "directly; build a plain scenario from the reduced "
            "probabilities instead of a reduced workload"
        )
    if scenario.sampler != "iid":
        raise ValueError("importance sampling supports the iid sampler only")
    base = scenario.probabilities
    _require_synchronous(base)
    if tilted_epsilon is None:
        tilted_epsilon = default_tilted_epsilon(scenario.depth, base.epsilon)
    theta = tilt_parameter(base, tilted_epsilon)
    tilted = tilted_probabilities(base, theta)
    estimator = TiltedSettlementViolation(
        base.p_unique, base.p_multi, base.p_adversarial, theta
    )
    return dataclasses.replace(scenario, probabilities=tilted), estimator


def settlement_is_estimate(
    scenario: Scenario,
    seed: int,
    *,
    trials: int | None = None,
    rel_se: float | None = None,
    max_trials: int | None = None,
    tilted_epsilon: float | None = None,
    chunk_size: int = 4096,
    workers: int = 1,
    cache=None,
    backend=None,
) -> Estimate:
    """Estimate ``scenario``'s settlement-violation probability by IS.

    Fixed budget (``trials``) or adaptive (``rel_se`` with a
    ``max_trials`` ceiling) — the adaptive mode drives
    :meth:`~repro.engine.runner.ExperimentRunner.run_until` on the
    weighted SE, which is the whole point of the accumulator contract:
    a rare-event run stops exactly when the *likelihood-ratio* estimate
    is resolved, something a hit-count SE can never certify.  Results
    are ledger-cacheable like any other run (the tilted scenario and
    the estimator's fields key the cache).
    """
    tilted_scenario, estimator = importance_scenario(
        scenario, tilted_epsilon
    )
    runner = ExperimentRunner(
        tilted_scenario, estimator, chunk_size, workers, cache
    )
    if rel_se is not None:
        if max_trials is None:
            raise ValueError("rel_se mode needs a max_trials budget")
        return runner.run_until(
            seed, rel_se=rel_se, max_trials=max_trials, backend=backend
        )
    if trials is None:
        raise ValueError("pass trials (fixed budget) or rel_se (adaptive)")
    return runner.run(trials, seed, backend=backend)


# ----------------------------------------------------------------------
# Fixed-effort multilevel splitting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SplittingEstimate:
    """A multilevel-splitting estimate with its stage diagnostics."""

    value: float
    standard_error: float
    particles: int
    stage_times: tuple[int, ...]
    stage_fractions: tuple[float, ...]

    def as_estimate(self) -> Estimate:
        """The engine-uniform view (``trials`` = particle population)."""
        return Estimate(self.value, self.standard_error, self.particles)


def splitting_settlement_estimate(
    probabilities: SlotProbabilities,
    depth: int,
    particles: int,
    seed: int,
    stage_length: int = 8,
) -> SplittingEstimate:
    """Fixed-effort multilevel splitting for ``Pr[μ_depth ≥ 0]``.

    Stages end at ``t_j = stage_length, 2·stage_length, …, depth``; the
    survival threshold at ``t_j`` is ``μ_{t_j} ≥ −(depth − t_j)`` (a
    path below it can never climb back — the walk gains at most +1 per
    slot).  If any stage kills every particle the estimate is 0 with a
    rule-of-three-scale SE on the *product* reached so far.
    """
    _require_synchronous(probabilities)
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    if particles < 2:
        raise ValueError(f"need at least 2 particles, got {particles}")
    if stage_length < 1:
        raise ValueError(f"stage_length must be positive, got {stage_length}")
    generator = np.random.default_rng(np.random.SeedSequence(seed))
    # (ρ, μ) = (r₀, r₀); the scan never writes the arrays it is given
    rho = mu = kernels.sample_initial_reaches(
        probabilities.epsilon, particles, generator
    )
    stage_times = tuple(range(stage_length, depth, stage_length)) + (depth,)
    fractions: list[float] = []
    time = 0
    for stage_end in stage_times:
        symbols = kernels.sample_characteristic_matrix(
            probabilities, particles, stage_end - time, generator
        )
        rho, mu = kernels.margin_scan(symbols, rho, mu)
        time = stage_end
        survivors = np.flatnonzero(mu >= -(depth - stage_end))
        fraction = survivors.size / particles
        fractions.append(fraction)
        if survivors.size == 0:
            value = 0.0
            partial = float(np.prod(fractions[:-1])) if fractions[:-1] else 1.0
            se = partial / particles
            return SplittingEstimate(
                value, se, particles, stage_times, tuple(fractions)
            )
        if stage_end < depth:
            chosen = survivors[
                generator.integers(0, survivors.size, size=particles)
            ]
            rho, mu = rho[chosen], mu[chosen]
    value = float(np.prod(fractions))
    relative_variance = sum(
        (1.0 - fraction) / (particles * fraction) for fraction in fractions
    )
    se = value * math.sqrt(relative_variance)
    return SplittingEstimate(
        value, se, particles, stage_times, tuple(fractions)
    )


def direct_mc_projection(probability: float, rel_se: float) -> float:
    """Trials direct MC would need for ``rel_se``: ``(1 − p)/(p·rel_se²)``.

    The benchmark's variance-reduction floor compares an IS run's
    realized trials against this projection.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {probability}")
    if not rel_se > 0.0:
        raise ValueError(f"rel_se must be positive, got {rel_se}")
    return (1.0 - probability) / (probability * rel_se * rel_se)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.analysis.rare_event``: one IS cell, end to end.

    Estimates one Table-1 cell by exponential tilting — adaptively
    (``--rel-se`` with a ``--max-trials`` ceiling, the default) or at a
    fixed budget (``--trials``) — optionally cross-checking against the
    exact DP (``--exact``) and reusing a chunk ledger (``--cache-dir``).
    The footer prints the cache/ledger counters, so a warm rerun is
    grep-assertable: ``sampled 0`` and ``0 chunk misses`` mean every
    weighted chunk replayed from the v2 ledger.  Exercised by the CI
    ``rare-event-smoke`` job.
    """
    import argparse

    from repro.core.distributions import from_adversarial_stake
    from repro.engine.cache import ResultCache, format_stats
    from repro.engine.scenarios import get_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.rare_event",
        description="importance-sampled settlement-violation estimate",
    )
    parser.add_argument("--alpha", type=float, default=0.20)
    parser.add_argument("--fraction", type=float, default=1.0)
    parser.add_argument("--depth", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trials", type=int, default=None, help="fixed budget (no adaptivity)"
    )
    parser.add_argument(
        "--rel-se",
        type=float,
        default=0.25,
        help="adaptive relative-SE target (default mode)",
    )
    parser.add_argument("--max-trials", type=int, default=200_000)
    parser.add_argument("--chunk-size", type=int, default=4096)
    parser.add_argument(
        "--tilted-epsilon",
        type=float,
        default=None,
        help="override the 1/sqrt(depth) tilt heuristic",
    )
    parser.add_argument(
        "--cache-dir", default=None, help="chunk-ledger directory"
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="also run the exact DP and report the sigma distance",
    )
    args = parser.parse_args(argv)

    law = from_adversarial_stake(args.alpha, args.fraction)
    scenario = dataclasses.replace(
        get_scenario("iid-settlement", depth=args.depth), probabilities=law
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    tilted_scenario, estimator = importance_scenario(
        scenario, args.tilted_epsilon
    )
    runner = ExperimentRunner(
        tilted_scenario, estimator, args.chunk_size, 1, cache
    )
    print(
        f"cell alpha={args.alpha} fraction={args.fraction} "
        f"depth={args.depth} (tilted epsilon "
        f"{tilted_probabilities(law, estimator.theta).epsilon:.4f})"
    )
    if args.trials is not None:
        estimate = runner.run(args.trials, args.seed)
    else:
        estimate = runner.run_until(
            args.seed, rel_se=args.rel_se, max_trials=args.max_trials
        )
    report = runner.last_report
    relative = (
        estimate.standard_error / estimate.value
        if estimate.value > 0
        else math.inf
    )
    print(
        f"IS estimate {estimate.value:.6e} "
        f"(rel. SE {relative:.3f}, {estimate.trials} trials realized; "
        f"sampled {report.sampled_trials}, "
        f"{report.reused_trials} reused from ledger)"
    )
    status = 0
    if args.exact:
        from repro.analysis.exact import settlement_violation_probability

        exact = settlement_violation_probability(law, args.depth)
        projection = direct_mc_projection(exact, max(relative, args.rel_se))
        sigma = (
            abs(estimate.value - exact) / estimate.standard_error
            if estimate.standard_error > 0
            else math.inf
        )
        print(
            f"exact DP {exact:.6e}: within {sigma:.2f} sigma; "
            f"direct MC would need ~{projection:.2e} trials at this "
            f"resolution ({projection / max(estimate.trials, 1):.0f}x more)"
        )
        if sigma > 6.0:
            print("FAIL: IS estimate more than 6 sigma from the exact DP")
            status = 1
    if cache is not None:
        print(format_stats(cache.stats()))
    return status


if __name__ == "__main__":
    raise SystemExit(main())

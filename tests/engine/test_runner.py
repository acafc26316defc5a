"""ExperimentRunner: reproducibility, estimator equivalence, DP agreement."""

import numpy as np
import pytest

from repro.analysis.exact import settlement_violation_probability
from repro.core.catalan import catalan_slots
from repro.core.distributions import (
    SlotProbabilities,
    bernoulli_condition,
    semi_synchronous_condition,
)
from repro.core.reach import rho
from repro.core.uvp import uvp_slots
from repro.delta.settlement import is_k_delta_settled
from repro.engine import (
    ExperimentRunner,
    NoConsecutiveCatalanInWindow,
    NoUniqueCatalanInWindow,
    Scenario,
    delta_settlement_violation,
    get_scenario,
    kernels,
    run_chunk,
    run_scenario,
    settlement_violation,
)
from repro.engine.scenarios import PREFIX_STATIONARY
from tests.core.references import decode_matrix, margin_step


class TestReproducibility:
    def test_bit_reproducible_for_fixed_seed(self):
        runner = ExperimentRunner(get_scenario("iid-settlement", depth=20))
        first = runner.run(10_000, seed=42)
        second = runner.run(10_000, seed=42)
        assert first == second

    def test_chunking_covers_all_trials(self):
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=10), chunk_size=300
        )
        estimate = runner.run(1000, seed=1)
        assert estimate.trials == 1000

    def test_different_seeds_differ(self):
        runner = ExperimentRunner(get_scenario("iid-settlement", depth=20))
        assert runner.run(5000, seed=1) != runner.run(5000, seed=2)

    def test_estimator_shape_validated(self):
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=10),
            estimator=lambda scenario, batch: np.array([True]),
        )
        with pytest.raises(ValueError, match="one bool per trial"):
            runner.run(100, seed=3)


class TestChunkHitPins:
    """Per-chunk hit counts of the analytical workloads, pinned: chunk
    ``i`` of seed 2020 in 1024-trial chunks.  Any change to sampling,
    the kernels or the hit-count reduction shows here."""

    @pytest.mark.parametrize(
        "name,overrides,expected",
        [
            ("iid-settlement", {"depth": 15}, [40, 44, 39, 40]),
            ("iid-finite-prefix", {}, [305, 347, 322, 349]),
            ("martingale-damped", {}, [248, 253, 252, 257]),
            ("delta-synchronous", {"depth": 20}, [6, 12, 7, 8]),
        ],
    )
    def test_first_chunks(self, name, overrides, expected):
        scenario = get_scenario(name, **overrides)
        estimator = ExperimentRunner(scenario).estimator
        hits = [
            run_chunk(
                scenario,
                estimator,
                1024,
                np.random.SeedSequence(2020, spawn_key=(index,)),
            )
            for index in range(4)
        ]
        assert hits == expected


class TestAgreementWithExactDP:
    def test_stationary(self):
        scenario = get_scenario("iid-settlement", depth=25)
        estimate = ExperimentRunner(scenario).run(40_000, seed=5)
        exact = settlement_violation_probability(scenario.probabilities, 25)
        assert estimate.within(exact, sigmas=4)

    def test_finite_prefix(self):
        scenario = get_scenario("iid-finite-prefix")
        estimate = ExperimentRunner(scenario).run(40_000, seed=6)
        exact = settlement_violation_probability(
            scenario.probabilities,
            scenario.depth,
            prefix_length=scenario.prefix_model,
        )
        assert estimate.within(exact, sigmas=4)

    def test_martingale_dominated_by_iid(self):
        scenario = get_scenario("martingale-damped")
        damped = ExperimentRunner(scenario).run(30_000, seed=7)
        iid = ExperimentRunner(
            get_scenario(
                "martingale-damped", sampler="iid", correlation=1.0
            )
        ).run(30_000, seed=7)
        slack = 4 * (damped.standard_error + iid.standard_error)
        assert damped.value <= iid.value + slack

    def test_run_scenario_convenience(self):
        direct = ExperimentRunner(get_scenario("iid-settlement", depth=15)).run(
            2000, 8
        )
        convenient = run_scenario("iid-settlement", 2000, seed=8, depth=15)
        assert direct == convenient


class TestDeltaEstimator:
    def test_matches_scalar_decision_procedure(self):
        scenario = get_scenario(
            "delta-synchronous",
            probabilities=semi_synchronous_condition(0.5, 0.2, 0.2),
            depth=5,
            target_slot=4,
            total_length=30,
            delta=2,
        )
        generator = np.random.default_rng(9)
        batch = scenario.sample_batch(400, generator)
        hits = delta_settlement_violation(scenario, batch)

        replay = np.random.default_rng(9)
        raw = kernels.sample_characteristic_matrix(
            scenario.probabilities, 400, scenario.total_length, replay
        )
        for i, word in enumerate(decode_matrix(raw)):
            expected = not is_k_delta_settled(
                word, scenario.target_slot, scenario.depth, scenario.delta
            )
            assert bool(hits[i]) == expected


# ----------------------------------------------------------------------
# Scalar reference estimators: one engine chunk's uniform blocks, drawn
# in Scenario.sample_batch's order from the chunk's own generator, then
# evaluated one symbol at a time.  Each returns the chunk's hit count.
# ----------------------------------------------------------------------


def settlement_violation_scalar(
    scenario: Scenario, size: int, child: np.random.SeedSequence
) -> int:
    """Scalar oracle for ``run_chunk(scenario, settlement_violation, ...)``.

    Consumes the identical uniform blocks — the ``(size,)`` initial-reach
    block first for a stationary prefix, then the ``(size, horizon)``
    symbol block — but evaluates the recurrences one symbol at a time
    via :func:`tests.core.references.margin_step`: bit-identical to the
    batched chunk, interpreter-bound on purpose.
    """
    generator = np.random.default_rng(child)
    stationary = scenario.prefix_model == PREFIX_STATIONARY
    reach_uniforms = generator.random(size) if stationary else None
    symbol_uniforms = generator.random((size, scenario.horizon))
    start = 0 if stationary else scenario.prefix_model
    hits = 0
    for i in range(size):
        word = _word_from_uniforms(scenario.probabilities, symbol_uniforms[i])
        if stationary:
            reach = int(
                kernels.initial_reaches_from_uniforms(
                    scenario.probabilities.epsilon, reach_uniforms[i : i + 1]
                )[0]
            )
        else:
            reach = rho(word[:start])
        margin = reach
        for symbol in word[start:]:
            reach, margin = margin_step(reach, margin, symbol)
        if margin >= 0:
            hits += 1
    return hits


def _word_from_uniforms(
    probabilities: SlotProbabilities, uniforms: np.ndarray
) -> str:
    """Scalar uniform→symbol mapping (the kernels' threshold discipline)."""
    t_h, t_bigh, t_adv = kernels.symbol_thresholds(probabilities)
    symbols = []
    for u in uniforms:
        if u < t_h:
            symbols.append("h")
        elif u < t_bigh:
            symbols.append("H")
        elif u < t_adv:
            symbols.append("A")
        else:
            symbols.append(".")
    return "".join(symbols)


def _window_hits(scenario, size, child, window, no_event) -> int:
    """Rows of one chunk's words in which ``no_event(word, first, last)``
    holds for the 1-indexed slot window ``(start, length)``."""
    generator = np.random.default_rng(child)
    uniforms = generator.random((size, scenario.horizon))
    first, last = window[0], window[0] + window[1] - 1
    return sum(
        no_event(_word_from_uniforms(scenario.probabilities, row), first, last)
        for row in uniforms
    )


def no_unique_catalan_scalar(word: str, first: int, last: int) -> bool:
    """Scalar oracle for :class:`NoUniqueCatalanInWindow`."""
    slots = uvp_slots(word)
    return not any(first <= s <= last for s in slots)


def no_consecutive_catalan_scalar(word: str, first: int, last: int) -> bool:
    """Scalar oracle for :class:`NoConsecutiveCatalanInWindow`."""
    slots = set(catalan_slots(word))
    return not any(first <= s <= last and s + 1 in slots for s in slots)


class TestScalarOracleBitEquality:
    """The batched estimators and their scalar twins share the engine's
    seed discipline: one chunk from the same ``SeedSequence`` child must
    give the same hit count."""

    probabilities = bernoulli_condition(0.4, 0.3)

    @pytest.mark.parametrize("prefix_length", [None, 7])
    def test_settlement_pair(self, prefix_length):
        scenario = Scenario(
            "twin",
            self.probabilities,
            depth=20,
            prefix_model=(
                PREFIX_STATIONARY if prefix_length is None else prefix_length
            ),
        )
        child = np.random.SeedSequence(101)
        assert run_chunk(
            scenario, settlement_violation, 1500, child
        ) == settlement_violation_scalar(scenario, 1500, child)

    @pytest.mark.parametrize(
        "estimator,no_event,seed",
        [
            (NoUniqueCatalanInWindow, no_unique_catalan_scalar, 102),
            (NoConsecutiveCatalanInWindow, no_consecutive_catalan_scalar, 103),
        ],
        ids=["unique_catalan", "consecutive_catalan"],
    )
    def test_catalan_window_pair(self, estimator, no_event, seed):
        scenario = Scenario(
            "twin", self.probabilities, depth=60, prefix_model=0
        )
        child = np.random.SeedSequence(seed)
        assert run_chunk(
            scenario, estimator(10, 20), 1000, child
        ) == _window_hits(scenario, 1000, child, (10, 20), no_event)

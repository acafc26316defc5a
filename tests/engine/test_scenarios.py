"""The scenario registry: validation, overrides, batch semantics."""

import numpy as np
import pytest

from repro.core.distributions import (
    bernoulli_condition,
    semi_synchronous_condition,
)
from repro.engine import (
    Scenario,
    get_scenario,
    kernels,
    register,
    scenario_names,
)
from repro.engine.scenarios import PREFIX_STATIONARY, SAMPLER_MARTINGALE


class TestRegistry:
    def test_builtins_present(self):
        names = scenario_names()
        for expected in (
            "iid-settlement",
            "iid-finite-prefix",
            "martingale-damped",
            "delta-synchronous",
        ):
            assert expected in names

    def test_get_with_overrides_returns_copy(self):
        base = get_scenario("iid-settlement")
        deeper = get_scenario("iid-settlement", depth=500)
        assert deeper.depth == 500
        assert get_scenario("iid-settlement").depth == base.depth

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="registered"):
            get_scenario("no-such-workload")

    def test_double_register_rejected(self):
        scenario = get_scenario("iid-settlement")
        with pytest.raises(ValueError, match="already registered"):
            register(scenario)


class TestValidation:
    def test_positive_depth_required(self):
        with pytest.raises(ValueError, match="depth"):
            Scenario("bad", bernoulli_condition(0.3, 0.3), depth=0)

    def test_martingale_needs_explicit_prefix(self):
        with pytest.raises(ValueError, match="martingale"):
            Scenario(
                "bad",
                bernoulli_condition(0.3, 0.3),
                depth=10,
                sampler=SAMPLER_MARTINGALE,
            )

    def test_delta_requires_reduced(self):
        with pytest.raises(ValueError, match="reduced"):
            Scenario(
                "bad", bernoulli_condition(0.3, 0.3), depth=10, delta=2
            )

    def test_reduced_needs_room_for_target(self):
        with pytest.raises(ValueError, match="total_length"):
            Scenario(
                "bad",
                semi_synchronous_condition(0.1, 0.01, 0.05),
                depth=10,
                delta=2,
                target_slot=50,
                total_length=20,
            )

    def test_reduced_rejects_ignored_fields(self):
        with pytest.raises(ValueError, match="ignore prefix_model"):
            Scenario(
                "bad",
                semi_synchronous_condition(0.1, 0.01, 0.05),
                depth=10,
                delta=2,
                total_length=100,
                prefix_model=20,
            )
        with pytest.raises(ValueError, match="correlation"):
            Scenario(
                "bad",
                semi_synchronous_condition(0.1, 0.01, 0.05),
                depth=10,
                delta=2,
                total_length=100,
                correlation=0.5,
            )


class TestBatches:
    def test_stationary_batch_shapes(self):
        scenario = get_scenario("iid-settlement", depth=25)
        batch = scenario.sample_batch(100, np.random.default_rng(1))
        assert batch.symbols.shape == (100, 25)
        assert batch.initial_reaches is not None
        assert (batch.start_columns == 0).all()
        assert batch.trials == 100

    def test_finite_prefix_batch(self):
        scenario = get_scenario("iid-finite-prefix")
        batch = scenario.sample_batch(50, np.random.default_rng(2))
        assert batch.symbols.shape == (50, scenario.horizon)
        assert batch.initial_reaches is None
        assert (batch.start_columns == scenario.prefix_model).all()

    def test_reduced_batch_starts_and_lengths(self):
        scenario = get_scenario("delta-synchronous")
        batch = scenario.sample_batch(80, np.random.default_rng(3))
        assert batch.symbols.shape[1] == scenario.total_length
        # reduction only deletes symbols
        assert (batch.lengths <= scenario.total_length).all()
        # starts are -1 (vacuous) or a column inside the reduced string
        assert ((batch.start_columns >= -1)).all()
        live = batch.start_columns >= 0
        assert (batch.start_columns[live] < batch.lengths[live]).all()

    def test_sampling_phases_are_documented_order(self):
        # phase 1: (trials,) reaches, phase 2: (trials, depth) symbols —
        # reproducing the draws by hand must give the same batch
        scenario = get_scenario("iid-settlement", depth=12)
        batch = scenario.sample_batch(40, np.random.default_rng(9))
        generator = np.random.default_rng(9)
        reaches = kernels.sample_initial_reaches(
            scenario.probabilities.epsilon, 40, generator
        )
        symbols = kernels.sample_characteristic_matrix(
            scenario.probabilities, 40, 12, generator
        )
        assert (batch.initial_reaches == reaches).all()
        assert (batch.symbols == symbols).all()

    def test_horizon(self):
        assert get_scenario("iid-settlement", depth=30).horizon == 30
        assert get_scenario("iid-finite-prefix").horizon == 25
        scenario = get_scenario("delta-synchronous")
        assert scenario.horizon == scenario.total_length
        assert scenario.prefix_model == PREFIX_STATIONARY

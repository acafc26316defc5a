"""Layer 5: the protocol workload through the engine stack.

ProtocolScenario registration/overrides/validation, the violation
estimators, runner integration, sweep-grid expansion, and cache
round-trips — the protocol analogue of the scenario/runner/sweep suites.
"""

import numpy as np
import pytest

from repro.engine import (
    ProcessBackend,
    ProtocolRunner,
    ProtocolScenario,
    ResultCache,
    get_grid,
    get_scenario,
    run_grid,
    scenario_names,
)
from repro.engine.protocol import (
    protocol_cp_violation,
    protocol_deep_reorg,
    protocol_settlement_violation,
)
from repro.engine.cache import estimator_token, scenario_fingerprint
from repro.protocol.adversary import (
    MaxDelayAdversary,
    NullAdversary,
    PrivateChainAdversary,
    SplitAdversary,
)


class TestScenarioRegistry:
    def test_builtins_registered(self):
        names = scenario_names()
        for name in (
            "protocol-honest",
            "protocol-private-chain",
            "protocol-split",
            "protocol-delta",
        ):
            assert name in names
            assert isinstance(get_scenario(name), ProtocolScenario)

    def test_overrides_produce_new_frozen_copy(self):
        base = get_scenario("protocol-split")
        variant = get_scenario(
            "protocol-split", tie_break="consistent", total_slots=30
        )
        assert variant.tie_break == "consistent"
        assert variant.total_slots == 30
        assert base.tie_break == "adversarial"

    def test_derived_party_counts(self):
        scenario = ProtocolScenario(
            name="x", parties=10, adversary_fraction=0.4
        )
        assert scenario.corrupted == 4
        assert scenario.honest == 6

    @pytest.mark.parametrize(
        "overrides",
        [
            {"parties": 1},
            {"adversary_fraction": 1.0},
            {"adversary_fraction": -0.1},
            {"activity": 0.0},
            {"total_slots": 0},
            {"delta": -1},
            {"tie_break": "coin-flip"},
            {"adversary": "nope"},
            {"target_slot": 0},
            {"depth": 0},
        ],
    )
    def test_validation(self, overrides):
        config = dict(name="bad")
        config.update(overrides)
        with pytest.raises(ValueError):
            ProtocolScenario(**config)

    def test_adversary_construction(self):
        cases = {
            "null": NullAdversary,
            "private-chain": PrivateChainAdversary,
            "split": SplitAdversary,
            "max-delay": MaxDelayAdversary,
        }
        for kind, cls in cases.items():
            scenario = ProtocolScenario(name="x", adversary=kind, delta=1)
            assert type(scenario.build_adversary()) is cls

    def test_private_chain_hold_defaults_to_depth(self):
        scenario = ProtocolScenario(
            name="x", adversary="private-chain", depth=7
        )
        assert scenario.build_adversary().hold == 7
        explicit = ProtocolScenario(
            name="x", adversary="private-chain", depth=7, hold=2
        )
        assert explicit.build_adversary().hold == 2

    def test_fingerprint_is_json_ready(self):
        import json

        fingerprint = scenario_fingerprint(get_scenario("protocol-split"))
        assert json.loads(json.dumps(fingerprint)) == fingerprint


class TestSampling:
    def test_sample_batch_is_generator_deterministic(self):
        scenario = get_scenario("protocol-split", total_slots=30)
        first = scenario.sample_batch(4, np.random.default_rng(3))
        second = scenario.sample_batch(4, np.random.default_rng(3))
        assert (first.seeds == second.seeds).all()
        tips = lambda batch: [
            r.records[-1].adopted_tips for r in batch.results
        ]
        assert tips(first) == tips(second)

    def test_estimators_return_per_trial_flags(self):
        scenario = get_scenario("protocol-split", total_slots=30)
        batch = scenario.sample_batch(5, np.random.default_rng(1))
        for estimator in (
            protocol_settlement_violation,
            protocol_cp_violation,
            protocol_deep_reorg,
        ):
            flags = estimator(scenario, batch)
            assert flags.shape == (5,)
            assert flags.dtype == bool

    def test_split_ablation_signal(self):
        """The Theorem 2 ablation at estimator level: deep reorgs under
        A0, none under A0′, on the same seeds."""
        adversarial = get_scenario("protocol-split")
        consistent = get_scenario("protocol-split", tie_break="consistent")
        flags_a = protocol_deep_reorg(
            adversarial, adversarial.sample_batch(6, np.random.default_rng(7))
        )
        flags_c = protocol_deep_reorg(
            consistent, consistent.sample_batch(6, np.random.default_rng(7))
        )
        assert flags_a.all()
        assert not flags_c.any()


class TestAdaptiveProtocolRuns:
    """ProtocolRunner inherits run_until: adaptive stopping over whole
    simulated executions, same determinism and ledger contract."""

    def test_adaptive_identical_across_workers(self, tmp_path):
        scenario = get_scenario("protocol-split", total_slots=30)
        serial = ProtocolRunner(scenario, chunk_size=4).run_until(
            5, rel_se=0.5, max_trials=16
        )
        with ProcessBackend(2) as pool:
            parallel = ProtocolRunner(scenario, chunk_size=4).run_until(
                5, rel_se=0.5, max_trials=16, backend=pool
            )
        assert serial == parallel

    def test_warm_ledger_skips_simulation_batches(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = get_scenario("protocol-split", total_slots=30)
        first = ProtocolRunner(scenario, chunk_size=4, cache=cache)
        estimate = first.run_until(5, rel_se=0.5, max_trials=16)
        again = ProtocolRunner(scenario, chunk_size=4, cache=cache)
        assert again.run_until(5, rel_se=0.5, max_trials=16) == estimate
        assert again.last_report.from_cache
        # A trials extension re-executes only the new simulation chunks.
        extended = ProtocolRunner(scenario, chunk_size=4, cache=cache)
        bumped = extended.run(24, seed=5)
        assert extended.last_report.reused_trials >= estimate.trials
        assert bumped == ProtocolRunner(scenario, chunk_size=4).run(
            24, seed=5
        )


class TestRunnerIntegration:
    def test_default_estimator_by_adversary(self):
        split = ProtocolRunner(get_scenario("protocol-split"))
        assert split.estimator is protocol_deep_reorg
        honest = ProtocolRunner(get_scenario("protocol-honest"))
        assert honest.estimator is protocol_settlement_violation

    def test_rejects_analytical_scenarios(self):
        with pytest.raises(TypeError, match="ProtocolScenario"):
            ProtocolRunner(get_scenario("iid-settlement"))

    def test_estimators_have_cache_tokens(self):
        for estimator in (
            protocol_settlement_violation,
            protocol_cp_violation,
            protocol_deep_reorg,
        ):
            token = estimator_token(estimator)
            assert token.startswith("repro.engine.protocol.")

    def test_cache_round_trip_zero_reexecution(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = get_scenario("protocol-split", total_slots=30)
        # Four executions are one ragged chunk, ledgered under its size.
        first = ProtocolRunner(scenario, cache=cache).run(4, seed=11)
        assert cache.chunk_stores == 1
        second = ProtocolRunner(scenario, cache=cache).run(4, seed=11)
        assert second == first
        assert cache.chunk_hits == 1
        assert cache.chunk_stores == 1  # nothing re-executed or re-stored


class TestProtocolGrid:
    def test_registered_with_protocol_axes(self):
        grid = get_grid("protocol")
        assert grid.base == "protocol-split"
        assert grid.axis_names == [
            "adversary_fraction",
            "activity",
            "delta",
            "tie_break",
        ]
        assert grid.size() == 16

    def test_points_resolve_to_protocol_scenarios(self):
        grid = get_grid("protocol")
        points = grid.points()
        assert len(points) == grid.size()
        for point in points:
            assert isinstance(point.scenario, ProtocolScenario)
            assert point.scenario.tie_break == point.params["tie_break"]
            assert point.scenario.delta == point.params["delta"]

    def test_run_grid_serial_matches_parallel(self, tmp_path):
        grid = get_grid("protocol")
        serial = run_grid(grid, trials=3)
        with ProcessBackend(2) as pool:
            parallel = run_grid(grid, trials=3, backend=pool)
        assert serial == parallel
        # The ablation shows in the tidy rows: the adversarial rule's
        # deep-reorg rate dominates the consistent rule's everywhere.
        by_rule = lambda rows, rule: [
            r["value"] for r in rows if r["tie_break"] == rule
        ]
        assert sum(by_rule(serial, "adversarial")) >= sum(
            by_rule(serial, "consistent")
        )

"""Declarative scenario registry for the batched experiment engine.

A :class:`Scenario` is a frozen description of one Monte-Carlo workload:
which slot distribution to draw from, how the initial state is modelled
(the |x| → ∞ stationary law of Table 1 or an explicit finite prefix),
which sampler to use (i.i.d. or martingale-damped), whether the strings
pass through the Δ-synchronous reduction first, and the settlement
horizon.  Scenarios carry *no* code — :class:`repro.engine.runner.
ExperimentRunner` interprets them against the batched kernels — so a new
workload is one :func:`register` call (or one ``dataclasses.replace``)
away.

Built-in scenarios cover the paper's four workload families:

* ``iid-settlement`` — i.i.d. symbols, stationary initial reach
  (the Table 1 measurement);
* ``iid-finite-prefix`` — i.i.d. symbols with an explicit prefix
  (the ``|x| = L`` variant of the Section 6.6 DP);
* ``martingale-damped`` — adversarially correlated sampler dominated by
  the i.i.d. law (the Theorem 1 dominance check);
* ``delta-synchronous`` — semi-synchronous strings pushed through ρ_Δ
  (the Theorem 7 measurement).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.distributions import (
    SlotProbabilities,
    bernoulli_condition,
    from_adversarial_stake,
    semi_synchronous_condition,
)
from repro.engine import kernels

#: Initial-reach model: draw ρ(x) from the stationary X_∞ law of Eq. (9).
PREFIX_STATIONARY = "stationary"

#: Sampler kinds.
SAMPLER_IID = "iid"
SAMPLER_MARTINGALE = "martingale"

#: Default chunk size for protocol runs (:mod:`repro.engine.protocol`):
#: one trial is a whole simulated execution (milliseconds, not
#: microseconds), so chunks are small enough that a process pool has
#: work to interleave.  Defined here, beside the registry, so that the
#: protocol sweep grids can name it without loading the protocol.
PROTOCOL_CHUNK_SIZE = 8


@dataclass(frozen=True, eq=False)
class Batch:
    """One sampled batch, ready for an estimator.

    ``symbols`` is a ``(trials, T)`` uint8 code matrix (already reduced
    and ⊥-padded for Δ-scenarios); ``start_columns`` holds each row's
    prefix length ``|x|`` (sentinel ``−1``: the target slot has no image
    in the reduced string and is vacuously settled); ``initial_reaches``
    seeds ρ when the stationary model is used; ``lengths`` is each row's
    true (unpadded) length.
    """

    symbols: np.ndarray
    start_columns: np.ndarray
    initial_reaches: np.ndarray | None
    lengths: np.ndarray

    @property
    def trials(self) -> int:
        return self.symbols.shape[0]


@dataclass(frozen=True)
class Scenario:
    """A declarative Monte-Carlo workload (see module docstring).

    ``depth`` is the settlement depth k.  For synchronous scenarios
    (``total_length == 0``) the sampled suffix has exactly ``depth``
    symbols and the prefix is either ``PREFIX_STATIONARY`` (initial reach
    ~ X_∞) or an explicit integer length.  Setting ``total_length`` makes
    the scenario Δ-reduced: a semi-synchronous string of that many
    symbols is sampled and pushed through ρ_Δ (``delta`` may be 0 — the
    reduction then only deletes empty slots); ``target_slot`` is the
    source slot under study.
    """

    name: str
    probabilities: SlotProbabilities
    depth: int
    prefix_model: str | int = PREFIX_STATIONARY
    sampler: str = SAMPLER_IID
    correlation: float = 1.0
    delta: int = 0
    target_slot: int = 1
    total_length: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be a positive settlement depth")
        if self.sampler not in (SAMPLER_IID, SAMPLER_MARTINGALE):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.reduced:
            if self.total_length < self.target_slot:
                raise ValueError(
                    "reduced scenarios need total_length >= target_slot"
                )
            if self.sampler != SAMPLER_IID:
                raise ValueError(
                    "reduced scenarios support the iid sampler only"
                )
            if self.prefix_model != PREFIX_STATIONARY or self.correlation != 1.0:
                raise ValueError(
                    "reduced scenarios ignore prefix_model/correlation; "
                    "leave them at their defaults (the prefix is the part "
                    "of the reduced string before the target slot's image)"
                )
        elif self.delta > 0:
            raise ValueError(
                "delta > 0 requires a reduced scenario (set total_length)"
            )
        elif self.prefix_model != PREFIX_STATIONARY:
            if not isinstance(self.prefix_model, int) or self.prefix_model < 0:
                raise ValueError(
                    "prefix_model must be 'stationary' or a length >= 0"
                )
        elif self.sampler == SAMPLER_MARTINGALE:
            raise ValueError(
                "the martingale sampler needs an explicit prefix length "
                "(the stationary reach law assumes i.i.d. history)"
            )

    @property
    def reduced(self) -> bool:
        """Does this workload pass through the ρ_Δ reduction first?"""
        return self.total_length > 0

    @property
    def horizon(self) -> int:
        """Total symbols sampled per trial."""
        if self.reduced:
            return self.total_length
        if self.prefix_model == PREFIX_STATIONARY:
            return self.depth
        return int(self.prefix_model) + self.depth

    def sample_batch(
        self, trials: int, generator: np.random.Generator
    ) -> Batch:
        """Draw one batch.  Randomness phases (the documented discipline):

        1. stationary scenarios first consume one ``(trials,)`` uniform
           block for the initial reaches;
        2. then one ``(trials, horizon)`` uniform block, row-major, for
           the symbols (column-major state updates for the martingale
           sampler, but the block itself is drawn in one call).
        """
        initial = None
        starts = np.zeros(trials, dtype=np.int64)
        if not self.reduced and self.prefix_model == PREFIX_STATIONARY:
            initial = kernels.sample_initial_reaches(
                self.probabilities.epsilon, trials, generator
            )
        elif not self.reduced:
            starts = np.full(trials, int(self.prefix_model), dtype=np.int64)

        if self.sampler == SAMPLER_MARTINGALE:
            symbols = kernels.sample_martingale_matrix(
                self.probabilities,
                trials,
                self.horizon,
                generator,
                self.correlation,
            )
        else:
            symbols = kernels.sample_characteristic_matrix(
                self.probabilities, trials, self.horizon, generator
            )

        if self.reduced:
            starts = kernels.reduced_slot_columns(symbols, self.target_slot)
            symbols, lengths = kernels.reduce_matrix(symbols, self.delta)
        else:
            lengths = np.full(trials, self.horizon, dtype=np.int64)
        return Batch(symbols, starts, initial, lengths)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Name → workload.  Holds the analytical :class:`Scenario` entries
#: defined below *and* the protocol-execution workloads
#: (:class:`repro.engine.protocol.ProtocolScenario`) — anything frozen,
#: named, and replaceable via ``dataclasses.replace`` registers here.
_REGISTRY: dict[str, Scenario] = {}


def _load_builtins() -> None:
    """Import the modules that register the other built-in scenarios.

    Lookups that miss, and listings, call this first, so the registry
    is complete whatever module a process imported first, and a process
    that never asks for a protocol workload never loads the protocol.
    """
    import repro.engine.protocol  # noqa: F401  (registers on import)


def register(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add a scenario to the registry (keyed by its name)."""
    if scenario.name in _REGISTRY and not overwrite:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str, **overrides) -> Scenario:
    """Look up a registered scenario, optionally overriding fields.

    ``get_scenario("iid-settlement", depth=200)`` returns a copy with a
    new depth — the registry entry itself is never mutated (scenarios are
    frozen).
    """
    if name not in _REGISTRY:
        _load_builtins()
    try:
        scenario = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; registered: {known}")
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario


def scenario_names() -> list[str]:
    """Names of all registered scenarios, sorted."""
    _load_builtins()
    return sorted(_REGISTRY)


# Built-in workloads --------------------------------------------------------

register(
    Scenario(
        name="iid-settlement",
        probabilities=from_adversarial_stake(0.20, 0.8),
        depth=100,
        description=(
            "Table 1 measurement: i.i.d. symbols, stationary initial "
            "reach, violation read at suffix length k"
        ),
    )
)

register(
    Scenario(
        name="iid-finite-prefix",
        probabilities=bernoulli_condition(0.4, 0.3),
        depth=15,
        prefix_model=10,
        description=(
            "finite-|x| variant: explicit i.i.d. prefix of 10 slots, "
            "margin seeded by its exact reach"
        ),
    )
)

register(
    Scenario(
        name="martingale-damped",
        probabilities=bernoulli_condition(0.2, 0.3),
        depth=15,
        prefix_model=5,
        sampler=SAMPLER_MARTINGALE,
        correlation=0.2,
        description=(
            "adversarially correlated sampler dominated by the i.i.d. "
            "law (Theorem 1 dominance check)"
        ),
    )
)

register(
    Scenario(
        name="delta-synchronous",
        probabilities=semi_synchronous_condition(0.08, 0.004, 0.06),
        depth=80,
        delta=4,
        target_slot=50,
        total_length=250,
        description=(
            "Theorem 7 measurement: semi-synchronous strings through "
            "rho_Delta, (k, Delta)-settlement of the target slot"
        ),
    )
)

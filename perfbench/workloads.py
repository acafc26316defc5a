"""The three in-process workloads: exact Table 1, an MC grid sweep on a
fresh chunk ledger, and protocol simulation.

Constructing a workload is its set-up: it imports the program and makes
the inputs from the seed.  :meth:`rep` runs the job once, times it from
outside, and checks the outputs; :meth:`report` turns the repetitions
into the end-to-end metrics.  Every repetition of a run does the same
work.  Each timed operation is bracketed by readings of the reference
loop of its kind of work and scaled to the reference speed (see
``speed.py``); the gated timings are
medians of the scaled times over a run's repetitions, and raw medians
are printed beside them.  Every workload runs on the serial backend:
the reference host has about one effective core.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field

import checks
from speed import Stopwatch
from stats import median


@dataclass
class Rep:
    """One repetition: named wall times (s) scaled to the reference
    speed and raw, work done, checked ops."""

    times: dict[str, float]
    raw: dict[str, float]
    work: float
    ops: int
    failures: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def _median(reps, key) -> float:
    return median([rep.times[key] for rep in reps])


def _raw_median(reps, key) -> float:
    return median([rep.raw[key] for rep in reps])


def _rate(reps) -> float:
    return median([rep.work / rep.wall for rep in reps])


def _named(reps, keys):
    """The scaled and raw medians of ``keys``, for printing."""
    named = []
    for key in keys:
        named.append((key, _median(reps, key), "s"))
        named.append((f"{key}_raw", _raw_median(reps, key), "s"))
    return named


class Table1Exact:
    """A seeded slice of Table 1: 2 alphas x 1 fraction swept to k = 300
    through ``settlement_table``, and one cell swept to k = 500 through
    ``compute_settlement_probabilities``.  Every Table 1 cell costs the
    same, so the seed changes values, not work."""

    name = "table1-exact"
    SLICE_DEPTHS = (100, 200, 300)
    DEEP_DEPTHS = (100, 200, 300, 400, 500)

    def __init__(self, seed: int, workdir) -> None:
        from repro.analysis import exact
        from repro.core.distributions import from_adversarial_stake
        from repro.data.table1 import PAPER_TABLE1

        self.exact = exact
        self.paper = PAPER_TABLE1
        self.k500, self.rel_tol = checks.load_k500_reference()
        rng = random.Random(seed)
        self.alphas = tuple(sorted(rng.sample(exact.TABLE1_ALPHAS, 2)))
        self.fractions = (rng.choice(exact.TABLE1_UNIQUE_FRACTIONS),)
        self.deep_cell = (
            rng.choice(exact.TABLE1_UNIQUE_FRACTIONS),
            rng.choice(exact.TABLE1_ALPHAS),
        )
        fraction, alpha = self.deep_cell
        self.deep_law = from_adversarial_stake(alpha, fraction)

    def rep(self) -> Rep:
        watch = Stopwatch("grid")
        table = watch.time(
            "table1_s",
            self.exact.settlement_table,
            self.alphas, self.fractions, self.SLICE_DEPTHS,
        )
        deep = watch.time(
            "table1_k500_s",
            self.exact.compute_settlement_probabilities,
            self.deep_law, list(self.DEEP_DEPTHS),
        )
        fraction, alpha = self.deep_cell
        deep_cells = {(fraction, alpha, k): deep[k] for k in self.DEEP_DEPTHS}
        failures = checks.check_table1(
            table, self.paper, self.k500, self.rel_tol
        ) + checks.check_table1(deep_cells, self.paper, self.k500, self.rel_tol)
        cells = len(table) + len(deep_cells)
        return Rep(
            watch.scaled,
            watch.raw,
            work=cells,
            ops=cells,
            failures=failures,
        )

    def report(self, reps):
        rate = _rate(reps)
        named = _named(reps, ("table1_s", "table1_k500_s"))
        named.append(("table1_cells_per_s", rate, "1/s"))
        e2e = {
            "primary_ms": _median(reps, "table1_s") * 1e3,
            "secondary_ms": _median(reps, "table1_k500_s") * 1e3,
            "work_per_s": rate,
        }
        return named, e2e


class McSweep:
    """The registered ``table1`` grid to a target SE on a fresh ledger
    (cold), then to a tighter target on the same ledger (warm)."""

    name = "mc-sweep"
    COLD_TARGET_SE = 2e-3
    WARM_TARGET_SE = 1.4e-3
    MAX_TRIALS = 1_000_000

    def __init__(self, seed: int, workdir) -> None:
        from repro.engine import sweeps
        from repro.engine.cache import ResultCache

        self.sweeps = sweeps
        self.ResultCache = ResultCache
        self.grid = sweeps.get_grid("table1")
        self.seed = seed
        self.workdir = workdir
        self.count = 0
        self._exact = None

    def exact(self) -> dict:
        """The exact DP at every grid cell, computed on first use: it is
        the check's reference, not part of the workload or its set-up."""
        if self._exact is None:
            from repro.analysis.exact import compute_settlement_probabilities
            from repro.core.distributions import from_adversarial_stake

            axes = dict(self.grid.axes)
            depths = list(axes["depth"])
            self._exact = {}
            for alpha in axes["alpha"]:
                for fraction in axes["unique_fraction"]:
                    dp = compute_settlement_probabilities(
                        from_adversarial_stake(alpha, fraction), depths
                    )
                    for depth in depths:
                        self._exact[(alpha, fraction, depth)] = dp[depth]
        return self._exact

    def sweep(self, cache, target_se):
        return self.sweeps.run_grid(
            self.grid,
            cache=cache,
            seed=self.seed,
            target_se=target_se,
            max_trials=self.MAX_TRIALS,
        )

    def rep(self) -> Rep:
        self.count += 1
        ledger = self.workdir / f"ledger-{self.count}"
        cache = self.ResultCache(ledger)
        watch = Stopwatch("arrays")
        cold = watch.time("sweep_s", self.sweep, cache, self.COLD_TARGET_SE)
        warm = watch.time(
            "sweep_extend_s", self.sweep, cache, self.WARM_TARGET_SE
        )
        shutil.rmtree(ledger)
        failures = (
            checks.check_mc_rows(cold + warm, self.exact())
            + checks.check_ledger_reuse(cold, warm, self.grid.chunk_size)
        )
        sampled = sum(row["sampled_trials"] for row in cold + warm)
        return Rep(
            watch.scaled,
            watch.raw,
            work=sampled,
            ops=len(cold) + len(warm),
            failures=failures,
        )

    def report(self, reps):
        rate = _rate(reps)
        named = _named(reps, ("sweep_s", "sweep_extend_s"))
        named.append(("sampled_trials_per_s", rate, "1/s"))
        return named, {
            "primary_ms": _median(reps, "sweep_s") * 1e3,
            "secondary_ms": _median(reps, "sweep_extend_s") * 1e3,
            "work_per_s": rate,
        }


class ProtocolSim:
    """``ProtocolRunner.run`` on ``protocol-honest`` (slot network, VRF
    leader election) and on ``protocol-wan`` (event scheduler and
    transport, max-delay adversary); the run seeds come from ``seed``."""

    name = "protocol-sim"
    HONEST_TRIALS = 16
    WAN_TRIALS = 32

    def __init__(self, seed: int, workdir) -> None:
        from repro.engine.protocol import ProtocolRunner
        from repro.engine.scenarios import get_scenario

        self.honest = ProtocolRunner(get_scenario("protocol-honest"))
        self.wan = ProtocolRunner(get_scenario("protocol-wan"))
        rng = random.Random(seed)
        self.honest_seed = rng.randrange(2**32)
        self.wan_seed = rng.randrange(2**32)

    def rep(self) -> Rep:
        watch = Stopwatch("python")
        honest = watch.time(
            "honest_s", self.honest.run, self.HONEST_TRIALS, self.honest_seed
        )
        watch.time("wan_s", self.wan.run, self.WAN_TRIALS, self.wan_seed)
        trials = self.HONEST_TRIALS + self.WAN_TRIALS
        return Rep(
            watch.scaled,
            watch.raw,
            work=trials,
            ops=trials,
            failures=checks.check_no_violations("protocol-honest", [honest]),
        )

    def report(self, reps):
        honest_ms = _median(reps, "honest_s") / self.HONEST_TRIALS * 1e3
        wan_ms = _median(reps, "wan_s") / self.WAN_TRIALS * 1e3
        named = [
            ("protocol_trials_per_s", 1e3 / honest_ms, "1/s"),
            ("protocol_trials_per_s_raw",
             self.HONEST_TRIALS / _raw_median(reps, "honest_s"), "1/s"),
            ("wan_trials_per_s", 1e3 / wan_ms, "1/s"),
            ("wan_trials_per_s_raw",
             self.WAN_TRIALS / _raw_median(reps, "wan_s"), "1/s"),
        ]
        return named, {
            "primary_ms": honest_ms,
            "secondary_ms": wan_ms,
            "work_per_s": _rate(reps),
        }


IN_PROCESS = {
    workload.name: workload for workload in (Table1Exact, McSweep, ProtocolSim)
}

"""The in-memory settlement oracle: conservative answers at memory speed.

:class:`SettlementOracle` wraps one loaded
:class:`~repro.oracle.tables.OracleTables` artifact and answers the two
production questions:

* ``violation_probability(α, fraction, Δ, k)`` — how likely is a
  k-settlement failure?
* ``settlement_depth_with_source(α, fraction, Δ, target)`` — how deep
  must a block be for the failure probability to drop to ``target``,
  and did the table or the analytic bound answer?

**Exactness at grid points.**  A query whose coordinates all lie on the
table grid is answered straight from the ``forward`` array — the answer
is bit-identical to the exact DP sweep the builder ran for the cell's
(α, fraction, Δ) combo, read out at k (asserted by
``tests/oracle/test_service.py`` and the benchmark), and within the
last ulp of a per-k ``settlement_violation_probability`` run.

**Conservative rounding between grid points.**  Off-grid coordinates
are snapped one axis at a time, always toward the side that makes the
reported failure probability *larger* (or the reported depth *deeper*):

===================  =========================  ========================
axis                 violation query snaps      depth query snaps
===================  =========================  ========================
α (stake)            **up** (stronger adversary)  up
uniquely-honest
fraction             **down** (fewer h slots)     down
Δ (delay)            **up** (longer delays)       up
k (depth)            **down** (shallower block)   —
target probability   —                            **down** (stricter)
===================  =========================  ========================

Each snap moves to a stochastically dominated configuration (violation
probability is non-decreasing in α and Δ, non-increasing in the
fraction and in k — the monotonicity property-tested in
``tests/analysis/test_monotonicity.py``), so the snapped cell's exact
value is an upper bound on the true value at the query point: the
oracle never reports a smaller failure probability, or a shallower
settlement depth, than the exact DP would — up to its last ulp, the
slack between a stored cell and a per-k DP run noted above (at α 0.1,
fraction 1.0, Δ 0, k 5 of a 0.05-activity table the oracle reads
0.05023999999999981 and the DP 0.050239999999999826).  The dominance
checks allow exactly that ulp; the stored cells are not nudged, since
served answers are checked against them bit for bit.

**Certified analytic fallback.**  Where the target lies below the DP
horizon's resolution, the builder stores the smallest k whose
*certified* Theorem 1 upper bound (Bound 1's dominating series with
prefix correction) meets it, searched ``8×`` past the horizon, and
checks that no certified depth undercuts the DP.  A depth query is one
read of ``minimal_depth``, and its source follows from the depth: the
DP's (``"table"``) within ``depth_horizon``, the bound's
(``"analytic"``) past it — still conservative, because the bound
dominates the exact DP and the axis snapping is unchanged.

Queries *outside* the grid hull cannot be conservatively answered from
the table; by default they raise :class:`OracleDomainError`.  With
``strict=False`` they saturate to the trivially safe answers instead
(probability ``1.0``; depth ``-1`` = "not achievable at this table's
horizon" — the same sentinel the table uses for unreachable targets).

Every violation answer is one stored ``forward`` cell (or the saturated
``1.0``), so a query returns the same number for as long as the artifact
is served.  A tighter answer at some off-grid point comes from a build
with grid lines there (``python -m repro.oracle build --alphas ...
--fractions ... --deltas ... --depths ...``): a point on every axis is
answered exactly.

All queries come in scalar and vectorized-batch forms; the batch forms
are pure NumPy (``searchsorted`` + fancy indexing) and answer hundreds
of thousands of queries per second (the ``oracle`` record in
``BENCH_engine.json`` asserts the floor).
"""

from __future__ import annotations

import math
import numbers
import os
from bisect import bisect_left, bisect_right

import numpy as np

from repro.oracle.tables import OracleTables

__all__ = ["OracleDomainError", "SettlementOracle", "UNREACHABLE_DEPTH"]

#: Sentinel depth: the target probability is not reachable within the
#: table's depth horizon (or, saturating, the query was out of hull).
UNREACHABLE_DEPTH = -1


class OracleDomainError(ValueError):
    """A query outside the table's conservative hull (strict mode)."""


def _as_array(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array


def _source(depth, horizon: int) -> str | None:
    """Who answered a served depth: the build stores a certified
    Theorem 1 depth only past the DP horizon, and checks it there."""
    if depth == UNREACHABLE_DEPTH:
        return None
    return "table" if depth <= horizon else "analytic"


def _snap_up(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the smallest grid value ≥ each query (``len(grid)``:
    none exists — the query exceeds the grid's top)."""
    return np.searchsorted(grid, values, side="left")


def _snap_down(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the largest grid value ≤ each query (``-1``: none
    exists — the query undercuts the grid's bottom)."""
    return np.searchsorted(grid, values, side="right") - 1


class SettlementOracle:
    """Serve settlement queries from one precomputed table artifact."""

    def __init__(self, tables: OracleTables) -> None:
        self.tables = tables
        spec = tables.spec
        self._alphas = np.asarray(spec.alphas, dtype=np.float64)
        self._fractions = np.asarray(spec.unique_fractions, dtype=np.float64)
        self._deltas = np.asarray(spec.deltas, dtype=np.float64)
        self._depths = np.asarray(spec.depths, dtype=np.float64)
        # targets are stored loosest-first (decreasing); searchsorted
        # needs ascending, so keep the ascending view plus the map back.
        self._targets_ascending = np.asarray(
            spec.targets[::-1], dtype=np.float64
        )
        # Scalar fast path: plain-Python grids for bisect — a single
        # query then pays one int-tuple array read instead of the
        # length-1-batch NumPy round trip (~20x cheaper), while the
        # arrays stay mmap-backed.
        self._alpha_list = [float(a) for a in spec.alphas]
        self._fraction_list = [float(f) for f in spec.unique_fractions]
        self._delta_list = [float(d) for d in spec.deltas]
        self._depth_list = [float(k) for k in spec.depths]
        self._target_list_ascending = [float(t) for t in spec.targets[::-1]]
        self._depth_horizon = spec.depth_horizon

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "SettlementOracle":
        """Open the verified, mmap-backed artifact at ``directory``."""
        from repro.oracle.store import load_tables

        return cls(load_tables(directory))

    @property
    def spec(self):
        return self.tables.spec

    def describe(self) -> dict:
        """A JSON-ready summary (the server's /healthz payload)."""
        from repro.oracle.store import spec_fingerprint

        spec = self.spec
        return {
            "fingerprint": spec_fingerprint(spec),
            "alphas": list(spec.alphas),
            "unique_fractions": list(spec.unique_fractions),
            "deltas": list(spec.deltas),
            "depths": list(spec.depths),
            "targets": list(spec.targets),
            "activity": spec.activity,
            "depth_horizon": spec.depth_horizon,
            "cells": int(self.tables.forward.size),
            # How many DP-unreachable depth cells the certified Theorem 1
            # bound rescues (the served depths past the DP horizon).
            "analytic_cells": int(
                (self.tables.minimal_depth > spec.depth_horizon).sum()
            ),
        }

    # -- query plumbing ------------------------------------------------

    def _cell_indexes(
        self,
        alphas: np.ndarray,
        fractions: np.ndarray,
        deltas: np.ndarray,
        strict: bool,
        label: str,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        ai = _snap_up(self._alphas, alphas)
        fi = _snap_down(self._fractions, fractions)
        di = _snap_up(self._deltas, deltas)
        invalid = (
            (ai == len(self._alphas)) | (fi < 0) | (di == len(self._deltas))
        )
        if strict and invalid.any():
            where = int(np.flatnonzero(invalid)[0])
            raise OracleDomainError(
                f"{label} query {where} (alpha={alphas[where]}, "
                f"fraction={fractions[where]}, delta={deltas[where]}) is "
                "outside the table's conservative hull: alpha <= "
                f"{self._alphas[-1]}, fraction >= {self._fractions[0]}, "
                f"delta <= {self._deltas[-1]} required"
            )
        # Clamp so fancy indexing is safe; invalid rows are overwritten
        # with the saturated answer afterwards.
        ai = np.minimum(ai, len(self._alphas) - 1)
        fi = np.maximum(fi, 0)
        di = np.minimum(di, len(self._deltas) - 1)
        return ai, fi, di, invalid

    # -- forward queries: (alpha, fraction, delta, k) -> probability ---

    def violation_cells(
        self,
        alphas,
        fractions,
        deltas,
        depths,
        strict: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The batch violation lookup, as cells: ``(flat, saturated)``.

        ``flat[i]`` is row ``i``'s index into the flattened (C-order)
        ``forward`` array, the conservatively snapped grid cell;
        ``saturated[i]`` marks an out-of-hull row (``strict=False``),
        whose answer is ``1.0`` whatever its clamped ``flat`` index.
        :meth:`violation_probabilities` assembles the float answers
        from these; the server's batch route splices pre-encoded cell
        text by the same indexes, so both read one lookup.
        """
        alphas = _as_array(alphas, "alphas")
        fractions = _as_array(fractions, "fractions")
        deltas = _as_array(deltas, "deltas")
        depth_values = _as_array(depths, "depths")
        if not (
            len(alphas) == len(fractions) == len(deltas) == len(depth_values)
        ):
            raise ValueError("query columns must have equal lengths")
        ai, fi, di, invalid = self._cell_indexes(
            alphas, fractions, deltas, strict, "violation"
        )
        ki = _snap_down(self._depths, depth_values)
        shallow = ki < 0
        if strict and shallow.any():
            where = int(np.flatnonzero(shallow)[0])
            raise OracleDomainError(
                f"violation query {where} asks depth "
                f"{depth_values[where]}, below the table's smallest "
                f"depth {int(self._depths[0])}"
            )
        ki = np.maximum(ki, 0)
        saturated = invalid | shallow
        flat = np.ravel_multi_index(
            (ai, fi, di, ki), self.tables.forward.shape
        )
        return flat, saturated

    def violation_probabilities(
        self,
        alphas,
        fractions,
        deltas,
        depths,
        strict: bool = True,
    ) -> np.ndarray:
        """Vectorized k-settlement violation probabilities.

        All four inputs are broadcast-compatible 1-D arrays of equal
        length.  Answers are exact at grid points and conservative
        (upper bounds) between them; out-of-hull queries raise
        (``strict=True``) or saturate to 1.0 (``strict=False``).
        """
        flat, saturated = self.violation_cells(
            alphas, fractions, deltas, depths, strict=strict
        )
        values = np.asarray(self.tables.forward).take(flat)
        values[saturated] = 1.0
        return values

    def _scalar_cell(
        self, alpha, unique_fraction, delta, strict: bool, label: str
    ) -> tuple[int, int, int] | None:
        """The bisect twin of :meth:`_cell_indexes` (``None``: out of
        hull in saturating mode); answers agree with the batch path on
        every input — asserted by the service tests."""
        for name, value in (
            ("alpha", alpha),
            ("unique_fraction", unique_fraction),
            ("delta", delta),
        ):
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(
                    f"{name} must be a finite real number, got {value!r}"
                )
        ai = bisect_left(self._alpha_list, alpha)
        fi = bisect_right(self._fraction_list, unique_fraction) - 1
        di = bisect_left(self._delta_list, delta)
        if ai == len(self._alpha_list) or fi < 0 or di == len(self._delta_list):
            if strict:
                raise OracleDomainError(
                    f"{label} query (alpha={alpha}, "
                    f"fraction={unique_fraction}, delta={delta}) is outside "
                    "the table's conservative hull: alpha <= "
                    f"{self._alpha_list[-1]}, fraction >= "
                    f"{self._fraction_list[0]}, delta <= "
                    f"{self._delta_list[-1]} required"
                )
            return None
        return ai, fi, di

    def violation_probability(
        self,
        alpha: float,
        unique_fraction: float,
        delta: int,
        depth: int,
        strict: bool = True,
    ) -> float:
        """Scalar form of :meth:`violation_probabilities`.

        A dedicated bisect fast path (no NumPy dispatch): this is what
        a per-request server hit costs, benchmarked against the per-k
        DP in ``benchmarks/bench_oracle_throughput.py``.
        """
        cell = self._scalar_cell(
            alpha, unique_fraction, delta, strict, "violation"
        )
        if not isinstance(depth, numbers.Real) or not math.isfinite(depth):
            raise ValueError(f"depth must be a finite real number, got {depth!r}")
        ki = bisect_right(self._depth_list, depth) - 1
        if ki < 0:
            if strict:
                raise OracleDomainError(
                    f"violation query asks depth {depth}, below the "
                    f"table's smallest depth {int(self._depth_list[0])}"
                )
            return 1.0
        if cell is None:
            return 1.0
        ai, fi, di = cell
        return float(self.tables.forward[ai, fi, di, ki])

    # -- inverse queries: (alpha, fraction, delta, target) -> depth ----

    def settlement_depths_with_source(
        self,
        alphas,
        fractions,
        deltas,
        targets,
        strict: bool = True,
    ) -> tuple[np.ndarray, list]:
        """Batch depths with provenance: ``(depths, sources)``.

        ``sources[i]`` is ``"table"`` when the DP answered (a depth
        within the spec's ``depth_horizon``), ``"analytic"`` when only
        the certified Theorem 1 bound reaches the target (a deeper,
        certified upper bound), and ``None`` when neither can answer
        (the depth is ``UNREACHABLE_DEPTH``).
        """
        alphas = _as_array(alphas, "alphas")
        fractions = _as_array(fractions, "fractions")
        deltas = _as_array(deltas, "deltas")
        target_values = _as_array(targets, "targets")
        if not (
            len(alphas) == len(fractions) == len(deltas) == len(target_values)
        ):
            raise ValueError("query columns must have equal lengths")
        ai, fi, di, invalid = self._cell_indexes(
            alphas, fractions, deltas, strict, "depth"
        )
        # Largest grid target <= query target (snap to the stricter
        # side); in the stored loosest-first order that index is
        # len(targets) - 1 - ascending_index.
        ascending = _snap_down(self._targets_ascending, target_values)
        loose = ascending < 0
        if strict and loose.any():
            where = int(np.flatnonzero(loose)[0])
            raise OracleDomainError(
                f"depth query {where} asks target {target_values[where]}, "
                "stricter than the table's tightest target "
                f"{self._targets_ascending[0]}"
            )
        ascending = np.maximum(ascending, 0)
        ti = len(self._targets_ascending) - 1 - ascending
        depths = np.asarray(self.tables.minimal_depth)[ai, fi, di, ti]
        depths[invalid | loose] = UNREACHABLE_DEPTH
        sources = [
            _source(depth, self._depth_horizon) for depth in depths.tolist()
        ]
        return depths, sources

    def settlement_depth_with_source(
        self,
        alpha: float,
        unique_fraction: float,
        delta: int,
        target: float,
        strict: bool = True,
    ) -> tuple[int | None, str | None]:
        """Scalar :meth:`settlement_depths_with_source`:
        ``(depth | None, "table" | "analytic" | None)``."""
        cell = self._scalar_cell(alpha, unique_fraction, delta, strict, "depth")
        if not isinstance(target, numbers.Real) or not math.isfinite(target):
            raise ValueError(
                f"target must be a finite real number, got {target!r}"
            )
        ascending = bisect_right(self._target_list_ascending, target) - 1
        if ascending < 0:
            if strict:
                raise OracleDomainError(
                    f"depth query asks target {target}, stricter than the "
                    "table's tightest target "
                    f"{self._target_list_ascending[0]}"
                )
            return None, None
        if cell is None:
            return None, None
        ai, fi, di = cell
        ti = len(self._target_list_ascending) - 1 - ascending
        depth = int(self.tables.minimal_depth[ai, fi, di, ti])
        source = _source(depth, self._depth_horizon)
        return (None if source is None else depth), source


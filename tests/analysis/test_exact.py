"""The exact settlement DP (Section 6.6): correctness and exactness."""

import math

import numpy as np
import pytest

from repro.analysis.exact import (
    compute_settlement_probabilities,
    settlement_table,
    settlement_violation_probability,
    format_table,
)
from repro.core.distributions import (
    SlotProbabilities,
    bernoulli_condition,
    from_adversarial_stake,
    semi_synchronous_condition,
)
from repro.core.walks import stationary_reach_ratio
import repro.analysis.exact as exact_module
import repro.engine.kernels as kernels
from repro.engine.kernels import SettlementReadout, prefix_reach_pmf

from tests.core.references import margin_step


def brute_force_violation_probability(probs, depth, reach_cap=80):
    """Scalar-state reference implementation of the same Markov chain."""
    beta = stationary_reach_ratio(probs.epsilon)
    p_h, p_multi, p_adv, _ = probs.as_tuple()
    states = {}
    for r0 in range(reach_cap):
        states[(r0, r0)] = (1 - beta) * beta**r0
    tail = beta**reach_cap
    for _ in range(depth):
        nxt = {}
        for (r, m), mass in states.items():
            for symbol, weight in (("h", p_h), ("H", p_multi), ("A", p_adv)):
                if weight == 0:
                    continue
                nr, nm = margin_step(r, m, symbol)
                key = (nr, nm)
                nxt[key] = nxt.get(key, 0.0) + mass * weight
        states = nxt
    return sum(m for (r, mm), m in states.items() if mm >= 0) + tail


def unsaturated_prefix_reach_pmf(probs, length):
    """Law of ρ(x) for an i.i.d. prefix, on cells 0..length (no cap)."""
    pmf = np.zeros(length + 1)
    pmf[0] = 1.0
    for _ in range(length):
        nxt = np.zeros_like(pmf)
        nxt[1:] += probs.p_adversarial * pmf[:-1]
        nxt[:-1] += probs.p_honest * pmf[1:]
        nxt[0] += probs.p_honest * pmf[0]
        pmf = nxt
    return pmf


def dense_grids(probs, k_max, prefix_length=None):
    """The full-grid (reach, margin) DP, kept here as an oracle.

    Rows index reach r ∈ [0, R] with R = k_max + 2 (reach saturates at
    R, which no horizon t ≤ k_max can tell apart); columns index margin
    m ∈ [−k_max, R], so column k_max is m = 0.  Initial mass at r₀ ≥ R
    sits in the corner (R, R), taken from the accumulated tail of the
    reach law, not as 1 − the rest.  Yields the grid after every step
    t = 1..k_max.
    """
    cap = k_max + 2
    zero = k_max  # column of m = 0
    grid = np.zeros((cap + 1, k_max + cap + 1))
    if prefix_length is None:
        beta = stationary_reach_ratio(probs.epsilon)
        reach = [(1.0 - beta) * beta**r for r in range(cap)]
        tail = beta**cap
    else:
        pmf = unsaturated_prefix_reach_pmf(probs, prefix_length)
        reach = [pmf[r] if r < pmf.size else 0.0 for r in range(cap)]
        tail = float(pmf[cap:].sum())
    for r in range(cap):
        grid[r, zero + r] = reach[r]
    grid[cap, zero + cap] = tail

    def adversarial(g):
        out = np.zeros_like(g)
        out[1:, 1:] = g[:-1, :-1]
        out[-1, 1:] += g[-1, :-1]
        out[1:, -1] += g[:-1, -1]
        out[-1, -1] += g[-1, -1]
        return out

    def honest(g, unique):
        shifted = np.zeros_like(g)
        shifted[:, :-1] = g[:, 1:]
        out = np.zeros_like(g)
        out[:-1, :] += shifted[1:, :]
        out[0, :] += shifted[0, :]
        out[:-1, zero - 1] -= g[1:, zero]
        out[:-1, zero] += g[1:, zero]
        if not unique:
            out[0, zero - 1] -= g[0, zero]
            out[0, zero] += g[0, zero]
        return out

    for _ in range(k_max):
        grid = (
            probs.p_adversarial * adversarial(grid)
            + probs.p_unique * honest(grid, unique=True)
            + probs.p_multi * honest(grid, unique=False)
        )
        yield grid


def dense_reference(probs, k_max, prefix_length=None):
    """``Pr[m ≥ 0]`` after every step t = 1..k_max of :func:`dense_grids`."""
    return [
        float(grid[:, k_max:].sum())
        for grid in dense_grids(probs, k_max, prefix_length)
    ]


def relative_gap(value, reference):
    if value == reference:
        return 0.0
    return abs(value - reference) / abs(reference)


EQUIVALENCE_DEPTHS = (1, 2, 3, 7, 60, 150)

#: Laws and initial-reach models of the dense comparison: Table 1 laws
#: under every model, then the edges of the sweep's rescaled basis
#: θ = √(p_A/p_hon), which have finite-prefix models only.
DENSE_CASES = [
    pytest.param(
        from_adversarial_stake(alpha, fraction),
        prefix_length,
        id=f"{alpha}-{fraction}-{prefix_length}",
    )
    for alpha in (0.01, 0.2, 0.49)
    for fraction in (1.0, 0.5, 0.01)
    for prefix_length in (None, 0, 12, 600)
] + [
    pytest.param(law, prefix_length, id=f"{name}-{prefix_length}")
    for name, law in (
        ("theta=0", SlotProbabilities(0.5, 0.5, 0.0, 0.0)),  # p_multi^k
        ("theta>1", SlotProbabilities(0.2, 0.1, 0.7, 0.0)),
    )
    for prefix_length in (0, 12)
]


class TestAgainstDenseReference:
    """The banded sweep equals the full-grid DP to rounding."""

    @pytest.mark.parametrize("probs,prefix_length", DENSE_CASES)
    def test_banded_matches_dense(self, probs, prefix_length):
        for k_max in EQUIVALENCE_DEPTHS:
            reference = dense_reference(probs, k_max, prefix_length)
            dense = list(range(1, k_max + 1))
            for checkpoints in ([1, k_max], dense):
                run = compute_settlement_probabilities(
                    probs, checkpoints, prefix_length=prefix_length
                )
                for k in checkpoints:
                    gap = relative_gap(run[k], reference[k - 1])
                    assert gap <= 1e-13, (k_max, k, run[k], reference[k - 1])

    @pytest.mark.parametrize("probs,prefix_length", DENSE_CASES)
    def test_every_horizon_matches_dense(
        self, probs, prefix_length, monkeypatch
    ):
        """Every horizon 1..40, read out at every checkpoint, with the
        repack floor lifted: the sweeps narrow the band to every row width
        down to 4, and read out the last step, with no steps left."""
        monkeypatch.setattr(kernels, "MIN_REPACK_WIDTH", 0)
        reference = dense_reference(probs, 40, prefix_length)
        for k_max in range(1, 41):
            checkpoints = list(range(1, k_max + 1))
            run = compute_settlement_probabilities(
                probs, checkpoints, prefix_length=prefix_length
            )
            for k in checkpoints:
                gap = relative_gap(run[k], reference[k - 1])
                assert gap <= 1e-13, (k_max, k, run[k], reference[k - 1])

    @pytest.mark.parametrize("probs,prefix_length", DENSE_CASES)
    @pytest.mark.parametrize("k_max", [7, 60])
    def test_mass_stays_in_diagonal_strip(self, probs, prefix_length, k_max):
        """The band's lemma: d = r − m starts at 0 and rises by at most
        one per step, so after step t every state below the saturated
        reach has 0 ≤ r − m ≤ t."""
        for t, grid in enumerate(dense_grids(probs, k_max, prefix_length), 1):
            reach, column = np.nonzero(grid[:-1])
            diagonal = reach - (column - k_max)
            assert diagonal.min() >= 0, (t, diagonal.min())
            assert diagonal.max() <= t, (t, diagonal.max())

    @pytest.mark.parametrize("alpha,fraction", [(0.01, 1.0), (0.3, 0.5), (0.49, 0.01)])
    @pytest.mark.parametrize("k", [1, 2, 5, 40, 100])
    def test_horizon_consistency(self, alpha, fraction, k):
        """A read-out does not depend on how far the sweep continues."""
        probs = from_adversarial_stake(alpha, fraction)
        alone = compute_settlement_probabilities(probs, [k])[k]
        swept = compute_settlement_probabilities(probs, [k, 3 * k])[k]
        assert relative_gap(alone, swept) <= 1e-13


class TestBandLayout:
    """The buffers the sweep narrows and the weights it reads out with."""

    @pytest.mark.parametrize("prefix_length", [None, 12])
    @pytest.mark.parametrize("floor", [kernels.MIN_REPACK_WIDTH, 0])
    def test_repack_drops_only_zeros(self, monkeypatch, prefix_length, floor):
        """Every column a repack drops from the band's rows is zero, the
        buffer moves unchanged, and the other one restarts zeroed."""
        monkeypatch.setattr(kernels, "MIN_REPACK_WIDTH", floor)
        probs = from_adversarial_stake(0.3, 0.5)
        k_max = 120
        checkpoints = list(range(1, k_max + 1))
        plain = compute_settlement_probabilities(
            probs, checkpoints, prefix_length=prefix_length
        )
        repack = exact_module.settlement_repack
        widths = []

        def checked(src, dst, steps_left):
            before = src.copy()
            packed, cleared = repack(src, dst, steps_left)
            if packed is not src:
                rows, width = packed.shape
                assert width == steps_left + 3
                # The band of the last step; deeper rows are stale.
                depth = min(k_max - steps_left, 2 * steps_left)
                assert not before[: depth + 1, width:].any()
                np.testing.assert_array_equal(packed, before[:rows, :width])
                assert not cleared.any()
                widths.append(width)
            return packed, cleared

        monkeypatch.setattr(exact_module, "settlement_repack", checked)
        run = compute_settlement_probabilities(
            probs, checkpoints, prefix_length=prefix_length
        )
        assert run == plain
        assert widths == sorted(widths, reverse=True)
        assert len(widths) >= 5 and widths[-1] >= max(floor, 4)

    def test_readout_weights(self):
        """θ^r·[r ≥ d] at row d, column r + 1, built as rows are needed
        and read through the left columns at a narrower width."""
        powers = 0.7 ** np.arange(30)
        readout = SettlementReadout(powers, (12, 20))

        def expected(rows, width):
            row = np.concatenate(([0.0], powers[: width - 1]))
            return np.triu(np.broadcast_to(row, (rows, width)), 1)

        wide = np.zeros((12, 20))
        for rows in (1, 2, 5, 12, 3):
            np.testing.assert_array_equal(
                readout.weights(wide, rows), expected(rows, 20)
            )
        narrow = np.zeros((9, 11))
        np.testing.assert_array_equal(
            readout.weights(narrow, 9), expected(9, 11)
        )


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "alpha,fraction",
        [(0.2, 0.8), (0.4, 0.5), (0.1, 1.0), (0.3, 0.01), (0.49, 0.25)],
    )
    def test_dp_matches_scalar_chain(self, alpha, fraction):
        probs = from_adversarial_stake(alpha, fraction)
        for depth in (1, 2, 3, 5, 8):
            dp = settlement_violation_probability(probs, depth)
            brute = brute_force_violation_probability(probs, depth)
            assert abs(dp - brute) < 1e-10, (alpha, fraction, depth)

    def test_depth_one_closed_form(self):
        """k = 1: violation iff the first symbol keeps the margin ≥ 0.

        From (r0, r0) with r0 ~ X_∞: an 'A' always violates; honest
        symbols violate unless r0 = 0 forces the margin negative, which
        only happens for 'h' at r0 = 0.
        """
        probs = bernoulli_condition(0.4, 0.3)
        beta = stationary_reach_ratio(0.4)
        expected = 1.0 - probs.p_unique * (1 - beta)
        value = settlement_violation_probability(probs, 1)
        assert math.isclose(value, expected, rel_tol=1e-12)


class TestMonteCarloAgreement:
    def test_dp_matches_monte_carlo(self):
        from repro.engine import run_scenario

        probs = bernoulli_condition(0.3, 0.35)
        depth = 30
        estimate = run_scenario(
            "iid-settlement", 4000, 0xC0FFEE, probabilities=probs, depth=depth
        )
        exact = settlement_violation_probability(probs, depth)
        assert estimate.within(exact, sigmas=4), (estimate, exact)


class TestStructure:
    def test_probability_decreases_with_depth(self):
        probs = from_adversarial_stake(0.3, 0.8)
        computation = compute_settlement_probabilities(
            probs, [10, 20, 40, 80]
        )
        values = [computation[k] for k in (10, 20, 40, 80)]
        assert values == sorted(values, reverse=True)
        assert all(0 <= v <= 1 for v in values)

    def test_probability_increases_with_adversarial_stake(self):
        for k in (20, 60):
            values = [
                settlement_violation_probability(
                    from_adversarial_stake(alpha, 0.8), k
                )
                for alpha in (0.1, 0.2, 0.3, 0.4)
            ]
            assert values == sorted(values)

    def test_probability_decreases_with_unique_fraction(self):
        """More uniquely honest slots help under adversarial tie-breaking."""
        values = [
            settlement_violation_probability(
                from_adversarial_stake(0.3, fraction), 40
            )
            for fraction in (0.01, 0.25, 0.5, 0.9)
        ]
        assert values == sorted(values, reverse=True)

    def test_finite_prefix_dominated_by_stationary(self):
        """X_m ⪯ X_∞ ⇒ finite-|x| violation probability is smaller."""
        probs = from_adversarial_stake(0.3, 0.8)
        infinite = settlement_violation_probability(probs, 25)
        for prefix_length in (0, 5, 50, 400):
            finite = settlement_violation_probability(
                probs, 25, prefix_length=prefix_length
            )
            assert finite <= infinite + 1e-12

    @pytest.mark.parametrize("prefix_length", [0, 5, 50, 600])
    @pytest.mark.parametrize("alpha", [0.01, 0.1])
    def test_finite_prefix_dominated_in_relative_terms(
        self, alpha, prefix_length
    ):
        """No spurious tail mass: at α = 0.01, k = 60 the violation
        probability is ~1e-33, far below one float64 rounding of 1."""
        probs = from_adversarial_stake(alpha, 1.0)
        infinite = settlement_violation_probability(probs, 60)
        finite = settlement_violation_probability(
            probs, 60, prefix_length=prefix_length
        )
        assert finite <= infinite * (1 + 1e-12), (finite, infinite)

    def test_long_prefix_reach_law_is_exact(self):
        """A 600-slot prefix at α = 0.49 often climbs far above k: its
        reach law must not saturate at any cap near k."""
        probs = from_adversarial_stake(0.49, 1.0)
        exact = unsaturated_prefix_reach_pmf(probs, 600)
        for cap in (1, 3, 20):
            pmf = prefix_reach_pmf(probs, 600, cap)
            assert pmf[:cap] == pytest.approx(exact[:cap], rel=1e-12)
            assert pmf[cap] == pytest.approx(exact[cap:].sum(), rel=1e-12)
        # k = 1: violation unless the first symbol is h from reach 0.
        value = settlement_violation_probability(probs, 1, prefix_length=600)
        expected = 1.0 - probs.p_unique * exact[0]
        assert math.isclose(value, expected, rel_tol=1e-12)

    def test_finite_prefix_converges_to_stationary(self):
        probs = from_adversarial_stake(0.35, 0.8)
        infinite = settlement_violation_probability(probs, 20)
        finite = settlement_violation_probability(probs, 20, prefix_length=600)
        # X_600 and X_∞ are distinct laws; their violation probabilities
        # differ by the (tiny) stationarity gap, not by solver error.
        assert math.isclose(finite, infinite, rel_tol=1e-4)

    def test_empty_prefix_brute_force(self):
        """|x| = 0: exhaustive sum over all suffixes of length 7."""
        import itertools

        probs = bernoulli_condition(0.2, 0.3)
        p = {"h": probs.p_unique, "H": probs.p_multi, "A": probs.p_adversarial}
        total = 0.0
        for symbols in itertools.product("hHA", repeat=7):
            r, m = 0, 0
            weight = 1.0
            for s in symbols:
                r, m = margin_step(r, m, s)
                weight *= p[s]
            if m >= 0:
                total += weight
        dp = settlement_violation_probability(probs, 7, prefix_length=0)
        assert math.isclose(dp, total, rel_tol=1e-12)


class TestValidation:
    def test_rejects_semi_synchronous_parameters(self):
        probs = semi_synchronous_condition(0.5, 0.1, 0.2)
        with pytest.raises(ValueError):
            settlement_violation_probability(probs, 10)

    def test_rejects_empty_checkpoints(self):
        probs = bernoulli_condition(0.3, 0.3)
        with pytest.raises(ValueError):
            compute_settlement_probabilities(probs, [])
        with pytest.raises(ValueError):
            compute_settlement_probabilities(probs, [0])

    def test_rejects_negative_prefix_length(self):
        probs = bernoulli_condition(0.3, 0.3)
        with pytest.raises(ValueError, match="prefix_length"):
            compute_settlement_probabilities(probs, [10], prefix_length=-5)

    def test_rejects_row_weights_beyond_float_range(self):
        """θ = 3 to k = 600: θ^k ≈ 1e286 leaves the rescaled basis."""
        probs = SlotProbabilities(0.05, 0.05, 0.9, 0.0)
        assert math.isfinite(settlement_violation_probability(probs, 500, 0))
        with pytest.raises(ValueError, match="θ"):
            settlement_violation_probability(probs, 600, prefix_length=0)


class TestTableGeneration:
    def test_small_table_shape(self):
        table = settlement_table(
            alphas=(0.2, 0.3), unique_fractions=(1.0, 0.5), depths=(10, 20)
        )
        assert len(table) == 8
        assert all(0 <= v <= 1 for v in table.values())

    def test_format_table_runs(self):
        table = settlement_table(
            alphas=(0.3,), unique_fractions=(0.5,), depths=(10,)
        )
        text = format_table(table)
        assert "α=0.30" in text


class TestDeepCellPins:
    """The DP at the deep cells sampling estimators were once judged
    against: importance sampling read 0.021× the first and 0.47× the
    second at 20k trials, and multilevel splitting returned 0 at the
    third.  The DP answers each exactly, in milliseconds."""

    @pytest.mark.parametrize(
        "alpha,fraction,depth,expected",
        [
            (0.20, 0.8, 300, 8.483867827023524e-22),
            (0.30, 0.5, 300, 6.18872259473757e-08),
            (0.20, 1.0, 120, 8.453003893834893e-10),
        ],
    )
    def test_pinned_value(self, alpha, fraction, depth, expected):
        probs = from_adversarial_stake(alpha, fraction)
        assert settlement_violation_probability(probs, depth) == expected

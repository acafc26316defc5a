"""Equivalence of the batched kernels with the scalar reference layer.

Property-style tests: on random string batches the batched kernels must
agree *exactly* (not statistically) with the scalar implementations in
``repro.core`` / ``repro.delta`` — those are the oracles the paper's
correctness argument was validated against.
"""

import random

import numpy as np
import pytest

from repro.core.catalan import catalan_slots
from repro.core.distributions import (
    bernoulli_condition,
    semi_synchronous_condition,
)
from repro.core.margin import margin_sequence
from repro.core.reach import reach_sequence, rho
from repro.core.uvp import uvp_slots
from repro.core.walks import stationary_reach_ratio
from repro.delta.reduction import reduce_string
from repro.engine import kernels
from tests.conftest import random_strings
from tests.core.references import (
    decode_matrix,
    encode_word,
    encode_words,
    margin_step,
)


class TestEncoding:
    def test_roundtrip(self):
        words = random_strings("hHA.", 30, 0, 40, seed=1)
        matrix, lengths = encode_words(words)
        assert decode_matrix(matrix, lengths) == words

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            encode_word("hHx")

    def test_unknown_symbols_name_the_offenders(self):
        # Unknown ASCII must raise, not flow through the 255 sentinel.
        with pytest.raises(ValueError, match=r"'x'"):
            encode_word("hHx")
        with pytest.raises(ValueError, match=r"'z'"):
            encode_words(["hH", "Az"])

    def test_non_ascii_raises_value_error(self):
        # Non-ASCII input must surface as the same ValueError contract,
        # never as a raw UnicodeEncodeError from the codec.
        with pytest.raises(ValueError, match="é"):
            encode_word("héllo")
        with pytest.raises(ValueError):
            encode_words(["h", "h☃"])

    def test_empty_word_encodes_to_empty(self):
        assert encode_word("").shape == (0,)

    def test_padding_is_empty(self):
        matrix, lengths = encode_words(["hA", "h"])
        assert matrix[1, 1] == kernels.CODE_EMPTY


class TestReachEquivalence:
    def test_final_reaches_match_rho(self):
        words = random_strings("hHA", 60, 1, 50, seed=3)
        matrix, lengths = encode_words(words)
        # padding is a no-op, so the scan's final reach is each row's rho
        finals, _mu = kernels.joint_final_states(matrix)
        for i, word in enumerate(words):
            assert finals[i] == rho(word)


class TestMarginEquivalence:
    def test_matches_margin_sequence(self):
        words = random_strings("hHA", 80, 1, 50, seed=5)
        rng = random.Random(55)
        for word in words:
            prefix_length = rng.randint(0, len(word))
            matrix, _ = encode_words([word])
            trajectory = kernels.margin_trajectories(matrix, prefix_length)[0]
            expected = margin_sequence(word, prefix_length)
            assert trajectory[prefix_length:].tolist() == expected

    def test_batched_step_matches_scalar_step(self):
        rng = random.Random(66)
        rhos, mus, symbols = [], [], []
        expected = []
        for _ in range(500):
            r = rng.randint(0, 6)
            m = rng.randint(-5, r)
            s = rng.choice("hHA")
            rhos.append(r)
            mus.append(m)
            symbols.append(s)
            expected.append(margin_step(r, m, s))
        codes = encode_word("".join(symbols))
        new_rho, new_mu, _ = kernels._margin_scan(
            codes[:, None], np.array(rhos), np.array(mus), 0, False
        )
        assert list(zip(new_rho.tolist(), new_mu.tolist())) == expected

    def test_joint_final_states_match_trajectory_tail(self):
        words = random_strings("hHA", 40, 2, 40, seed=6)
        matrix, _ = encode_words(words)
        starts = np.array([len(w) // 2 for w in words], dtype=np.int64)
        trajectories = kernels.margin_trajectories(matrix, starts)
        _rho, mu = kernels.joint_final_states(matrix, starts)
        assert (trajectories[:, -1] == mu).all()

    def test_initial_reach_seeds_margin(self):
        matrix, _ = encode_words(["hh"])
        initial = np.array([3], dtype=np.int64)
        trajectory = kernels.margin_trajectories(
            matrix, 0, initial_reaches=initial
        )[0]
        assert trajectory.tolist() == [3, 2, 1]


def expected_margin_row(word, prefix_length, width):
    """One ⊥-padded row of ``margin_trajectories``, from the scalar layer.

    Reach inside the prefix, ``margin_sequence`` after it, and the last
    value repeated over the padding (⊥ is the identity).
    """
    start = min(prefix_length, len(word))
    row = reach_sequence(word)[:start] + margin_sequence(word, prefix_length)
    return row + [row[-1]] * (width + 1 - len(row))


def scalar_margins_from(initial, word, prefix_length):
    """``margin_sequence`` generalised to a reach ``initial`` before ``word``.

    Iterates the scalar ``margin_step`` in Python ints; for a small
    ``initial`` it equals ``margin_sequence("A" * initial + word, …)``.
    """
    reach = initial
    for symbol in word[:prefix_length]:
        reach, _ = margin_step(reach, 0, symbol)
    margin = reach
    margins = [margin]
    for symbol in word[prefix_length:]:
        reach, margin = margin_step(reach, margin, symbol)
        margins.append(margin)
    return reach, margins


class TestMarginScanEdges:
    """The slot-major scan on ragged, prefixed, seeded and empty batches."""

    def test_ragged_rows_with_per_row_prefixes(self):
        words = random_strings("hHA", 120, 0, 45, seed=21)
        rng = random.Random(22)
        # prefixes up to five slots past the row's end
        prefixes = [rng.randint(0, len(w) + 5) for w in words]
        matrix, _ = encode_words(words)
        starts = np.array(prefixes, dtype=np.int64)
        trajectories = kernels.margin_trajectories(matrix, starts)
        final_rho, final_mu = kernels.joint_final_states(matrix, starts)
        assert trajectories.dtype == np.int64
        for i, (word, prefix) in enumerate(zip(words, prefixes)):
            expected = expected_margin_row(word, prefix, matrix.shape[1])
            assert trajectories[i].tolist() == expected
            assert final_mu[i] == margin_sequence(word, prefix)[-1]
            assert final_rho[i] == rho(word)

    def test_stationary_initial_reaches(self):
        words = random_strings("hHA", 120, 0, 40, seed=23)
        matrix, _ = encode_words(words)
        generator = np.random.default_rng(24)
        initial = kernels.sample_initial_reaches(0.2, len(words), generator)
        assert initial.max() > 5  # the seeded reaches are exercised
        rng = random.Random(25)
        prefixes = [rng.randint(0, len(w) + 2) for w in words]
        starts = np.array(prefixes, dtype=np.int64)
        trajectories = kernels.margin_trajectories(matrix, starts, initial)
        final_rho, final_mu = kernels.joint_final_states(
            matrix, starts, initial
        )
        for i, (word, prefix) in enumerate(zip(words, prefixes)):
            # an initial reach r is a prefix of r adversarial slots
            r = int(initial[i])
            seeded = "A" * r + word
            expected = expected_margin_row(
                seeded, r + prefix, r + matrix.shape[1]
            )
            assert trajectories[i].tolist() == expected[r:]
            assert final_mu[i] == expected[-1]
            assert final_rho[i] == rho(seeded)

    @pytest.mark.parametrize("initial", [2**40, 2**31 - 2])
    def test_huge_initial_reaches_never_wrap(self, initial):
        # int32 would wrap both: 2**40 on narrowing, 2**31 - 2 after two
        # adversarial slots.
        words = ["AAAAAAAA", "hhhhhhhh", "AhHAHhAh", "HHHhhhAA", "AAAAhhhh"]
        prefixes = [0, 0, 3, 8, 2]
        matrix, _ = encode_words(words)
        starts = np.array(prefixes, dtype=np.int64)
        reaches = np.full(len(words), initial, dtype=np.int64)
        trajectories = kernels.margin_trajectories(matrix, starts, reaches)
        final_rho, final_mu = kernels.joint_final_states(
            matrix, starts, reaches
        )
        for i, (word, prefix) in enumerate(zip(words, prefixes)):
            reach, margins = scalar_margins_from(initial, word, prefix)
            assert trajectories[i, prefix:].tolist() == margins
            assert (int(final_rho[i]), int(final_mu[i])) == (
                reach, margins[-1]
            )

    def test_scalar_reference_is_margin_sequence(self):
        for word in random_strings("hHA", 30, 0, 20, seed=26):
            for prefix in (0, len(word) // 2, len(word)):
                _, margins = scalar_margins_from(0, word, prefix)
                assert margins == margin_sequence(word, prefix)

    @pytest.mark.parametrize("shape", [(0, 7), (5, 0), (0, 0)])
    def test_empty_batches(self, shape):
        matrix = np.full(shape, kernels.CODE_ADVERSARIAL, dtype=np.uint8)
        reaches = np.arange(shape[0], dtype=np.int64)
        starts = np.zeros(shape[0], dtype=np.int64)
        final_rho, final_mu = kernels.joint_final_states(
            matrix, starts, reaches
        )
        assert final_rho.dtype == final_mu.dtype == np.int64
        assert final_rho.tolist() == final_mu.tolist() == reaches.tolist()
        trajectories = kernels.margin_trajectories(matrix, 0)
        assert trajectories.shape == (shape[0], shape[1] + 1)
        assert trajectories.dtype == np.int64
        assert trajectories.tolist() == [
            list(range(shape[1] + 1)) for _ in range(shape[0])
        ]


def reference_row(initial, word, prefix_length):
    """Final reach and ``margin_trajectories`` row of ``word`` from a
    reach ``initial``, by the scalar ``margin_step`` in Python ints.

    ``⊥`` is the identity, and inside the prefix the margin tracks the
    reach, as in the batched scan.
    """
    reach = margin = initial
    row = [margin]
    for t, symbol in enumerate(word):
        if symbol != ".":
            reach, margin = margin_step(reach, margin, symbol)
        if t < prefix_length:
            margin = reach
        row.append(margin)
    return reach, row


class TestStateTypeLadder:
    """The scan narrows its state to int8, int16, int32 or int64 by the
    bound ``max |state| + length``: at a bound just below ``2^(b−1)`` the
    values reach the edge of the b-bit type, and at the bound itself they
    would wrap it.  Every case must equal the scalar recurrence and come
    back as int64."""

    WORDS = [
        "AAAAAAAA",  # the reach climbs to exactly the bound
        "hhhhhhhh",
        "HHHHHHHH",
        "A.H.hA.A",
        "..AAhh..",
        "hHAhHAhH",
        "AAAA....",
    ]
    PREFIXES = [0, 0, 3, 2, 8, 5, 4]

    def check(self, words, prefixes, initial):
        matrix, _ = encode_words(words)
        starts = np.array(prefixes, dtype=np.int64)
        final_rho, final_mu = kernels.joint_final_states(
            matrix, starts, initial
        )
        trajectories = kernels.margin_trajectories(matrix, starts, initial)
        assert final_rho.dtype == final_mu.dtype == np.int64
        assert trajectories.dtype == np.int64
        for i, (word, prefix) in enumerate(zip(words, prefixes)):
            reach, row = reference_row(int(initial[i]), word, prefix)
            assert trajectories[i].tolist() == row, word
            assert (int(final_rho[i]), int(final_mu[i])) == (reach, row[-1])

    @pytest.mark.parametrize("bits", [8, 16, 32])
    @pytest.mark.parametrize("above", [0, 1], ids=["below", "at"])
    def test_stationary_starts_at_the_edge(self, bits, above):
        bound = 2 ** (bits - 1) - 1 + above
        width = len(self.WORDS[0])
        # even rows start at bound − width, so the all-A row ends exactly
        # at the bound; odd rows start near zero, where margins cross it
        initial = np.full(len(self.WORDS), bound - width, dtype=np.int64)
        initial[1::2] = np.arange(len(self.WORDS))[1::2] % 3
        self.check(self.WORDS, self.PREFIXES, initial)

    @pytest.mark.parametrize("above", [0, 1], ids=["below", "at"])
    def test_row_length_at_the_int8_edge(self, above):
        width = 127 + above
        words = [
            "A" * width,
            "h" * width,
            ("AhH." * width)[:width],
            "." * (width - 1) + "A",
        ]
        prefixes = [0, 0, width // 2, width]
        self.check(words, prefixes, np.zeros(len(words), dtype=np.int64))

    @pytest.mark.parametrize("bits", [8, 16, 32])
    @pytest.mark.parametrize("above", [0, 1], ids=["below", "at"])
    def test_negative_margins_at_the_edge(self, bits, above):
        # A margin passed in below zero falls further on honest slots.
        bound = 2 ** (bits - 1) - 1 + above
        word = "HhHhHhHh"
        codes = encode_word(word)[None, :].repeat(3, axis=0)
        margins = np.full(3, -(bound - len(word)), dtype=np.int64)
        reaches = np.array([0, 1, 5], dtype=np.int64)
        final_rho, final_mu, _ = kernels._margin_scan(
            codes, reaches, margins, 0, False
        )
        for i in range(3):
            reach, margin = int(reaches[i]), int(margins[i])
            for symbol in word:
                reach, margin = margin_step(reach, margin, symbol)
            assert (int(final_rho[i]), int(final_mu[i])) == (reach, margin)
        assert final_rho.dtype == final_mu.dtype == np.int64


class TestCatalanEquivalence:
    def test_matches_catalan_slots(self):
        words = random_strings("hHA", 120, 1, 60, seed=7)
        matrix, lengths = encode_words(words)
        mask = kernels.catalan_slot_mask(matrix)
        for i, word in enumerate(words):
            slots = (np.nonzero(mask[i, : len(word)])[0] + 1).tolist()
            assert slots == catalan_slots(word)

    def test_semi_synchronous_strings(self):
        words = random_strings("hHA.", 60, 1, 50, seed=8)
        matrix, lengths = encode_words(words)
        mask = kernels.catalan_slot_mask(matrix)
        for i, word in enumerate(words):
            slots = (np.nonzero(mask[i, : len(word)])[0] + 1).tolist()
            assert slots == catalan_slots(word)

    def test_uniquely_honest_mask(self):
        words = random_strings("hHA", 60, 1, 50, seed=9)
        matrix, _ = encode_words(words)
        mask = kernels.uniquely_honest_catalan_mask(matrix)
        for i, word in enumerate(words):
            slots = (np.nonzero(mask[i, : len(word)])[0] + 1).tolist()
            assert slots == uvp_slots(word)

    def test_consecutive_mask(self):
        words = random_strings("hHA", 60, 2, 50, seed=10)
        matrix, _ = encode_words(words)
        pairs = kernels.consecutive_catalan_mask(matrix)
        for i, word in enumerate(words):
            slots = set(catalan_slots(word))
            expected = sorted(s for s in slots if s + 1 in slots)
            got = (np.nonzero(pairs[i, : len(word) - 1])[0] + 1).tolist()
            assert got == expected


class TestReductionEquivalence:
    @pytest.mark.parametrize("delta", [0, 1, 2, 5])
    def test_matches_reduce_string(self, delta):
        words = random_strings("hHA.", 80, 1, 50, seed=11)
        matrix, lengths = encode_words(words)
        reduced, reduced_lengths = kernels.reduce_matrix(
            matrix, delta, lengths
        )
        assert decode_matrix(reduced, reduced_lengths) == [
            reduce_string(word, delta) for word in words
        ]

    def test_reduced_slot_columns_match_bijection(self):
        from repro.delta.reduction import slot_bijection

        words = random_strings("hHA.", 40, 5, 40, seed=12)
        matrix, lengths = encode_words(words)
        target = 3
        columns = kernels.reduced_slot_columns(matrix, target, lengths)
        for i, word in enumerate(words):
            if word[target - 1] == ".":
                assert columns[i] == -1
            else:
                assert columns[i] == slot_bijection(word)[target] - 1


class TestSamplingEquivalence:
    def test_threshold_discipline(self):
        probabilities = semi_synchronous_condition(0.6, 0.1, 0.3)
        generator = np.random.default_rng(13)
        uniforms = generator.random((50, 30))
        codes = kernels.symbols_from_uniforms(probabilities, uniforms)
        t_h, t_bigh, t_adv = kernels.symbol_thresholds(probabilities)
        for i in range(50):
            for j in range(30):
                u = uniforms[i, j]
                if u < t_h:
                    expected = kernels.CODE_UNIQUE
                elif u < t_bigh:
                    expected = kernels.CODE_MULTI
                elif u < t_adv:
                    expected = kernels.CODE_ADVERSARIAL
                else:
                    expected = kernels.CODE_EMPTY
                assert codes[i, j] == expected

    def test_martingale_damping_never_exceeds_iid_adversarial_mass(self):
        probabilities = bernoulli_condition(0.2, 0.3)
        generator = np.random.default_rng(14)
        codes = kernels.sample_martingale_matrix(
            probabilities, 2000, 50, generator, correlation=0.0
        )
        # correlation 0: an adversarial slot is never followed by another
        adv = codes == kernels.CODE_ADVERSARIAL
        assert not (adv[:, :-1] & adv[:, 1:]).any()

    def test_initial_reach_law(self):
        epsilon = 0.3
        beta = stationary_reach_ratio(epsilon)
        generator = np.random.default_rng(15)
        draws = kernels.sample_initial_reaches(epsilon, 200_000, generator)
        for k in (0, 1, 3):
            expected = (1 - beta) * beta**k
            observed = (draws == k).mean()
            assert abs(observed - expected) < 0.01


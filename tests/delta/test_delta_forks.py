"""Δ-forks (Definition 21) and the image isomorphism (Proposition 3)."""

import random

import pytest

from repro.core.forks import ForkAxiomViolation
from repro.delta.forks import DeltaFork, image_fork
from repro.delta.reduction import reduce_string


def max_honest_depth_before(fork: DeltaFork, slot: int) -> int:
    """Largest depth among honest vertices labelled ≤ ``slot − Δ − 1``.

    The Δ-synchronous viability threshold: a leader at ``slot`` is only
    guaranteed to have seen honest chains older than Δ slots (axiom A4Δ).
    """
    threshold = slot - fork.delta - 1
    best = 0
    for vertex in fork.vertices():
        if vertex.label <= threshold and fork.is_honest_vertex(vertex):
            best = max(best, vertex.depth)
    return best


class TestDeltaForkValidation:
    def test_nearby_honest_vertices_may_tie_in_depth(self):
        fork = DeltaFork("h.h", delta=2)
        fork.add_vertex(fork.root, 1)
        fork.add_vertex(fork.root, 3)  # distance 2 ≤ Δ: tie allowed
        fork.validate()

    def test_distant_honest_vertices_must_increase(self):
        fork = DeltaFork("h..h", delta=2)
        fork.add_vertex(fork.root, 1)
        fork.add_vertex(fork.root, 4)  # distance 3 > Δ: F4Δ violated
        with pytest.raises(ForkAxiomViolation):
            fork.validate()

    def test_delta_zero_is_synchronous_f4(self):
        fork = DeltaFork("hh", delta=0)
        fork.add_vertex(fork.root, 1)
        fork.add_vertex(fork.root, 2)
        with pytest.raises(ForkAxiomViolation):
            fork.validate()

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            DeltaFork("h", delta=-1)

    def test_copy_preserves_delta(self):
        fork = DeltaFork("h.h", delta=2)
        fork.add_vertex(fork.root, 1)
        clone = fork.copy()
        assert isinstance(clone, DeltaFork)
        assert clone.delta == 2
        assert len(clone) == len(fork)

    def test_viability_threshold(self):
        fork = DeltaFork("h.hA", delta=2)
        v1 = fork.add_vertex(fork.root, 1)
        fork.add_vertex(v1, 3)
        assert max_honest_depth_before(fork, 4) == 1  # only slot ≤ 1 counts
        assert max_honest_depth_before(fork, 6) == 2


class TestImageFork:
    def build_random_delta_fork(self, seed: int) -> DeltaFork:
        """Grow a random valid Δ-fork mimicking a Δ-delayed execution."""
        generator = random.Random(seed)
        length = generator.randint(6, 14)
        delta = generator.randint(0, 3)
        word = "".join(generator.choice("hHA..") for _ in range(length))
        fork = DeltaFork(word, delta)
        for slot in range(1, length + 1):
            symbol = word[slot - 1]
            if symbol == ".":
                continue
            threshold = max_honest_depth_before(fork, slot)
            candidates = [
                v
                for v in fork.vertices()
                if v.label < slot and v.depth >= threshold
            ]
            if symbol == "A":
                if generator.random() < 0.5:
                    anyv = generator.choice(
                        [v for v in fork.vertices() if v.label < slot]
                    )
                    fork.add_vertex(anyv, slot)
                continue
            count = 2 if symbol == "H" and generator.random() < 0.5 else 1
            for _ in range(count):
                fork.add_vertex(generator.choice(candidates), slot)
        fork.validate()
        return fork

    def test_image_is_valid_synchronous_fork(self):
        """Proposition 3: the ρ_Δ image satisfies F1–F4 (30 random forks)."""
        for seed in range(30):
            fork = self.build_random_delta_fork(seed)
            image = image_fork(fork)
            image.validate()

    def test_image_preserves_structure(self):
        for seed in range(10):
            fork = self.build_random_delta_fork(seed)
            image = image_fork(fork)
            assert len(image) == len(fork)
            assert image.height == fork.height
            assert image.word == reduce_string(fork.word, fork.delta)

    def test_image_relabels_through_bijection(self):
        fork = DeltaFork("h.h", delta=0)
        fork.add_vertex(fork.root, 1)
        v3 = fork.add_vertex(fork.vertices()[1], 3)
        image = image_fork(fork)
        labels = sorted(v.label for v in image.vertices())
        assert labels == [0, 1, 2]  # slot 3 became reduced slot 2

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflylab import (
    CycleStats,
    Permutation,
    compose,
    cycle_stats,
    dsum,
    fisher_yates,
    identity,
    kron,
)
from butterflylab.permutations import TEXT_SLICE
from butterflylab.rng import substream
from chisq import chi_square


def P(one_line) -> Permutation:
    return Permutation([int(v) - 1 for v in one_line])


def inverse(p: Permutation) -> Permutation:
    return Permutation(np.argsort(p.map, kind="stable"))


def from_text(text: str) -> Permutation:
    return Permutation([int(tok) - 1 for tok in text.split(",")])


EXAMPLE = P((4, 8, 5, 1, 3, 6, 7, 2))


def perms(max_size=8):
    return st.integers(1, max_size).flatmap(
        lambda n: st.permutations(list(range(n))).map(Permutation)
    )


def pairs_same_size(max_size=8):
    return st.integers(1, max_size).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(Permutation),
            st.permutations(list(range(n))).map(Permutation),
        )
    )


class TestCompose:
    def test_identity(self):
        assert compose(identity(4), identity(4)) == identity(4)

    def test_involution(self):
        swap = P((2, 1))
        assert compose(swap, swap) == identity(2)

    def test_three_cycle_inverse_pair(self):
        assert compose(P((2, 3, 1)), P((3, 1, 2))) == identity(3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    @given(pairs_same_size())
    @settings(max_examples=60, deadline=None)
    def test_matches_pointwise_evaluation(self, pq):
        p, q = pq
        r = compose(p, q)
        assert all(r.map[k] == p.map[q.map[k]] for k in range(p.size))


class TestInverse:
    def test_identity(self):
        assert inverse(identity(3)) == identity(3)

    def test_three_cycle(self):
        assert inverse(P((2, 3, 1))) == P((3, 1, 2))

    def test_transposition_self_inverse(self):
        assert inverse(P((2, 1))) == P((2, 1))

    @given(perms())
    @settings(max_examples=60, deadline=None)
    def test_right_inverse(self, p):
        assert compose(p, inverse(p)) == identity(p.size)


class TestKronDsum:
    def test_kron_swap_with_identity(self):
        assert kron(P((2, 1)), identity(2)) == P((3, 4, 1, 2))

    def test_kron_identities(self):
        assert kron(identity(3), identity(5)) == identity(15)

    def test_kron_swap_swap(self):
        assert kron(P((2, 1)), P((2, 1))) == P((4, 3, 2, 1))

    def test_kron_matches_matrix_kron(self):
        rng = substream(11, 0)
        for _ in range(20):
            p = fisher_yates(int(rng.integers(1, 6)), rng)
            q = fisher_yates(int(rng.integers(1, 6)), rng)
            M = np.kron(p.matrix(), q.matrix())
            assert Permutation.from_matrix(M) == kron(p, q)

    def test_dsum_identities(self):
        assert dsum(identity(2), identity(2)) == identity(4)
        assert dsum(P((2, 1)), identity(2)) == P((2, 1, 3, 4))
        assert dsum(identity(2), P((2, 1))) == P((1, 2, 4, 3))

    @given(pairs_same_size(5), pairs_same_size(5))
    @settings(max_examples=40, deadline=None)
    def test_mixed_product_property(self, pq1, pq2):
        p1, p2 = pq1
        q1, q2 = pq2
        lhs = compose(kron(p1, q1), kron(p2, q2))
        rhs = kron(compose(p1, p2), compose(q1, q2))
        assert lhs == rhs


class TestCycleStats:
    def test_example_permutation(self):
        cs = cycle_stats(EXAMPLE)
        assert cs.total_cycles == 5
        assert cs.fixed_points == 2
        assert cs.by_length == {1: 2, 2: 3}

    def test_identity(self):
        cs = cycle_stats(identity(7))
        assert cs == CycleStats(7, {1: 7}, 7)

    def test_single_three_cycle(self):
        cs = cycle_stats(P((2, 3, 1)))
        assert cs.total_cycles == 1 and cs.by_length == {3: 1}

    def test_length_weighted_sum(self):
        rng = substream(11, 1)
        for _ in range(25):
            p = fisher_yates(int(rng.integers(1, 40)), rng)
            cs = cycle_stats(p)
            assert sum(cs.by_length.values()) == cs.total_cycles
            assert sum(l * c for l, c in cs.by_length.items()) == p.size

    @given(pairs_same_size())
    @settings(max_examples=60, deadline=None)
    def test_conjugation_invariance(self, pq):
        p, q = pq
        conj = compose(q, compose(p, inverse(q)))
        assert cycle_stats(conj).total_cycles == cycle_stats(p).total_cycles


class TestMatrixRoundTrip:
    def test_round_trip_up_to_64(self):
        rng = substream(11, 2)
        for M in (1, 2, 3, 8, 17, 33, 64):
            p = fisher_yates(M, rng)
            assert Permutation.from_matrix(p.matrix()) == p

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation.from_matrix(np.ones((2, 2)))


class TestFisherYates:
    def test_size_one(self):
        rng = substream(11, 3)
        assert all(fisher_yates(1, rng) == identity(1) for _ in range(20))

    def test_two_point_frequency(self):
        rng = substream(11, 4)
        hits = sum(fisher_yates(2, rng) == identity(2) for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_uniform_on_s4(self):
        rng = substream(11, 5)
        outcomes = {p: i for i, p in enumerate(Permutation(w) for w in itertools.permutations(range(4)))}
        counts = np.zeros(24)
        for _ in range(10**5):
            counts[outcomes[fisher_yates(4, rng)]] += 1
        res = chi_square(counts, [1 / 24] * 24)
        assert res.p_value > 0.01

    def test_deterministic_given_seed(self):
        a = [fisher_yates(6, substream(99, t)) for t in range(5)]
        b = [fisher_yates(6, substream(99, t)) for t in range(5)]
        assert a == b


class TestSerialization:
    def test_text_round_trip(self):
        assert EXAMPLE.to_text() == "4,8,5,1,3,6,7,2"
        assert from_text("4,8,5,1,3,6,7,2") == EXAMPLE
        big = fisher_yates(5000, substream(7, 0))
        assert big.to_text() == ",".join(str(v + 1) for v in big.map)
        assert from_text(big.to_text()) == big

    @pytest.mark.parametrize("size", [1, TEXT_SLICE - 1, TEXT_SLICE, TEXT_SLICE + 1, 3 * TEXT_SLICE + 5])
    def test_text_across_slices(self, size):
        p = fisher_yates(size, substream(7, size))
        assert p.to_text() == ",".join(map(str, (p.map + 1).tolist()))

    def test_rejects_bad_text(self):
        with pytest.raises(ValueError):
            from_text("1,1,2")

    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 2])
        with pytest.raises(ValueError):
            Permutation([1, 2, 3])  # 0-based constructor: 3 is out of range

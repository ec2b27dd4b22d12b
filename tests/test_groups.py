import time
import tracemalloc

import numpy as np
import pytest

from butterflylab import Permutation, compose, cycle_stats, groups, identity, kron
from butterflylab.groups import (
    ENUMERATION_CAP,
    NonsimpleButterfly,
    SimpleButterfly,
    as_simple,
    check_membership,
    check_size,
    enumerate_group,
    group_order,
    materialize,
    sample_nonsimple,
    sample_simple,
)
from butterflylab.rng import substream
from chisq import chi_square


def P(one_line) -> Permutation:
    return Permutation([int(v) - 1 for v in one_line])


def to_nonsimple(elem: SimpleButterfly) -> NonsimpleButterfly:
    """The simple element as a member of the enclosing nonsimple group."""
    exps = tuple(d for i, d in enumerate(elem.digits) for _ in range(elem.m**i))
    return NonsimpleButterfly(elem.m, elem.n, exps)


def apply(elem, k: int) -> int:
    """Image of the 1-based index k under the encoded permutation, O(n) time."""
    if isinstance(elem, SimpleButterfly):
        m, N = elem.m, elem.m**elem.n
        if not 1 <= k <= N:
            raise IndexError(k)
        a = k - 1
        out = 0
        w = N // m
        for j in elem.digits:
            d, a = divmod(a, w)
            out += ((d + j) % m) * w
            w //= m
        return out + 1
    if isinstance(elem, NonsimpleButterfly):
        m, N = elem.m, elem.m**elem.n
        if not 1 <= k <= N:
            raise IndexError(k)
        exps = elem.exponents
        a = k - 1
        out = 0
        idx = 0
        M = N // m
        for _ in range(elem.n):
            i, a = divmod(a, M)
            t = (i + exps[idx]) % m
            out += t * M
            idx = m * idx + 1 + t
            M //= m
        return out + 1
    raise TypeError(type(elem))


class TestApply:
    def test_simple_digits_10(self):
        elem = SimpleButterfly(2, (1, 0))
        assert apply(elem, 1) == 3
        assert materialize(elem) == kron(P((2, 1)), identity(2))

    def test_simple_identity_fixes_index_five(self):
        # 5 - 1 = 4 = (100)_2; all-zero digits act as the identity on the digits
        elem = SimpleButterfly(2, (0, 0, 0))
        assert apply(elem, 5) == 5

    def test_nonsimple_block_recursion(self):
        elem = NonsimpleButterfly(2, 2, (1, 1, 0))
        assert apply(elem, 1) == 3
        assert materialize(elem) == P((3, 4, 2, 1))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply(SimpleButterfly(2, (0,)), 3)

    def test_apply_agrees_with_materialize(self):
        # the whole map, for both encodings; 6 is composite and accepted by both
        rng = substream(21, 0)
        for m, n_max in ((2, 6), (3, 4), (5, 3), (6, 3)):
            for n in range(n_max + 1):
                for _ in range(8):
                    for elem in (sample_simple(m, n, rng), sample_nonsimple(m, n, rng)):
                        want = [apply(elem, k) - 1 for k in range(1, m**n + 1)]
                        assert materialize(elem).map.tolist() == want


class TestMaterialize:
    def test_all_zero_digits_identity(self):
        assert materialize(SimpleButterfly(2, (0, 0, 0))) == identity(8)

    def test_digits_11_is_full_reversal(self):
        assert materialize(SimpleButterfly(2, (1, 1))) == P((4, 3, 2, 1))

    def test_single_level_swap(self):
        assert materialize(NonsimpleButterfly(2, 1, (1,))) == P((2, 1))


class TestNonsimpleEncoding:
    """The exponent tree is a read-only int64 copy, compared and hashed by value."""

    def test_read_only_copy(self):
        given = np.array([1, 0, 1])
        elem = NonsimpleButterfly(2, 2, given)
        assert elem.exponents.dtype == np.int64
        with pytest.raises(ValueError):
            elem.exponents[0] = 0
        given[0] = 0
        assert elem.exponents.tolist() == [1, 0, 1]
        assert materialize(elem) == materialize(NonsimpleButterfly(2, 2, (1, 0, 1)))

    @pytest.mark.parametrize("exps", [(1, 0, 2), (1, -1, 0), (1, 0), ((1, 0, 1),)])
    def test_bad_exponents_raise(self, exps):
        with pytest.raises(ValueError):
            NonsimpleButterfly(2, 2, exps)

    def test_equal_by_value(self):
        exps = [2, 0, 1, 1]
        elem = NonsimpleButterfly(3, 2, tuple(exps))
        same = NonsimpleButterfly(3, 2, np.array(exps, dtype=np.int32))
        assert elem == same and hash(elem) == hash(same)
        assert {elem: "x"}[same] == "x"
        for k in range(len(exps)):
            other = list(exps)
            other[k] = (other[k] + 1) % 3
            assert NonsimpleButterfly(3, 2, other) != elem
        assert NonsimpleButterfly(2, 1, (1,)) != NonsimpleButterfly(3, 1, (1,))
        assert NonsimpleButterfly(2, 1, (1,)) != SimpleButterfly(2, (1,))


class TestGroupOrder:
    def test_nonsimple_binary(self):
        assert group_order(2, 3, simple=False) == 128

    def test_simple_binary(self):
        assert group_order(2, 10, simple=True) == 1024

    def test_nonsimple_base5(self):
        assert group_order(5, 2, simple=False) == 5**6 == 15625
        assert sum(1 for _ in enumerate_group(5, 2, simple=False)) == 15625


class TestEnumerate:
    def test_simple_count(self):
        elems = list(enumerate_group(2, 3, simple=True))
        assert len(elems) == 8 == len({materialize(e) for e in elems})

    def test_nonsimple_count(self):
        elems = list(enumerate_group(2, 2, simple=False))
        assert len(elems) == 8 == len({materialize(e) for e in elems})

    def test_ternary_count(self):
        assert sum(1 for _ in enumerate_group(3, 2, simple=False)) == 81

    def test_cap(self):
        with pytest.raises(ValueError, match="enumeration cap"):
            list(enumerate_group(2, 5, simple=False))

    def test_cap_never_builds_the_order(self):
        # The order 2^(2^40 - 1) would not fit in memory; the refusal is immediate.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="enumeration cap"):
            next(enumerate_group(2, 40, simple=False))
        assert time.perf_counter() - start < 1.0


class _UnbuiltBase(int):
    """A base whose power must never be taken."""

    def __pow__(self, other):
        raise AssertionError("m^n was built")


class TestCheckSize:
    def test_admits_the_cap_and_refuses_one_more(self):
        check_size(2, 20, 2**20, "float")
        check_size(10, 6, ENUMERATION_CAP, "enumeration")
        with pytest.raises(ValueError, match=r"^m\^n = 10\^6 exceeds the enumeration cap 999999$"):
            check_size(10, 6, ENUMERATION_CAP - 1, "enumeration")
        with pytest.raises(ValueError, match=r"^m\^n = 2\^21 exceeds the float cap 2097151$"):
            check_size(2, 21, 2**21 - 1, "float")

    def test_huge_depth_is_refused_without_building_m_to_the_n(self):
        with pytest.raises(ValueError, match=r"^m\^n = 3\^1000000000 exceeds the size cap"):
            check_size(_UnbuiltBase(3), 10**9, 1 << 26, "size")

    @pytest.mark.parametrize("m, n", [(0, -1), (2, -3), (1, 10**9), (5, 0)])
    def test_degenerate_sizes_pass(self, m, n):
        check_size(m, n, 1, "size")


class TestMembership:
    def test_identity_recovers_zero_exponents(self):
        rec = check_membership(identity(8), 2)
        assert isinstance(rec, SimpleButterfly)
        assert rec.digits == (0, 0, 0)

    def test_known_tree_recovery(self):
        rec = check_membership(P((3, 4, 2, 1)), 2)
        assert rec == NonsimpleButterfly(2, 2, (1, 1, 0))

    def test_non_member(self):
        assert check_membership(P((1, 3, 2, 4)), 2) is None

    def test_exhaustive_non_members_at_n2(self):
        members = {materialize(e) for e in enumerate_group(2, 2, simple=False)}
        import itertools
        for word in itertools.permutations(range(4)):
            p = Permutation(word)
            got = check_membership(p, 2)
            assert (got is not None) == (p in members)

    def test_length_not_a_power(self):
        with pytest.raises(ValueError):
            check_membership(identity(6), 2)

    @pytest.mark.parametrize("m", [1, 0])
    def test_base_below_two_is_refused(self, m):
        # m = 1 used to divide the length by 1 forever, m = 0 by zero
        with pytest.raises(ValueError, match="base m must be >= 2"):
            check_membership(Permutation([1, 0]), m)

    def test_random_s8_sample_against_enumeration(self):
        # membership must agree with the enumerated group on arbitrary input
        members = {materialize(e) for e in enumerate_group(2, 3, simple=False)}
        assert len(members) == 128  # the encoding is injective
        rng = substream(21, 9)
        hits = 0
        for _ in range(5000):
            p = Permutation(rng.permutation(8))
            got = check_membership(p, 2)
            inside = p in members
            assert (got is not None) == inside
            hits += inside
        for p in list(members)[::8]:
            assert check_membership(p, 2) is not None
        assert hits < 40  # ~16 expected (5000 * 128/40320)

    def test_census_of_s8(self):
        # the enumerated depth-3 group is the oracle for every permutation of 8
        import itertools
        members = {materialize(e) for e in enumerate_group(2, 3, simple=False)}
        found = set()
        for word in itertools.permutations(range(8)):
            p = Permutation(word)
            if check_membership(p, 2) is not None:
                found.add(p)
        assert found == members

    def test_round_trip_random(self):
        rng = substream(21, 1)
        for _ in range(10**4):
            m = int(rng.choice([2, 3]))
            n = int(rng.integers(1, 6))
            elem = sample_nonsimple(m, n, rng)
            rec = check_membership(materialize(elem), m)
            assert rec is not None
            back = rec if isinstance(rec, NonsimpleButterfly) else to_nonsimple(rec)
            assert back == elem


class TestSampling:
    def test_depth_zero(self):
        rng = substream(21, 2)
        assert materialize(sample_simple(2, 0, rng)) == identity(1)

    def test_simple_two_point(self):
        rng = substream(21, 3)
        hits = sum(sample_simple(2, 1, rng).digits[0] == 1 for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_nonsimple_single_level(self):
        rng = substream(21, 4)
        hits = sum(sample_nonsimple(2, 1, rng).exponents[0] == 1 for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_ternary_single_level_frequencies(self):
        rng = substream(21, 5)
        counts = np.zeros(3)
        for _ in range(10**5):
            counts[sample_simple(3, 1, rng).digits[0]] += 1
        assert np.abs(counts / 10**5 - 1 / 3).max() < 0.01

    def test_simple_uniform_on_group(self):
        rng = substream(21, 6)
        index = {e: i for i, e in enumerate(enumerate_group(2, 3, simple=True))}
        counts = np.zeros(8)
        for _ in range(10**5):
            counts[index[sample_simple(2, 3, rng)]] += 1
        assert chi_square(counts, [1 / 8] * 8).p_value > 0.01

    def test_nonsimple_uniform_on_group(self):
        rng = substream(21, 7)
        index = {e: i for i, e in enumerate(enumerate_group(2, 2, simple=False))}
        counts = np.zeros(8)
        for _ in range(10**5):
            counts[index[sample_nonsimple(2, 2, rng)]] += 1
        assert chi_square(counts, [1 / 8] * 8).p_value > 0.01


class TestGroupStructure:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_simple_elements_have_order_dividing_m(self, m):
        for n in range(0, 4):
            if m**n > 200:
                continue
            for elem in enumerate_group(m, n, simple=True):
                p = materialize(elem)
                q = p
                for _ in range(m - 1):
                    q = compose(p, q)
                assert q == identity(m**n)

    def test_binary_simple_nonidentity_is_fixed_point_free_involution(self):
        for n in range(1, 7):
            for elem in enumerate_group(2, n, simple=True):
                p = materialize(elem)
                cs = cycle_stats(p)
                if p == identity(2**n):
                    continue
                assert cs.fixed_points == 0
                assert cs.by_length == {2: 2 ** (n - 1)}

    @pytest.mark.parametrize("m", [2, 3])
    def test_simple_subgroup_of_nonsimple(self, m):
        for n in range(1, 4):
            if m**n > 100:
                continue
            for elem in enumerate_group(m, n, simple=True):
                rec = check_membership(materialize(elem), m)
                assert rec is not None

    def test_as_simple_detects_equal_subtrees(self):
        simple = SimpleButterfly(3, (2, 1))
        assert as_simple(to_nonsimple(simple)) == simple
        assert as_simple(NonsimpleButterfly(2, 2, (1, 1, 0))) is None


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs, counting only its own allocations."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWalkMemory:
    """The bottom-up walk keeps a few arrays of one depth alive, at m = 2, n = 20."""

    def test_tree_lis_peak(self):
        elem = sample_nonsimple(2, 20, substream(21, 10))
        # int32 sums and a masked gather: about one tree's bytes at the bottom level
        assert traced_peak(groups.lis, elem) <= 1.25 * elem.exponents.nbytes

    def test_materialize_peak(self):
        elem = sample_nonsimple(2, 20, substream(21, 11))
        assert traced_peak(materialize, elem) <= 5.5 * 2**20 * 8

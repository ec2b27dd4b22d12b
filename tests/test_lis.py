import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from butterflylab import Permutation, groups, identity
from butterflylab.groups import (
    enumerate_group,
    materialize,
    sample_nonsimple,
    sample_simple,
)
from butterflylab.lis import (
    PATIENCE_SLICE,
    bounds,
    contraction_step,
    fit_exponent,
    lds,
    lis,
    nonsimple_lis_counts,
    nonsimple_lis_mean,
    simple_lds_pmf,
    simple_lis_pmf,
)
from butterflylab.pmf import EXACT_SIZE_CAP
from butterflylab.rng import substream


def _moments(n: int, mode: str = "exact"):
    """(mean, second moment) of the depth-n binary nonsimple LIS."""
    pmf = nonsimple_lis_counts(n, mode=mode)
    return pmf.moment(1), pmf.moment(2)


def P(one_line) -> Permutation:
    return Permutation([int(v) - 1 for v in one_line])


def to_nonsimple(elem: groups.SimpleButterfly) -> groups.NonsimpleButterfly:
    """The simple element as a member of the enclosing nonsimple group."""
    exps = tuple(d for i, d in enumerate(elem.digits) for _ in range(elem.m**i))
    return groups.NonsimpleButterfly(elem.m, elem.n, exps)


EXAMPLE = P((4, 8, 5, 1, 3, 6, 7, 2))
ORACLE_SIZE_CAP = 1 << 16


def lis_oracle(p: Permutation) -> int:
    """Quadratic dynamic-programming LIS, independent of the patience path.

    best[v] is the longest increasing run ending at value v among the
    entries read so far, and 0 for values not yet read.
    """
    if p.size > ORACLE_SIZE_CAP:
        raise ValueError(f"oracle capped at size {ORACLE_SIZE_CAP}")
    best = np.zeros(p.size, dtype=np.int64)
    for v in p.map.tolist():
        best[v] = 1 + best[:v].max(initial=0)
    return int(best.max(initial=0))

B_TRIANGLE = {
    1: [1, 1],
    2: [1, 4, 2, 1],
    3: [1, 25, 32, 35, 18, 12, 4, 1],
}

# alpha/beta to five decimals for a ladder of primes, plus the cutoffs N0
BOUND_TABLE = {
    2: (0.58496, 0.89029),
    3: (0.77124, 0.89279),
    5: (0.82948, 0.89730),
    7: (0.85564, 0.90191),
    11: (0.88117, 0.90898),
    97: (0.93712, 0.93971),
    997: (0.95833, 0.95856),
    9973: (0.96875, 0.96878),
    99991: (0.97501, 0.97501),
    999983: (0.97917, 0.97917),
}


class TestLis:
    def test_example(self):
        assert lis(EXAMPLE) == 4
        assert lis_oracle(EXAMPLE) == 4
        assert lds(EXAMPLE) == 4

    def test_identity(self):
        assert lis(identity(9)) == 9
        assert lds(identity(9)) == 1
        assert lis_oracle(identity(1)) == 1

    def test_reversal(self):
        rev = P((4, 3, 2, 1))
        assert lis(rev) == 1
        assert lds(rev) == 4

    def test_agrees_with_oracle(self):
        rng = substream(41, 0)
        for _ in range(10**4):
            M = int(rng.integers(1, 257))
            p = Permutation(rng.permutation(M))
            assert lis(p) == lis_oracle(p)

    def test_oracle_cap(self):
        with pytest.raises(ValueError):
            lis_oracle(identity(ORACLE_SIZE_CAP + 1))

    @pytest.mark.parametrize("N", [1, PATIENCE_SLICE - 1, PATIENCE_SLICE, PATIENCE_SLICE + 1,
                                   3 * PATIENCE_SLICE + 5])
    def test_slices_agree_with_oracle(self, N):
        # patience sort reads its input PATIENCE_SLICE entries at a time
        p = Permutation(substream(43, N).permutation(N))
        assert lis(p) == lis_oracle(p)
        assert lds(p) == lis_oracle(Permutation(p.map[::-1]))
        # every entry counts in a monotone run, so a dropped or repeated one shows
        rev = Permutation(np.arange(N)[::-1])
        assert lis(identity(N)) == lds(rev) == N
        assert lds(identity(N)) == lis(rev) == 1


class TestTreeLis:
    """`groups.lis` reads the LIS off the encoding; patience sort is the oracle."""

    @pytest.mark.parametrize("m, n_max", [(2, 7), (3, 4), (5, 3), (7, 2), (6, 3)])
    def test_agrees_with_patience(self, m, n_max):
        rng = substream(41, m)
        for n in range(n_max + 1):
            for _ in range(20):
                elem = sample_nonsimple(m, n, rng)
                assert groups.lis(elem) == lis(materialize(elem))
                simple = sample_simple(m, n, rng)
                assert groups.lis(simple) == groups.lis(to_nonsimple(simple)) == lis(materialize(simple))

    @pytest.mark.parametrize("m, n", [(2, 15), (3, 10), (5, 7)])
    def test_agrees_past_one_slice(self, m, n):
        # m^n > PATIENCE_SLICE, so patience sort reads several slices
        rng = substream(47, m)
        for _ in range(3):
            elem = sample_nonsimple(m, n, rng)
            assert groups.lis(elem) == lis(materialize(elem))

    def test_census_b_2_4(self):
        pmf = nonsimple_lis_counts(4)
        census = Counter(groups.lis(elem) for elem in enumerate_group(2, 4, simple=False))
        assert sum(census.values()) == pmf.total
        assert all(census[k] == pmf.mass(k) for k in pmf.support)

    @pytest.mark.parametrize("m, n", [(2, 5), (3, 4), (5, 3)])
    def test_simple_law(self, m, n):
        pmf = simple_lis_pmf(m, n)
        census = Counter(groups.lis(elem) for elem in enumerate_group(m, n, simple=True))
        assert sum(census.values()) == pmf.total
        assert all(census[k] == pmf.mass(k) for k in pmf.support)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            groups.lis(EXAMPLE)


class TestSimpleLaws:
    def test_binary_binomial_law(self):
        pmf = simple_lis_pmf(2, 3)
        for k in range(4):
            assert pmf.p(2**k) == Fraction(math.comb(3, k), 8)

    def test_binary_mean_exact(self):
        for n in range(0, 11):
            assert simple_lis_pmf(2, n).moment(1) == Fraction(3, 2) ** n

    def test_ternary_single_level(self):
        pmf = simple_lis_pmf(3, 1)
        assert pmf.p(2) == Fraction(2, 3)
        assert pmf.p(3) == Fraction(1, 3)
        assert pmf.moment(1) == Fraction(7, 3)

    def test_census_matches_binomial_and_product_identity(self):
        for n in range(1, 7):
            pmf = simple_lis_pmf(2, n)
            census: dict[int, int] = {}
            for elem in enumerate_group(2, n, simple=True):
                p = materialize(elem)
                l, d = lis(p), lds(p)
                assert l * d == 2**n
                census[l] = census.get(l, 0) + 1
            assert all(census.get(v, 0) == pmf.mass(v) for v in pmf.support)

    def test_lds_binary_is_mirror(self):
        pl = simple_lis_pmf(2, 3)
        pd = simple_lds_pmf(2, 3)
        for k in range(4):
            assert pd.p(2**k) == pl.p(2 ** (3 - k))

    def test_lds_examples(self):
        pmf = simple_lds_pmf(3, 1)
        assert pmf.p(1) == Fraction(1, 3) and pmf.p(2) == Fraction(2, 3)
        pmf = simple_lds_pmf(2, 2)
        assert [pmf.p(v) for v in (1, 2, 4)] == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]

    def test_lds_census(self):
        for m, n in ((2, 3), (3, 2)):
            pmf = simple_lds_pmf(m, n)
            census: dict[int, int] = {}
            for elem in enumerate_group(m, n, simple=True):
                d = lds(materialize(elem))
                census[d] = census.get(d, 0) + 1
            assert all(census.get(v, 0) == pmf.mass(v) for v in pmf.support)


class TestBounds:
    @pytest.mark.parametrize("m", sorted(BOUND_TABLE))
    def test_alpha_beta_table(self, m):
        b = bounds(m)
        ta, tb = BOUND_TABLE[m]
        assert abs(b.alpha - ta) < 1e-5
        assert abs(b.beta - tb) < 1e-5
        assert 0.5 < b.alpha < b.beta < 1.0

    def test_contraction_constants(self):
        b = bounds(2)
        assert abs(contraction_step(1.0) - 0.80597) < 1e-5
        assert abs(contraction_step(contraction_step(1.0)) - 0.71783) < 1e-5
        assert abs(b.c_star - 0.63092) < 1e-5
        assert abs(b.beta_star - 0.83255) < 1e-5

    def test_cutoffs(self):
        assert bounds(2).n0 == 3493
        assert bounds(3).n0 == 13
        assert bounds(5).n0 == 9

    def test_log_moments(self):
        assert bounds(2).mu == 0.5
        assert bounds(2).nu == 0.25
        # mu_3 from the closed form (2 log_3 2 + 1)/3; the variance pairs with it
        assert abs(bounds(3).mu - (2 * math.log(2, 3) + 1) / 3) < 1e-12
        assert abs(bounds(3).nu - 0.0302695) < 1e-6
        assert abs(bounds(5).mu - 0.817584) < 1e-6
        assert abs(bounds(5).nu - 0.014709) < 1e-6
        assert abs(bounds(7).mu - 0.845795) < 1e-6
        assert abs(bounds(999983).mu - 0.977789) < 1e-6

    def test_alpha_nondecreasing(self):
        vals = [bounds(m).alpha for m in range(2, 200)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_beta_star_only_for_two(self):
        assert bounds(3).beta_star is None


class TestNonsimpleCounts:
    def test_triangle_rows(self):
        for n, row in B_TRIANGLE.items():
            assert [int(v) for v in nonsimple_lis_counts(n).masses] == row

    def test_row_four_values(self):
        pmf = nonsimple_lis_counts(4)
        assert pmf.mass(2) == 676 == (int(B_TRIANGLE[3][1]) + 1) ** 2
        assert pmf.total == 2**15

    def test_endpoint_identities(self):
        prev2 = None
        for n in range(1, 11):
            pmf = nonsimple_lis_counts(n)
            assert pmf.mass(1) == 1
            assert pmf.mass(2**n) == 1
            assert pmf.mass(2**n - 1) == 2 ** (n - 1) or n == 1
            if prev2 is not None:
                assert pmf.mass(2) == (prev2 + 1) ** 2
            prev2 = pmf.mass(2)

    def test_census_equivalence(self, nonsimple_census_by_depth):
        for n, census in nonsimple_census_by_depth.items():
            pmf = nonsimple_lis_counts(n)
            assert all(census.lis_counts.get(k, 0) == pmf.mass(k) for k in pmf.support)

    def test_ternary_census_equivalence(self, ternary9_census):
        pmf = nonsimple_lis_counts(2, m=3)
        assert pmf.total == 3**4
        assert all(ternary9_census.lis_counts.get(k, 0) == pmf.mass(k) for k in pmf.support)

    def test_float_matches_exact(self):
        # Every depth under the exact cap, where both precisions run the same
        # step. The one level made through the FFT (depth 8 at m = 3) is
        # trimmed, so there the error is held to 1e-12 of the peak and
        # relative agreement is asked of the bulk only.
        for m, top in ((2, 13), (3, 8), (4, 6), (5, 5)):
            assert m**top <= EXACT_SIZE_CAP < m ** (top + 1)
            for n in range(top + 1):
                exact = nonsimple_lis_counts(n, mode="exact", m=m)
                flt = nonsimple_lis_counts(n, mode="float", m=m)
                got = np.fromiter(map(flt.mass, exact.support), np.float64, len(exact.masses))
                probs = np.array([v / exact.total for v in exact.masses])
                if n == 8 and m == 3:
                    assert np.abs(got - probs).max() < 1e-12 * probs.max()
                    probs[probs <= 1e-6] = 0.0
                rel = np.abs(got - probs) / np.maximum(probs, 1e-300)
                mask = probs > 0
                assert rel[mask].max() < 1e-12, (m, n)

    def test_depth_13_float_matches_exact(self):
        # An FFT's error is absolute (about 1e-18 here), so relative agreement
        # is asked of the bulk only.
        exact = nonsimple_lis_counts(13, mode="exact")
        flt = np.asarray(nonsimple_lis_counts(13, mode="float").masses)
        probs = np.array([v / exact.total for v in exact.masses])
        assert np.abs(flt - probs).max() < 1e-12 * probs.max()
        bulk = probs > 1e-6
        assert (np.abs(flt - probs)[bulk] / probs[bulk]).max() < 1e-12

    def test_caps(self):
        # Both modes cap the support size m^n: 8192 exact, 2^20 float. A
        # float law holds only its window of those values.
        with pytest.raises(ValueError):
            nonsimple_lis_counts(14, mode="exact")
        with pytest.raises(ValueError):
            nonsimple_lis_counts(21, mode="float")
        assert len(nonsimple_lis_counts(8, mode="exact", m=3).masses) == 3**8
        support = nonsimple_lis_counts(12, mode="float", m=3).support
        assert 1 <= support.start and support.stop <= 3**12 + 1
        with pytest.raises(ValueError, match="exceeds the exact cap"):
            nonsimple_lis_counts(9, mode="exact", m=3)
        with pytest.raises(ValueError, match="exceeds the float cap"):
            nonsimple_lis_counts(13, mode="float", m=3)
        with pytest.raises(ValueError, match="exceeds the exact cap"):
            nonsimple_lis_counts(10**6, mode="exact", m=3)


class TestNonsimpleMoments:
    def test_level_one(self):
        m1, m2 = _moments(1)
        assert m1 == Fraction(3, 2) and m2 == Fraction(5, 2)

    def test_level_zero(self):
        m1, m2 = _moments(0)
        assert m1 == 1 and m2 == 1

    def test_level_fifteen_float(self):
        m1, m2 = _moments(15, mode="float")
        assert abs(m1 - 1099.53) < 0.01
        assert abs(math.sqrt(m2) / m1 - 1.06683) < 1e-5

    def test_growth_inequality(self):
        # one-step lower bound: E X_n >= (3/2) E X_{n-1}, strict once X spreads
        means = [nonsimple_lis_counts(n).moment(1) for n in range(0, 11)]
        assert means[1] == Fraction(3, 2) * means[0]
        for a, b in list(zip(means, means[1:]))[1:]:
            assert b > Fraction(3, 2) * a

    def test_power_law_sandwich(self):
        b = bounds(2)
        for n in range(1, 13):
            mean = float(nonsimple_lis_counts(n).moment(1))
            N = 2.0**n
            assert N**b.alpha <= mean * (1 + 1e-12)
            assert mean <= N**b.beta_star

    def test_monte_carlo_mean_within_three_se(self):
        rng = substream(41, 1)
        for n in (6, 10):
            exact = float(nonsimple_lis_counts(n).moment(1))
            vals = np.array([lis(materialize(sample_nonsimple(2, n, rng))) for _ in range(10**4)])
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - exact) < 3 * se


class TestNonsimpleMean:
    """`nonsimple_lis_mean` reads E L_n off depth n - 1; the ladder's level n is the oracle."""

    @pytest.mark.parametrize("m, n_max", [(2, 12), (3, 8), (5, 5), (7, 4)])
    def test_equals_ladder_mean(self, m, n_max):
        for n in range(n_max + 1):
            assert nonsimple_lis_mean(n, m) == nonsimple_lis_counts(n, "exact", m).moment(1)

    def test_census(self, nonsimple_census_by_depth, ternary9_census):
        censuses = [(2, n, c) for n, c in nonsimple_census_by_depth.items()] + [(3, 2, ternary9_census)]
        for m, n, census in censuses:
            counts = census.lis_counts
            want = Fraction(sum(k * c for k, c in counts.items()), sum(counts.values()))
            assert nonsimple_lis_mean(n, m) == want

    def test_refusals(self):
        with pytest.raises(ValueError, match=r"^m\^n = 2\^14 exceeds the exact cap 8192$"):
            nonsimple_lis_mean(14)
        with pytest.raises(ValueError, match="exceeds the exact cap"):
            nonsimple_lis_mean(9, m=3)
        with pytest.raises(ValueError, match="exceeds the exact cap"):
            nonsimple_lis_mean(10**6)
        with pytest.raises(ValueError):
            nonsimple_lis_mean(3, m=1)
        with pytest.raises(ValueError):
            nonsimple_lis_mean(-1)


class TestFit:
    def test_exact_synthetic_line(self):
        pts = [(N, N**0.5) for N in (4, 16, 64, 256)]
        res = fit_exponent(pts)
        assert res.alpha_hat == pytest.approx(0.5, abs=1e-14)
        assert res.r_squared == pytest.approx(1.0, abs=1e-14)

    def test_simple_mean_slope(self):
        pts = [(2.0**n, 1.5**n) for n in range(1, 11)]
        res = fit_exponent(pts)
        assert res.alpha_hat == pytest.approx(math.log2(1.5), abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fit_exponent([(2.0, 1.0), (4.0, 1.0)])
        with pytest.raises(ValueError):
            fit_exponent([(2.0, 1.0)])

    @pytest.mark.parametrize("bad", [(8.0, math.nan), (8.0, math.inf), (math.inf, 3.0), (math.nan, 3.0)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            fit_exponent([(2.0, 1.0), (4.0, 2.0), bad])

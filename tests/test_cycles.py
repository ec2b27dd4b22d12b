import math
from fractions import Fraction

import numpy as np
import pytest

from butterflylab import cycle_stats, lis
from butterflylab.cycles import (
    density_grid,
    fixed_point_moments,
    lambda_p,
    limit_moments,
    moment_polynomials,
    monte_carlo_w,
    no_fixed_point_prob,
    nonsimple_cycle_counts,
    sample_cycle_counts,
    simple_cd_dist,
    simple_cycle_dist,
    x_star,
)
from butterflylab.groups import enumerate_group, materialize
from butterflylab.pmf import EXACT_SIZE_CAP
from butterflylab.rng import substream
from chisq import chi_square, merge_sparse_cells

S_TRIANGLE = {
    1: [1, 1],
    2: [2, 3, 2, 1],
    3: [16, 28, 28, 25, 16, 10, 4, 1],
}
S3_ROWS = {
    1: [2, 1],
    2: [36, 26, 12, 6, 1],
    3: [472392, 387828, 258552, 198396, 121418, 77472],
}
S5_ROW2 = [10000, 3524, 1280, 640, 160, 20, 1]

M_EXPECTED = {
    2: Fraction(4, 3),
    3: Fraction(32, 15),
    4: Fraction(3328, 855),
    5: Fraction(262144, 33345),
    6: Fraction(40435712, 2345265),
}


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial_terms(p, k):
    """(multinomial(k; i), i) over compositions i of k into p parts all < k."""
    for comp in _compositions(k, p):
        if max(comp) < k:
            coeff = math.factorial(k)
            for c in comp:
                coeff //= math.factorial(c)
            yield coeff, comp


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reference_limit_moments(p, k_max):
    """limit_moments by enumerating compositions, the slow oracle."""
    lam = lambda_p(p)
    m = [Fraction(1), Fraction(1)]
    for k in range(2, k_max + 1):
        acc = Fraction(0)
        for coeff, comp in _multinomial_terms(p, k):
            prod = Fraction(coeff)
            for c in comp:
                prod *= m[c]
            acc += prod
        m.append(acc * (lam - 1) / ((p - 1) * (lam**k - lam)))
    return m


def reference_moment_polynomials(p, k_max):
    """moment_polynomials(...).polys by enumerating compositions."""
    lam = lambda_p(p)
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(2, k_max + 1):
        r = [Fraction(0)] * (k + 1)
        for coeff, comp in _multinomial_terms(p, k):
            prod = [Fraction(coeff)]
            for c in comp:
                prod = _poly_mul(prod, polys[c])
            r = [a + b for a, b in zip(r, prod)]
        coeffs = [Fraction(0)] * (k + 1)
        for j in range(2, k + 1):
            coeffs[j] = r[j] / (p - 1) * (lam - 1) / (lam**j - lam)
        coeffs[1] = 1 - sum(coeffs[2:], Fraction(0))
        polys.append(coeffs)
    return tuple(tuple(c) for c in polys)


class TestSimpleCycleDist:
    def test_binary_level_three(self):
        pmf = simple_cycle_dist(2, 3)
        assert pmf.p(4) == Fraction(7, 8)
        assert pmf.p(8) == Fraction(1, 8)

    def test_ternary_level_one(self):
        pmf = simple_cycle_dist(3, 1)
        assert pmf.p(1) == Fraction(2, 3)
        assert pmf.p(3) == Fraction(1, 3)

    def test_census_equivalence(self):
        for n in range(1, 7):
            pmf = simple_cycle_dist(2, n)
            census: dict[int, int] = {}
            for elem in enumerate_group(2, n, simple=True):
                c = cycle_stats(materialize(elem)).total_cycles
                census[c] = census.get(c, 0) + 1
            assert all(census.get(k, 0) == pmf.mass(k) for k in pmf.support)

    def test_rejects_composite(self):
        for p in (1, 4, 25):
            with pytest.raises(ValueError):
                simple_cycle_dist(p, 2)
        for p in (2, 31):
            assert simple_cycle_dist(p, 1).p(p) == Fraction(1, p)


class TestSimpleCdDist:
    def test_examples(self):
        pmf = simple_cd_dist(4, 1, 1)
        assert pmf.p(4) == Fraction(1, 4) and pmf.p(0) == Fraction(3, 4)
        pmf = simple_cd_dist(6, 1, 3)
        assert pmf.p(2) == Fraction(1, 3) and pmf.p(0) == Fraction(2, 3)
        pmf = simple_cd_dist(4, 2, 2)
        assert pmf.p(8) == Fraction(1, 4) - Fraction(1, 16)

    def test_census_base4(self):
        # all 16 digit pairs of the depth-2 base-4 simple group
        for d in (1, 2):
            pmf = simple_cd_dist(4, 2, d)
            census: dict[int, int] = {}
            for elem in enumerate_group(4, 2, simple=True):
                cd = cycle_stats(materialize(elem)).by_length.get(d, 0)
                census[cd] = census.get(cd, 0) + 1
            assert all(census.get(k, 0) == pmf.mass(k) for k in pmf.support)

    def test_census_base6_level1(self):
        for d in (1, 2, 3):
            pmf = simple_cd_dist(6, 1, d)
            census: dict[int, int] = {}
            for elem in enumerate_group(6, 1, simple=True):
                cd = cycle_stats(materialize(elem)).by_length.get(d, 0)
                census[cd] = census.get(cd, 0) + 1
            assert all(census.get(k, 0) == pmf.mass(k) for k in pmf.support)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            simple_cd_dist(6, 1, 4)
        with pytest.raises(ValueError):
            simple_cd_dist(6, 1, 6)


class TestStirlingTriangles:
    def test_binary_rows(self):
        for n, row in S_TRIANGLE.items():
            assert [int(v) for v in nonsimple_cycle_counts(2, n).masses] == row

    def test_binary_row_four_prefix(self, b16_census):
        pmf = nonsimple_cycle_counts(2, 4)
        assert [int(pmf.mass(k)) for k in range(1, 9)] == [2048, 3840, 4480, 4880, 4416, 3976, 3128, 2337]
        assert all(b16_census.cycle_counts.get(k, 0) == pmf.mass(k) for k in pmf.support)

    def test_ternary_rows(self, ternary9_census):
        for n, row in S3_ROWS.items():
            pmf = nonsimple_cycle_counts(3, n)
            got = [int(pmf.mass(1 + j * 2)) for j in range(len(row))]
            assert got == row
        pmf2 = nonsimple_cycle_counts(3, 2)
        assert all(ternary9_census.cycle_counts.get(k, 0) == pmf2.mass(k) for k in pmf2.support)

    def test_base5_row(self):
        pmf = nonsimple_cycle_counts(5, 2)
        assert [int(pmf.mass(1 + 4 * j)) for j in range(7)] == S5_ROW2

    def test_support_stride(self):
        pmf = nonsimple_cycle_counts(5, 2)
        for k in pmf.support:
            if (k - 1) % 4:
                assert pmf.mass(k) == 0

    def test_structural_identities(self):
        for p, nmax in ((2, 6), (3, 4), (5, 3)):
            for n in range(1, nmax + 1):
                pmf = nonsimple_cycle_counts(p, n)
                order = p ** ((p**n - 1) // (p - 1))
                assert pmf.total == order
                assert pmf.mass(p**n) == 1
                # P(Y = 1) = (1 - 1/p)^n, i.e. count (p-1)^n p^{(p^n-1)/(p-1) - n}
                assert pmf.p(1) == Fraction(p - 1, p) ** n
                if p == 2:
                    assert pmf.mass(2**n - 1) == 2 ** (n - 1)
                    assert pmf.mass(1) == 2 ** (2**n - n - 1)

    def test_float_matches_exact(self):
        # Every depth under the exact cap, where both precisions run the same
        # step; no level there is made through the FFT.
        for p, top in ((2, 13), (3, 8), (5, 5)):
            assert p**top <= EXACT_SIZE_CAP < p ** (top + 1)
            for n in range(top + 1):
                exact = nonsimple_cycle_counts(p, n)
                flt = nonsimple_cycle_counts(p, n, mode="float")
                got = np.fromiter(map(flt.mass, exact.support), np.float64, len(exact.masses))
                probs = np.array([v / exact.total for v in exact.masses])
                good = probs >= np.finfo(float).tiny  # subnormals carry fewer bits
                rel = np.abs(got[good] - probs[good]) / probs[good]
                assert rel.max() < 1e-11, (p, n)

    def test_depth_13_float_matches_exact(self):
        exact = nonsimple_cycle_counts(2, 13)
        flt = np.asarray(nonsimple_cycle_counts(2, 13, mode="float").masses)
        probs = np.array([v / exact.total for v in exact.masses])
        good = probs >= np.finfo(float).tiny  # subnormals carry fewer bits
        rel = np.abs(flt[good] - probs[good]) / probs[good]
        assert rel.max() < 1e-11

    def test_cap(self):
        with pytest.raises(ValueError):
            nonsimple_cycle_counts(2, 14)
        # A huge depth is refused by its size alone: 3^(10^6) is never built
        # or printed (its 477,122 digits pass the int-to-str limit).
        with pytest.raises(ValueError, match="exceeds the float cap"):
            nonsimple_cycle_counts(3, 10**6, mode="float")

    def test_unknown_mode_is_named_before_the_size_cap(self):
        # 2^21 is past the float cap, whose message named the mode as a cap.
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            nonsimple_cycle_counts(2, 21, mode="bogus")
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            lis.nonsimple_lis_counts(21, mode="bogus")


class TestMomentPolynomials:
    def test_table_rows(self):
        table = moment_polynomials(2, 5)
        assert table.polys[1] == (Fraction(0), Fraction(1))
        assert table.polys[2] == (Fraction(0), Fraction(-1, 3), Fraction(4, 3))
        assert table.polys[3] == (Fraction(0), Fraction(1, 5), Fraction(-4, 3), Fraction(32, 15))
        assert table.polys[4][1:] == (
            Fraction(-13, 95), Fraction(68, 45), Fraction(-64, 15), Fraction(3328, 855))
        assert table.polys[5][1:] == (
            Fraction(341, 3705), Fraction(-308, 171), Fraction(352, 45),
            Fraction(-6656, 513), Fraction(262144, 33345))

    def test_normalization(self):
        for p in (2, 3):
            table = moment_polynomials(p, 6)
            for k in range(1, 7):
                assert sum(table.polys[k], Fraction(0)) == 1
                assert table.polys[k][0] == 0
                assert table.limits[k] > 0

    def test_moments_match_exact_counts(self):
        table = moment_polynomials(2, 5)
        for n in range(0, 5):
            pmf = nonsimple_cycle_counts(2, n)
            for k in range(1, 6):
                assert pmf.moment(k) == table.moment(k, n)

    def test_ternary_moments_match_exact_counts(self):
        table = moment_polynomials(3, 4)
        for n in range(0, 3):
            pmf = nonsimple_cycle_counts(3, n)
            for k in range(1, 5):
                assert pmf.moment(k) == table.moment(k, n)


class TestLimitMoments:
    def test_small_values(self):
        ms = limit_moments(2, 6)
        for k, v in M_EXPECTED.items():
            if k != 4:
                assert ms[k] == v
        assert ms[4] == Fraction(3328, 855)

    @pytest.mark.xfail(strict=True, reason=(
        "target 3228/885 contradicts the recursion: feeding it forward gives "
        "m5 != 262144/33345 and m6 != 40435712/2345265, and the degree-4 "
        "polynomial with the companion coefficients -13/95, 68/45, -64/15 "
        "only sums to 1 with leading coefficient 3328/855"))
    def test_m4_printed_target(self):
        assert limit_moments(2, 4)[4] == Fraction(3228, 885)

    def test_limits_match_polynomial_leading_coefficients(self):
        # The width-1 run against the leading row of the full-width run.
        for p, K in ((2, 24), (3, 16), (5, 12), (7, 10)):
            table = moment_polynomials(p, K)
            ms = limit_moments(p, K)
            assert list(table.limits[1:]) == ms[1:], (p, K)

    @pytest.mark.parametrize("p, k_max", [(2, 12), (3, 10), (5, 8), (7, 6)])
    def test_power_rule_matches_composition_enumeration(self, p, k_max):
        assert limit_moments(p, k_max) == reference_limit_moments(p, k_max)
        assert moment_polynomials(p, k_max).polys == reference_moment_polynomials(p, k_max)

    def test_second_moment_closed_form(self):
        # m_2 = p (p-1) (lam-1) / ((p-1)(lam^2 - lam)) = p^2 / (2p - 1)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert limit_moments(p, 2)[2] == Fraction(p * p, 2 * p - 1)

    def test_ternary_second_moment(self):
        assert limit_moments(3, 2)[2] == Fraction(9, 5)

    def test_ternary_tail_constant(self):
        ms = limit_moments(3, 10)
        assert float(ms[10] / 5**10) == pytest.approx(0.00634537, abs=1e-8)

    def test_ratio_profile(self):
        ms = limit_moments(2, 100)
        ratios = [float(ms[k] / Fraction(4) ** k) for k in range(1, 101)]
        assert ratios[22] == pytest.approx(0.0000902136, rel=1e-6)
        assert float(ms[23]) == pytest.approx(6.3482e9, rel=1e-4)
        assert all(a > b for a, b in zip(ratios[:22], ratios[1:23]))
        assert all(a < b for a, b in zip(ratios[22:99], ratios[23:100]))
        first_ge_one = next(k for k in range(1, 101) if ratios[k - 1] >= 1)
        assert first_ge_one == 63
        assert ratios[62] == pytest.approx(1.1092, abs=1e-3)
        assert ratios[99] == pytest.approx(1.95675e8, rel=1e-3)

    def test_moment_growth_bounds(self):
        lam = Fraction(3, 2)
        ms = limit_moments(2, 100)
        for k in range(1, 101):
            assert ms[k] <= lam ** (1 - k) * math.factorial(k)
        for k in range(7, 101):
            assert float(ms[k]) <= (k / math.log(k + 1)) ** k
        roots = [float(ms[k]) ** (1 / k) for k in range(1, 101)]
        assert all(a <= b + 1e-12 for a, b in zip(roots, roots[1:]))

    def test_functional_equation_through_order_twenty(self):
        # 2 xi(3z/2) = xi(z)^2 + xi(z) for xi(z) = sum m_k z^k / k!
        K = 20
        ms = limit_moments(2, K)
        xi = [ms[k] / math.factorial(k) for k in range(K + 1)]
        lam = Fraction(3, 2)
        lhs = [2 * xi[k] * lam**k for k in range(K + 1)]
        sq = [Fraction(0)] * (K + 1)
        for a in range(K + 1):
            for b in range(K + 1 - a):
                sq[a + b] += xi[a] * xi[b]
        assert all(lhs[k] - sq[k] - xi[k] == 0 for k in range(K + 1))


class TestDensity:
    def test_binary_vanishes_at_origin(self):
        # the first support cell carries (1/2)^n (3/2)^n = (3/4)^n -> 0
        (_, f0), = density_grid(2, 12, [0.0])
        assert f0 == 0.0
        vals = []
        for n in (8, 12, 16):
            (_, f), = density_grid(2, n, [1.5 / 1.5**n])  # middle of the first cell
            assert f == pytest.approx(0.75**n, rel=1e-9)
            vals.append(f)
        assert vals[0] > vals[1] > vals[2]

    def test_ternary_origin_growth(self):
        # value at the first support cell is (1 - 1/3)^n (5/3)^n / 2 = (10/9)^n / 2
        for n in (6, 8, 9):
            (_, f0), = density_grid(3, n, [2.0 / (5 / 3) ** n])
            assert f0 == pytest.approx((10 / 9) ** n / 2, rel=1e-9)

    def test_levels_eight_nine_stability(self):
        ts = np.arange(0.1, 5.0, 0.05)
        g8 = dict(density_grid(3, 8, ts))
        g9 = dict(density_grid(3, 9, ts))
        worst = max(abs(g8[t] - g9[t]) for t in g8)
        assert worst < 0.05  # measured 0.0405 for the plug-in estimator

    @pytest.mark.xfail(strict=True, reason=(
        "successive plug-in grids at depths 8 and 9 still differ by ~0.04 near "
        "t = 0.1 (kernel-smoothed or cdf-based comparisons ~0.003-0.013); the "
        "0.001 target needs far deeper levels"))
    def test_levels_eight_nine_stability_printed_target(self):
        ts = np.arange(0.1, 5.0, 0.05)
        g8 = dict(density_grid(3, 8, ts))
        g9 = dict(density_grid(3, 9, ts))
        assert max(abs(g8[t] - g9[t]) for t in g8) < 0.001

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            density_grid(2, 4, [-0.1])

    def test_level_twenty_mass(self):
        pmf = nonsimple_cycle_counts(2, 20, mode="float")
        assert abs(float(np.asarray(pmf.masses).sum()) - 1.0) < 1e-9


class TestFixedPoints:
    def test_mean_is_one_and_second_moment_formula(self):
        assert fixed_point_moments(7, 5, 1) == 1
        assert fixed_point_moments(2, 1, 2) == 2
        assert fixed_point_moments(3, 4, 2) == 9
        with pytest.raises(ValueError):
            fixed_point_moments(2, 1, 3)

    def test_second_moment_census(self, nonsimple_census_by_depth, ternary9_census):
        for n, census in nonsimple_census_by_depth.items():
            e2 = sum(f * f * c for f, c in census.fixed_point_counts.items())
            assert Fraction(e2, census.size) == fixed_point_moments(2, n, 2)
            e1 = sum(f * c for f, c in census.fixed_point_counts.items())
            assert Fraction(e1, census.size) == 1
        e2 = sum(f * f * c for f, c in ternary9_census.fixed_point_counts.items())
        assert Fraction(e2, 81) == fixed_point_moments(3, 2, 2) == 5

    def test_no_fixed_point_iteration(self):
        assert no_fixed_point_prob(2, 0) == 0
        assert no_fixed_point_prob(2, 1) == Fraction(1, 2)
        assert no_fixed_point_prob(2, 2) == Fraction(5, 8)
        assert no_fixed_point_prob(3, 1) == Fraction(2, 3)
        assert no_fixed_point_prob(3, 2) == Fraction(62, 81)

    def test_no_fixed_point_census(self, nonsimple_census_by_depth, ternary9_census):
        for n, census in nonsimple_census_by_depth.items():
            fpf = census.fixed_point_counts.get(0, 0)
            assert Fraction(fpf, census.size) == no_fixed_point_prob(2, n)
        assert Fraction(ternary9_census.fixed_point_counts.get(0, 0), 81) == no_fixed_point_prob(3, 2)

    @pytest.mark.xfail(strict=True, reason=(
        "the 8-element depth-2 binary group has exactly 5 fixed-point-free "
        "elements (the identity-block pair with both halves swapped, plus all "
        "four top-swap elements); 6 of 8 is impossible since E T^2 = 3"))
    def test_b4_census_printed_target(self, nonsimple_census_by_depth):
        assert nonsimple_census_by_depth[2].fixed_point_counts.get(0, 0) == 6

    def test_x_star_values(self):
        assert x_star(2) == 1.0
        assert x_star(3) == pytest.approx((math.sqrt(3) - 1) / 2, abs=1e-12)
        assert x_star(5) == pytest.approx(0.200257, abs=1e-6)
        assert x_star(7) == pytest.approx(0.142858, abs=1e-6)

    def test_iterates_climb_critically_toward_one(self):
        # extinction of a critical branching process: p_n -> 1, survival ~ 1/n
        for m in (2, 3, 5):
            x = 0.0
            seq = []
            for _ in range(400):
                x = (1.0 - 1.0 / m) + x**m / m
                seq.append(x)
            assert all(a < b for a, b in zip(seq, seq[1:]))
            assert 1.0 - seq[-1] < 10.0 / ((m - 1) * len(seq))
            assert 1.0 - seq[-1] > 0.1 / ((m - 1) * len(seq))

    def test_x_star_is_interior_fixed_point(self):
        # the companion root: fixed point of x -> 1/m + (1 - 1/m) x^m
        for m in (3, 5, 7, 9):
            xs = x_star(m)
            assert abs(1.0 / m + (1.0 - 1.0 / m) * xs**m - xs) < 1e-12

    def test_x_star_concentrates_on_reciprocal(self):
        for m in (5, 9, 15):
            bound = 2 * (1 - 1 / m) * m ** (-m)
            assert abs(x_star(m) - 1 / m) < max(bound, 1e-13)


class TestMonteCarlo:
    def test_level_zero_degenerate(self):
        rng = substream(51, 0)
        moments, _ = monte_carlo_w(2, 0, 100, rng)
        assert np.allclose(moments, 1.0)

    def test_sampler_matches_exact_law(self):
        rng = substream(51, 1)
        draws = sample_cycle_counts(2, 4, 20000, rng)
        pmf = nonsimple_cycle_counts(2, 4)
        probs = np.array([v / pmf.total for v in pmf.masses])
        counts = np.bincount(draws, minlength=17)[1:]
        mp, mc = merge_sparse_cells(probs, counts)
        assert chi_square(mc, mp).p_value > 0.01

    def test_moments_near_limits_at_level_ten(self):
        rng = substream(51, 2)
        moments, _ = monte_carlo_w(2, 10, 10**4, rng)
        assert abs(moments[5] - 17.24143) / 17.24143 < 0.25

    def test_moments_within_five_se_at_level_fifteen(self):
        rng = substream(51, 3)
        moments, ses = monte_carlo_w(2, 15, 10**4, rng)
        ms = limit_moments(2, 6)
        for k in range(1, 7):
            assert abs(moments[k - 1] - float(ms[k])) < 5 * ses[k - 1]

    def test_ternary_sampler(self):
        rng = substream(51, 4)
        draws = sample_cycle_counts(3, 2, 30000, rng)
        pmf = nonsimple_cycle_counts(3, 2)
        probs = np.array([float(pmf.p(k)) for k in (1, 3, 5, 7, 9)])
        counts = np.array([(draws == k).sum() for k in (1, 3, 5, 7, 9)])
        mp, mc = merge_sparse_cells(probs, counts)
        assert chi_square(mc, mp).p_value > 0.01

    def test_lambda_values(self):
        assert lambda_p(2) == Fraction(3, 2)
        assert lambda_p(5) == Fraction(9, 5)

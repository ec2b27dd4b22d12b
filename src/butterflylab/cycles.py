"""Cycle-count distributions for butterfly permutation groups.

Simple groups have closed two-point laws. Nonsimple prime-base groups obey
the branching recursion Y_{n+1} = Y_n + eta * (Y'_n,2 + ... + Y'_n,p) with
eta ~ Bern(1/p), which drives everything here: the butterfly Stirling
triangles s_B^(p)(n, k), the moment polynomials p_k^(p) with
E Y_n^k = p_k(lambda_p^n) for lambda_p = 2 - 1/p, the limiting moments
m_k^(p), density grids for the limit W^(p), and the Monte Carlo sampler.
Both moment tables run one recursion, `_moment_rows`: Miller's power rule
for the p-th power of an exponential generating function, on the highest
coefficients of the moment polynomials. The limit moments are its leading
row, m_k = [x^k] p_k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import check_size, tree_size
from .pmf import Ladder, Pmf, finish_level, powers

__all__ = [
    "simple_cycle_dist",
    "simple_cd_dist",
    "nonsimple_cycle_counts",
    "MomentTable",
    "moment_polynomials",
    "limit_moments",
    "density_grid",
    "no_fixed_point_prob",
    "x_star",
    "fixed_point_moments",
    "sample_cycle_counts",
    "monte_carlo_w",
]


PRIME_CAP = 1 << 40


def _require_prime(p: int) -> None:
    check_size(p, 1, PRIME_CAP, "prime")  # trial division then takes at most 2^20 steps
    if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError(f"{p} is not prime")


def lambda_p(p: int) -> Fraction:
    """Per-level growth rate of the expected cycle count: 2 - 1/p."""
    return Fraction(2 * p - 1, p)


# ---------------------------------------------------------------------------
# Simple groups
# ---------------------------------------------------------------------------


def simple_cycle_dist(p: int, n: int) -> Pmf:
    """C(sigma) for the uniform simple p-nary group, p prime, N = p^n.

    Two-point law: N/p (the N-1 nonidentity elements, all products of
    p-cycles) versus N (the identity). Counts out of the group order N.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("n >= 1")
    N = p**n
    masses = [0] * (N - N // p + 1)
    masses[0] = N - 1
    masses[-1] = 1
    return Pmf(N // p, masses, total=N)


def _mobius(n: int) -> int:
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


def simple_cd_dist(m: int, n: int, d: int) -> Pmf:
    """Count of length-d cycles for the uniform simple m-nary group.

    A digit tuple (j_1..j_n) yields a permutation whose cycles all share
    one length: the lcm of the factor orders. All factor orders divide d
    with probability (d/m)^n, so by Moebius inversion over the divisor
    lattice C_d(sigma) = (N/d) Bern(sum_{e | d} mu(d/e) (e/m)^n).
    Two-point Pmf on {0, N/d}; requires d | m with d < m.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2, n >= 1")
    if d <= 0 or m % d or d >= m:
        raise ValueError("d must be a proper divisor of m")
    hit = 0
    e = 1
    while e <= d:
        if d % e == 0:
            hit += _mobius(d // e) * e**n
        e += 1
    N = m**n
    masses = [0] * (N // d + 1)
    masses[0] = m**n - hit
    masses[-1] = hit
    return Pmf(0, masses, total=m**n)


# ---------------------------------------------------------------------------
# Nonsimple prime-base groups: butterfly Stirling numbers
# ---------------------------------------------------------------------------


def _step(p: int, d: int, level: Pmf) -> tuple[int, np.ndarray, float]:
    """s_{d+1} from s_d on the compressed index: (p-1) free s_d + shift_1(s_d^(*p)),
    with free = p^(p^d - 1) for counts and 1 for probabilities, which
    `pmf.finish_level` then divides by p."""
    s, lo = level.masses, level.offset
    (*_, conv), fft = powers(s, p)
    shift = (p - 1) * lo + 1  # conv starts at p * lo + 1
    new = np.zeros(max(len(s), shift + len(conv)), s.dtype)
    if s.dtype != object:
        new[: len(s)] = (p - 1) * s
    elif p == 2:  # (p-1) free = 2^(2^d - 1): a shift is far cheaper than the multiply
        new[: len(s)] = s << (2**d - 1)
    else:
        new[: len(s)] = (p - 1) * p ** (p**d - 1) * s
    new[shift : shift + len(conv)] += conv
    return finish_level(lo, new, p, fft)


def _level_size(p: int, d: int) -> int:
    return tree_size(p, d) + 1  # compressed index j = (k-1)/(p-1), k = 1..p^d


_LADDER = Ladder(0, _step, _level_size)


def nonsimple_cycle_counts(p: int, n: int, mode: str = "exact") -> Pmf:
    """Law of C(sigma) for the uniform nonsimple p-nary group at depth n.

    Support lives on k = 1 mod (p-1); the recursion runs on the compressed
    index j = (k-1)/(p-1), where one level is

        s_{n+1} = (p-1) p^(p^n - 1) s_n  +  shift_1(s_n^(*p))

    (the p-fold self-convolution for the branching case). Exact mode keeps
    big-integer counts summing to the group order; float mode runs the same
    `_step` on probabilities, with an FFT path and a 1e-9 mass-drift guard
    on large supports. A
    float level made through the FFT (the first is depth 14 at p = 2, 9 at
    p = 3) keeps only its window of masses at or above `pmf.TRIM_FLOOR` =
    1e-13 of the peak, and a float law's support runs over its window only.
    """
    if n < 0:
        raise ValueError("n >= 0")
    _require_prime(p)
    level = _LADDER.level(p, n, mode)
    spread = np.zeros((p - 1) * (len(level.masses) - 1) + 1, level.masses.dtype)
    spread[:: p - 1] = level.masses
    return Pmf(1 + (p - 1) * level.offset, spread)


# ---------------------------------------------------------------------------
# Moment polynomials and limiting moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTable:
    """Exact-rational moment polynomials p_k and their leading coefficients.

    E Y_n^k = p_k(lambda^n); polys[k][j] is the coefficient of x^j; the
    limit moments are m_k = polys[k][k], so E (Y_n lambda^-n)^k -> m_k.
    """

    p: int
    lam: Fraction
    polys: tuple[tuple[Fraction, ...], ...]

    @property
    def limits(self) -> tuple[Fraction, ...]:
        return tuple(poly[-1] for poly in self.polys)

    def moment(self, k: int, n: int) -> Fraction:
        """E Y_n^k, exactly."""
        x = self.lam**n
        return sum((c * x**j for j, c in enumerate(self.polys[k])), Fraction(0))


def _moment_rows(p: int, k_max: int, width: int) -> list[list[Fraction]]:
    """The `width` highest coefficients of p_0..p_k_max, highest degree first.

    p_0 = 1, p_1(x) = x, and for k >= 2 the source polynomial r_k is
    k! [t^k] P(t)^p less its p single-part terms p * p_k, for
    P(t) = sum p_i t^i / i!. J.C.P. Miller's power rule (Knuth, TAOCP vol.
    2, 4.7) builds it from k - 1 products,
    r_k = sum_{j=1..k-1} w_j p_j beta_{k-j}, w_j = ((p+1) j - k) C(k, j) / k,
    where beta_i = r_i + p * p_i = i! [t^i] P(t)^p. Then
    a_{kj} = r_{kj} (lam - 1) / ((p-1)(lam^j - lam)) for j >= 2, and a_{k1}
    closes p_k(1) = 1. The first `width` coefficients of a product need
    only the first `width` of each factor, so width 1 gives the limit
    moments m_k = a_{kk} alone.
    """
    _require_prime(p)
    if k_max < 1:
        raise ValueError("k_max >= 1")
    lam = lambda_p(p)
    rows = [[Fraction(1)], [Fraction(1), Fraction(0)][:width]]
    betas = [[Fraction(1)], [Fraction(p), Fraction(0)][:width]]
    for k in range(2, k_max + 1):
        weights = [(j, Fraction(((p + 1) * j - k) * math.comb(k, j), k)) for j in range(1, k)]
        r = []
        for t in range(min(width, k + 1)):  # degree k - t
            terms = []
            for j, w in weights:
                a, b = rows[j], betas[k - j]
                lo = max(0, t - len(b) + 1)
                terms += [w * x * y for x, y in zip(a[lo : t + 1], b[t - lo :: -1])]
            # One common denominator and one reduction per coefficient; a
            # running Fraction sum would take a gcd of thousands-of-digit
            # integers per term.
            den = math.lcm(*(s.denominator for s in terms))
            r.append(Fraction(sum(s.numerator * (den // s.denominator) for s in terms), den))
        row = [c * (lam - 1) / ((p - 1) * (lam ** (k - t) - lam)) for t, c in enumerate(r[: k - 1])]
        if len(r) >= k:  # a_{k1} closes p_k(1) = 1, and p_k(0) = 0
            row += [1 - sum(row, Fraction(0)), Fraction(0)]
        rows.append(row[:width])
        betas.append([c + p * a for c, a in zip(r, row)])
    return rows


def moment_polynomials(p: int, k_max: int) -> MomentTable:
    """Moment polynomials of the cycle recursion, exact rationals.

    The full-width run of `_moment_rows`, reversed to lowest degree first.
    Row k sums about k^3 / 6 coefficient products, so p_0..p_K cost O(K^4)
    rational operations.
    """
    rows = _moment_rows(p, k_max, k_max + 1)
    return MomentTable(p=p, lam=lambda_p(p), polys=tuple(tuple(reversed(row)) for row in rows))


def limit_moments(p: int, k_max: int) -> list[Fraction]:
    """m_0..m_k_max of the limit W^(p): the leading row of `_moment_rows`.

    m_0 = m_1 = 1 and for k >= 2
    m_k = (lam-1) / ((p-1)(lam^k - lam)) * sum_{i_1+..+i_p = k, i_l < k}
          multinomial(k; i) prod m_{i_l},
    the leading coefficient of p_k. A leading coefficient depends only on
    leading coefficients, so the width-1 run of Miller's power rule builds
    each sum from k - 1 products, and m_0..m_K cost O(K^2) rational
    operations.
    """
    return [row[0] for row in _moment_rows(p, k_max, 1)]


# ---------------------------------------------------------------------------
# Limiting density and fixed points
# ---------------------------------------------------------------------------


def density_grid(p: int, n: int, t_values):
    """Plug-in estimates of the W^(p) density at finite depth n.

    f_hat(t) = P(Y_n = k(t)) * lam^n / (p-1) with
    k(t) = floor((t lam^n - 1)/(p-1)) (p-1) + 1, the support atom whose
    cell contains t lam^n. f_hat = 0 once k(t) passes p^n, as at t lam^n = inf.
    """
    counts = nonsimple_cycle_counts(p, n, mode="float")
    lam = float(lambda_p(p))
    scale = lam**n
    past = tree_size(p, n) + 1  # compressed index of the atom after p^n
    out = []
    for t in t_values:
        t = float(t)
        if t < 0:
            raise ValueError("t must be >= 0")
        j = (t * scale - 1) / (p - 1)  # k(t) = floor(j) (p-1) + 1
        out.append((t, 0.0 if j >= past else float(counts.p(math.floor(j) * (p - 1) + 1)) * scale / (p - 1)))
    return out


def no_fixed_point_prob(m: int, n: int) -> Fraction:
    """P(no fixed point) at depth n, exactly.

    The fixed-point count is a branching variable T_{n+1} = eta (T' + ... )
    with eta ~ Bern(1/m) and m summands, so extinction probabilities obey
    p_{n+1} = (1 - 1/m) + p_n^m / m from p_0 = 0. The process is critical
    (mean offspring 1), so p_n increases to 1 at the slow 1/n branching
    rate. Verified against exhaustive censuses at small depths. Exact
    iterates have degree m^n, so keep n modest.
    """
    if m < 2 or n < 0:
        raise ValueError("need m >= 2, n >= 0")
    x = Fraction(0)
    for _ in range(n):
        x = Fraction(m - 1, m) + x**m / m
    return x


def x_star(m: int) -> float:
    """The unique root in (0, 1) of q_m(x) = -1 + (m-1)(x + ... + x^(m-1)).

    Equivalently the interior fixed point of x -> 1/m + (1 - 1/m) x^m for
    m >= 3; x*_m = 1/m + O(m^-m). By convention x*_2 = 1 (q_2(x) = x - 1).
    Note the no-fixed-point iterates of `no_fixed_point_prob` climb past
    this value toward 1; x* is the companion root, not their limit.
    """
    if m < 2:
        raise ValueError("m >= 2")
    if m == 2:
        return 1.0
    def q(x: float) -> float:
        return -1.0 + (m - 1) * sum(x**j for j in range(1, m))
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if q(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_point_moments(m: int, n: int, k: int) -> Fraction:
    """E T_n^k for k in {1, 2}: E T_n = 1 and E T_n^2 = n(m-1) + 1."""
    if k == 1:
        return Fraction(1)
    if k == 2:
        return Fraction(n * (m - 1) + 1)
    raise ValueError("only k = 1, 2 have closed forms here")


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def sample_cycle_counts(p: int, n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """iid draws of C(sigma_n) via the branching recursion, vectorized.

    Unrolling the recursion top-down, each of the k live level-l nodes
    independently branches into p nodes with probability 1/p, so
    k <- k + (p-1) Binomial(k, 1/p) per level; Y_n is the final leaf count.
    """
    _require_prime(p)
    counts = np.ones(trials, dtype=np.int64)
    for _ in range(n):
        counts = counts + (p - 1) * rng.binomial(counts, 1.0 / p)
    return counts


def monte_carlo_w(p: int, n: int, trials: int, rng: np.random.Generator):
    """Empirical moments of W_n = C(sigma_n) lambda_p^-n from `trials` draws.

    Returns (moments, standard_errors) as arrays indexed k-1 for k = 1..6.
    """
    if trials < 1:
        raise ValueError("trials >= 1")
    w = sample_cycle_counts(p, n, trials, rng) * float(lambda_p(p)) ** (-n)
    moments = np.empty(6)
    ses = np.empty(6)
    for k in range(1, 7):
        wk = w**k
        moments[k - 1] = wk.mean()
        ses[k - 1] = wk.std(ddof=1) / math.sqrt(trials) if trials > 1 else np.inf
    return moments, ses

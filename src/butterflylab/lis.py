"""Longest increasing/decreasing subsequence statistics for butterfly groups.

Exact distributions come from the recursive block structure. For the simple
m-nary group the LIS is a product of iid factors max(X, m - X); for the
nonsimple group the per-level update is

    L -> max(sum of m - e child LIS values, sum of e child LIS values)

with e uniform on {0,...,m-1} (e = 0 recovers the full sum). The binary
count triangle b(n, k) = #{sigma : L(sigma) = k} follows the same recursion
with counts in place of probabilities.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import check_size
from .permutations import Permutation
from .pmf import EXACT_SIZE_CAP, Ladder, Pmf, finish_level, powers

__all__ = [
    "lis",
    "lds",
    "simple_lis_pmf",
    "simple_lds_pmf",
    "BoundsTable",
    "bounds",
    "contraction_step",
    "nonsimple_lis_counts",
    "nonsimple_lis_mean",
    "FitResult",
    "fit_exponent",
]


# Entries converted to Python ints at a time: bisect compares ints far faster
# than numpy scalars, and a slice this size keeps the converted ints small
# (a whole 2^20 array at once would hold about 36 MB of int objects).
PATIENCE_SLICE = 1 << 14


def _patience(seq: np.ndarray) -> int:
    tails: list[int] = []
    size = 0
    for lo in range(0, seq.size, PATIENCE_SLICE):
        for x in seq[lo : lo + PATIENCE_SLICE].tolist():
            i = bisect_left(tails, x)
            if i == size:
                tails.append(x)
                size += 1
            else:
                tails[i] = x
    return size


def lis(p: Permutation) -> int:
    """Length of the longest increasing subsequence (patience sorting)."""
    return _patience(p.map)


def lds(p: Permutation) -> int:
    """Longest decreasing subsequence: LIS of the reversed one-line array."""
    return _patience(p.map[::-1])


# ---------------------------------------------------------------------------
# Simple-group laws
# ---------------------------------------------------------------------------


def simple_lis_pmf(m: int, n: int) -> Pmf:
    """Exact law of prod_{j=1}^n max(X_j, m - X_j), X_j uniform on [m].

    Counts out of m^n; support values are products of {ceil(m/2)..m-1, m}.
    """
    if m < 2 or n < 0:
        raise ValueError("need m >= 2, n >= 0")
    factors = [max(j, m - j) for j in range(1, m + 1)]
    counts: dict[int, int] = {1: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for v, c in counts.items():
            for f in factors:
                nxt[v * f] = nxt.get(v * f, 0) + c
        counts = nxt
    top = max(counts)
    masses = [counts.get(v, 0) for v in range(1, top + 1)]
    return Pmf(1, masses, total=m**n)


def simple_lds_pmf(m: int, n: int) -> Pmf:
    """Exact law of the simple-group LDS: log2 D is Binom(n, 1 - 1/m).

    The LDS doubles at a level exactly when that level's factor is not the
    identity (probability 1 - 1/m; the circulant block pattern lets a
    decreasing path cross two blocks only). For m = 2 this is the pointwise
    mirror D = 2^n / L of `simple_lis_pmf`.
    """
    if m < 2 or n < 0:
        raise ValueError("need m >= 2, n >= 0")
    counts = {2**k: math.comb(n, k) * (m - 1) ** k for k in range(n + 1)}
    top = 2**n
    masses = [counts.get(v, 0) for v in range(1, top + 1)]
    return Pmf(1, masses, total=m**n)


# ---------------------------------------------------------------------------
# Power-law bound constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsTable:
    """Expected-LIS growth constants for base m."""

    m: int
    alpha: float
    beta: float
    mu: float
    nu: float
    n0: int
    beta_star: float | None = None
    c_star: float | None = None


def contraction_step(x: float) -> float:
    """One step of the m = 2 variance-ratio contraction c_{k+1} = h(c_k).

    h(x) = 1/9 + (107x - 6 sqrt(2x)) / (9 D)
               + 2 sqrt(2x) sqrt(4 / D^2 + 1 / (9 (3 + sqrt(2x))^2)),
    with D = 18 + 6 sqrt(2x) + x. Fixed point c* ~ 0.63092.
    """
    s = math.sqrt(2.0 * x)
    D = 18.0 + 6.0 * s + x
    term2 = (107.0 * x - 6.0 * s) / (9.0 * D)
    term3 = 2.0 * s * math.sqrt(4.0 / (D * D) + 1.0 / (9.0 * (3.0 + s) ** 2))
    return 1.0 / 9.0 + term2 + term3


def _contraction_fixed_point() -> float:
    """c* from c_0 = 1: the first iterate within 1e-15 of its predecessor."""
    c = 1.0
    for _ in range(10**4):
        nxt = contraction_step(c)
        if abs(nxt - c) < 1e-15:
            return nxt
        c = nxt
    raise RuntimeError("contraction iteration failed to converge")


def bounds(m: int) -> BoundsTable:
    """All growth constants for base m, to full double precision.

    alpha: m^alpha = (3 m^2 + r_m) / (4 m) with r_m = m mod 2 (exact
    first moment of the simple-group LIS, and the nonsimple lower bound).
    beta: m^beta = (m+1)/2 + (1/2m) sum_j sqrt(m + (m-2j)^2) (upper bound).
    beta_star (m = 2 only): log2(6 + sqrt(2 c*)) - 2 from the contraction.
    mu, nu: mean and variance of log_m max(X, m - X).
    n0: smallest N with N^alpha > 2 sqrt(N), i.e. ceil(2^(1/(alpha - 1/2))).
    """
    if m < 2:
        raise ValueError("m >= 2")
    r = m % 2
    logm = math.log(m)
    alpha = math.log((3.0 * m * m + r) / (4.0 * m)) / logm
    j = np.arange(1, m, dtype=np.float64)
    beta = math.log(0.5 * (m + 1) + float(np.sqrt(m + (m - 2 * j) ** 2).sum()) / (2.0 * m)) / logm
    logs = np.log(np.maximum(np.arange(1, m + 1), m - np.arange(1, m + 1))) / logm
    mu = float(logs.mean())
    nu = float(((logs - mu) ** 2).mean())
    n0 = math.ceil(2.0 ** (1.0 / (alpha - 0.5)))
    beta_star = c_star = None
    if m == 2:
        c_star = _contraction_fixed_point()
        beta_star = math.log2(6.0 + math.sqrt(2.0 * c_star)) - 2.0
    return BoundsTable(m=m, alpha=alpha, beta=beta, mu=mu, nu=nu, n0=n0,
                       beta_star=beta_star, c_star=c_star)


# ---------------------------------------------------------------------------
# Nonsimple-group exact distribution
# ---------------------------------------------------------------------------


def _on_grid(x: np.ndarray, start: int, n: int, fill) -> np.ndarray:
    """x[start:start + n], padded with ``fill`` to length n, in x's dtype."""
    out = np.full(n, fill, dtype=x.dtype)
    seg = x[start : start + n]
    out[: len(seg)] = seg
    return out


def _max_law(oa: int, a: np.ndarray, ob: int, b: np.ndarray) -> tuple[int, np.ndarray]:
    """(offset, masses) of max(S_a, S_b) for independent S_a, S_b with
    masses a from value oa and b from value ob, both counts (object arrays)
    or both probabilities: P(S_a = k) P(S_b <= k) + P(S_a < k) P(S_b = k)."""
    lo = max(oa, ob)
    n = max(oa + len(a), ob + len(b)) - lo
    # In-place products free each big-integer cdf entry as soon as it is
    # used, which keeps the exact depth-12 step's peak RSS down.
    cdf = np.concatenate((np.zeros(1, a.dtype), np.cumsum(a)))  # P(S_a < oa + i)
    Fa = _on_grid(cdf, lo - oa, n, cdf[-1])  # P(S_a < k), k = lo..lo+n-1
    cdf = np.concatenate((np.zeros(1, b.dtype), np.cumsum(b)))
    out = _on_grid(cdf, lo - ob + 1, n, cdf[-1])  # P(S_b <= k)
    del cdf
    out *= _on_grid(a, lo - oa, n, 0)
    Fa *= _on_grid(b, lo - ob, n, 0)
    out += Fa
    return lo, out


def _sums(level: Pmf, k: int) -> tuple[list[tuple[int, np.ndarray]], bool]:
    """(offset, masses) of the sums S_0..S_k of 0..k iid values from
    ``level``, and whether a convolution took the float FFT."""
    pw, fft = powers(level.masses, k)
    ones = np.ones(1, level.masses.dtype)  # S_0 = 0
    return [(0, ones)] + [(j * level.offset, s) for j, s in enumerate(pw, 1)], fft


def _step(m: int, d: int, level: Pmf) -> tuple[int, np.ndarray, float]:
    """Depth d+1 from depth d: the max/sum update summed over e, for counts
    or (`pmf.finish_level` then divides by m) probabilities."""
    sums, fft = _sums(level, m)
    lo = -(-m // 2) * level.offset  # smallest max(S_{m-e}, S_e), at e = m // 2
    top = m * (level.offset + len(level.masses) - 1)  # S_m's largest value
    new = np.zeros(top + 1 - lo, level.masses.dtype)
    for e in range(m):
        start, part = _max_law(*sums[m - e], *sums[e])
        new[start - lo : start - lo + len(part)] += part
        del part  # before the next part is built: the depth-12 peak
    return finish_level(lo, new, m, fft)


def _level_size(m: int, d: int) -> int:
    return m**d + 1  # index = value 0..m^d; value 0 has no mass


_LADDER = Ladder(1, _step, _level_size)  # depth 0: L = 1


def nonsimple_lis_counts(n: int, mode: str = "exact", m: int = 2) -> Pmf:
    """Law of the nonsimple-group LIS at depth n, on values 1..m^n.

    Exact mode returns big-integer counts, from value 1; float mode runs
    the same recursion on normalized masses (direct convolution, switching
    to FFT with a mass-drift guard above 4096 support points) and returns
    the ladder's level itself, whose window is its support. Both refuse m^n
    above their size cap (`pmf.Ladder.level`).

    The FFT's error is absolute, about 1e-18 per mass, so a float level
    made through it (the first is depth 14 at m = 2, 8 at m = 3) keeps only
    its window of masses at or above `pmf.TRIM_FLOOR` = 1e-13 of the peak.
    Against the exact depth-8 law at m = 3 the relative error is 6e-14 on
    masses above 1e-6, and the absolute error 1e-13 of the peak.
    """
    if m < 2 or n < 0:
        raise ValueError("need m >= 2, n >= 0")
    level = _LADDER.level(m, n, mode)  # index = value
    if level.total is None:
        return level
    return Pmf(1, np.concatenate((np.zeros(level.offset - 1, object), level.masses)))  # from ceil(m/2)^n


def nonsimple_lis_mean(n: int, m: int = 2) -> Fraction:
    """E L_n exactly, from the law of depth n - 1 alone.

    One level is L = max(S_{m-e}, S_e) for the sums S_j of j iid depth n - 1
    values, with e uniform on 0..m-1, so by linearity
    E L_n = (1/m) sum_e E max(S_{m-e}, S_e). The e = 0 term is the m-fold
    sum, of mean m E L_{n-1}; the others need the laws of sums of at most
    m - 1 values, taken from the exact ladder's level n - 1 by `_sums` and
    `_max_law` as in `_step`. So the largest product of `_step`, the m-fold
    convolution (for m = 2 the square behind depth n), is never formed, and
    depth n is not built. Refuses m^n above `pmf.EXACT_SIZE_CAP`, like the
    exact `nonsimple_lis_counts`.
    """
    if m < 2 or n < 0:
        raise ValueError("need m >= 2, n >= 0")
    check_size(m, n, EXACT_SIZE_CAP, "exact")
    if n == 0:
        return Fraction(1)
    level = _LADDER.level(m, n - 1, "exact")
    total = level.total
    sums, _ = _sums(level, m - 1)
    acc = m * _value_sum(*sums[1]) * total ** (m - 1)
    for e in range(1, m):
        acc += _value_sum(*_max_law(*sums[m - e], *sums[e]))
    return Fraction(acc, m * total**m)


def _value_sum(offset: int, counts: np.ndarray) -> int:
    """sum of value * count over counts indexed from value ``offset``."""
    return sum(k * c for k, c in enumerate(counts.tolist(), offset))


# ---------------------------------------------------------------------------
# Exponent regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    alpha_hat: float
    intercept: float
    r_squared: float


def fit_exponent(points) -> FitResult:
    """Unweighted OLS of log(mean) on log(N) over (N, mean) pairs."""
    pts = [(float(N), float(v)) for N, v in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if not all(0 < N < math.inf and 0 < v < math.inf for N, v in pts):  # NaN fails both
        raise ValueError("N and mean must be positive and finite")
    x = np.log([N for N, _ in pts])
    y = np.log([v for _, v in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("degenerate input: zero variance in log(mean)")
    return FitResult(alpha_hat=float(coef[0]), intercept=float(coef[1]),
                     r_squared=1.0 - ss_res / ss_tot)

"""Pearson chi-square for the distributional tests; no subcommand needs it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from butterflylab.pmf import Pmf

__all__ = ["ChiSquareResult", "chi_square", "merge_sparse_cells"]


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float


def chi_square(observed, expected) -> ChiSquareResult:
    """Pearson chi-square of observed counts against expected probabilities.

    `observed` maps cell -> count (or is a sequence aligned with `expected`);
    `expected` is a Pmf of counts or a same-length probability sequence.
    Every expected mass must be positive and the supports must agree. The
    p-value is the regularized upper incomplete gamma Q(df/2, stat/2) with
    df = cells - 1.
    """
    if isinstance(expected, Pmf):
        probs = [v / expected.total for v in expected.masses]
        support = list(expected.support)
    else:
        probs = [float(x) for x in expected]
        support = list(range(len(probs)))
    if isinstance(observed, dict):
        unknown = set(observed) - set(support)
        if unknown:
            raise ValueError(f"observed cells outside expected support: {sorted(unknown)[:5]}")
        counts = np.array([float(observed.get(v, 0)) for v in support])
    else:
        counts = np.asarray(observed, dtype=np.float64)
        if counts.shape != (len(probs),):
            raise ValueError("observed/expected length mismatch")
    pr = np.asarray(probs)
    if (pr <= 0).any():
        raise ValueError("expected masses must be positive; merge zero cells first")
    total = counts.sum()
    exp = pr * total
    stat = float(((counts - exp) ** 2 / exp).sum())
    df = len(probs) - 1
    return ChiSquareResult(statistic=stat, df=df, p_value=float(gammaincc(df / 2.0, stat / 2.0)))


def merge_sparse_cells(probs, counts):
    """Greedily merge adjacent cells until every expected count reaches 5.

    Returns (merged_probs, merged_counts). Keeps chi-square honest on laws
    with long thin tails.
    """
    total = float(np.sum(counts))
    out_p: list[float] = []
    out_c: list[float] = []
    acc_p = acc_c = 0.0
    for p_i, c_i in zip(probs, counts):
        acc_p += float(p_i)
        acc_c += float(c_i)
        if acc_p * total >= 5.0:
            out_p.append(acc_p)
            out_c.append(acc_c)
            acc_p = acc_c = 0.0
    if acc_p > 0:
        if out_p:
            out_p[-1] += acc_p
            out_c[-1] += acc_c
        else:
            out_p.append(acc_p)
            out_c.append(acc_c)
    return np.asarray(out_p), np.asarray(out_c)

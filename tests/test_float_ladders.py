"""The windowed float ladders against the untrimmed recursion they replaced.

`_untrimmed` runs the float LIS and Stirling steps as they were before
levels became windows: every level keeps its whole support, FFT noise and
all, and is renormalized as the ladder does. It is the oracle here.
`zero_filled` spreads a ladder window over every value 1..m^n, zeros
around it; the float laws, which hold only the window, must agree with it
at every value.
"""
from __future__ import annotations

import numpy as np
import pytest

from butterflylab import cycles, lis
from butterflylab.pmf import _FFT_THRESHOLD, TRIM_FLOOR, float_convolve

# (module, base, deepest float level under pmf.FLOAT_SIZE_CAP)
LADDERS = [(lis, 2, 20), (lis, 3, 12), (cycles, 2, 20), (cycles, 3, 12)]
IDS = ["lis-m2", "lis-m3", "cycles-p2", "cycles-p3"]


def _convolve(a, b, fft):
    fft.append(max(len(a), len(b)) > _FFT_THRESHOLD)
    return float_convolve(a, b)


def _lis_step(m, cur, fft):
    convs = [np.array([1.0]), cur]
    for _j in range(m - 1):
        convs.append(_convolve(convs[-1], cur, fft))
    new = np.zeros(m * (len(cur) - 1) + 1)
    for e in range(m):
        ca, cb = convs[m - e], convs[e]
        L = max(len(ca), len(cb))
        ca = np.pad(ca, (0, L - len(ca)))
        cb = np.pad(cb, (0, L - len(cb)))
        Fa = np.cumsum(ca)
        Fb = np.cumsum(cb)
        part = ca * Fb + np.concatenate(([0.0], Fa[:-1])) * cb
        new[: len(part)] += part
    new /= float(m)
    return new


def _cycle_step(p, comp, fft):
    conv = comp
    for _ in range(p - 1):
        conv = _convolve(conv, comp, fft)
    new = np.zeros(len(conv) + 1)
    new[: len(comp)] += (1 - 1 / p) * comp
    new[1:] += conv / p
    return new


def _untrimmed(module, base, top):
    """Levels 0..top as full Pmf-shaped mass arrays (value 1 first), and
    for each level whether its step convolved through the FFT."""
    if module is lis:
        level, step = np.array([0.0, 1.0]), _lis_step
    else:
        level, step = np.array([1.0]), _cycle_step
    levels, made_by_fft = [level], [False]
    for _ in range(top):
        fft: list[bool] = []
        level = step(base, levels[-1], fft)
        levels.append(level / level.sum())
        made_by_fft.append(any(fft))
    if module is lis:
        return [x[1:] for x in levels], made_by_fft
    full = []
    for d, x in enumerate(levels):
        masses = np.zeros(base**d)
        masses[:: base - 1] = x
        full.append(masses)
    return full, made_by_fft


def _law(module, base, n):
    if module is lis:
        return lis.nonsimple_lis_counts(n, "float", m=base)
    return cycles.nonsimple_cycle_counts(base, n, "float")


def zero_filled(module, base, n):
    """The depth-n float law as masses of values 1..base^n: the ladder's
    window with zeros around it (and, for cycles, between its atoms)."""
    window = module._LADDER.level(base, n, "float")
    if module is lis:
        masses = np.zeros(base**n + 1)  # index = value
        masses[window.offset : window.offset + len(window.masses)] = window.masses
        return masses[1:]
    masses = np.zeros(base**n)  # compressed index j holds k = (base - 1) j + 1
    masses[(base - 1) * window.offset :: base - 1][: len(window.masses)] = window.masses
    return masses


def _by_value(pmf, size):
    """pmf.mass(k) for k = 1..size."""
    return np.fromiter(map(pmf.mass, range(1, size + 1)), np.float64, size)


@pytest.fixture(scope="module", params=LADDERS, ids=IDS)
def ladder(request):
    module, base, top = request.param
    return module, base, top, *_untrimmed(module, base, top)


def test_means_match_the_untrimmed_ladder(ladder):
    module, base, top, oracle, _ = ladder
    for n in range(top + 1):
        values = np.arange(1, base**n + 1, dtype=np.float64)
        want = float(oracle[n] @ values)
        assert _law(module, base, n).moment(1) == pytest.approx(want, rel=1e-10), n


def test_levels_no_fft_made_match_the_untrimmed_ladder(ladder):
    module, base, top, oracle, made_by_fft = ladder
    first_fft = made_by_fft.index(True)
    assert first_fft >= 8  # levels of 4096 points and more are still whole
    for n in range(first_fft):
        got = _by_value(_law(module, base, n), base**n)
        pos = oracle[n] > 0
        rel = np.abs(got[pos] - oracle[n][pos]) / oracle[n][pos]
        assert rel.max() < 1e-13, n


def test_trimmed_mass_stays_below_the_drift_guard(ladder):
    module, base, top, _, made_by_fft = ladder
    levels = [module._LADDER.level(base, n, "float") for n in range(top + 1)]
    assert all(w.cut == 0.0 for w, fft in zip(levels, made_by_fft) if not fft)
    assert 0.0 < sum(w.cut for w in levels) < 1e-9


@pytest.mark.parametrize("module, size, first_value", [
    (lis, 45_478, lambda offset: offset),  # index = value
    (cycles, 21_362, lambda offset: offset + 1),  # compressed index j holds k = j + 1
], ids=["lis", "cycles"])
def test_depth_20_window_is_a_small_part_of_the_support(module, size, first_value):
    window = module._LADDER.level(2, 20, "float")
    pmf = _law(module, 2, 20)
    assert len(pmf.masses) == len(window.masses) == size < 0.1 * 2**20
    assert pmf.support.start == first_value(window.offset)


EXPANDED = [(lis, 2, range(14, 21)), (lis, 3, range(8, 13)),
            (cycles, 2, range(14, 21)), (cycles, 3, range(9, 13))]


@pytest.mark.parametrize("module, base, depths", EXPANDED, ids=IDS)
def test_window_laws_match_their_zero_filled_expansion(module, base, depths):
    for n in depths:
        want = zero_filled(module, base, n)
        pmf = _law(module, base, n)
        assert 1 <= pmf.support.start and pmf.support.stop <= base**n + 1, n
        assert (_by_value(pmf, base**n) == want).all(), n
        values = np.arange(1, base**n + 1, dtype=np.float64)
        for k in range(1, 5):
            assert pmf.moment(k) == pytest.approx(float(want @ values**k), rel=1e-15), (n, k)


@pytest.mark.parametrize("m, n", [(2, 13), (3, 8)])
def test_trimmed_levels_match_the_exact_ladder(m, n):
    # The deepest exact LIS levels (at m = 3 made by FFT, so trimmed): masses
    # meet the depth-13 tolerances, and every mass cut is below the floor.
    exact = lis.nonsimple_lis_counts(n, "exact", m=m)
    probs = np.array([v / exact.total for v in exact.masses])
    pmf = lis.nonsimple_lis_counts(n, "float", m=m)
    flt = _by_value(pmf, m**n)
    peak = probs.max()
    assert np.abs(flt - probs).max() < 1e-12 * peak
    bulk = probs > 1e-6
    assert (np.abs(flt - probs)[bulk] / probs[bulk]).max() < 1e-12
    outside = np.array([k not in pmf.support for k in exact.support])
    assert (flt[outside] == 0.0).all()
    assert (probs[outside] < 2 * TRIM_FLOOR * peak).all()

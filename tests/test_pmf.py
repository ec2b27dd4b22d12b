import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from butterflylab import cycles, lis
from butterflylab.pmf import Ladder, Pmf, float_convolve, int_convolve
from butterflylab.rng import substream


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_int_convolve_matches_schoolbook():
    rng = substream(5, 0)
    for _ in range(50):
        a = [int(v) for v in rng.integers(0, 1 << 40, size=int(rng.integers(1, 12)))]
        b = [int(v) for v in rng.integers(0, 1 << 40, size=int(rng.integers(1, 12)))]
        assert int_convolve(a, b) == schoolbook(a, b)


def test_int_convolve_huge_entries():
    a = [2**3000, 1, 0, 5]
    b = [3, 2**2999]
    assert int_convolve(a, b) == schoolbook(a, b)


@pytest.mark.parametrize("bits", [7, 8, 9, 15, 16, 17, 63, 64, 65])
def test_int_convolve_byte_boundaries(bits):
    # Slots of bits just below, at and above a byte boundary: the largest
    # product coefficient 4v needs bits - 1 bits. Zero entries, leading and
    # trailing ones included, leave empty slots in the packed integers.
    v = (2 ** (bits - 1) - 1) // 4
    assert (v * 4).bit_length() + 1 == bits
    a = [0, v, v, 0, v, v, 0]
    b = [1, 1, 0, 1, 1, 0]
    assert int_convolve(a, b) == schoolbook(a, b)
    assert int_convolve(b, a) == schoolbook(b, a)
    assert int_convolve([0, 0], b) == [0] * 7


def test_count_mode_total_and_probability():
    pmf = Pmf(1, [1, 3, 4], "count")
    assert pmf.total == 8
    assert pmf.p(2) == Fraction(3, 8)
    assert pmf.p(99) == 0
    assert pmf.moment(1) == Fraction(1 * 1 + 2 * 3 + 3 * 4, 8)


def test_count_mode_total_mismatch():
    with pytest.raises(ValueError):
        Pmf(1, [1, 1], "count", total=3)


def test_float_mode_sum_guard():
    Pmf(0, [0.5, 0.5], "float")
    with pytest.raises(ValueError):
        Pmf(0, [0.5, 0.4], "float")


def test_convolution_count_mode():
    two = Pmf(2, int_convolve([1] * 6, [1] * 6), "count")
    assert two.total == 36
    assert two.p(7) == Fraction(6, 36)
    assert two.moment(1) == Fraction(7)


def test_float_convolution_matches_exact():
    rng = substream(3, 0)
    b = [5, 1]
    for a in ([1, 2, 3, 4], [int(v) for v in rng.integers(0, 1000, 5000)]):  # direct, FFT
        exact = int_convolve(a, b)
        cf = float_convolve(np.array(a) / sum(a), np.array(b) / sum(b))
        probs = np.array([float(Fraction(x, sum(exact))) for x in exact])
        assert len(cf) == len(exact)
        assert np.abs(cf - probs).max() < 1e-15


def test_trimmed():
    pmf = Pmf(0, [0, 0, 3, 1, 0], "count")
    t = pmf.trimmed()
    assert t.offset == 2 and list(t.masses) == [3, 1]


def test_ladder_checks_each_level():
    def size(m, d):
        return d + 1

    with pytest.raises(ArithmeticError, match="entries"):
        Ladder([1], lambda m, d, level: [2], size).level(2, 1)
    with pytest.raises(ArithmeticError, match="group order"):
        Ladder([1], lambda m, d, level: level + [0], size).level(2, 1)
    with pytest.raises(FloatingPointError):
        Ladder(np.array([1.0]), lambda m, d, level: np.array([0.5, 0.4]), size).level(2, 1)
    # Group orders 1, 2, 2^3: level d puts all of them on one atom.
    ok = Ladder([1], lambda m, d, level: [0] * (d + 1) + [m ** (2 ** (d + 1) - 1)], size)
    assert ok.level(2, 2) == [0, 0, 8]


@pytest.mark.parametrize("module, law, depth", [
    (lis, lambda n: lis.nonsimple_lis_counts(n, "float"), 14),
    (cycles, lambda n: cycles.nonsimple_cycle_counts(2, n, "float"), 16),
])
def test_ladder_threads_compute_each_level_once(monkeypatch, module, law, depth):
    ladder = module._FLOAT_LADDER
    monkeypatch.setattr(ladder, "_levels", {})
    sequential = law(depth)
    monkeypatch.setattr(ladder, "_levels", {})
    results = [None] * 4

    def work(i):
        results[i] = law(depth)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(ladder._levels[2]) == depth + 1
    for pmf in results:
        assert pmf.offset == sequential.offset
        assert np.array_equal(pmf.masses, sequential.masses)

import hashlib
import random
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflylab import cycles, lis
from butterflylab.pmf import TRIM_FLOOR, Ladder, Pmf, float_convolve, int_convolve, powers, trim
from butterflylab.pmf import _INT_FFT_BITS as CROSS
from butterflylab import pmf
from butterflylab.pmf import _CHECK_PRIME as P
from butterflylab.pmf import _fft_multiply, _mod_check_prime, _multiply
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


_ENTRIES = st.one_of(st.just(0), st.integers(0, 255), st.integers(0, 2**64), st.integers(0, 2**300))


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRIES, min_size=1, max_size=40), st.lists(_ENTRIES, min_size=1, max_size=40))
def test_int_convolve_matches_schoolbook_at_any_length(a, b):
    # Lengths 1..40, so both parities of the output length len(a) + len(b) - 1
    # (the even coefficients outnumber the odd ones by one when it is odd),
    # single entries, zero entries and all-zero lists. A square is one list
    # passed twice; an equal copy takes the two-operand path.
    assert int_convolve(a, b) == schoolbook(a, b)
    assert int_convolve(a, a) == schoolbook(a, a)
    assert int_convolve(a, list(a)) == schoolbook(a, a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([15, 16, 17, 31, 32, 33, 127, 128, 129]),
       st.integers(1, 40), st.integers(1, 40), st.integers(1, 200), st.randoms(use_true_random=False))
def test_int_convolve_at_half_slot_boundaries(bits, la, lb, mb, rng):
    # Slot bounds just below, at and above a multiple of 16 bits, where h,
    # the half-slot width in bytes, steps. All-maximal entries make the middle
    # coefficient max_a * max_b * min(len), the largest the bound allows.
    k = min(la, lb)
    ma = (2 ** (bits - 2) - 1) // (mb * k) + 1
    a, b = [ma] * la, [mb] * lb
    assert (ma * mb * k).bit_length() + 1 == bits
    assert int_convolve(a, b) == schoolbook(a, b)
    assert int_convolve(a, a) == schoolbook(a, a)
    c = [rng.randint(0, ma) for _ in range(la)]  # max_b fixes the bound; c's entries may be smaller
    c[rng.randrange(la)] = ma
    assert int_convolve(c, b) == schoolbook(c, b)
    assert int_convolve(b, c) == schoolbook(b, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(26, 2000), st.lists(st.integers(0, 3), min_size=1, max_size=40),
       st.integers(1, 40), st.randoms(use_true_random=False))
def test_int_convolve_entries_spill_past_the_half_slot(width, b, la, rng):
    # Wide entries against small ones, as in the unbalanced s^(*2) * s
    # products of p = 3: an entry of a is wider than B = 8h bits, so its high
    # part lies in the next slot of its packing.
    b[rng.randrange(len(b))] = rng.randint(1, 3)
    a = [rng.getrandbits(width) | 1 << width - 1 if rng.random() < 0.8 else 0 for _ in range(la)]
    a[rng.randrange(la)] = (1 << width) - 1
    h = ((max(a) * max(b) * min(len(a), len(b))).bit_length() + 1 + 15) // 16  # as in `int_convolve`
    assert max(a).bit_length() > 8 * h
    assert int_convolve(a, b) == schoolbook(a, b)
    assert int_convolve(b, a) == schoolbook(b, a)


def _operand(rng, bits):
    return rng.getrandbits(bits) | 1 << (bits - 1)


@pytest.mark.parametrize("bits", [CROSS // 2, CROSS - 1, CROSS, CROSS + 1, 2 * CROSS - 1, 2 * CROSS,
                                  2 * CROSS + 1, 4 * CROSS + 13, 8 * CROSS + 13, 1 << 20])
def test_multiply_random_operands(bits):
    # Both sides of the crossover, and of twice it, where the transform length
    # doubles; above it the FFT itself must be exact, not merely rescued by
    # the integer fallback.
    rng = random.Random(bits)
    x, y = _operand(rng, bits), _operand(rng, bits)
    assert _multiply(x, y) == x * y
    assert _multiply(x, x) == x * x
    if bits >= CROSS:
        assert _fft_multiply(x, y) == x * y
        assert _fft_multiply(x, x) == x * x


@pytest.mark.parametrize("bits", [CROSS, 2 * CROSS, 1 << 20, 1 << 23])
def test_multiply_all_ones_limbs(bits):
    # Every limb 0xFFF: the largest coefficients, sums of 4095 * 4095, the
    # FFT meets at this length; 2^23 bits is the edge of Percival's bound,
    # past the 2^22-bit products behind depth 12.
    # (2^k - 1)^2 = 2^2k - 2^(k+1) + 1 stands in for x * y at that size,
    # which would take CPython seconds.
    x = (1 << bits) - 1
    y = (1 << bits) - 1  # equal value, another object: the two-transform path
    square = (1 << 2 * bits) - (1 << bits + 1) + 1
    if bits <= 1 << 20:
        assert square == x * y
    assert _fft_multiply(x, x) == square
    assert _fft_multiply(x, y) == square
    assert _multiply(x, y) == square


def test_multiply_unequal_lengths():
    rng = random.Random(7)
    big = _operand(rng, 16 * CROSS)
    for bits in (1, 64, CROSS - 1, CROSS, 3 * CROSS + 5):
        small = _operand(rng, bits)
        assert _multiply(big, small) == big * small
        assert _multiply(small, big) == small * big
        if bits >= CROSS:
            assert _fft_multiply(small, big) == small * big


def test_multiply_zero_limbs():
    rng = random.Random(11)
    x = _operand(rng, 4 * CROSS)
    sparse = (1 << (6 * CROSS)) | (1 << (3 * CROSS)) | 1  # runs of zero bytes
    shifted = x << (2 * CROSS)  # trailing zero limbs
    for y in (sparse, shifted, 1 << (5 * CROSS)):
        assert _fft_multiply(x, y) == x * y
        assert _multiply(y, x) == y * x
    assert _multiply(x, 0) == 0
    assert _multiply(0, x) == 0


def test_multiply_check_mismatch_falls_back(monkeypatch):
    rng = random.Random(13)
    x, y = _operand(rng, 2 * CROSS), _operand(rng, 2 * CROSS)
    irfft = np.fft.irfft

    def off_by_one(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[5] += 1.0
        return out

    monkeypatch.setattr(np.fft, "irfft", off_by_one)
    assert _fft_multiply(x, y) != x * y
    assert _multiply(x, y) == x * y
    assert _multiply(x, x) == x * x


def _random_bits(bits, seed):
    return random.Random(seed).getrandbits(bits)


_SEEDS = st.integers(0, 2**32)
_BITS = st.one_of(st.integers(0, 4096), st.integers(0, 1 << 24), st.just(1 << 24))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.sampled_from([0, 1, P - 1, P, P + 1, 1 << 61, 2 * P, P * P, (1 << 64) - 1]),
    st.builds(_random_bits, _BITS, _SEEDS),
    st.builds(lambda bits, seed: P * _random_bits(bits, seed), _BITS, _SEEDS),
    st.builds(lambda bits: (1 << bits) - 1, _BITS),  # every word 0xFFFFFFFF: the largest class sums
))
def test_mod_check_prime_matches_remainder(x):
    assert _mod_check_prime(x) == x % P


@pytest.mark.parametrize("residue", [0, 1, 11, 12, 13, 23])
@pytest.mark.parametrize("extra", [0, 12])
def test_fft_multiply_at_limb_boundaries(residue, extra):
    # Bit lengths at and around the 12-bit limbs and the 3-byte groups they
    # come from; a second operand 12 bits longer flips the parity of the
    # coefficient count, and so whether the last digit holds one coefficient
    # or two.
    bits = 24 * 3000 + residue
    rng = random.Random(residue)
    x = _operand(rng, bits)
    y = _operand(rng, bits + extra)
    counts = {(len(pmf._limbs(x)) + len(pmf._limbs(v)) - 1) % 2 for v in (x, y)}
    assert len(counts) == (2 if extra else 1)
    assert _fft_multiply(x, y) == x * y
    assert _fft_multiply(x, x) == x * x
    ones = (1 << bits) - 1
    assert _fft_multiply(ones, (1 << bits + extra) - 1) == ones * ((1 << bits + extra) - 1)


@pytest.mark.parametrize("bits", [1 << 24, 1 << 25])
def test_multiply_all_ones_at_depth_13_size(bits):
    # Every limb 0xFFF at 2^24 bits, the size of the products behind depth
    # 13, and at twice that: the FFT itself is exact there, with no help from
    # the check.
    x = (1 << bits) - 1
    assert _fft_multiply(x, x) == (1 << 2 * bits) - (1 << bits + 1) + 1


def test_depth_12_ladders_make_no_check_mismatch(monkeypatch):
    # The check in `_multiply` keeps every FFT product of the depth-12 LIS
    # (m = 2) and Stirling (p = 2) ladders, and of the p = 3 ladder to depth
    # 7, whose FFT products include four of unequal operands: `_multiply`
    # returns the FFT's own result, never the fallback x * y.
    # Each convolution makes two products, P+ and P-, whose operands differ
    # by at most one bit, and takes the FFT when the smaller operand has at
    # least CROSS = 2^15 bits. The m = 2 LIS and p = 2 Stirling steps each
    # square once; the squares' operands have 16,257 bits on the step to
    # depth 8 and 65,281, 261,633, 1,047,553 and 4,192,257 on the steps to
    # depths 9..12: 2 ladders x 4 steps x 2 products = 16. A p = 3 step forms
    # s^(*2) and s^(*2) * s. Up to depth 7, only the steps to depths 6 and 7
    # reach 2^15 bits, and the square of the first stays below (24,201 bits):
    # three convolutions (smaller operands of 35,817 to 317,409 bits) x 2 = 6.
    # So 22 in all.
    assert CROSS == 1 << 15
    products, kept = [], []

    def fft_counting(x, y):
        products.append(fft_multiply(x, y))
        return products[-1]

    def multiply_counting(x, y):
        before = len(products)
        out = multiply(x, y)
        if len(products) > before:
            kept.append(out is products[-1] and out % P == (x % P) * (y % P) % P)
        return out

    fft_multiply, multiply = pmf._fft_multiply, pmf._multiply
    monkeypatch.setattr(pmf, "_fft_multiply", fft_counting)
    monkeypatch.setattr(pmf, "_multiply", multiply_counting)
    monkeypatch.setattr(lis._LADDER, "_levels", {})
    monkeypatch.setattr(cycles._LADDER, "_levels", {})
    lis.nonsimple_lis_counts(12)
    cycles.nonsimple_cycle_counts(2, 12)
    cycles.nonsimple_cycle_counts(3, 7)
    assert len(kept) == 22
    assert all(kept)


def test_depth_12_ladders_multiply_half_width_operands(monkeypatch):
    # KS2 evaluates at +-2^B with half-width slots: the largest operand
    # behind depth 12 has 4,192,257 bits, where one product with full-width
    # slots would multiply 8,384,513-bit ones. Its FFT sets the peak memory
    # of the depth-12 ladders.
    widest = []

    def multiply_recording(x, y):
        widest.append(max(x.bit_length(), y.bit_length()))
        return multiply(x, y)

    multiply = pmf._multiply
    monkeypatch.setattr(pmf, "_multiply", multiply_recording)
    monkeypatch.setattr(lis._LADDER, "_levels", {})
    monkeypatch.setattr(cycles._LADDER, "_levels", {})
    lis.nonsimple_lis_counts(12)
    cycles.nonsimple_cycle_counts(2, 12)
    assert max(widest) <= 4_200_000


def _digest(masses):
    return hashlib.sha256(",".join(map(str, masses)).encode()).hexdigest()


def test_depth_12_exact_levels_pinned():
    # SHA-256 of the counts as computed by CPython's integer multiply alone.
    assert _digest(lis.nonsimple_lis_counts(12).masses) == (
        "b661fc2aa3673028210a2a81805423a669d8158d13becbf6a5eafd9b3ec928ec")
    assert _digest(cycles.nonsimple_cycle_counts(2, 12).masses) == (
        "962fc85d213d3e9398042cca0c7defc1de845f7ad9367d03992396783f3a48c8")


def test_count_mode_total_and_probability():
    pmf = Pmf(1, [1, 3, 4])
    assert pmf.total == 8
    assert pmf.p(2) == Fraction(3, 8)
    assert pmf.p(99) == 0
    assert pmf.moment(1) == Fraction(1 * 1 + 2 * 3 + 3 * 4, 8)


def test_count_mode_total_mismatch():
    with pytest.raises(ValueError):
        Pmf(1, [1, 1], total=3)


def test_float_mode_sum_guard():
    Pmf(0, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Pmf(0, np.array([0.5, 0.4]))


def test_convolution_count_mode():
    two = Pmf(2, int_convolve([1] * 6, [1] * 6))
    assert two.total == 36
    assert two.p(7) == Fraction(6, 36)
    assert two.moment(1) == Fraction(7)


def test_float_convolution_matches_exact():
    rng = substream(3, 0)
    big = [int(v) for v in rng.integers(0, 1000, 5000)]
    # direct, FFT, and the FFT square (one array passed twice), which the
    # float ladders take
    for a, b in (([1, 2, 3, 4], [5, 1]), (big, [5, 1]), (big, big)):
        exact = int_convolve(a, b)
        x = np.array(a) / sum(a)
        cf = float_convolve(x, x if b is a else np.array(b) / sum(b))
        probs = np.array([float(Fraction(v, sum(exact))) for v in exact])
        assert len(cf) == len(exact)
        assert np.abs(cf - probs).max() < 1e-15


def _counts(*values):
    return np.array(values, dtype=object)


def test_ladder_checks_each_level():
    def size(m, d):
        return d + 1

    # Count windows: one leaving [0, size), and counts off the group order 2.
    with pytest.raises(ArithmeticError, match="window"):
        Ladder(0, lambda m, d, level: (1, _counts(0, 2), 0.0), size).level(2, 1, "exact")
    with pytest.raises(ArithmeticError, match="window"):
        Ladder(0, lambda m, d, level: (-1, _counts(2), 0.0), size).level(2, 1, "exact")
    with pytest.raises(ArithmeticError, match="group order"):
        Ladder(0, lambda m, d, level: (0, _counts(1, 0), 0.0), size).level(2, 1, "exact")
    with pytest.raises(ArithmeticError, match="group order"):
        Ladder(0, lambda m, d, level: (0, _counts(2, 1), 0.0), size).level(2, 1, "exact")
    with pytest.raises(FloatingPointError):
        Ladder(0, lambda m, d, level: (0, np.array([0.5, 0.4]), 0.0), size).level(2, 1, "float")
    with pytest.raises(ArithmeticError, match="window"):
        Ladder(0, lambda m, d, level: (1, np.array([0.5, 0.5]), 0.0), size).level(2, 1, "float")
    # The cut mass counts against the drift guard: 6e-10 cut passes, and
    # 6e-10 cut plus 6e-10 lost to drift does not.
    def cuts(lost):
        return Ladder(0, lambda m, d, level: (0, np.array([0.5, 0.5 - lost]), 6e-10), size)

    assert cuts(6e-10).level(2, 1, "float").cut == 6e-10
    with pytest.raises(FloatingPointError, match="drift"):
        cuts(1.2e-9).level(2, 1, "float")
    # Each level cuts 4e-10 and passes alone; the third brings the total to 1.2e-9.
    cutting = Ladder(0, lambda m, d, level: (0, np.append(level.masses, 0.0) * (1 - 4e-10), 4e-10), size)
    assert cutting.level(2, 2, "float").cut == 4e-10
    with pytest.raises(FloatingPointError, match="trimmed mass"):
        cutting.level(2, 3, "float")
    # Group orders 1, 2, 2^3: level d puts all of them on one atom.
    ok = Ladder(0, lambda m, d, level: (d + 1, _counts(m ** (2 ** (d + 1) - 1)), 0.0), size)
    assert ok.level(2, 2, "exact").offset == 2 and ok.level(2, 2, "exact").masses.tolist() == [8]


def test_trim_cuts_only_the_tails_below_the_floor():
    # Peak 0.5: a mass at the floor stays, and so does a tiny interior one.
    masses = np.array([1e-20, 0.0, TRIM_FLOOR * 0.5, 0.5, 1e-16, 0.5, TRIM_FLOOR * 0.4, 0.0])
    offset, kept, cut = trim(10, masses)
    assert offset == 12
    assert list(kept) == [TRIM_FLOOR * 0.5, 0.5, 1e-16, 0.5]
    assert cut == 1e-20 + TRIM_FLOOR * 0.4


def test_powers_report_the_fft(monkeypatch):
    # Floats: the FFT runs once an operand passes 4096 points.
    assert not powers(np.full(4096, 1 / 4096), 2)[1]
    assert powers(np.full(4097, 1 / 4097), 2)[1]
    pw, fft = powers(np.full(2049, 1 / 2049), 3)  # 2049 * 2049, then 4097 * 2049
    assert fft and [len(x) for x in pw] == [2049, 4097, 6145]
    assert not powers(np.full(9000, 1 / 9000), 1)[1]
    # Counts: exact object arrays from int_convolve, whose first product is
    # a square (one list passed twice); the float FFT is never reported.
    squares = []

    def recording(a, b):
        squares.append(a is b)
        return int_convolve(a, b)

    monkeypatch.setattr(pmf, "int_convolve", recording)
    x = _counts(2**70, 0, 3, 1)
    pw, fft = powers(x, 3)
    assert not fft and squares == [True, False]
    assert pw[0] is x and all(y.dtype == object for y in pw)
    assert pw[2].tolist() == schoolbook(schoolbook(x.tolist(), x.tolist()), x.tolist())
    pw, fft = powers(np.ones(4097, dtype=object), 2)
    assert not fft and pw[1].tolist() == np.convolve(np.ones(4097, int), np.ones(4097, int)).tolist()


@pytest.mark.parametrize("module", [lis, cycles])
def test_ladder_levels_are_read_only(module):
    # Both memos hand out shared levels, exact counts included; none can be
    # changed in place.
    for mode in ("exact", "float"):
        level = module._LADDER.level(2, 3, mode)
        with pytest.raises(ValueError, match="read-only"):
            level.masses[0] = level.masses[0]
        with pytest.raises(AttributeError):
            level.masses = None


@pytest.mark.parametrize("law", [
    lambda: lis.simple_lis_pmf(2, 3),
    lambda: lis.simple_lds_pmf(3, 2),
    lambda: cycles.simple_cycle_dist(3, 2),
    lambda: cycles.simple_cd_dist(4, 2, 2),
    lambda: lis.nonsimple_lis_counts(3),
    lambda: lis.nonsimple_lis_counts(3, "float"),
    lambda: lis.nonsimple_lis_counts(2, m=3),
    lambda: cycles.nonsimple_cycle_counts(2, 3),
    lambda: cycles.nonsimple_cycle_counts(3, 2, "float"),
    lambda: lis._LADDER.level(2, 3, "exact"),
    lambda: cycles._LADDER.level(2, 3, "float"),
], ids=["simple-lis", "simple-lds", "simple-cycles", "simple-cd", "lis-exact", "lis-float",
        "lis-exact-m3", "cycles-exact", "cycles-float", "lis-level", "cycles-level"])
def test_every_law_handed_out_is_immutable(law):
    pmf = law()
    for attr, value in (("offset", 7), ("masses", [1]), ("total", 3), ("cut", 0.5)):
        with pytest.raises(AttributeError):
            setattr(pmf, attr, value)
    with pytest.raises(ValueError, match="read-only"):
        pmf.masses[0] += 1


def test_precision_is_read_off_the_masses():
    # Counts past 2^63 stay exact: a list is never read through a float array.
    for masses in ([2**63, 1], [1, 2**70]):
        pmf = Pmf(0, masses)
        assert type(pmf.total) is int and pmf.total == sum(masses)
        assert pmf.masses.dtype == object and pmf.masses.tolist() == masses
        assert pmf.p(1) == Fraction(masses[1], sum(masses))
    # Floats and numpy integers, which wrap at 2^63, are refused as counts.
    for masses in ([0.5, 0.5], [np.int64(1), np.int64(2)], [1, np.int64(2)]):
        with pytest.raises(ValueError, match="not a Python int"):
            Pmf(0, masses)
    # A float array holds probabilities, and no total.
    flt = Pmf(3, np.array([0.25, 0.75]))
    assert flt.total is None and flt.p(4) == 0.75 and flt.mass(9) == 0.0
    with pytest.raises(ValueError, match="no total"):
        Pmf(0, np.array([0.5, 0.5]), total=1)
    # The precision is not an argument.
    with pytest.raises(TypeError):
        Pmf(0, [1, 1], "count")


def test_an_array_is_taken_over_not_copied():
    counts = np.array([1, 2], dtype=object)
    probs = np.array([0.5, 0.5])
    for masses in (counts, probs):
        assert Pmf(0, masses).masses is masses and not masses.flags.writeable


@pytest.mark.parametrize("module", [lis, cycles])
@pytest.mark.parametrize("n, mode, message", [
    (21, "bogus", "unknown mode 'bogus'"),
    (21, "float", "m^n = 2^21 exceeds the float cap 1048576"),
    (14, "exact", "m^n = 2^14 exceeds the exact cap 8192"),
])
def test_refused_ladder_calls_build_nothing(module, n, mode, message):
    module._LADDER.level(2, 3, "exact")
    module._LADDER.level(2, 3, "float")
    memo = {key: list(levels) for key, levels in module._LADDER._levels.items()}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        module._LADDER.level(2, n, mode)
    assert module._LADDER._levels.keys() == memo.keys()
    for key, levels in module._LADDER._levels.items():
        assert len(levels) == len(memo[key]) and all(a is b for a, b in zip(levels, memo[key])), key


@pytest.mark.parametrize("module", [lis, cycles])
def test_float_levels_add_no_exact_level(monkeypatch, module):
    monkeypatch.setattr(module._LADDER, "_levels", {})
    module._LADDER.level(2, 5, "float")
    module._LADDER.level(3, 2, "float")
    assert {key: len(levels) for key, levels in module._LADDER._levels.items()} == {
        ("float", 2): 6, ("float", 3): 3}


@pytest.mark.parametrize("module, law, depth", [
    (lis, lambda n: lis.nonsimple_lis_counts(n, "float"), 14),
    (cycles, lambda n: cycles.nonsimple_cycle_counts(2, n, "float"), 16),
])
def test_ladder_threads_compute_each_level_once(monkeypatch, module, law, depth):
    ladder = module._LADDER
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
    assert len(ladder._levels["float", 2]) == depth + 1
    for pmf in results:
        assert pmf.offset == sequential.offset
        assert np.array_equal(pmf.masses, sequential.masses)

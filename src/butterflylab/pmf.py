"""Integer-supported probability mass functions in two precisions.

A `Pmf` holds the masses of the contiguous value range [offset, offset+len)
and reads its precision off them: a float numpy array holds float64
probabilities (summing to 1 within 1e-9), anything else exact nonnegative
big-integer counts, held as an object array of Python ints, with their
total. A `Pmf` is immutable.

Exact convolutions use Harvey's multipoint Kronecker substitution (KS2:
pack the coefficient lists into big integers evaluated at +2^B and -2^B,
multiply twice, unpack the even and the odd coefficients), which is far
faster than schoolbook convolution once the counts run to thousands of
bits, and whose two products are each half the size of classic Kronecker
substitution's one. Once both packed integers reach `_INT_FFT_BITS` bits,
the multiply is a numpy float FFT on 12-bit limbs; every such product is
checked modulo the prime 2^61 - 1 and replaced by CPython's integer
product if the check fails, so the counts stay exact. The two 4.2M-bit
squares behind depth 12 then take about 0.1 s together. Float convolutions
are direct up to 4096 points and run through the same numpy FFT
(`_fft_convolve`) beyond, so one FFT serves both precisions.

Each of the LIS and Stirling recursions runs on one `Ladder`, which refuses
a level's support size m^n above `EXACT_SIZE_CAP` = 8192 (depth 13 for m = 2,
8 for m = 3) or `FLOAT_SIZE_CAP` = 2^20 (depth 20 for m = 2, 12 for m = 3).

A ladder level is a `Pmf` in both precisions: the masses of one
contiguous run of support points, from an offset. So each statistic writes
its step once: `powers` convolves in the array's precision and
`finish_level` closes the step. A float step that convolved through the
FFT has an absolute error of about
1e-18 per mass, so its level keeps only the window from the first to the
last mass at or above `TRIM_FLOOR` = 1e-13 of the peak (`trim`); the mass
cut from the two tails counts against the 1e-9 drift guard. Levels made by
direct or exact convolution keep their whole support. A float law is its
level's window alone, 0 off it: at depth 20 that is 45,478 of
the 2^20 LIS values (m = 2) and 21,362 of the 2^20 Stirling values (p = 2).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import check_size, group_order

__all__ = ["Pmf", "Ladder", "int_convolve", "float_convolve", "powers", "finish_level", "trim"]

_FFT_THRESHOLD = 4096
# Size of the smaller operand, in bits, from which `_multiply` takes the FFT.
# The checked FFT on 12-bit limbs meets CPython's Karatsuba between 2^14.5
# and 2^15 bits: a square takes 0.37 ms against 0.28 ms at 2^14.5, 0.45
# against 0.52 ms at 2^15 and 0.47 against 1.51 ms at 2^16; a product of
# two 2^15-bit operands 0.39 against 0.71 ms (medians of 601; one core,
# Python 3.11, numpy 2.4). KS2 halves the operands, so the m = 2 ladders'
# 65,281-bit squares (the step to depth 9) now lie below 2^16: cold, the
# LIS ladder to depth 9 builds in 5.4 ms at 2^15 against 7.1 ms at 2^16,
# and the Stirling one in 2.4 against 3.4 ms (medians of 15). The largest
# ladder operands left to Karatsuba are 24,201-bit squares (p = 3).
_INT_FFT_BITS = 1 << 15
_CHECK_PRIME = (1 << 61) - 1  # Mersenne prime modulus of the exactness check
_FLOAT_MASS_TOL = 1e-9
# Relative floor of `trim`. 1e-12 moves the depth-20 Stirling density at
# t = 3.95 and 4.0 by 1.1e-9 and 1.4e-9 relative, past the drift guard's
# 1e-9, since trimmed tails feed the later tail masses; 1e-13 moves it by
# at most 1.6e-10.
TRIM_FLOOR = 1e-13


def int_convolve(a: list[int], b: list[int]) -> list[int]:
    """Exact convolution of nonnegative integer sequences.

    Harvey's multipoint Kronecker substitution (KS2; J. Symbolic Comput. 44,
    2009). Every coefficient of the convolution is at most min(len) * max_a
    * max_b, below 2^bits; with B = 8h for h = ceil(bits / 16) bytes, each
    sequence v is evaluated at +2^B and -2^B as E +- O, where E packs its
    even entries and O its odd ones in slots of 2h bytes (O shifted up by B
    bits). An entry is below 2^(2B), so it may spill past its half slot into
    the next, which its packing leaves empty. The two products P+ and P-
    (`_multiply`, which checks each; P- multiplies absolute values and then
    takes the sign) are each half the size of one product with full-width
    slots. (P+ + P-) / 2 holds the even coefficients of the convolution and
    (P+ - P-) / 2^(B+1) the odd ones, each in slots of 2h bytes, which
    cannot carry. Packing and unpacking are linear in the total size.
    Passing the same list twice packs it once and squares twice.
    """
    if not a or not b:
        return []
    ma, mb = max(a), max(b)
    if ma == 0 or mb == 0:
        return [0] * (len(a) + len(b) - 1)
    bits = (ma * mb * min(len(a), len(b))).bit_length() + 1
    h = (bits + 15) // 16
    plus_a, minus_a, neg_a = _evaluations(a, h)
    plus_b, minus_b, neg_b = (plus_a, minus_a, neg_a) if b is a else _evaluations(b, h)
    plus = _multiply(plus_a, plus_b)
    minus = _multiply(minus_a, minus_b)
    if neg_a != neg_b:
        minus = -minus
    n = len(a) + len(b) - 1
    out = [0] * n
    out[0::2] = _slots((plus + minus) >> 1, 2 * h, (n + 1) // 2)
    out[1::2] = _slots((plus - minus) >> (8 * h + 1), 2 * h, n // 2)
    return out


def _evaluations(v: list[int], h: int) -> tuple[int, int, bool]:
    """v(2^B), |v(-2^B)| and whether v(-2^B) < 0, for B = 8h: v(+-2^B) =
    E +- O, where E and O >> B pack the even and the odd entries of v in
    slots of 2h bytes."""
    even = int.from_bytes(b"".join(x.to_bytes(2 * h, "little") for x in v[0::2]), "little")
    odd = int.from_bytes(b"".join(x.to_bytes(2 * h, "little") for x in v[1::2]), "little") << 8 * h
    return even + odd, abs(even - odd), odd > even


def _slots(x: int, w: int, count: int) -> list[int]:
    """The first ``count`` slots of w bytes of x >= 0, least significant first."""
    raw = x.to_bytes(count * w, "little")
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, count * w, w)]


def _multiply(x: int, y: int) -> int:
    """x * y for nonnegative integers, through `_fft_multiply` when both are large.

    Below `_INT_FFT_BITS` bits, CPython's Karatsuba multiply is faster. An
    FFT product is kept only if it agrees with (x mod P)(y mod P) mod P for
    P = 2^61 - 1 (`_mod_check_prime`): one misrounded coefficient moves the
    product by c * 2^(12i) with 0 < |c| < P, which the prime P does not
    divide. On a mismatch, x * y is returned.
    """
    if min(x.bit_length(), y.bit_length()) < _INT_FFT_BITS:
        return x * y
    prod = _fft_multiply(x, y)
    rx = _mod_check_prime(x)
    ry = rx if y is x else _mod_check_prime(y)
    if _mod_check_prime(prod) != rx * ry % _CHECK_PRIME:
        return x * y
    return prod


def _mod_check_prime(x: int) -> int:
    """x mod 2^61 - 1 for x >= 0, folded in numpy.

    32-bit word k of x weighs 2^(32k), which is 2^(32k mod 61) modulo
    2^61 - 1, so the words are summed per class of k mod 61 (each sum stays
    below 2^64 for x under 2^42 bits), and only the 61 class sums are
    shifted and reduced as Python integers.
    """
    rows = -(-x.bit_length() // (32 * 61))
    words = np.frombuffer(x.to_bytes(4 * 61 * rows, "little"), dtype="<u4").reshape(rows, 61)
    sums = words.sum(axis=0, dtype=np.uint64)
    return sum(int(s) << (32 * k % 61) for k, s in enumerate(sums)) % _CHECK_PRIME


def _fft_multiply(x: int, y: int) -> int:
    """x * y by a float64 FFT on 12-bit limbs, with no exactness check.

    Each coefficient of the limb convolution is a sum of at most min(len)
    limb products below 2^24 (under 2^45 for the 2^24-bit products behind
    depth 13), so it is rounded to int64. Percival's bound on the rounding
    error of an FFT product (Math. Comp. 72, 2003) stays below 1/2 up to
    2^23-bit squares, even for all-0xFFF limbs, so it covers the 2^22-bit
    products behind depth 12; past it the check in `_multiply` stands
    alone. The measured error on all-0xFFF limbs is 0.005 at 2^22 bits and
    0.017 at 2^24, and at most 0.006 on the depth-13 products. Coefficient
    pairs become digits at 24-bit spacing (even + odd << 12, below 2^57 at
    depth 13), and the integer is read from the digits' low three bytes,
    plus the carries above them shifted by 24 bits. One vectorized carry
    pass would already leave carries below 2^24; the second leaves carries
    of 0 or 1, nearly always none, which saves that second integer.
    """
    lx = _limbs(x)
    ly = lx if y is x else _limbs(y)
    coef = _fft_convolve(lx, ly)
    # The product has at most len(lx) + len(ly) limbs: n // 2 + 1 digits.
    n = len(coef)
    pairs = np.zeros((n // 2 + 1, 2), dtype=np.int64)
    np.rint(coef, out=pairs.reshape(-1)[:n], casting="unsafe")
    del coef
    digits = pairs[:, 1] << 12
    digits += pairs[:, 0]
    del pairs
    for _ in range(2):
        carry = digits >> 24
        digits &= 0xFFFFFF
        digits[1:] += carry[:-1]
    carry = digits >> 24
    digits &= 0xFFFFFF
    out = _from_digits(digits)
    if carry.any():
        out += _from_digits(carry) << 24
    return out


def _limbs(x: int) -> np.ndarray:
    """The 12-bit limbs of x >= 0, least significant first, two from each
    3 bytes; a zero top limb is dropped."""
    raw = np.frombuffer(x.to_bytes(-(-x.bit_length() // 24) * 3, "little"), dtype=np.uint8)
    b = raw.reshape(-1, 3).astype(np.uint16)
    limbs = np.empty((len(b), 2), dtype=np.uint16)
    limbs[:, 0] = b[:, 0] | (b[:, 1] & 15) << 8
    limbs[:, 1] = b[:, 1] >> 4 | b[:, 2] << 4
    return limbs.reshape(-1)[: -(-x.bit_length() // 12)]


def _from_digits(digits: np.ndarray) -> int:
    """sum(digits[j] * 2^(24j)) for digits in [0, 2^24): their low three bytes."""
    return int.from_bytes(digits.astype("<u4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes(), "little")


def _fft_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full convolution of real arrays by numpy rfft at a 5-smooth length;
    squares (y is x) take one forward transform."""
    n = len(x) + len(y) - 1
    size = _smooth_len(n)
    spec = np.fft.rfft(x, size)
    if y is x:
        np.multiply(spec, spec, out=spec)
    else:
        np.multiply(spec, np.fft.rfft(y, size), out=spec)
    return np.fft.irfft(spec, size)[:n]


def _smooth_len(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n: a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _takes_fft(a: np.ndarray, b: np.ndarray) -> bool:
    return max(len(a), len(b)) > _FFT_THRESHOLD


def float_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of nonnegative float64 arrays.

    Direct up to 4096 points; `_fft_convolve` beyond, with its round-off
    negatives clipped to 0 (callers renormalize through the drift guard).
    """
    if not _takes_fft(a, b):
        return np.convolve(a, b)
    return np.clip(_fft_convolve(a, b), 0.0, None)


def powers(x: np.ndarray, k: int) -> tuple[list[np.ndarray], bool]:
    """[x, x*x, ..., x^(*k)] in x's precision, and whether a convolution took
    the float FFT. Counts (an object array) go through `int_convolve`, whose
    first product is a square (one list passed twice), floats through
    `float_convolve`."""
    exact = x.dtype == object
    base = x.tolist() if exact else x
    out, last, fft = [x], base, False
    for _ in range(k - 1):
        fft = fft or (not exact and _takes_fft(last, base))
        last = (int_convolve if exact else float_convolve)(last, base)
        out.append(np.array(last, dtype=object) if exact else last)
    return out, fft


def finish_level(offset: int, masses: np.ndarray, k: int, fft: bool) -> tuple[int, np.ndarray, float]:
    """The raw level ``(offset, masses, cut)`` a step summed over its k
    equally likely branches into ``masses`` (indexed from ``offset``): counts
    as they are; probabilities divided by k, and trimmed (`trim`) when a
    convolution took the FFT."""
    if masses.dtype == object:
        return offset, masses, 0.0
    masses /= float(k)
    return trim(offset, masses) if fft else (offset, masses, 0.0)


def trim(offset: int, masses: np.ndarray) -> tuple[int, np.ndarray, float]:
    """The window of ``masses`` (indexed from ``offset``) from its first to
    its last mass at or above `TRIM_FLOOR` times the peak, as ``(offset,
    masses, cut)`` with ``cut`` the mass of the two tails left out."""
    kept = masses >= TRIM_FLOOR * masses.max()
    lo = int(kept.argmax())
    hi = len(masses) - int(kept[::-1].argmax())
    cut = float(masses[:lo].sum() + masses[hi:].sum())
    return offset + lo, masses[lo:hi], cut


def _renormalized(masses: np.ndarray, cut: float) -> np.ndarray:
    """masses / masses.sum(), refusing a level whose mass drift plus the
    mass ``cut`` from its tails reaches 1e-9."""
    total = masses.sum()
    drift = abs(total + cut - 1.0) + cut
    if drift >= _FLOAT_MASS_TOL:
        raise FloatingPointError(f"mass drift {drift:.3e} exceeds 1e-9")
    return masses / total


@dataclass(frozen=True, eq=False)
class Pmf:
    """``masses[i]`` is the count or probability of offset + i. A float
    array holds probabilities and ``total`` is None; anything else is counts
    in an object array, which must sum to a Python int, ``total`` (floats and
    numpy integers, which wrap at 2^63, are refused). An ndarray is taken
    over, not copied, and made read-only. ``cut`` is the mass `trim` left
    out of a ladder level's tails."""

    offset: int
    masses: np.ndarray
    total: int | None = field(default=None, kw_only=True)
    cut: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        masses = self.masses
        if isinstance(masses, np.ndarray) and masses.dtype.kind == "f":
            if self.total is not None:
                raise ValueError("float masses take no total")
            if (masses < 0).any():
                raise ValueError("negative mass")
            if abs(masses.sum() - 1.0) > _FLOAT_MASS_TOL:
                raise ValueError(f"float masses sum to {masses.sum()!r}, not 1")
        else:
            masses = np.asarray(masses, dtype=object)
            total = masses.sum()
            if type(total) is not int:
                raise ValueError(f"counts sum to a {type(total).__name__}, not a Python int")
            if (masses < 0).any():
                raise ValueError("negative count")
            if self.total is not None and total != self.total:
                raise ValueError("counts do not sum to the stated total")
            object.__setattr__(self, "total", total)
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    @property
    def support(self) -> range:
        return range(self.offset, self.offset + len(self.masses))

    def mass(self, value: int):
        """Raw stored mass at ``value`` (count or float)."""
        i = value - self.offset
        if 0 <= i < len(self.masses):
            return self.masses[i]
        return 0.0 if self.total is None else 0

    def p(self, value: int):
        """Probability of ``value`` (Fraction for counts, float otherwise)."""
        m = self.mass(value)
        return m if self.total is None else Fraction(m, self.total)

    def moment(self, k: int):
        """E X^k, exact for counts."""
        if self.total is None:
            vals = np.arange(self.offset, self.offset + len(self.masses), dtype=np.float64)
            return float(self.masses @ vals**k)
        acc = sum(m * (self.offset + i) ** k for i, m in enumerate(self.masses))
        return Fraction(acc, self.total)


# Largest support size m^n of a ladder level, per precision.
EXACT_SIZE_CAP = 8192
FLOAT_SIZE_CAP = 2**20


class Ladder:
    """Memoized levels 0..n of a per-base recursion over the nonsimple group.

    Level 0 is a count or probability of 1 at index ``offset``;
    ``step(m, d, level)`` returns level d + 1 from level d without side
    effects, as a raw ``(offset, masses, cut)``; ``size(m, d)`` is the
    number of indices of level d. Each is checked before it is appended
    under the lock: it must lie within those indices; exact counts (an
    object array) must sum to the group order m**tree_size(m, d); float
    masses must pass the 1e-9 drift guard, and the mass cut from all levels
    of base m so far must stay below 1e-9. It is stored as a `Pmf`, floats
    renormalized, so callers share it as an immutable law.
    """

    def __init__(self, offset: int, step, size):
        self._offset = offset
        self._step = step
        self._size = size
        self._levels: dict[tuple[str, int], list[Pmf]] = {}
        self._lock = threading.Lock()

    def level(self, m: int, n: int, mode: str) -> Pmf:
        """Level n for base m in ``mode`` ("exact" or "float"), extending the memo
        of (mode, m) as needed; m^n above the mode's cap is refused first."""
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        check_size(m, n, EXACT_SIZE_CAP if mode == "exact" else FLOAT_SIZE_CAP, mode)
        with self._lock:
            if (mode, m) not in self._levels:
                seed = np.ones(1, object if mode == "exact" else np.float64)
                self._levels[mode, m] = [self._checked(m, 0, (self._offset, seed, 0.0), [])]
            levels = self._levels[mode, m]
            while len(levels) <= n:
                d = len(levels)
                levels.append(self._checked(m, d, self._step(m, d - 1, levels[-1]), levels))
            return levels[n]

    def _checked(self, m: int, d: int, new: tuple[int, np.ndarray, float], below: list[Pmf]) -> Pmf:
        size = self._size(m, d)
        offset, masses, cut = new
        if offset < 0 or offset + len(masses) > size:
            raise ArithmeticError(f"level {d} window [{offset}, {offset + len(masses)}) "
                                  f"leaves [0, {size})")
        if masses.dtype == object:
            if masses.sum() != group_order(m, d, simple=False):
                raise ArithmeticError(f"level {d} counts do not sum to the group order")
        else:
            spent = cut + sum(w.cut for w in below)
            if spent >= _FLOAT_MASS_TOL:
                raise FloatingPointError(f"trimmed mass {spent:.3e} exceeds 1e-9")
            masses = _renormalized(masses, cut)
        return Pmf(offset, masses, cut=cut)

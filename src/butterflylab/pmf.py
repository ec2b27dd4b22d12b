"""Integer-supported probability mass functions in two precision modes.

A `Pmf` holds masses for the contiguous value range [offset, offset+len).
Modes:

* ``count``    exact nonnegative big-integer counts plus their total;
* ``float``    float64 probabilities (normalized to ~1e-9).

Exact convolutions use Kronecker substitution (pack the coefficient list
into one big integer, multiply once, unpack), which is far faster than
schoolbook convolution once the counts run to thousands of bits.
"""
from __future__ import annotations

import threading
from fractions import Fraction

import numpy as np

from .groups import group_order

__all__ = ["Pmf", "Ladder", "int_convolve", "float_convolve"]

_FFT_THRESHOLD = 4096
_FLOAT_MASS_TOL = 1e-9


def int_convolve(a: list[int], b: list[int]) -> list[int]:
    """Exact convolution of nonnegative integer sequences.

    Packs each sequence into a single integer with one byte-aligned slot of
    w bytes per entry, 8w > log2(len * max_a * max_b) so slots of the
    product cannot carry, multiplies once, then slices the product's bytes
    back into slots. Packing and unpacking are linear in the total size.
    """
    if not a or not b:
        return []
    ma, mb = max(a), max(b)
    if ma == 0 or mb == 0:
        return [0] * (len(a) + len(b) - 1)
    bits = (ma * mb * min(len(a), len(b))).bit_length() + 1
    w = (bits + 7) // 8
    pa = int.from_bytes(b"".join(v.to_bytes(w, "little") for v in a), "little")
    pb = int.from_bytes(b"".join(v.to_bytes(w, "little") for v in b), "little")
    n = len(a) + len(b) - 1
    raw = (pa * pb).to_bytes(n * w, "little")
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, n * w, w)]


def float_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of nonnegative float64 arrays.

    Direct up to 4096 points; FFT beyond, with its round-off negatives
    clipped to 0 (callers renormalize through the drift guard).
    """
    if max(len(a), len(b)) <= _FFT_THRESHOLD:
        return np.convolve(a, b)
    # Imported here: scipy.signal costs about a second to import, and only
    # float ladders past 4096 points reach this branch.
    from scipy.signal import fftconvolve

    return np.clip(fftconvolve(a, b), 0.0, None)


def _renormalized(masses: np.ndarray) -> np.ndarray:
    """masses / masses.sum(), refusing a total mass drift of 1e-9 or more."""
    drift = abs(masses.sum() - 1.0)
    if drift >= _FLOAT_MASS_TOL:
        raise FloatingPointError(f"mass drift {drift:.3e} exceeds 1e-9")
    return masses / masses.sum()


class Pmf:
    """Distribution on integers with contiguous support storage."""

    __slots__ = ("offset", "masses", "mode", "total")

    def __init__(self, offset: int, masses, mode: str, total: int | None = None):
        if mode not in ("count", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        self.offset = int(offset)
        self.mode = mode
        if mode == "count":
            self.masses = [int(v) for v in masses]
            if any(v < 0 for v in self.masses):
                raise ValueError("negative count")
            s = sum(self.masses)
            self.total = s if total is None else int(total)
            if s != self.total:
                raise ValueError("counts do not sum to the stated total")
        else:
            arr = np.asarray(masses, dtype=np.float64).copy()
            if (arr < 0).any():
                raise ValueError("negative mass")
            if abs(arr.sum() - 1.0) > _FLOAT_MASS_TOL:
                raise ValueError(f"float masses sum to {arr.sum()!r}, not 1")
            arr.setflags(write=False)
            self.masses = arr
            self.total = None

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.masses)

    @property
    def support(self) -> range:
        return range(self.offset, self.offset + len(self.masses))

    def mass(self, value: int):
        """Raw stored mass at ``value`` (count or float)."""
        i = value - self.offset
        if 0 <= i < len(self.masses):
            return self.masses[i]
        return 0 if self.mode == "count" else 0.0

    def p(self, value: int):
        """Probability of ``value`` (Fraction in count mode, float otherwise)."""
        m = self.mass(value)
        if self.mode == "count":
            return Fraction(m, self.total)
        return m

    def probabilities(self):
        """All probabilities over the stored range."""
        if self.mode == "count":
            return [Fraction(v, self.total) for v in self.masses]
        return np.asarray(self.masses)

    # -- moments -----------------------------------------------------------

    def moment(self, k: int):
        """E X^k, exact in count mode."""
        if self.mode == "float":
            vals = np.arange(self.offset, self.offset + len(self.masses), dtype=np.float64)
            return float(np.asarray(self.masses) @ vals**k)
        acc = Fraction(0)
        for i, m in enumerate(self.masses):
            if m:
                acc += Fraction(m) * (self.offset + i) ** k
        return acc / self.total

    # -- support -----------------------------------------------------------

    def trimmed(self) -> "Pmf":
        """Drop leading/trailing zero masses (support endpoints tighten)."""
        lo = 0
        hi = len(self.masses)
        while lo < hi and not self.masses[lo]:
            lo += 1
        while hi > lo and not self.masses[hi - 1]:
            hi -= 1
        return Pmf(self.offset + lo, self.masses[lo:hi], self.mode, total=self.total)


class Ladder:
    """Memoized levels 0..n of a per-base recursion over the nonsimple group.

    ``step(m, d, level)`` returns level d + 1 from level d without side
    effects; ``size(m, d)`` is the length of level d. Each level is checked
    before it is appended under the lock: exact count lists must sum to the
    group order m**tree_size(m, d); float64 arrays pass the 1e-9 drift guard
    and are stored renormalized and read-only. Levels are shared; callers
    must not mutate them.
    """

    def __init__(self, seed, step, size):
        self._seed = seed
        self._step = step
        self._size = size
        self._levels: dict[int, list] = {}
        self._lock = threading.Lock()

    def level(self, m: int, n: int):
        """Level n for base m, extending the memo as needed."""
        with self._lock:
            if m not in self._levels:
                self._levels[m] = [self._checked(m, 0, self._seed)]
            levels = self._levels[m]
            while len(levels) <= n:
                d = len(levels)
                levels.append(self._checked(m, d, self._step(m, d - 1, levels[-1])))
            return levels[n]

    def _checked(self, m: int, d: int, new):
        if len(new) != self._size(m, d):
            raise ArithmeticError(f"level {d} has {len(new)} entries, not {self._size(m, d)}")
        if isinstance(new, list):
            if sum(new) != group_order(m, d, simple=False):
                raise ArithmeticError(f"level {d} counts do not sum to the group order")
            return new
        new = _renormalized(new)
        new.setflags(write=False)
        return new

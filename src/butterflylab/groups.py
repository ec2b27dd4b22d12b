"""Simple and nonsimple m-nary butterfly permutation groups.

Elements are encoded compactly rather than as one-line arrays:

* `SimpleButterfly(m, digits)` is sigma = tau^{j_1} (x) ... (x) tau^{j_n}
  for tau = (1 2 ... m), acting on [m^n] digitwise in base m.
* `NonsimpleButterfly(m, n, exponents)` is the recursive block form
  sigma = (sigma_1 (+) ... (+) sigma_m)(tau^e (x) 1_{N/m}), with one
  exponent per internal node of a complete m-ary tree, stored breadth-first.

The canonical factor ordering (block-diagonal factor on the left) is used
everywhere; the block recursion it induces on 1-based indices is

    sigma((i-1)M + r) = (t-1)M + sigma_t(r),  t = tau^e(i),  M = m^{n-1}.

Both `materialize` and `lis` evaluate this recursion in one direction,
bottom-up, one depth of the tree at a time (`_level` reads a depth's
exponents). A simple element is the nonsimple case with one shared node per
depth: its digit j_d is the exponent of every node of depth d.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .permutations import Permutation

__all__ = [
    "SimpleButterfly",
    "NonsimpleButterfly",
    "group_order",
    "sample_simple",
    "sample_nonsimple",
    "materialize",
    "enumerate_group",
    "check_membership",
    "as_simple",
    "lis",
    "check_size",
]

ENUMERATION_CAP = 10**6


def tree_size(m: int, n: int) -> int:
    """Internal nodes of the complete m-ary tree of depth n: (m^n - 1)/(m - 1)."""
    return (m**n - 1) // (m - 1) if n > 0 else 0


def _check_base(m: int, n: int) -> None:
    if m < 2:
        raise ValueError("base m must be >= 2")
    if n < 0:
        raise ValueError("depth n must be >= 0")


@dataclass(frozen=True)
class SimpleButterfly:
    """Kronecker product of powers of the standard m-cycle, leading factor first."""

    m: int
    digits: tuple[int, ...]

    def __post_init__(self):
        _check_base(self.m, len(self.digits))
        if self.digits and (min(self.digits) < 0 or max(self.digits) >= self.m):
            raise ValueError("digits must lie in [0, m)")
        object.__setattr__(self, "digits", tuple(map(int, self.digits)))

    @property
    def n(self) -> int:
        return len(self.digits)


@dataclass(frozen=True, eq=False)
class NonsimpleButterfly:
    """Exponent tree in breadth-first order; children of node i sit at m*i+1+t.

    `exponents` is a read-only int64 copy of the sequence given, so a tree
    of 2^20 - 1 nodes costs one array, not a million Python ints. Equality
    and the hash are by value.
    """

    m: int
    n: int
    exponents: np.ndarray

    def __post_init__(self):
        _check_base(self.m, self.n)
        ex = np.array(self.exponents, dtype=np.int64)
        size = tree_size(self.m, self.n)
        if ex.shape != (size,):
            raise ValueError(f"need {size} exponents, got {ex.size}")
        if size and (ex.min() < 0 or ex.max() >= self.m):
            raise ValueError("exponents must lie in [0, m)")
        ex.flags.writeable = False
        object.__setattr__(self, "exponents", ex)

    def __eq__(self, other):
        if not isinstance(other, NonsimpleButterfly):
            return NotImplemented
        return self.m == other.m and self.n == other.n and np.array_equal(self.exponents, other.exponents)

    def __hash__(self):
        return hash((self.m, self.n, self.exponents.tobytes()))


def group_order(m: int, n: int, simple: bool) -> int:
    """|B_{s,n}^{(m)}| = m^n; |B_n^{(m)}| = m^{(m^n-1)/(m-1)}. Exact."""
    _check_base(m, n)
    return m**n if simple else m ** tree_size(m, n)


def sample_simple(m: int, n: int, rng: np.random.Generator) -> SimpleButterfly:
    """Uniform element: digits iid uniform on {0,...,m-1}."""
    _check_base(m, n)
    return SimpleButterfly(m, tuple(rng.integers(0, m, size=n).tolist()))


def sample_nonsimple(m: int, n: int, rng: np.random.Generator) -> NonsimpleButterfly:
    """Uniform element: all (m^n-1)/(m-1) exponents iid uniform."""
    _check_base(m, n)
    return NonsimpleButterfly(m, n, rng.integers(0, m, size=tree_size(m, n)))


MATERIALIZE_SIZE_CAP = 1 << 26


def check_size(m: int, n: int, cap: int, what: str) -> None:
    """Refuse m^n > cap in one line, without building m^n for a huge n.

    Every size limit in the package bounds some m^n and is refused here, with
    the message "m^n = {m}^{n} exceeds the {what} cap {cap}". For |m| >= 2,
    n >= cap.bit_length() already means |m|^n > cap; n <= 0 never exceeds it.
    """
    if n > 0 and ((abs(m) >= 2 and n >= cap.bit_length()) or m**n > cap):
        raise ValueError(f"m^n = {m}^{n} exceeds the {what} cap {cap}")


def materialize(elem) -> Permutation:
    """One-line array of the element.

    Refuses sizes past 2^26. Group elements stay cheap in encoded form;
    use `lis` instead of materializing huge ones.
    """
    check_size(elem.m, elem.n, MATERIALIZE_SIZE_CAP, "size")
    return Permutation(_materialize_map(elem))


def _level(ex: np.ndarray, m: int, d: int) -> np.ndarray:
    """Exponents of depth d: breadth-first, they fill [tree_size(m, d), tree_size(m, d + 1))."""
    return ex[tree_size(m, d) : tree_size(m, d + 1)]


def _materialize_map(elem) -> np.ndarray:
    # P holds one row per node of the depth below. Input block i of a node goes
    # to output block t = i + e (mod m) through child t, so the node's row is
    # children[node, t] + t*M. At the leaves and at every depth of a simple
    # element one row serves all children, and mode="clip" sends each index there.
    if isinstance(elem, SimpleButterfly):
        levels = np.array(elem.digits, dtype=np.int64)[:, None]
    elif isinstance(elem, NonsimpleButterfly):
        levels = [_level(elem.exponents, elem.m, d) for d in range(elem.n)]
    else:
        raise TypeError(type(elem))
    m = elem.m
    P = np.zeros((1, 1), dtype=np.int64)
    for e in reversed(levels):
        nodes, M = e.size, P.shape[1]
        t = (e[:, None] + np.arange(m)) % m
        P = P.take(np.arange(0, m * nodes, m)[:, None] + t, axis=0, mode="clip")
        P += (M * t)[:, :, None]
        P = P.reshape(nodes, m * M)
    return P[0]


def lis(elem) -> int:
    """Longest increasing subsequence from the encoding, without materializing.

    Input block i lands in output block t = i + e (mod m), so an increasing
    subsequence runs through the output blocks e..m-1 or through 0..e-1:
    L = max(sum_{t>=e} L_t, sum_{t<e} L_t) with L_t the LIS of child t, the
    node at m*node + 1 + t. Evaluated bottom-up, one vectorized step per
    level. A simple element has identical children, so its LIS is the
    product of max(j, m - j) over its digits j.
    """
    if isinstance(elem, SimpleButterfly):
        return math.prod(max(j, elem.m - j) for j in elem.digits)
    if not isinstance(elem, NonsimpleButterfly):
        raise TypeError(type(elem))
    m = elem.m
    N = m**elem.n
    L = np.ones(N, dtype=np.int32 if N < 2**31 else np.int64)
    for d in reversed(range(elem.n)):
        e = _level(elem.exponents, m, d)
        C = L.reshape(e.size, m)
        np.cumsum(C, axis=1, dtype=C.dtype, out=C)  # C[j, t] = sum_{s<=t} L_s; index -1 is the total
        low = C[:, -1].copy()  # sum_{t<e} L_t: the total for e = 0, C[:, e - 1] otherwise
        for t in range(m - 1):
            np.copyto(low, C[:, t], where=e == t + 1)
        L = C[:, -1] - low
        np.maximum(L, low, out=L)
    return int(L[0])


def enumerate_group(m: int, n: int, simple: bool):
    """Yield every group element once; refuses orders above ENUMERATION_CAP without building them."""
    _check_base(m, n)
    check_size(m, n if simple else tree_size(m, n), ENUMERATION_CAP, "enumeration")
    if simple:
        for digits in itertools.product(range(m), repeat=n):
            yield SimpleButterfly(m, digits)
    else:
        slots = tree_size(m, n)
        for exps in itertools.product(range(m), repeat=slots):
            yield NonsimpleButterfly(m, n, exps)


def check_membership(p: Permutation, m: int):
    """Recover the exponent tree of p if p lies in the nonsimple group.

    Returns a `SimpleButterfly` when all sibling subtrees agree, a
    `NonsimpleButterfly` for other members, and None for non-members.
    Index k reads, level by level, its input digit i and the output digit t
    of p(k); under a member, t = i + e (mod m) for the exponent e of the node
    that the output digits above select. Each node takes (t - i) mod m from
    its indices, and p is a member exactly when the tree so read
    materializes to p.
    """
    _check_base(m, 0)
    N = p.size
    n = 0
    t = N
    while t > 1:
        if t % m:
            raise ValueError(f"length {N} is not a power of {m}")
        t //= m
        n += 1
    tree = np.zeros(tree_size(m, n), dtype=np.int64)
    node = np.zeros(N, dtype=np.int64)
    inp = np.arange(N, dtype=np.int64)
    out = p.map
    M = N
    for _ in range(n):
        M //= m
        i, inp = np.divmod(inp, M)
        t, out = np.divmod(out, M)
        tree[node] = (t - i) % m
        node = m * node + 1 + t
    ns = NonsimpleButterfly(m, n, tree)
    if not np.array_equal(_materialize_map(ns), p.map):
        return None
    simple = as_simple(ns)
    return simple if simple is not None else ns


def as_simple(elem: NonsimpleButterfly) -> SimpleButterfly | None:
    """Convert to the simple encoding when every node's sibling subtrees agree."""
    levels = [_level(elem.exponents, elem.m, d) for d in range(elem.n)]
    if any((level != level[0]).any() for level in levels):
        return None
    return SimpleButterfly(elem.m, tuple(level[0] for level in levels))

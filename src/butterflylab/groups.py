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
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .permutations import Permutation, _cycle_count_array

__all__ = [
    "SimpleButterfly",
    "NonsimpleButterfly",
    "group_order",
    "sample_simple",
    "sample_nonsimple",
    "apply",
    "materialize",
    "enumerate_group",
    "check_membership",
    "as_simple",
    "cycle_count",
    "lis",
    "element_to_json",
    "element_from_json",
    "CapExceededError",
]

DEFAULT_ENUMERATION_CAP = 10**6


class CapExceededError(RuntimeError):
    pass


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
        if any(not 0 <= d < self.m for d in self.digits):
            raise ValueError("digits must lie in [0, m)")
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))

    @property
    def n(self) -> int:
        return len(self.digits)

    @property
    def N(self) -> int:
        return self.m**self.n


@dataclass(frozen=True)
class NonsimpleButterfly:
    """Exponent tree in breadth-first order; children of node i sit at m*i+1+t."""

    m: int
    n: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        _check_base(self.m, self.n)
        if len(self.exponents) != tree_size(self.m, self.n):
            raise ValueError(
                f"need {tree_size(self.m, self.n)} exponents, got {len(self.exponents)}"
            )
        if any(not 0 <= e < self.m for e in self.exponents):
            raise ValueError("exponents must lie in [0, m)")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    @property
    def N(self) -> int:
        return self.m**self.n

    def root_exponent(self) -> int:
        return self.exponents[0]

    def subtree(self, child: int) -> "NonsimpleButterfly":
        """Exponent tree of the given child block (0-based), depth n-1."""
        m, exps = self.m, self.exponents
        out: list[int] = []
        level = [self.m * 0 + 1 + child]
        for _ in range(self.n - 1):
            nxt: list[int] = []
            for idx in level:
                out.append(exps[idx])
                nxt.extend(m * idx + 1 + t for t in range(m))
            level = nxt
        return NonsimpleButterfly(m, self.n - 1, tuple(out))


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
    return NonsimpleButterfly(m, n, tuple(rng.integers(0, m, size=tree_size(m, n)).tolist()))


def apply(elem, k: int) -> int:
    """Image of the 1-based index k under the encoded permutation, O(n) time."""
    if isinstance(elem, SimpleButterfly):
        m, N = elem.m, elem.N
        if not 1 <= k <= N:
            raise IndexError(k)
        a = k - 1
        out = 0
        w = N // m
        for j in elem.digits:
            d, a = divmod(a, w)
            out += ((d + j) % m) * w
            w //= m
        return out + 1
    if isinstance(elem, NonsimpleButterfly):
        m, N = elem.m, elem.N
        if not 1 <= k <= N:
            raise IndexError(k)
        exps = elem.exponents
        a = k - 1
        out = 0
        idx = 0
        M = N // m
        for _ in range(elem.n):
            i, a = divmod(a, M)
            t = (i + exps[idx]) % m
            out += t * M
            idx = m * idx + 1 + t
            M //= m
        return out + 1
    raise TypeError(type(elem))


MATERIALIZE_SIZE_CAP = 1 << 26


def materialize(elem) -> Permutation:
    """One-line array of the element; entry k equals apply(elem, k).

    Refuses sizes past 2^26. Group elements stay cheap in encoded form;
    use `apply` or `cycle_count` instead of materializing huge ones.
    """
    if elem.N > MATERIALIZE_SIZE_CAP:
        raise ValueError(f"m^n = {elem.N} exceeds the materialization cap {MATERIALIZE_SIZE_CAP}")
    return Permutation(_materialize_map(elem))


def _materialize_map(elem) -> np.ndarray:
    if isinstance(elem, SimpleButterfly):
        m = elem.m
        arr = np.zeros(1, dtype=np.int64)
        for j in reversed(elem.digits):
            M = arr.size
            blocks = [((i + j) % m) * M + arr for i in range(m)]
            arr = np.concatenate(blocks)
        return arr
    if isinstance(elem, NonsimpleButterfly):
        return _materialize_ns(elem.m, elem.n, elem.exponents)
    raise TypeError(type(elem))


def _materialize_ns(m: int, n: int, exps: tuple[int, ...]) -> np.ndarray:
    # top-down, fully vectorized: each input index walks the exponent tree,
    # rotating its block digit by the exponent of the node it sits under
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    N = m**n
    ex = np.asarray(exps, dtype=np.int64)
    node = np.zeros(N, dtype=np.int64)
    out = np.zeros(N, dtype=np.int64)
    rem = np.arange(N, dtype=np.int64)
    M = N
    for _ in range(n):
        M //= m
        i, rem = np.divmod(rem, M)
        t = (i + ex[node]) % m
        out += t * M
        node = m * node + 1 + t
    return out


def cycle_count(elem) -> int:
    """C(sigma) from the encoding, without materializing the full permutation.

    For e = 0 the blocks are disjoint, so cycles add. For e != 0 the block
    orbit i -> tau^e(i) splits [m] into gcd(e, m) rings; each sigma-orbit
    around a ring projects onto an orbit of the composite of the ring's
    children, so C equals the sum of C(composite) over rings.
    """
    if isinstance(elem, SimpleButterfly):
        return _cycle_count_array(_materialize_map(elem))
    if not isinstance(elem, NonsimpleButterfly):
        raise TypeError(type(elem))
    m, n, e = elem.m, elem.n, elem.exponents[0] if elem.n else 0
    if n == 0:
        return 1
    if e == 0:
        return sum(cycle_count(elem.subtree(t)) for t in range(m))
    g = math.gcd(e, m)
    total = 0
    M = m ** (n - 1)
    for start in range(g):
        prod = np.arange(M, dtype=np.int64)
        i = start
        for _ in range(m // g):
            i = (i + e) % m
            prod = _materialize_map(elem.subtree(i))[prod]
        total += _cycle_count_array(prod)
    return total


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
    ex = np.asarray(elem.exponents, dtype=np.int64)
    L = np.ones(elem.N, dtype=np.int64)
    for d in reversed(range(elem.n)):
        nodes = m**d
        lo = tree_size(m, d)
        below = np.zeros((nodes, m + 1), dtype=np.int64)  # below[j, e] = sum_{t<e} L_t
        np.cumsum(L.reshape(nodes, m), axis=1, out=below[:, 1:])
        low = below[np.arange(nodes), ex[lo : lo + nodes]]
        L = np.maximum(below[:, m] - low, low)
    return int(L[0])


def enumerate_group(m: int, n: int, simple: bool, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every group element exactly once; refuses orders above ``cap``."""
    order = group_order(m, n, simple)
    if order > cap:
        raise CapExceededError(f"group order {order} exceeds cap {cap}")
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
    The block-destination map at each level must be exactly a power of the
    standard m-cycle; any other block pattern disqualifies.
    """
    N = p.size
    n = 0
    t = N
    while t > 1:
        if t % m:
            raise ValueError(f"length {N} is not a power of {m}")
        t //= m
        n += 1
    exps = _recover(np.asarray(p.map), m)
    if exps is None:
        return None
    ns = NonsimpleButterfly(m, n, tuple(exps))
    simple = as_simple(ns)
    return simple if simple is not None else ns


def _recover(arr: np.ndarray, m: int) -> list[int] | None:
    """Breadth-first exponent recovery; None if some level is not a tau power."""
    queue: list[np.ndarray] = [arr]
    out: list[int] = []
    while queue and queue[0].size > 1:
        nxt: list[np.ndarray] = []
        for blockarr in queue:
            M = blockarr.size // m
            dest = blockarr // M
            e = int(dest[0]) % m
            children: list[np.ndarray | None] = [None] * m
            for i in range(m):
                t = (i + e) % m
                seg = blockarr[i * M : (i + 1) * M]
                if not (dest[i * M : (i + 1) * M] == t).all():
                    return None
                children[t] = seg - t * M
            out.append(e)
            nxt.extend(children)  # type: ignore[arg-type]
        queue = nxt
    return out


def as_simple(elem: NonsimpleButterfly) -> SimpleButterfly | None:
    """Convert to the simple encoding when every node's sibling subtrees agree."""
    m, n, exps = elem.m, elem.n, elem.exponents
    digits = []
    # level d occupies [(m^d - 1)/(m - 1), (m^{d+1} - 1)/(m - 1)); all entries must agree
    for d in range(n):
        lo = (m**d - 1) // (m - 1)
        hi = (m ** (d + 1) - 1) // (m - 1)
        level = exps[lo:hi]
        if any(e != level[0] for e in level):
            return None
        digits.append(level[0])
    return SimpleButterfly(m, tuple(digits))


def to_nonsimple(elem: SimpleButterfly) -> NonsimpleButterfly:
    """Simple elements as members of the enclosing nonsimple group."""
    m, n = elem.m, elem.n
    exps: list[int] = []
    for d in range(n):
        exps.extend([elem.digits[d]] * m**d)
    return NonsimpleButterfly(m, n, tuple(exps))


def element_to_json(elem) -> str:
    if isinstance(elem, SimpleButterfly):
        payload = {"m": elem.m, "n": elem.n, "kind": "simple", "exponents": list(elem.digits)}
    elif isinstance(elem, NonsimpleButterfly):
        payload = {"m": elem.m, "n": elem.n, "kind": "nonsimple", "exponents": list(elem.exponents)}
    else:
        raise TypeError(type(elem))
    return json.dumps(payload, sort_keys=True)


def element_from_json(text: str):
    data = json.loads(text)
    if data["kind"] == "simple":
        elem = SimpleButterfly(data["m"], tuple(data["exponents"]))
    elif data["kind"] == "nonsimple":
        elem = NonsimpleButterfly(data["m"], data["n"], tuple(data["exponents"]))
    else:
        raise ValueError(f"unknown kind {data['kind']!r}")
    if elem.n != data["n"]:
        raise ValueError("inconsistent depth")
    return elem

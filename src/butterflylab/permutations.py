"""Core permutation arithmetic.

A permutation sigma of [1..M] is stored 0-based as the array ``map`` with
``map[k] = sigma(k+1) - 1``; all user-facing notation (one-line arrays, text
serialization) is 1-based. The permutation matrix convention is
the left-regular action, ``P_sigma e_k = e_{sigma(k)}``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Permutation",
    "CycleStats",
    "identity",
    "compose",
    "kron",
    "dsum",
    "cycle_stats",
    "fisher_yates",
]

# Entries `Permutation.to_text` formats at a time.
TEXT_SLICE = 1 << 16


class Permutation:
    """Immutable permutation in one-line form (0-based internally)."""

    __slots__ = ("map",)

    def __init__(self, mapping) -> None:
        arr = np.asarray(mapping, dtype=np.int64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("permutation must be a nonempty 1-d sequence")
        n = arr.size
        seen = np.zeros(n, dtype=bool)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("entries must lie in [0, M)")
        seen[arr] = True
        if not seen.all():
            raise ValueError("not a bijection")
        arr.setflags(write=False)
        object.__setattr__(self, "map", arr)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Permutation is immutable")

    @property
    def size(self) -> int:
        return int(self.map.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.map, other.map)

    def __hash__(self) -> int:
        return hash(self.map.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.to_text()})"

    def matrix(self) -> np.ndarray:
        """Permutation matrix P with P e_k = e_{sigma(k)}."""
        n = self.size
        P = np.zeros((n, n))
        P[self.map, np.arange(n)] = 1.0
        return P

    def to_text(self) -> str:
        """Comma-separated 1-based one-line form, e.g. "4,8,5,1,3,6,7,2".

        Entries are formatted `TEXT_SLICE` at a time, so only one slice's
        Python ints and strings are alive besides the text itself.
        """
        return ",".join(",".join(map(str, (self.map[lo : lo + TEXT_SLICE] + 1).tolist()))
                        for lo in range(0, self.size, TEXT_SLICE))

    @staticmethod
    def from_matrix(P: np.ndarray) -> "Permutation":
        """Inverse of `matrix`: each column must be exactly one unit entry."""
        P = np.asarray(P)
        n = P.shape[0]
        if P.shape != (n, n):
            raise ValueError("matrix must be square")
        mapping = np.full(n, -1, dtype=np.int64)
        for k in range(n):
            col = P[:, k]
            i = int(np.argmax(np.abs(col)))
            if col[i] != 1.0 or np.abs(col).sum() != 1.0:
                raise ValueError("not a permutation matrix")
            mapping[k] = i
        return Permutation(mapping)


@dataclass(frozen=True)
class CycleStats:
    """Cycle decomposition summary: C(sigma) and per-length counts."""

    total_cycles: int
    by_length: dict[int, int] = field(compare=False)
    fixed_points: int = 0

    def __post_init__(self):
        assert self.total_cycles == sum(self.by_length.values())


def identity(n: int) -> Permutation:
    return Permutation(np.arange(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(k) = p(q(k)); matrices satisfy P_{p o q} = P_p P_q."""
    if p.size != q.size:
        raise ValueError(f"length mismatch: {p.size} vs {q.size}")
    return Permutation(p.map[q.map])


def kron(p: Permutation, q: Permutation) -> Permutation:
    """Kronecker product: P_{kron(p,q)} = P_p (x) P_q.

    On indices, result((i-1)b + r) = (p(i)-1)b + q(r) with b = len(q).
    """
    b = q.size
    return Permutation((p.map[:, None] * b + q.map[None, :]).ravel())


def dsum(p: Permutation, q: Permutation) -> Permutation:
    """Direct sum: block-diagonal permutation matrix P_p (+) P_q."""
    return Permutation(np.concatenate([p.map, q.map + p.size]))


def cycle_stats(p: Permutation) -> CycleStats:
    """Count the disjoint cycles of p by orbit traversal."""
    seen = np.zeros(p.size, dtype=bool)
    by_length: Counter[int] = Counter()
    m = p.map
    for start in range(p.size):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            length += 1
            j = int(m[j])
        by_length[length] += 1
    return CycleStats(
        total_cycles=sum(by_length.values()),
        by_length=dict(by_length),
        fixed_points=by_length.get(1, 0),
    )


def fisher_yates(M: int, rng: np.random.Generator) -> Permutation:
    """Uniform element of S_M from a seeded stream.

    Realizes the swap chain (M i_M)...(1 i_1) with i_k uniform on {k..M}
    (the Fisher-Yates shuffle, as implemented by numpy's ``permutation``).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    return Permutation(rng.permutation(M))

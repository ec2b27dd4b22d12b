"""Dense Gaussian elimination with partial pivoting and butterfly matrices.

Matrices are plain row-major numpy arrays (float64, or complex128 for the
complex-modulus pivoting used by the GUE experiment). The pivot rule is
``i_k = min(argmax_{j>=k} |A^(k)_{jk}|)``; the returned permutation sigma
satisfies ``P_sigma A = L U`` with ``P_sigma e_k = e_{sigma(k)}``.

`gepp` reads its factors off `_eliminate`, the full-width rank-1 loop of
`_column_step`s, which is also the oracle of `gepp_perm_batch`'s two fast
routes: LAPACK ``dgetrf`` for real stacks and a recursive modulus-pivot
elimination for the rest. Both are bound with ctypes from the OpenBLAS
that numpy already has loaded, so no scipy module is imported. A fast
permutation stands only when every multiplier it made has
|l_jk| < 1 - TIE_RTOL; the other matrices re-run the rank-1 loop.
Integer-valued stacks first run `PANEL_WIDTH` columns of that loop, whose
exact ties only it resolves.
"""
from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .permutations import Permutation, compose, dsum, identity, kron

__all__ = [
    "GeppResult",
    "ButterflySpec",
    "SingularMatrixError",
    "TieAngleError",
    "gepp",
    "gepp_perm_batch",
    "angle_count",
    "sample_spec",
    "build_butterfly",
    "build_butterflies",
    "predicted_factorization",
    "ensemble_sample",
]

TIE_RTOL = 2.0**-40
SINGULAR_FLOOR = 1e-300
# Columns of the exact first panel of an integer-valued stack. Over 324
# Bernoulli matrices at N = 64..512 the last multiplier of modulus 1 came
# by step 15 (median 8).
PANEL_WIDTH = 32
# Columns a leaf of the recursive elimination takes in numpy column steps;
# wider nodes are halves joined by a triangular solve and one matmul. On GUE
# stacks (1 BLAS thread) 8 beats 16 by 5-7% at N = 64 and 128 and loses 10%
# at N = 16, where 16 is one leaf; 4 loses to both.
LEAF_WIDTH = 8


class SingularMatrixError(ValueError):
    """Every pivot candidate in some column is numerically zero."""


class TieAngleError(ValueError):
    """|tan theta| = 1 within tolerance; the closed-form factorization is undefined."""


@dataclass(frozen=True)
class GeppResult:
    """Factorization P_sigma A = L U."""

    perm: Permutation
    lower: np.ndarray
    upper: np.ndarray


def gepp(A: np.ndarray) -> GeppResult:
    """Partial-pivoting factors of a square matrix, read off `_eliminate`.

    Raises `SingularMatrixError` at the first k with |U[k, k]| < `SINGULAR_FLOOR`:
    that is the column maximum step k pivoted on, and with every multiplier
    at most 1 in modulus the steps after a tiny pivot cannot overflow.
    """
    A = np.array(A, dtype=complex) if np.iscomplexobj(A) else np.array(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(A).all():
        raise ValueError("matrix has NaN or Inf entries")
    N = A.shape[0]
    perm = Permutation(_eliminate(A[None])[0])
    small = np.flatnonzero(np.abs(np.diagonal(A)) < SINGULAR_FLOOR)
    if small.size:
        raise SingularMatrixError(f"no usable pivot in column {small[0] + 1}")
    return GeppResult(perm, np.tril(A, -1) + np.eye(N), np.triu(A))


def gepp_perm_batch(mats: np.ndarray) -> np.ndarray:
    """Permutation factors (0-based one-line arrays) for a stack of matrices.

    Returns shape (T, N), the permutations of the full-width rank-1 loop
    `_eliminate`. Two fast routes share one shape, ``(A, rows) -> (perm, ok)``:

    - LAPACK ``dgetrf`` (`_getrf_perms`) for real stacks, when numpy's
      OpenBLAS exports it; ``idamax`` takes the first maximal |entry|, the
      min-index rule.
    - `_modulus_perms`, a recursive elimination with the modulus pivot, for
      complex stacks (``zgetrf`` pivots on |Re| + |Im|) and for real ones
      when ``dgetrf`` is missing.

    An integer-valued stack (Bernoulli, or Gaussian integers) has exact
    ties that only the rank-1 loop resolves: its first `PANEL_WIDTH`
    columns run through `_panel`, and the fast route factors the Schur
    complement left. Up to that order, and for empty stacks, the panel is
    the whole elimination.

    A fast route rounds differently from the rank-1 loop, so a matrix keeps
    its permutation only when each multiplier the route made has
    |l_jk| < 1 - TIE_RTOL; the others re-run `_eliminate`. The exact
    panel's multipliers do not count. The guard does not see a column that
    depends on earlier ones: it reduces to rounding noise, and on such
    singular matrices the routes may pick different pivots.
    """
    A = np.asarray(mats)
    T, N, M = A.shape
    if M != N:
        raise ValueError("matrices must be square")
    dtype = complex if np.iscomplexobj(A) else np.float64
    fast = _getrf_perms if dtype is np.float64 and _blas("dgetrf") is not None else _modulus_perms
    if not _integer_valued(A):
        perm, ok = fast(A)
    elif T and N > PANEL_WIDTH:
        W = A.astype(dtype)
        rows = np.tile(np.arange(N), (T, 1))
        _panel(W, rows, PANEL_WIDTH)
        perm, ok = fast(W[:, PANEL_WIDTH:, PANEL_WIDTH:], rows)
    else:
        return _eliminate(A.astype(dtype))
    if not ok.all():
        perm[~ok] = _eliminate(A[~ok].astype(dtype))
    return perm


def _integer_valued(A: np.ndarray) -> bool:
    """A == rint(A) everywhere; the first column settles most float stacks."""
    return all(np.array_equal(X, np.rint(X)) for X in (A[..., :1], A))


_LOOKUP_LOCK = threading.Lock()
_I64 = ctypes.POINTER(ctypes.c_int64)
_ARGTYPES = {
    # m, n, A, lda, ipiv, info
    "getrf": [_I64, _I64, ctypes.c_void_p, _I64, ctypes.c_void_p, _I64],
    # n, A, lda, k1, k2, ipiv, incx
    "laswp": [_I64, ctypes.c_void_p, _I64, _I64, _I64, ctypes.c_void_p, _I64],
    # side, uplo, transa, diag, m, n, alpha, A, lda, B, ldb
    "trsm": [ctypes.c_char_p] * 4 + [_I64, _I64, ctypes.c_void_p, ctypes.c_void_p, _I64,
                                     ctypes.c_void_p, _I64],
}


def _blas(name: str):
    """numpy's ``dgetrf``, ``dtrsm``, ``ztrsm``, ``dlaswp`` or ``zlaswp``, or None.

    The routine comes as a ctypes function, each name looked up once.
    Thread-safe: concurrent first callers wait for one lookup.
    """
    with _LOOKUP_LOCK:
        return _find_blas(name)


@functools.cache
def _find_blas(name: str):
    """ILP64 ``name`` from the libraries numpy's linalg extension links.

    dlsym on the extension's handle also searches its dependencies: numpy
    >= 2 wheels bundle scipy-openblas with prefixed ILP64 names, numpy 1.x
    ``openblas64_`` wheels export suffixed ones. An LP64 system BLAS
    exports neither, and its 32-bit integers would not match the c_int64
    arguments.
    """
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for symbol in (f"scipy_{name}_64_", f"{name}_64_"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = _ARGTYPES[name[1:]]
            fn.restype = None
            return fn
    return None


def _getrf_perms(A: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK permutations of a real stack, and which of them pass the tie guard.

    One copy of A holds each matrix in column-major order; ``dgetrf``
    factors it in place and leaves A intact. ``info > 0`` marks an exactly
    zero pivot column, which swaps nothing: the min-index convention.
    `_read_factor` takes it from there.
    """
    dgetrf = _blas("dgetrf")
    T, N, _ = A.shape
    F = np.array(A.transpose(0, 2, 1), dtype=np.float64, order="C")
    ipiv = np.empty((T, N), dtype=np.int64)
    n, info = ctypes.c_int64(N), ctypes.c_int64()
    # Raw addresses: a `.ctypes` view per matrix costs more than a small factorization.
    f0, p0 = F.ctypes.data, ipiv.ctypes.data
    for t in range(T):
        dgetrf(n, n, f0 + t * F.strides[0], n, p0 + t * ipiv.strides[0], info)
        if info.value < 0:
            raise ValueError(f"dgetrf rejected argument {-info.value}")
    return _read_factor(F, ipiv, rows)


def _modulus_perms(A: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Modulus-pivot permutations of a stack, and which of them pass the tie guard.

    Toledo's recursive LU on a column-major copy of A: `_recurse` splits the
    columns in halves down to `LEAF_WIDTH`, so nearly all the arithmetic is
    BLAS triangular solves and matmuls, and a leaf step is a pivot search,
    a row swap, a division and a rank-1 update of the leaf's own columns.
    ``ipiv`` is LAPACK's (1-based), and `_read_factor` takes it from there.
    """
    T, N, _ = A.shape
    F = np.array(A.transpose(0, 2, 1), dtype=complex if np.iscomplexobj(A) else np.float64,
                 order="C")
    ipiv = np.empty((T, N), dtype=np.int64)
    _recurse(F, ipiv, 0, N)
    return _read_factor(F, ipiv, rows)


def _read_factor(F: np.ndarray, ipiv: np.ndarray,
                 rows: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Permutations and tie guard of column-major factors F.

    Step k swapped rows k and ipiv[k] - 1. `_swap_rows` replays the swaps
    on the labels 0..N-1, which leaves each matrix's row order, whose
    argsort is the permutation. Row k of a column-major matrix is column k
    of the factor, so L's multipliers are the entries right of the
    diagonal; F is spent reading them. When F factors the trailing Schur
    complement of a stack eliminated up to some column, ``rows`` holds that
    stack's row orders (T, M), M >= N: its last N entries are reordered, and
    the permutations are those of the whole matrices.
    """
    T, N, _ = F.shape
    labels = np.tile(np.arange(N, dtype=np.float64), (T, 1, 1))
    _swap_rows(labels, ipiv, 0, 1, 0, N)
    order = labels[:, 0].astype(np.int64)
    if rows is not None:
        done = rows.shape[1] - N
        order = np.concatenate([rows[:, :done], np.take_along_axis(rows[:, done:], order, 1)], 1)
    L = np.abs(F, out=F) if F.dtype == np.float64 else np.abs(F)
    L *= np.triu(np.ones((N, N), bool), 1)
    ok = L.max(axis=(1, 2)) < 1.0 - TIE_RTOL
    return np.argsort(order, axis=1, kind="stable"), ok


def _recurse(F: np.ndarray, ipiv: np.ndarray, p: int, e: int) -> None:
    """Eliminates columns p..e-1 of a column-major stack whose first p are done.

    On return every swap of steps p..e-1 is applied to those columns, and
    to no other. The left half's swaps reach the right half before its
    unit-lower block turns the right half's top rows into rows of U; one
    stacked matmul subtracts their product with the left half's
    multipliers from the rows below. Columns left of p never need the
    swaps when e = N: only the guard reads them, in any row order.
    """
    if e - p <= LEAF_WIDTH:
        _leaf(F, ipiv, p, e)
        return
    h = (p + e) // 2
    _recurse(F, ipiv, p, h)
    _swap_rows(F, ipiv, h, e, p, h)
    A = F.transpose(0, 2, 1)
    _unit_lower_solve(A[:, p:h, p:h], A[:, p:h, h:e])
    F[:, h:e, h:] -= F[:, h:e, p:h] @ F[:, p:h, h:]
    _recurse(F, ipiv, h, e)
    if e < F.shape[1]:
        _swap_rows(F, ipiv, p, h, h, e)


def _leaf(F: np.ndarray, ipiv: np.ndarray, p: int, e: int) -> None:
    """Column steps p..e-1 on a column-major stack, updating only those columns.

    Step k takes the first row of maximal modulus in column k, rows k and
    up, as its pivot, records it in ``ipiv[:, k]`` and swaps it into row k
    of the leaf's columns, divides the column below by the pivot and
    updates the leaf's columns right of k. A zero pivot column is left as
    it is, so it swaps and eliminates nothing (the min-index convention).
    """
    for k in range(p, e):
        j = np.argmax(np.abs(F[:, k, k:]), axis=1) + k
        ipiv[:, k] = j + 1
        _swap_step(F, p, e, k, j)
        piv = F[:, k, k, None]
        np.divide(F[:, k, k + 1 :], piv, out=F[:, k, k + 1 :], where=piv != 0)
        F[:, k + 1 : e, k + 1 :] -= F[:, k + 1 : e, k, None] * F[:, k, None, k + 1 :]


def _swap_step(F: np.ndarray, c0: int, c1: int, k: int, j: np.ndarray) -> None:
    """Swaps row k with row j[t] of each matrix t, in columns c0..c1-1 of a column-major stack."""
    tix = np.arange(len(F))
    row = F[:, c0:c1, k].copy()
    F[:, c0:c1, k] = F[tix, c0:c1, j]
    F[tix, c0:c1, j] = row


def _swap_rows(F: np.ndarray, ipiv: np.ndarray, c0: int, c1: int, k0: int, k1: int) -> None:
    """Applies the row swaps of steps k0..k1-1 to columns c0..c1-1 of a column-major stack.

    The stack is (T, columns, rows); step k swapped rows k and ipiv[:, k] - 1.
    LAPACK ``dlaswp``/``zlaswp`` swaps in place, one call per matrix; when
    the symbol is missing, each step is one `_swap_step`.
    """
    laswp = _blas("zlaswp" if np.iscomplexobj(F) else "dlaswp")
    if laswp is None:
        for k in range(k0, k1):
            _swap_step(F, c0, c1, k, ipiv[:, k] - 1)
        return
    n, ld, first, last, one = (ctypes.c_int64(v) for v in (c1 - c0, F.shape[2], k0 + 1, k1, 1))
    f0, p0 = F.ctypes.data + c0 * F.strides[1], ipiv.ctypes.data
    for t in range(len(F)):
        laswp(n, f0 + t * F.strides[0], ld, first, last, p0 + t * ipiv.strides[0], one)


def _unit_lower_solve(L: np.ndarray, B: np.ndarray) -> None:
    """Overwrites each B[t] with X solving unit_lower(L[t]) X = B[t].

    L and B are views of one stack, both row-major or both column-major.
    BLAS ``dtrsm``/``ztrsm`` solves in place, one call per matrix; a
    row-major pair is the transposed system X^T L^T = B^T in BLAS's
    column-major terms. ``np.linalg.solve`` stands in when the symbol is
    missing.
    """
    T, n, m = B.shape
    trsm = _blas("ztrsm" if np.iscomplexobj(B) else "dtrsm")
    if trsm is None:
        B[...] = np.linalg.solve(np.tril(L, -1) + np.eye(n), B)
        return
    item = B.itemsize
    if B.strides[2] == item:
        side, uplo, rows, cols, ld = b"R", b"U", m, n, B.strides[1] // item
    else:
        side, uplo, rows, cols, ld = b"L", b"L", n, m, B.strides[2] // item
    if (L.strides[1:] if side == b"R" else L.strides[:0:-1]) != (ld * item, item):
        raise ValueError("L and B must share one memory order and leading dimension")
    one = np.ones(1, B.dtype)
    rows, cols, ld = ctypes.c_int64(rows), ctypes.c_int64(cols), ctypes.c_int64(ld)
    alpha, l0, b0 = one.ctypes.data, L.ctypes.data, B.ctypes.data
    for t in range(T):
        trsm(side, uplo, b"N", b"U", rows, cols, alpha, l0 + t * L.strides[0], ld,
             b0 + t * B.strides[0], ld)


def _eliminate(W: np.ndarray) -> np.ndarray:
    """Full-width modulus-pivot elimination of a stack; overwrites W, returns the permutations.

    This is the rank-1 loop, one `_column_step` per column: the oracle
    that both fast routes are guarded against.
    """
    T, N, _ = W.shape
    rows = np.tile(np.arange(N), (T, 1))
    _panel(W, rows, N)
    return np.argsort(rows, axis=1, kind="stable")


def _panel(W: np.ndarray, rows: np.ndarray, e: int) -> None:
    """Eliminates the first e columns of a stack with the rank-1 loop's own steps.

    `_column_step` eliminates column by column and updates only the
    panel's own columns. After it, one unit-lower solve gives the panel's
    rows of U and one stacked matmul leaves the Schur complement in
    ``W[:, e:, e:]``.
    """
    N = W.shape[1]
    for k in range(min(e, N - 1)):
        _column_step(W, rows, k, e)
    if e < N:
        _unit_lower_solve(W[:, :e, :e], W[:, :e, e:])
        W[:, e:, e:] -= W[:, e:, :e] @ W[:, :e, e:]


def _column_step(W: np.ndarray, rows: np.ndarray, k: int, e: int) -> np.ndarray:
    """Elimination step k on a stack, updating columns k+1..e-1; returns the pivot rows.

    The pivot is the first row of maximal modulus in column k, rows k and
    up; it is swapped into row k of W and of the row orders ``rows``. A zero
    pivot column contributes no swap and no elimination (min-index
    convention), so singular draws pass through instead of poisoning the
    batch.
    """
    tix = np.arange(len(W))
    j = np.argmax(np.abs(W[:, k:, k]), axis=1) + k
    rk, rj = W[tix, k].copy(), W[tix, j].copy()
    W[tix, k], W[tix, j] = rj, rk
    ok, oj = rows[tix, k].copy(), rows[tix, j].copy()
    rows[tix, k], rows[tix, j] = oj, ok
    piv = W[:, k, k]
    safe = np.where(piv == 0, 1.0, piv)
    mult = W[:, k + 1 :, k] / safe[:, None]
    mult[piv == 0] = 0.0
    W[:, k + 1 :, k + 1 : e] -= mult[:, :, None] * W[:, None, k, k + 1 : e]
    W[:, k + 1 :, k] = mult
    return j


# ---------------------------------------------------------------------------
# Butterfly matrix specs and constructors
# ---------------------------------------------------------------------------

_FLAVORS = ("scalar", "diagonal")
_SHAPES = ("simple", "nonsimple")


def angle_count(flavor: str, shape: str, N: int) -> int:
    """Number of free angles: scalar n / N-1, diagonal N-1 / n*N/2."""
    n = _log2_exact(N)
    if flavor == "scalar":
        return n if shape == "simple" else N - 1
    if flavor == "diagonal":
        return N - 1 if shape == "simple" else n * N // 2
    raise ValueError(f"unknown flavor {flavor!r}")


def _log2_exact(N: int) -> int:
    n = int(N).bit_length() - 1
    if N < 1 or (1 << n) != N:
        raise ValueError(f"N = {N} is not a power of 2")
    return n


@dataclass(frozen=True)
class ButterflySpec:
    """Angle data for one random butterfly matrix of order N = 2^n.

    ``angles`` is flat, ordered level by level from the top: the simple
    shapes store one level block per level (shared across that level's
    nodes), the nonsimple shapes store one block per node in breadth-first
    order. A block is a single angle for the scalar flavor and size/2
    angles for the diagonal flavor.
    """

    N: int
    flavor: str
    shape: str
    angles: tuple[float, ...]

    def __post_init__(self):
        if self.flavor not in _FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        expect = angle_count(self.flavor, self.shape, self.N)
        if len(self.angles) != expect:
            raise ValueError(f"expected {expect} angles, got {len(self.angles)}")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))

    @property
    def n(self) -> int:
        return _log2_exact(self.N)


def sample_spec(flavor: str, shape: str, N: int, rng: np.random.Generator) -> ButterflySpec:
    """Spec with all angles iid uniform on [0, 2*pi)."""
    count = angle_count(flavor, shape, N)
    return ButterflySpec(N, flavor, shape, tuple(rng.uniform(0.0, 2.0 * math.pi, size=count)))


def build_butterflies(flavor: str, shape: str, N: int, angles) -> np.ndarray:
    """Stack (T, N, N) of butterfly matrices, one per row of ``angles``.

    ``angles`` has shape (T, angle_count) with each row in `ButterflySpec`
    order. Built bottom-up: level d turns the stacked children of order
    N >> (d + 1) into B = [[C A1, S A2], [-S A1, C A2]]. Scalar flavor uses
    (C, S) = (cos t, sin t) I; diagonal flavor uses diagonal (C, S) built
    from size/2 angles. Simple shapes reuse one child per level (A1 = A2);
    node j of a nonsimple level has children 2j and 2j + 1. Each entry is a
    product of one cosine or +-sine per level, multiplied from the bottom
    level up; the Monte Carlo outputs are bit-reproducible only in that order.
    """
    if shape not in _SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    n = _log2_exact(N)
    angles = np.asarray(angles, dtype=np.float64)
    expect = angle_count(flavor, shape, N)
    if angles.ndim != 2 or angles.shape[1] != expect:
        raise ValueError(f"expected angles of shape (T, {expect}), got {angles.shape}")
    T = angles.shape[0]
    cos, sin = np.cos(angles), np.sin(angles)
    nodes = [1 if shape == "simple" else 1 << d for d in range(n + 1)]
    X = np.ones((T, nodes[n], 1, 1))
    end = expect
    for d in reversed(range(n)):
        h = X.shape[-1]
        start = end - nodes[d] * (1 if flavor == "scalar" else h)
        c = cos[:, start:end].reshape(T, nodes[d], -1, 1)
        s = sin[:, start:end].reshape(T, nodes[d], -1, 1)
        end = start
        A1, A2 = (X, X) if shape == "simple" else (X[:, 0::2], X[:, 1::2])
        B = np.empty((T, nodes[d], 2 * h, 2 * h))
        B[:, :, :h, :h] = c * A1
        B[:, :, :h, h:] = s * A2
        B[:, :, h:, :h] = -s * A1
        B[:, :, h:, h:] = c * A2
        X = B
    return X[:, 0]


def build_butterfly(spec: ButterflySpec) -> np.ndarray:
    """Materialize the butterfly matrix of one spec (see `build_butterflies`)."""
    return build_butterflies(spec.flavor, spec.shape, spec.N, [spec.angles])[0]


# ---------------------------------------------------------------------------
# Closed-form factorization of scalar butterfly matrices
# ---------------------------------------------------------------------------


def _pivot_data(theta: float):
    """(e, theta_hat) for the 2x2 rotation; rejects |tan theta| ~ 1."""
    t = math.tan(theta)
    if abs(abs(t) - 1.0) <= TIE_RTOL * max(1.0, abs(t)):
        raise TieAngleError(f"|tan({theta})| = 1 within tolerance")
    e = 1 if abs(t) > 1.0 else 0
    return e, (math.pi / 2 - theta if e else theta)


def predicted_factorization(spec: ButterflySpec) -> GeppResult:
    """Closed-form GEPP factors of a scalar butterfly matrix, no elimination.

    For B = (R_theta (x) I)(A1 (+) A2) with child factorizations
    P_k A_k = L_k U_k and theta_hat the pivot-adjusted angle:

        P = (P1 (+) P2)(P_theta (x) I)
        L = [[L1, 0], [-tan(theta_hat) P2 P1^T L1, L2]]
        U = [[(-1)^e cos(theta_hat) U1,  sin(theta_hat) U1 A1^T A2],
             [0,                         sec(theta_hat) U2]]

    Simple specs reduce to Kronecker products of the 2x2 factors.
    """
    if spec.flavor != "scalar":
        raise ValueError("closed-form factorization covers the scalar flavor only")

    def rec(d: int, node: int):
        if d == spec.n:
            one = np.ones((1, 1))
            return identity(1), one, one
        theta = spec.angles[d if spec.shape == "simple" else (1 << d) - 1 + node]
        if spec.shape == "simple":
            p1, L1, U1 = rec(d + 1, 0)
            p2, L2, U2 = p1, L1, U1
        else:
            p1, L1, U1 = rec(d + 1, 2 * node)
            p2, L2, U2 = rec(d + 1, 2 * node + 1)
        e, that = _pivot_data(theta)
        m = L1.shape[0]
        c, s = math.cos(that), math.sin(that)
        tn = math.tan(that)
        swap = Permutation([1, 0]) if e else identity(2)
        perm = compose(dsum(p1, p2), kron(swap, identity(m)))
        P1m, P2m = p1.matrix(), p2.matrix()
        A1, A2 = P1m.T @ L1 @ U1, P2m.T @ L2 @ U2  # the children, from P_k A_k = L_k U_k
        Z = np.zeros((m, m))
        L = np.block([[L1, Z], [-tn * (P2m @ P1m.T @ L1), L2]])
        U = np.block([[((-1.0) ** e) * c * U1, s * (U1 @ A1.T @ A2)], [Z, (1.0 / c) * U2]])
        return perm, L, U

    return GeppResult(*rec(0, 0))


# ---------------------------------------------------------------------------
# Comparison ensembles
# ---------------------------------------------------------------------------


def ensemble_sample(kind: str, N: int, rng: np.random.Generator) -> np.ndarray:
    """Standard random-matrix ensembles for the pivot experiments.

    goe: symmetric, N(0, 1 + delta_ij) entries. gue: Hermitian, N(0,1)
    diagonal and complex N(0, 1/2) + i N(0, 1/2) off-diagonal (pivoting uses
    the complex modulus). bernoulli: iid {0,1} with P(1) = 1/2.
    """
    if kind == "goe":
        G = rng.normal(size=(N, N))
        return (G + G.T) / math.sqrt(2.0)
    if kind == "gue":
        X = rng.normal(size=(N, N), scale=math.sqrt(0.5))
        Y = rng.normal(size=(N, N), scale=math.sqrt(0.5))
        # (G + G^H) / sqrt 2 for G = X + iY, in real arithmetic: numpy divides
        # a complex array by a real scalar as a multiply by its reciprocal,
        # so these parts are bit-identical to the complex formula.
        r = 1.0 / math.sqrt(2.0)
        H = np.empty((N, N), dtype=np.complex128)
        H.real = (X + X.T) * r
        H.imag = (Y - Y.T) * r
        return H
    if kind == "bernoulli":
        return (rng.random((N, N)) < 0.5).astype(np.float64)
    raise ValueError(f"unknown ensemble {kind!r}")

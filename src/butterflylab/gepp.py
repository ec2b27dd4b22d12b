"""Dense Gaussian elimination with partial pivoting and butterfly matrices.

Matrices are plain row-major numpy arrays (float64, or complex128 for the
complex-modulus pivoting used by the GUE experiment). The pivot rule is
``i_k = min(argmax_{j>=k} |A^(k)_{jk}|)``; the returned permutation sigma
satisfies ``P_sigma A = L U`` with ``P_sigma e_k = e_{sigma(k)}``.

`gepp` and `gepp_perm_batch` share one kernel, `_factor`, on a
column-major copy of the stack. `_leaf`, the rank-1 loop of column steps,
runs all the columns for `gepp`, the first `PANEL_WIDTH` of an
integer-valued stack and none of a float stack; LAPACK ``dgetrf`` (real
stacks) or a recursive modulus-pivot elimination with `_leaf` leaves
factors the rest. Both are bound with ctypes from the OpenBLAS that numpy
already has loaded, so no scipy module is imported. A fast permutation
stands only when every multiplier it made has |l_jk| < 1 - TIE_RTOL; the
other matrices re-run the rank-1 loop at full width.

`predicted_factorization` builds a scalar butterfly's factors without elimination:
P from the exponent tree e = [|tan theta| > 1], P^T L and U one depth at a time.
"""
from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .groups import NonsimpleButterfly, SimpleButterfly, materialize
from .permutations import Permutation

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
    """Partial-pivoting factors of a square matrix, read off the full-width rank-1 loop.

    Raises `SingularMatrixError` at the first k with |U[k, k]| < `SINGULAR_FLOOR`:
    that is the column maximum step k pivoted on, and with every multiplier
    at most 1 in modulus the steps after a tiny pivot cannot overflow.
    """
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(A).all():
        raise ValueError("matrix has NaN or Inf entries")
    N = A.shape[0]
    perm, _, F = _factor(A[None], N)
    W = F[0].T
    small = np.flatnonzero(np.abs(np.diagonal(W)) < SINGULAR_FLOOR)
    if small.size:
        raise SingularMatrixError(f"no usable pivot in column {small[0] + 1}")
    return GeppResult(Permutation(perm[0]), np.tril(W, -1) + np.eye(N), np.triu(W))


def gepp_perm_batch(mats: np.ndarray) -> np.ndarray:
    """Permutation factors (0-based one-line arrays) for a stack of matrices.

    Returns shape (T, N), the permutations of the full-width rank-1 loop.
    `_factor` runs that loop on the first `PANEL_WIDTH` columns of an
    integer-valued stack (Bernoulli, or Gaussian integers), whose exact
    ties only it resolves, and a fast route factors the rest: ``dgetrf``
    (`_getrf`) for real stacks when numpy's OpenBLAS exports it, whose
    ``idamax`` takes the first maximal |entry|, the min-index rule; else
    `_recurse`, with the modulus pivot (``zgetrf`` pivots on |Re| + |Im|).

    A fast route rounds differently from the rank-1 loop, so a matrix keeps
    its permutation only when each multiplier the route made has
    |l_jk| < 1 - TIE_RTOL; the others re-run the loop at full width. The
    exact panel's multipliers do not count. The guard does not see a column
    that depends on earlier ones: it reduces to rounding noise, and on such
    singular matrices the routes may pick different pivots.
    """
    A = np.asarray(mats)
    T, N, M = A.shape
    if M != N:
        raise ValueError("matrices must be square")
    perm, ok, _ = _factor(A, PANEL_WIDTH if _integer_valued(A) else 0)
    if not ok.all():
        perm[~ok] = _factor(A[~ok], N)[0]
    return perm


def _integer_valued(A: np.ndarray) -> bool:
    """A == rint(A) everywhere; the first column settles most float stacks."""
    return all(np.array_equal(X, np.rint(X)) for X in (A[..., :1], A))


def _factor(A: np.ndarray, exact: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Permutations of a stack, which of them pass the tie guard, and its factor F.

    F is a column-major copy: row k of matrix t is F[t, :, k]. `_leaf`
    eliminates the first p = min(exact, N) columns, `_join` leaves their
    Schur complement in the rest, and `_getrf` or `_recurse` factors it in
    place. Step k swapped rows k and ipiv[:, k] - 1; replayed on the labels
    0..N-1, the swaps leave each row order, whose argsort is the
    permutation. Only multipliers past column p are guarded, and the guard
    spends them, so F is the whole factor only when p = N.
    """
    T, N, _ = A.shape
    F = np.array(A.transpose(0, 2, 1), dtype=complex if np.iscomplexobj(A) else np.float64,
                 order="C")
    ipiv = np.empty((T, N), dtype=np.int64)
    p = min(exact, N)
    _leaf(F, ipiv, 0, p)
    ok = np.ones(T, dtype=bool)
    if p < N:
        if p:
            _join(F, ipiv, 0, p, N)
        if F.dtype == np.float64 and _blas("dgetrf") is not None:
            _getrf(F, ipiv, p)
        else:
            _recurse(F, ipiv, p, N)
        ok = _guard(F, p)
    labels = np.tile(np.arange(N, dtype=np.float64), (T, 1, 1))
    _swap_rows(labels, ipiv, 0, 1, 0, N)
    return np.argsort(labels[:, 0].astype(np.int64), axis=1, kind="stable"), ok, F


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


def _getrf(F: np.ndarray, ipiv: np.ndarray, p: int) -> None:
    """LAPACK ``dgetrf`` on the trailing block F[t, p:, p:] of each column-major matrix.

    Each block is factored in place, leading dimension N; its pivots count
    from the block's first row, so p is added to them. ``info > 0`` marks
    an exactly zero pivot column, which swaps nothing: the min-index rule.
    """
    dgetrf = _blas("dgetrf")
    T, N, _ = F.shape
    m, lda, info = ctypes.c_int64(N - p), ctypes.c_int64(N), ctypes.c_int64()
    # Raw addresses: a `.ctypes` view per matrix costs more than a small factorization.
    f0 = F.ctypes.data + p * (F.strides[1] + F.strides[2])
    p0 = ipiv.ctypes.data + p * ipiv.strides[1]
    for t in range(T):
        dgetrf(m, m, f0 + t * F.strides[0], lda, p0 + t * ipiv.strides[0], info)
        if info.value < 0:
            raise ValueError(f"dgetrf rejected argument {-info.value}")
    ipiv[:, p:] += p


def _guard(F: np.ndarray, p: int) -> np.ndarray:
    """Which matrices made every multiplier past column p below 1 - TIE_RTOL in modulus.

    Column k of L lies right of the diagonal in row k of the column-major
    factor. A real factor's moduli are taken in place.
    """
    B = F[:, p:, p:]
    L = np.abs(B, out=B) if B.dtype == np.float64 else np.abs(B)
    L *= np.triu(np.ones(B.shape[1:], bool), 1)
    return L.max(axis=(1, 2)) < 1.0 - TIE_RTOL


def _recurse(F: np.ndarray, ipiv: np.ndarray, p: int, e: int) -> None:
    """Eliminates columns p..e-1 of a column-major stack whose first p are done.

    Toledo's recursive LU: the columns split in halves down to `LEAF_WIDTH`,
    and `_join` hands the right half what the left one eliminated, so
    nearly all the arithmetic is BLAS triangular solves and matmuls. On
    return every swap of steps p..e-1 is applied to those columns, and to
    no other. Columns left of p never need the swaps when e = N: neither
    the guard nor the permutation reads them.
    """
    if e - p <= LEAF_WIDTH:
        _leaf(F, ipiv, p, e)
        return
    h = (p + e) // 2
    _recurse(F, ipiv, p, h)
    _join(F, ipiv, p, h, e)
    _recurse(F, ipiv, h, e)
    if e < F.shape[1]:
        _swap_rows(F, ipiv, p, h, h, e)


def _join(F: np.ndarray, ipiv: np.ndarray, p: int, h: int, e: int) -> None:
    """Brings columns h..e-1 of a column-major stack past steps p..h-1, done on columns p..h-1.

    The steps' swaps reach the columns before the steps' unit-lower block
    turns their top rows into rows of U; one stacked matmul subtracts
    their product with the steps' multipliers from the rows below.
    """
    _swap_rows(F, ipiv, h, e, p, h)
    A = F.transpose(0, 2, 1)
    _unit_lower_solve(A[:, p:h, p:h], A[:, p:h, h:e])
    F[:, h:e, h:] -= F[:, h:e, p:h] @ F[:, p:h, h:]


def _leaf(F: np.ndarray, ipiv: np.ndarray, p: int, e: int) -> None:
    """Column steps p..e-1 on a column-major stack, updating only those columns.

    Step k takes the first row of maximal modulus in column k, rows k and
    up, as its pivot, records it in ``ipiv[:, k]`` and swaps it into row k
    of the leaf's columns, divides the column below by the pivot and
    updates the leaf's columns right of k. A zero pivot column is left as
    it is, so it swaps and eliminates nothing (the min-index convention).
    Over all N columns this is the rank-1 loop. Its update multiplies
    l * u, in that order: a complex product's last bits depend on it.
    """
    for k in range(p, e):
        j = np.argmax(np.abs(F[:, k, k:]), axis=1) + k
        ipiv[:, k] = j + 1
        _swap_step(F, p, e, k, j)
        piv = F[:, k, k, None]
        np.divide(F[:, k, k + 1 :], piv, out=F[:, k, k + 1 :], where=piv != 0)
        F[:, k + 1 : e, k + 1 :] -= F[:, k, None, k + 1 :] * F[:, k + 1 : e, k, None]


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

    L and B are column-major views of one stack. BLAS ``dtrsm``/``ztrsm``
    solves in place, one call per matrix; ``np.linalg.solve`` stands in
    when the symbol is missing.
    """
    T, n, m = B.shape
    if not B.size:  # nothing to solve, and an empty stack's strides are all 0
        return
    trsm = _blas("ztrsm" if np.iscomplexobj(B) else "dtrsm")
    if trsm is None:
        B[...] = np.linalg.solve(np.tril(L, -1) + np.eye(n), B)
        return
    item, ld = B.itemsize, B.strides[2] // B.itemsize
    if B.strides[1] != item or L.strides[1:] != (item, ld * item):
        raise ValueError("L and B must be column-major views of one stack")
    one = np.ones(1, B.dtype)
    rows, cols, ld = ctypes.c_int64(n), ctypes.c_int64(m), ctypes.c_int64(ld)
    alpha, l0, b0 = one.ctypes.data, L.ctypes.data, B.ctypes.data
    for t in range(T):
        trsm(b"L", b"L", b"N", b"U", rows, cols, alpha, l0 + t * L.strides[0], ld,
             b0 + t * B.strides[0], ld)


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


def predicted_factorization(spec: ButterflySpec) -> GeppResult:
    """Closed-form GEPP factors of a scalar butterfly matrix, no elimination.

    P is the group element of the exponent tree e = [|tan theta| > 1]
    (`groups.materialize`) and L = P Q. Built bottom-up like `build_butterflies`,
    each node B = (R_theta (x) I)(A1 (+) A2) is Q U, with theta_hat = pi/2 - theta
    if e else theta and

        Q = (P_theta^e (x) I)^T [[Q1, 0], [-tan(theta_hat) Q1, Q2]]
        U = [[(-1)^e cos(theta_hat) U1,  sin(theta_hat) U1 A1^T A2],
             [0,                         sec(theta_hat) U2]]
    """
    if spec.flavor != "scalar":
        raise ValueError("closed-form factorization covers the scalar flavor only")
    theta = np.array(spec.angles)
    t = np.abs(np.tan(theta))
    tie = np.abs(t - 1.0) <= TIE_RTOL * np.maximum(1.0, t)
    if tie.any():
        raise TieAngleError(f"|tan({float(theta[tie][0])})| = 1 within tolerance")
    e = t > 1.0
    that = np.where(e, math.pi / 2 - theta, theta)
    c, s, tn = np.cos(that), np.sin(that), np.tan(that)
    simple = spec.shape == "simple"
    # Q and U hold one row per node of the depth below; at the leaves and at
    # every depth of a simple spec one row serves all children (mode="clip").
    Q = U = np.ones((1, 1, 1))
    for d in reversed(range(spec.n)):
        nodes = 1 if simple else 1 << d
        k = slice(d, d + 1) if simple else slice(nodes - 1, 2 * nodes - 1)
        ek, ck, sk, tk = (x[k, None, None] for x in (e, c, s, tn))
        left = np.arange(0, 2 * nodes, 2)
        Q1, Q2, U1, U2 = (X.take(i, axis=0, mode="clip") for X in (Q, U) for i in (left, left + 1))
        A1, A2, Z = Q1 @ U1, Q2 @ U2, np.zeros_like(Q1)
        Q = np.block([[Q1, Z], [-tk * Q1, Q2]])
        Q = np.where(ek, np.roll(Q, Q1.shape[1], axis=1), Q)  # (P_theta (x) I)^T swaps the row halves
        U = np.block([[np.where(ek, -ck, ck) * U1, sk * (U1 @ A1.transpose(0, 2, 1) @ A2)],
                      [Z, (1.0 / ck) * U2]])
    perm = materialize(SimpleButterfly(2, e.tolist()) if simple else NonsimpleButterfly(2, spec.n, e))
    return GeppResult(perm, Q[0][np.argsort(perm.map)], U[0])  # L = P Q


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

"""Dense Gaussian elimination with partial pivoting and butterfly matrices.

Matrices are plain row-major numpy arrays (float64, or complex128 for the
complex-modulus pivoting used by the GUE experiment). The pivot rule is
``i_k = min(argmax_{j>=k} |A^(k)_{jk}|)``; the returned permutation sigma
satisfies ``P_sigma A = L U`` with ``P_sigma e_k = e_{sigma(k)}``.

`gepp` and `gepp_perm_batch` run one elimination kernel, `_panel` over
`_column_step`; a pivot is a near tie only when some multiplier has
|l_jk| >= 1 - TIE_RTOL. In `gepp_perm_batch`, real stacks go to LAPACK
``dgetrf``, bound with ctypes from the OpenBLAS that numpy already has
loaded, so no scipy module is imported; all-integer ones above order
`PANEL_WIDTH` after one exact panel. Other stacks run the kernel in panels
of `PANEL_WIDTH` columns.
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
# Columns per panel of the blocked elimination. On one GUE matrix at
# N = 512 (1 BLAS thread) widths 16 to 32 all run 4x faster than the rank-1
# loop; on stacks of 16 to 64 matrices at N = 64 and 128, widths 8 to 32
# gain 1.2-2x.
PANEL_WIDTH = 32


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
    """Partial-pivoting factors of a square matrix, read off `_eliminate` at full width.

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
    perm = Permutation(_eliminate(A[None], N)[0][0])
    small = np.flatnonzero(np.abs(np.diagonal(A)) < SINGULAR_FLOOR)
    if small.size:
        raise SingularMatrixError(f"no usable pivot in column {small[0] + 1}")
    return GeppResult(perm, np.tril(A, -1) + np.eye(N), np.triu(A))


def gepp_perm_batch(mats: np.ndarray) -> np.ndarray:
    """Permutation factors (0-based one-line arrays) for a stack of matrices.

    Returns shape (T, N). Two routes give the full-width permutations:

    - LAPACK ``dgetrf`` (`_getrf_perms`) for real stacks, when numpy's
      OpenBLAS exports it; ``idamax`` takes the first maximal |entry|, the
      min-index rule. An all-integer stack (Bernoulli) has exact ties that
      only the rank-1 loop resolves: its first `PANEL_WIDTH` columns run
      through `_panel`, and ``dgetrf`` factors the Schur complement left.
    - the kernel, `_eliminate(W, PANEL_WIDTH)`, for the rest: complex
      stacks (``zgetrf`` pivots on |Re| + |Im|, not the modulus), empty
      ones, real ones when ``dgetrf`` is missing, and all-integer ones up
      to order `PANEL_WIDTH`, where the exact panel is the whole kernel.

    The first panel is the rank-1 loop's own steps, so its pivots are the
    full-width ones and its multipliers do not count. Later steps round
    differently, so a matrix keeps their permutation only when each
    multiplier they made has |l_jk| < 1 - TIE_RTOL; the others re-run full
    width. The guard does not see a column that depends on earlier ones: it
    reduces to rounding noise, and on such singular matrices the routes may
    pick different pivots.
    """
    A = np.asarray(mats)
    T, N, M = A.shape
    if M != N:
        raise ValueError("matrices must be square")
    real = not np.iscomplexobj(A)
    dtype = np.float64 if real else complex
    lapack = real and A.size and _dgetrf() is not None
    integer = lapack and np.array_equal(A, np.rint(A))
    if not lapack or (integer and N <= PANEL_WIDTH):
        perm, lmax = _eliminate(A.astype(dtype), PANEL_WIDTH)
        ok = lmax < 1.0 - TIE_RTOL
    elif not integer:
        perm, ok = _getrf_perms(A)
    else:
        W = A.astype(dtype)
        rows = np.tile(np.arange(N), (T, 1))
        _panel(W, rows, 0, PANEL_WIDTH)
        perm, ok = _getrf_perms(W[:, PANEL_WIDTH:, PANEL_WIDTH:], rows)
    if not ok.all():
        perm[~ok] = _eliminate(A[~ok].astype(dtype), N)[0]
    return perm


_DGETRF_LOCK = threading.Lock()


def _dgetrf():
    """numpy's LAPACK ``dgetrf`` as a ctypes function, or None; looked up once.

    Thread-safe: concurrent first callers wait for one lookup.
    """
    with _DGETRF_LOCK:
        return _find_dgetrf()


@functools.cache
def _find_dgetrf():
    """ILP64 ``dgetrf`` from the libraries numpy's linalg extension links.

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
    for name in ("scipy_dgetrf_64_", "dgetrf_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            i64 = ctypes.POINTER(ctypes.c_int64)
            fn.argtypes = [i64, i64, ctypes.c_void_p, i64, ctypes.c_void_p, i64]
            fn.restype = None
            return fn
    return None


def _getrf_perms(A: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK permutations of a real stack, and which of them pass the tie guard.

    One copy of A holds each matrix in column-major order; ``dgetrf``
    factors it in place and leaves A intact. Per matrix, ``ipiv`` (1-based)
    says step k swapped rows k and ipiv[k]; replaying the swaps gives the
    row order, whose argsort is the permutation. ``info > 0`` marks an
    exactly zero pivot column, which swaps nothing: the min-index
    convention. Row k of a column-major matrix is column k of the factor,
    so L's multipliers are the entries right of the diagonal.

    When A is the trailing Schur complement of a stack eliminated up to
    some column, ``rows`` holds that stack's row orders (T, M), M >= N: the
    swaps are replayed on its last N entries, and the permutations are
    those of the whole matrices.
    """
    dgetrf = _dgetrf()
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
    if rows is None:
        rows = np.tile(np.arange(N), (T, 1))
    done = rows.shape[1] - N
    orders = rows.tolist()
    for order, swaps in zip(orders, (ipiv - 1 + done).tolist()):
        for k, j in enumerate(swaps, done):
            order[k], order[j] = order[j], order[k]
    np.abs(F, out=F)
    F *= np.triu(np.ones((N, N), bool), 1)
    ok = F.max(axis=(1, 2)) < 1.0 - TIE_RTOL
    return np.argsort(orders, axis=1, kind="stable"), ok


def _eliminate(W: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Modulus-pivot elimination of a stack in panels of `width` columns; overwrites W.

    Returns the permutations and each matrix's largest multiplier modulus
    after the first panel (0 with one panel). Each panel is one `_panel`
    call. The first runs the rank-1 loop's own operations; with width >= N
    it is the only one, and this is the oracle for the blocked case, whose
    later panels round differently.
    """
    T, N, _ = W.shape
    rows = np.tile(np.arange(N), (T, 1))
    lmax = np.zeros(T)
    for p in range(0, N - 1, width):
        panel_max = _panel(W, rows, p, min(p + width, N))
        if p:
            lmax = np.maximum(lmax, panel_max)
    return np.argsort(rows, axis=1, kind="stable"), lmax


def _panel(W: np.ndarray, rows: np.ndarray, p: int, e: int) -> np.ndarray:
    """Eliminates columns p..e-1 of a stack whose first p are done; returns their max |l|.

    `_column_step` eliminates column by column and updates only the
    panel's own columns. After it, one unit-lower solve gives the panel's
    rows of U and one stacked matmul leaves the Schur complement in
    ``W[:, e:, e:]``.
    """
    N = W.shape[1]
    for k in range(p, min(e, N - 1)):
        _column_step(W, rows, k, e)
    lmax = np.abs(np.tril(W[:, p:, p:e], -1)).max(axis=(1, 2))
    if e < N:
        U12 = W[:, p:e, e:]
        U12[...] = np.linalg.solve(np.tril(W[:, p:e, p:e], -1) + np.eye(e - p), U12)
        W[:, e:, e:] -= W[:, e:, p:e] @ U12
    return lmax


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

import math
import sys
import threading
import warnings

import numpy as np
import pytest

from butterflylab import Permutation, cycle_stats, fisher_yates, identity, kron
from butterflylab.gepp import (
    ButterflySpec,
    SingularMatrixError,
    TieAngleError,
    angle_count,
    build_butterflies,
    build_butterfly,
    ensemble_sample,
    gepp,
    gepp_perm_batch,
    predicted_factorization,
    sample_spec,
)
from butterflylab import gepp as gepp_module
from butterflylab.gepp import (
    LEAF_WIDTH,
    PANEL_WIDTH,
    TIE_RTOL,
    _blas,
    _factor,
    _getrf,
    _guard,
    _leaf,
    _recurse,
    _unit_lower_solve,
)
from butterflylab.rng import substream


def P(one_line) -> Permutation:
    return Permutation([int(v) - 1 for v in one_line])


def rotation(theta: float) -> np.ndarray:
    """Clockwise rotation [[cos, sin], [-sin, cos]]."""
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def perfect_shuffle(N: int) -> Permutation:
    """The shuffle q with q(2j-1) = j and q(2j) = N/2 + j (1-based).

    Its matrix Q satisfies Q (X (x) Y) Q^T = Y (x) X for X of order N/2 and
    Y of order 2; conjugating the direct sum of N/2 rotations by Q produces
    the striped [[C, S], [-S, C]] block with diagonal C, S.
    """
    if N < 2 or N % 2:
        raise ValueError("N must be even")
    h = N // 2
    q = np.empty(N, dtype=np.int64)
    q[0::2] = np.arange(h)
    q[1::2] = h + np.arange(h)
    return Permutation(q)


def reconstruction_error(A, res):
    return np.abs(res.perm.matrix() @ A - res.lower @ res.upper).max()


def rank1_reference(A, steps: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked rank-1 elimination, one full-width update per column, on a copy of A.

    Runs `steps` steps (by default all N - 1) and returns the permutations
    of the row order they leave, the working stack, and each step's pivot
    rows, shape (T, steps). Column k = steps of the working stack is that
    column of A^(k+1). This is the oracle of every GEPP route; it shares no
    code with them.
    """
    W = np.array(A)
    T, N, _ = W.shape
    steps = max(N - 1, 0) if steps is None else steps
    rows = np.tile(np.arange(N), (T, 1))
    pivots = np.empty((T, steps), dtype=np.int64)
    tix = np.arange(T)
    for k in range(steps):
        j = np.argmax(np.abs(W[:, k:, k]), axis=1) + k
        pivots[:, k] = j
        rk, rj = W[tix, k].copy(), W[tix, j].copy()
        W[tix, k], W[tix, j] = rj, rk
        ok, oj = rows[tix, k].copy(), rows[tix, j].copy()
        rows[tix, k], rows[tix, j] = oj, ok
        piv = W[:, k, k]
        safe = np.where(piv == 0, 1.0, piv)
        mult = W[:, k + 1 :, k] / safe[:, None]
        mult[piv == 0] = 0.0
        W[:, k + 1 :, k + 1 :] -= mult[:, :, None] * W[:, None, k, k + 1 :]
        W[:, k + 1 :, k] = mult
    return np.argsort(rows, axis=1, kind="stable"), W, pivots


def eliminate_steps(A, k: int) -> tuple[np.ndarray, list[int]]:
    """The working matrix after `rank1_reference`'s steps 0..k-1, and each step's pivot row.

    Column k of the result is that column of A^(k+1).
    """
    _, W, pivots = rank1_reference(np.array(A)[None], k)
    return W[0], pivots[0].tolist()


def swap_count(A) -> int:
    """Row swaps of the full-width elimination: steps whose pivot row j != k."""
    _, pivots = eliminate_steps(A, len(A) - 1)
    return sum(j != k for k, j in enumerate(pivots))


def max_multiplier(A) -> float:
    """Largest |l_jk| of the full-width elimination, the quantity the tie rule bounds.

    Read off the lower triangle that `rank1_reference` leaves.
    """
    W = rank1_reference(np.array(A)[None])[1]
    return float(np.abs(np.tril(W[0], -1)).max())


class TestGepp:
    def test_identity(self):
        res = gepp(np.eye(5))
        assert res.perm == identity(5)
        assert np.array_equal(res.lower, np.eye(5)) and np.array_equal(res.upper, np.eye(5))
        assert swap_count(np.eye(5)) == 0

    def test_permutation_matrix_recovery(self):
        rng = substream(31, 0)
        for _ in range(10**3):
            M = int(rng.integers(1, 129))
            pi = fisher_yates(M, rng)
            res = gepp(pi.matrix().T)
            assert res.perm == pi
            assert swap_count(pi.matrix().T) == M - cycle_stats(pi).total_cycles
            assert np.array_equal(res.upper, np.eye(M))

    def test_reconstruction_and_multiplier_bound(self):
        rng = substream(31, 1)
        for _ in range(30):
            N = int(rng.integers(2, 40))
            A = rng.normal(size=(N, N))
            res = gepp(A)
            assert reconstruction_error(A, res) <= 1e-10 * N * np.abs(A).max()
            lmax = np.abs(np.tril(res.lower, -1)).max()
            assert lmax == max_multiplier(A) < 1.0 - TIE_RTOL
            assert swap_count(A) == N - cycle_stats(res.perm).total_cycles

    def test_diagonal_butterfly_worked_example(self):
        # B = Q2 (R(pi/3) (+) I2) Q2 (I2 (x) R(pi/4)) has factor perm (1 3 2)
        Q2 = perfect_shuffle(4).matrix()
        B = Q2 @ np.block([[rotation(math.pi / 3), np.zeros((2, 2))],
                           [np.zeros((2, 2)), np.eye(2)]]) @ Q2 @ np.kron(np.eye(2), rotation(math.pi / 4))
        s8 = math.sqrt(8)
        s3 = math.sqrt(3)
        expected_B = np.array([
            [1, 1, s3, s3],
            [-2, 2, 0, 0],
            [-s3, -s3, 1, 1],
            [0, 0, -2, 2],
        ]) / s8
        assert np.abs(B - expected_B).max() < 1e-14
        res = gepp(B)
        assert res.perm == P((3, 1, 2, 4))  # cycle notation (1 3 2)
        L = np.array([
            [1, 0, 0, 0],
            [s3 / 2, 1, 0, 0],
            [-0.5, -1 / s3, 1, 0],
            [0, 0, -s3 / 2, 1],
        ])
        U = np.array([
            [-2, 2, 0, 0],
            [0, -2 * s3, 1, 1],
            [0, 0, 4 / s3, 4 / s3],
            [0, 0, 0, 4],
        ]) / s8
        assert np.abs(res.lower - L).max() < 1e-12
        assert np.abs(res.upper - U).max() < 1e-12

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            gepp(np.zeros((3, 3)))

    @pytest.mark.parametrize("j", [0, 3, 6])
    def test_zero_column_names_its_column(self, j):
        A = ensemble_sample("goe", 7, substream(31, 24, j))
        A[:, j] = 0.0
        with pytest.raises(SingularMatrixError, match=rf"no usable pivot in column {j + 1}$"):
            gepp(A)

    @pytest.mark.parametrize("kind", ["goe", "gue", "bernoulli", "permutation"])
    def test_factors_are_the_rank1_loop(self, kind):
        # gepp reads L, U and sigma off one full-width `_leaf`; the
        # stacked rank-1 reference must give the same bytes.
        checked = 0
        for N in (1, 2, 5, 17, 40):
            for t in range(4):
                rng = substream(31, 25, N, t)
                if kind == "permutation":
                    A = fisher_yates(N, rng).matrix().T
                else:
                    A = ensemble_sample(kind, N, rng)
                try:
                    res = gepp(A)
                except SingularMatrixError:
                    continue
                perm, W, _ = rank1_reference(A[None].astype(res.upper.dtype))
                assert res.perm.map.tobytes() == perm[0].tobytes()
                assert res.lower.tobytes() == (np.tril(W[0], -1) + np.eye(N)).tobytes()
                assert res.upper.tobytes() == np.triu(W[0]).tobytes()
                checked += 1
        assert checked >= 10

    def test_one_full_width_elimination(self, monkeypatch):
        # One `_factor` call whose exact columns are all N: one `_leaf` over
        # every column, and neither fast route.
        N, seen = 2 * PANEL_WIDTH + 3, []
        routes = spy_routes(monkeypatch)
        routed = gepp_module._factor

        def factor(A, exact):
            seen.append((A.shape, exact))
            return routed(A, exact)

        def leaf(F, ipiv, p, e):
            seen.append(("leaf", p, e))
            return _leaf(F, ipiv, p, e)

        monkeypatch.setattr(gepp_module, "_factor", factor)
        monkeypatch.setattr(gepp_module, "_leaf", leaf)
        gepp(ensemble_sample("gue", N, substream(31, 26)))
        assert seen == [((1, N, N), N), ("leaf", 0, N)]
        assert routes == [("full", 1)]

    def test_rejects_nan(self):
        A = np.eye(3)
        A[1, 1] = np.nan
        with pytest.raises(ValueError):
            gepp(A)

    def test_tie_flag(self):
        assert max_multiplier(np.array([[1.0, 2.0], [1.0, 1.0]])) >= 1.0 - TIE_RTOL
        assert max_multiplier(np.array([[2.0, 1.0], [1.0, 1.0]])) < 1.0 - TIE_RTOL

    def test_batch_agrees_with_scalar(self):
        rng = substream(31, 2)
        mats = rng.normal(size=(50, 7, 7))
        sig = gepp_perm_batch(mats)
        for i in range(50):
            assert Permutation(sig[i]) == gepp(mats[i]).perm

    def test_batch_complex(self):
        rng = substream(31, 3)
        mats = rng.normal(size=(20, 5, 5)) + 1j * rng.normal(size=(20, 5, 5))
        sig = gepp_perm_batch(mats)
        for i in range(20):
            assert Permutation(sig[i]) == gepp(mats[i]).perm

    def test_batch_survives_singular_draws(self):
        rng = substream(31, 19)
        mats = (rng.random((300, 5, 5)) < 0.5).astype(float)
        sig = gepp_perm_batch(mats)
        for i in range(300):
            assert sorted(sig[i]) == list(range(5))
            try:
                res = gepp(mats[i])
            except SingularMatrixError:
                continue
            assert Permutation(sig[i]) == res.perm

    @pytest.mark.parametrize("kind", ["goe", "gue", "bernoulli"])
    def test_stack_equals_batches_of_one(self, kind):
        # Bernoulli matrices have exact pivot ties and singular draws; the
        # stack must give each slice the permutation it gets on its own.
        rng = substream(31, 22)
        mats = np.stack([ensemble_sample(kind, 6, rng) for _ in range(200)])
        if kind == "goe":
            mats[0, :, 0] = 0.0  # zero pivot column: no swap, no elimination
        sig = gepp_perm_batch(mats)
        for i in range(len(mats)):
            assert np.array_equal(sig[i], gepp_perm_batch(mats[i][None])[0])
            try:
                res = gepp(mats[i])
            except SingularMatrixError:
                continue
            assert Permutation(sig[i]) == res.perm


def _stack(kind: str, N: int, count: int, seed: int) -> np.ndarray:
    rng = substream(seed, N)
    if kind in ("bs-diag", "ns-diag"):
        shape = "simple" if kind == "bs-diag" else "nonsimple"
        angles = [sample_spec("diagonal", shape, N, rng).angles for _ in range(count)]
        return build_butterflies("diagonal", shape, N, angles)
    return np.stack([ensemble_sample(kind, N, rng) for _ in range(count)])


def full_width(mats) -> np.ndarray:
    """Permutations from the rank-1 loop, `rank1_reference`."""
    return rank1_reference(mats)[0]


def singular_bernoulli(N: int, count: int, seed: int) -> np.ndarray:
    """Bernoulli stack, N > PANEL_WIDTH, with singular draws in every 16 matrices.

    Their reduced rows or columns are exactly zero: a zeroed column past
    the first panel, a zeroed row, a repeated row, and a repeated column
    inside the panel.
    """
    rng = substream(seed, N)
    mats = (rng.random((count, N, N)) < 0.5).astype(np.float64)
    for t in range(0, count, 16):
        i, j = sorted(rng.choice(PANEL_WIDTH, 2, replace=False).tolist())
        late = int(rng.integers(PANEL_WIDTH, N))
        mats[t, :, late] = 0.0
        mats[t + 1, late] = 0.0
        mats[t + 2, late] = mats[t + 2, i]
        mats[t + 3, :, j] = mats[t + 3, :, i]
    return mats


SYMBOLS = ("dgetrf", "dtrsm", "ztrsm", "dlaswp", "zlaswp")


def hide_symbols(monkeypatch, *names) -> None:
    """Makes `gepp._blas` report the given symbols, and no others, as missing."""
    monkeypatch.setattr(gepp_module, "_blas", lambda name: None if name in names else _blas(name))


def spy_routes(monkeypatch) -> list:
    """Record each route a `_factor` call takes as (route, T).

    "getrf" is a `_getrf` call, "modulus" an outermost `_recurse` call, and
    "full" a `_factor` call whose exact columns are all of them: the rank-1
    loop at full width.
    """
    seen, depth = [], []

    def factor(A, exact):
        if exact >= A.shape[1]:
            seen.append(("full", len(A)))
        return _factor(A, exact)

    def getrf(F, ipiv, p):
        seen.append(("getrf", len(F)))
        return _getrf(F, ipiv, p)

    def recurse(F, ipiv, p, e):
        if not depth:
            seen.append(("modulus", len(F)))
        depth.append(p)
        try:
            return _recurse(F, ipiv, p, e)
        finally:
            depth.pop()

    monkeypatch.setattr(gepp_module, "_factor", factor)
    monkeypatch.setattr(gepp_module, "_getrf", getrf)
    monkeypatch.setattr(gepp_module, "_recurse", recurse)
    return seen


def spy_guard(monkeypatch) -> list:
    """Record each `_guard` call as (order of the guarded block, its largest |multiplier|, ok)."""
    seen = []

    def guard(F, p):
        lmax = np.abs(np.triu(F[:, p:, p:], 1)).max(axis=(1, 2))
        ok = _guard(F, p)
        seen.append((F.shape[1] - p, lmax, ok))
        return ok

    monkeypatch.setattr(gepp_module, "_guard", guard)
    return seen


def record_dgetrf(monkeypatch) -> list:
    """Record each ``dgetrf`` call as (m, n, lda, info), info as it returned."""
    real, calls = _blas("dgetrf"), []

    def dgetrf(m, n, a, lda, ipiv, info):
        real(m, n, a, lda, ipiv, info)
        calls.append((m.value, n.value, lda.value, info.value))

    monkeypatch.setattr(gepp_module, "_blas", lambda name: dgetrf if name == "dgetrf" else _blas(name))
    return calls


def modulus_route(mats) -> tuple[np.ndarray, np.ndarray]:
    """Permutations and guard of the modulus route over every column, dgetrf hidden."""
    with pytest.MonkeyPatch.context() as mp:
        hide_symbols(mp, "dgetrf")
        return _factor(mats, 0)[:2]


def check_routes(monkeypatch, kind: str, N: int, calls: list, count: int, seed: int,
                 lapack: bool = True) -> None:
    """The route tests' one check: `_stack(kind, N, count, seed)` gives the
    full-width bytes, and makes the calls `calls` as `spy_routes` records them.

    Real stacks take dgetrf and complex ones the modulus route, integer ones
    above PANEL_WIDTH after one exact panel; integer ones up to PANEL_WIDTH
    run the full-width loop. `lapack=False` hides numpy's dgetrf.
    """
    mats = _stack(kind, N, count, seed)
    expected = full_width(mats)
    if not lapack:
        hide_symbols(monkeypatch, "dgetrf")
    seen = spy_routes(monkeypatch)
    assert gepp_perm_batch(mats).tobytes() == expected.tobytes()
    assert seen == calls


def check_panel_ties(monkeypatch, mats: np.ndarray, calls: list) -> None:
    """Every matrix of `mats` has a multiplier of modulus 1 in the full-width
    loop, all of them inside the first panel; only multipliers past it count
    toward the guard, so none is rejected and `calls` has no re-run."""
    expected, W, _ = rank1_reference(mats)
    ties = np.abs(np.tril(W, -1)) >= 1.0 - TIE_RTOL
    assert ties.any(axis=(1, 2)).all()
    assert not ties[:, :, PANEL_WIDTH:].any()
    seen = spy_routes(monkeypatch)
    assert gepp_perm_batch(mats).tobytes() == expected.tobytes()
    assert seen == calls


class TestLapackBranch:
    """Real stacks at every order take numpy's LAPACK dgetrf behind the tie
    guard; the full-width elimination is the oracle."""

    # Butterflies exist at powers of two; at N = 1 they are the integer [[1]].
    @pytest.mark.parametrize(("kind", "N"), [
        (kind, N) for N in [1, 2, 3, 5, 16, 32, 33, 64, 128, 256, 512]
        for kind in ["goe", "bs-diag", "ns-diag"] if kind == "goe" or (N > 1 and N & (N - 1) == 0)])
    def test_matches_elimination(self, monkeypatch, kind, N):
        mats = _stack(kind, N, 1 if N == 512 else 3, 43)
        assert _factor(mats, 0)[1].all()
        expected = full_width(mats)
        seen = spy_routes(monkeypatch)
        sig = gepp_perm_batch(mats)
        assert seen == [("getrf", len(mats))]
        assert sig.tobytes() == expected.tobytes()
        if N <= 256:
            for i in range(len(mats)):
                assert Permutation(sig[i]) == gepp(mats[i]).perm

    @pytest.mark.parametrize("kind", ["goe", "ns-diag"])
    def test_getrf_perms_match_lu(self, kind):
        # scipy's `lu` with p_indices is a test-only oracle for the replayed
        # swaps, and its L for the tie guard read off the combined factor.
        # A float stack's `_factor` is dgetrf over every column.
        from scipy.linalg import lu

        mats = _stack(kind, 512, 3, 47)
        before = mats.copy()
        perm, ok, _ = _factor(mats, 0)
        p, L, _ = lu(mats, p_indices=True, check_finite=False)
        assert np.array_equal(mats, before)
        assert np.array_equal(perm, p)
        assert np.array_equal(ok, np.abs(np.tril(L, -1)).max(axis=(1, 2)) < 1.0 - TIE_RTOL)

    def test_integer_stack_skips_lapack(self, monkeypatch):
        # Up to PANEL_WIDTH an integer stack is one exact panel: the
        # full-width loop, with no dgetrf call.
        for N in (1, 5, PANEL_WIDTH):
            check_routes(monkeypatch, "bernoulli", N, [("full", 4)], 4, 48)

    def test_integer_stack_factors_the_schur_complement(self, monkeypatch):
        # Above PANEL_WIDTH the first panel runs the rank-1 loop's steps and
        # dgetrf factors the Schur complement it leaves in place: a block of
        # order N - PANEL_WIDTH inside each matrix of leading dimension N.
        # No matrix of this stack is a near tie past the panel, so none re-runs.
        N = 256
        mats = _stack("bernoulli", N, 2, 48)
        before, expected = mats.copy(), full_width(mats)
        calls = record_dgetrf(monkeypatch)
        seen = spy_routes(monkeypatch)
        assert gepp_perm_batch(mats).tobytes() == expected.tobytes()
        assert np.array_equal(mats, before)
        assert seen == [("getrf", 2)]
        assert [c[:3] for c in calls] == [(N - PANEL_WIDTH, N - PANEL_WIDTH, N)] * 2

    @pytest.mark.parametrize(("N", "zero"), [
        (PANEL_WIDTH + 1, None), (PANEL_WIDTH + 1, PANEL_WIDTH), (2 * PANEL_WIDTH, PANEL_WIDTH + 9)])
    def test_getrf_factors_the_trailing_block_in_place(self, monkeypatch, N, zero):
        # `_getrf` on the stack `rank1_reference` leaves after PANEL_WIDTH
        # steps: dgetrf factors each trailing block in place, with lda = N,
        # and takes the reference's later pivots, counted from row 0; the
        # factor agrees to rounding, and the columns and rows outside the
        # block are untouched. An exactly zero column inside the block is
        # info > 0 counted from the block, and swaps nothing. N = 33 leaves
        # a Schur complement of order 1.
        p = PANEL_WIDTH
        mats = _stack("goe", N, 3, 74)
        if zero is not None:
            mats[1, :, zero] = 0.0
        _, full, pivots = rank1_reference(mats)
        _, W, first = rank1_reference(mats, p)
        F = np.array(W.transpose(0, 2, 1), order="C")
        ipiv = np.zeros((3, N), dtype=np.int64)
        ipiv[:, :p] = first + 1
        calls = record_dgetrf(monkeypatch)
        _getrf(F, ipiv, p)
        infos = [zero - p + 1 if zero is not None and t == 1 else 0 for t in range(3)]
        assert calls == [(N - p, N - p, N, info) for info in infos]
        assert np.array_equal(ipiv[:, :-1] - 1, pivots) and (ipiv[:, -1] == N).all()
        if zero is not None:
            assert ipiv[1, zero] == zero + 1
        outside = np.ones((N, N), bool)
        outside[p:, p:] = False
        assert np.array_equal(F[:, outside], W.transpose(0, 2, 1)[:, outside])
        block = full.transpose(0, 2, 1)[:, p:, p:]
        assert np.abs(F[:, p:, p:] - block).max() <= 1e-12 * np.abs(block).max()

    def test_integer_oracle(self, monkeypatch):
        # 2000 Bernoulli matrices, singular draws mixed in, against the
        # full-width loop. A repeated row that outlives the panel ties
        # exactly in the Schur complement, so the guard sends it to the re-run.
        guards = spy_guard(monkeypatch)
        counts = {33: 800, 48: 500, 64: 400, 128: 220, 256: 64, 512: 16}
        for N, count in counts.items():
            mats = singular_bernoulli(N, count, 64)
            assert gepp_perm_batch(mats).tobytes() == full_width(mats).tobytes()
        rejected = [int((~ok).sum()) for _, _, ok in guards]
        assert len(rejected) == len(counts) and 0 < sum(rejected) <= sum(counts.values()) // 16

    @pytest.mark.parametrize("N", [PANEL_WIDTH + 8, 2 * PANEL_WIDTH, 3 * PANEL_WIDTH])
    def test_late_integer_tie_is_rejected(self, monkeypatch, N):
        # [[I, 0], [0, B]] with B Bernoulli: the panel pivots on the identity
        # and leaves B itself as the Schur complement, whose 0/1 ties reach
        # dgetrf. The guard must reject every matrix for a full-width re-run.
        B = _stack("bernoulli", N - PANEL_WIDTH, 3, 65)
        mats = np.zeros((3, N, N))
        mats[:, :PANEL_WIDTH, :PANEL_WIDTH] = np.eye(PANEL_WIDTH)
        mats[:, PANEL_WIDTH:, PANEL_WIDTH:] = B
        assert not _factor(B, 0)[1].any()
        expected = full_width(mats)
        seen = spy_routes(monkeypatch)
        assert gepp_perm_batch(mats).tobytes() == expected.tobytes()
        assert seen == [("getrf", 3), ("full", 3)]

    def test_panel_ties_do_not_count(self, monkeypatch):
        # Integer ties fall in the first columns of a Bernoulli stack; the
        # Gaussian-integer case is `TestBlockedPath::test_panel_ties_do_not_count`.
        check_panel_ties(monkeypatch, _stack("bernoulli", 128, 4, 66), [("getrf", 4)])

    def test_bernoulli_ties_fall_back(self):
        mats = _stack("bernoulli", 256, 3, 44)
        assert not _factor(mats, 0)[1].any()
        assert np.array_equal(gepp_perm_batch(mats), full_width(mats))

    def test_zero_pivot_column(self):
        # dgetrf reports info = j + 1 and swaps nothing at step j; no warning
        # is raised, and the permutation is the full-width one.
        for N, j in [(1, 0), (8, 0), (8, 5), (64, 0), (64, 40), (256, 0), (256, 200)]:
            mats = _stack("goe", N, 2, 45)
            mats[0, :, j] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                perm, ok, _ = _factor(mats, 0)
                sig = gepp_perm_batch(mats)
            assert ok.all()
            assert np.array_equal(perm, full_width(mats))
            assert np.array_equal(sig, perm)

    def test_mixed_stack_keeps_row_order(self):
        goe = _stack("goe", 256, 2, 46)
        bern = _stack("bernoulli", 256, 2, 46)
        mats = np.stack([goe[0], bern[0], goe[1], bern[1]])
        assert _factor(mats, 0)[1].tolist() == [True, False, True, False]
        sig = gepp_perm_batch(mats)
        for i in range(len(mats)):
            assert np.array_equal(sig[i], full_width(mats[i][None])[0])

    def test_rejects_non_square_before_lapack(self):
        # dgetrf would read N * N entries from each N x M matrix.
        with pytest.raises(ValueError, match="square"):
            gepp_perm_batch(substream(31, 63).normal(size=(2, 8, 5)))

    @pytest.mark.parametrize("N", [8, 64])
    def test_near_tie_is_rejected(self, monkeypatch, N):
        # near_tie runs gepp, so it is built before the spy goes in.
        A = near_tie(N, N - 3, 60)
        mats = np.stack([_stack("goe", N, 1, 60)[0], A])
        assert _factor(mats, 0)[1].tolist() == [True, False]
        expected = full_width(mats)
        seen = spy_routes(monkeypatch)
        assert np.array_equal(gepp_perm_batch(mats), expected)
        assert seen == [("getrf", 2), ("full", 1)]

    @pytest.mark.parametrize(("kind", "N", "widths"), [
        ("goe", 16, [("modulus", 4)]),
        ("goe", PANEL_WIDTH, [("modulus", 4)]),
        ("goe", 2 * PANEL_WIDTH, [("modulus", 4)]),
        ("bs-diag", 256, [("modulus", 4)]),
        ("bernoulli", 2 * PANEL_WIDTH, [("modulus", 4)]),
        ("bernoulli", 5, [("full", 4)]),
        ("gue", 2 * PANEL_WIDTH, [("modulus", 4)]),
    ])
    def test_without_numpy_lapack(self, monkeypatch, kind, N, widths):
        # A numpy whose BLAS exports no ILP64 dgetrf: real stacks take the
        # modulus route, integer ones above PANEL_WIDTH after the exact
        # panel. `widths` are the calls as `spy_routes` records them.
        check_routes(monkeypatch, kind, N, widths, 4, 61, lapack=False)

    def test_lookup_is_once_and_threads_agree(self):
        # More threads than cores, a short switch interval, disjoint stacks
        # that need every symbol: each thread sees the one looked-up function
        # per symbol and the serial result.
        stacks = [_stack(kind, N, 4, 62) for N in (16, 64, 128, 256) for kind in ("goe", "gue")]
        stacks += [_stack("bernoulli", N, 4, 62) for N in (64, 128)]
        expected = [gepp_perm_batch(s) for s in stacks]
        gepp_module._find_blas.cache_clear()
        found, results = [None] * len(stacks), [None] * len(stacks)
        start = threading.Barrier(len(stacks))

        def work(i):
            start.wait()
            results[i] = gepp_perm_batch(stacks[i])
            found[i] = [gepp_module._blas(name) for name in SYMBOLS]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(stacks))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert gepp_module._find_blas.cache_info().misses == len(SYMBOLS)
        assert all(f is not None for f in found[0])
        assert all(a is b for f in found for a, b in zip(f, found[0]))
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


def near_tie(N: int, k: int, seed: int, kind: str = "goe") -> np.ndarray:
    """A row-shuffled random matrix whose step k has a near pivot tie.

    On B = P A, with P the permutation GEPP finds for A, the first k steps
    swap nothing and the reduced column k has its pivot in row k. The
    Schur complement is linear in B[k+1:, k:], so shifting one entry of
    column k below row k sets that row's reduced value to
    (1 - 2^-42) times the pivot: a relative gap below 2^-40.
    """
    rng = substream(seed, N, k)
    A = ensemble_sample(kind, N, rng)
    B = gepp(A).perm.matrix() @ A
    col = eliminate_steps(B, k)[0][:, k]
    i = k + 1 + int(rng.integers(N - k - 1))
    B[i, k] += col[k] * (1.0 - 2.0**-42) - col[i]
    return fisher_yates(N, rng).matrix() @ B


class TestBlockedPath:
    """Complex stacks, and real ones when numpy's LAPACK is not found, take
    the recursive modulus-pivot route; every multiplier it makes is
    guarded, and the full-width elimination is the oracle."""

    @pytest.mark.parametrize("N", [64, 128, 512])
    @pytest.mark.parametrize("kind", ["goe", "gue", "bs-diag", "ns-diag"])
    def test_matches_full_width(self, kind, N):
        count = 1 if N == 512 else 4
        mats = _stack(kind, N, count, 51)
        perm, ok = modulus_route(mats)
        assert ok.all()
        expected = full_width(mats)
        assert np.array_equal(perm, expected)
        assert np.array_equal(gepp_perm_batch(mats), expected)

    def test_complex_256(self):
        mats = _stack("gue", 256, 2, 52)
        perm, ok = modulus_route(mats)
        assert ok.all()
        assert np.array_equal(perm, full_width(mats))
        assert np.array_equal(gepp_perm_batch(mats), perm)

    @pytest.mark.parametrize("kind", ["goe", "gue"])
    def test_near_tie_in_second_panel_is_rejected(self, kind):
        N, k = 2 * PANEL_WIDTH, PANEL_WIDTH + 5
        A = near_tie(N, k, 53, kind)
        assert not modulus_route(A[None])[1][0]
        assert np.abs(np.tril(gepp(A).lower, -1)).max() >= 1.0 - TIE_RTOL
        assert np.array_equal(gepp_perm_batch(A[None]), full_width(A[None]))

    @pytest.mark.parametrize("k", [0, 5, LEAF_WIDTH, PANEL_WIDTH - 1, PANEL_WIDTH + 9, 61])
    @pytest.mark.parametrize("kind", ["goe", "gue"])
    def test_near_tie_is_rejected_at_any_step(self, monkeypatch, kind, k):
        # The modulus route guards every multiplier, the first leaf's and the
        # first PANEL_WIDTH columns' too: the near tie re-runs full width,
        # and its neighbour in the stack does not.
        N = 2 * PANEL_WIDTH
        mats = np.stack([_stack(kind, N, 1, 70)[0], near_tie(N, k, 70, kind)])
        assert modulus_route(mats)[1].tolist() == [True, False]
        expected = full_width(mats)
        hide_symbols(monkeypatch, "dgetrf")
        seen = spy_routes(monkeypatch)
        assert gepp_perm_batch(mats).tobytes() == expected.tobytes()
        assert seen == [("modulus", 2), ("full", 1)]

    def test_zero_pivot_column_in_later_panel(self):
        # A zero column anywhere, leaf or not, swaps and eliminates nothing:
        # its multipliers are 0, so it passes the guard.
        for kind in ("goe", "gue"):
            mats = _stack(kind, 128, 4, 54)
            for t, j in enumerate((0, LEAF_WIDTH - 1, 2 * PANEL_WIDTH + 3, 127)):
                mats[t, :, j] = 0.0
            perm, ok = modulus_route(mats)
            assert ok.all()
            assert np.array_equal(perm, full_width(mats))
            assert np.array_equal(gepp_perm_batch(mats), perm)

    def test_mixed_stack_keeps_row_order(self):
        N = 2 * PANEL_WIDTH
        gue = _stack("gue", N, 2, 55)
        mats = np.stack([gue[0], near_tie(N, N - 3, 55, "gue"), gue[1], near_tie(N, 40, 56, "gue")])
        assert modulus_route(mats)[1].tolist() == [True, False, True, False]
        sig = gepp_perm_batch(mats)
        for i in range(len(mats)):
            assert np.array_equal(sig[i], full_width(mats[i][None])[0])

    @pytest.mark.parametrize("N", [1, 2, 5, PANEL_WIDTH, 2 * PANEL_WIDTH])
    @pytest.mark.parametrize("kind", ["goe", "gue", "bernoulli"])
    def test_full_width_is_the_rank1_loop(self, kind, N):
        # `_factor` with every column exact runs the rank-1 loop operation
        # for operation: the same permutations, and the same bytes in its
        # column-major factor as in the reference's working stack.
        mats = np.stack([ensemble_sample(kind, N, substream(57, N, t)) for t in range(5)])
        mats[1, :, N // 2] = 0.0
        expected, W, _ = rank1_reference(mats)
        perm, ok, F = _factor(mats, N)
        assert np.array_equal(perm, expected) and ok.all()
        assert F.transpose(0, 2, 1).tobytes() == W.tobytes()
        assert np.array_equal(gepp_perm_batch(mats), expected)

    @pytest.mark.parametrize(("kind", "N", "widths"), [
        ("goe", PANEL_WIDTH, [("getrf", 1)]),
        ("bernoulli", 2 * PANEL_WIDTH, [("getrf", 1)]),
        ("goe", 2 * PANEL_WIDTH, [("getrf", 1)]),
        ("gue", 2 * PANEL_WIDTH, [("modulus", 1)]),
        ("gue", 512, [("modulus", 1)]),
        ("goe", 256, [("getrf", 1)]),
        ("goe", 1, [("getrf", 1)]),
        ("ns-diag", 128, [("getrf", 1)]),
        ("gue", PANEL_WIDTH, [("modulus", 1)]),
        ("bernoulli", 512, [("getrf", 1)]),
    ])
    def test_routing(self, monkeypatch, kind, N, widths):
        # With dgetrf found: real stacks take it, integer ones above
        # PANEL_WIDTH after one exact panel, and complex ones take the
        # modulus route. `widths` are the calls as `spy_routes` records them.
        check_routes(monkeypatch, kind, N, widths, 1, 58)

    @pytest.mark.parametrize("N", [5, PANEL_WIDTH, PANEL_WIDTH + 1, 2 * PANEL_WIDTH + 7, 128])
    @pytest.mark.parametrize("kind", ["goe", "gue", "bernoulli"])
    def test_guard_max_is_past_the_first_panel(self, monkeypatch, kind, N):
        # The guard reads every multiplier the fast route leaves in its
        # factor: all of them for float stacks, and for integer ones those
        # of the Schur complement past the exact first panel, none up to
        # order PANEL_WIDTH.
        mats = _stack(kind, N, 3, 69)
        seen = spy_guard(monkeypatch)
        assert np.array_equal(gepp_perm_batch(mats), full_width(mats))
        if kind == "bernoulli" and N <= PANEL_WIDTH:
            assert seen == []
            return
        [(order, lmax, ok)] = seen
        assert order == (N - PANEL_WIDTH if kind == "bernoulli" else N)
        assert np.array_equal(ok, lmax < 1.0 - TIE_RTOL)
        assert (lmax > 0).all() == (order > 1)

    def test_rejected_rows_rerun_full_width(self, monkeypatch):
        # Built first: near_tie runs gepp, which the spy would record.
        N = 2 * PANEL_WIDTH
        mats = np.stack([near_tie(N, 40, 59, "gue"), _stack("gue", N, 1, 59)[0]])
        expected = full_width(mats)
        seen = spy_routes(monkeypatch)
        assert np.array_equal(gepp_perm_batch(mats), expected)
        assert seen == [("modulus", 2), ("full", 1)]

    def test_integer_oracle_without_lapack(self, monkeypatch):
        # The modulus route on the Schur complements of Bernoulli stacks,
        # singular draws mixed in, against the full-width loop. A matrix
        # whose multipliers of modulus 1 all lie in the first panel passes
        # the guard: only the matrices with a multiplier at the tie bound
        # past it re-run.
        hide_symbols(monkeypatch, "dgetrf")
        early = reruns = 0
        for N, count in {33: 320, 48: 160, 64: 128, 128: 48}.items():
            mats = singular_bernoulli(N, count, 67)
            expected, W, _ = rank1_reference(mats)
            ties = np.abs(np.tril(W, -1)) >= 1.0 - TIE_RTOL
            only_first = ties.any(axis=(1, 2)) & ~ties[:, :, PANEL_WIDTH:].any(axis=(1, 2))
            seen = spy_routes(monkeypatch)
            guards = spy_guard(monkeypatch)
            assert gepp_perm_batch(mats).tobytes() == expected.tobytes()
            [rejected] = [~ok for _, _, ok in guards]
            assert not rejected[only_first].any()
            early, reruns = early + int(only_first.sum()), reruns + int(rejected.sum())
            reruns_seen = [("full", int(rejected.sum()))] * int(rejected.any())
            assert seen == [("modulus", count)] + reruns_seen
        assert early >= 600 and reruns > 0

    @pytest.mark.parametrize(("kind", "lapack", "counts"), [
        ("gue", True, {2: 2000, 4: 1500, 8: 800, 16: 400, 32: 200, 64: 64, 128: 32, 256: 4,
                       512: 1}),
        *[(kind, False, {2: 200, 4: 200, 8: 100, 16: 100, 32: 50, 64: 16, 128: 8, 256: 2})
          for kind in ("goe", "bs-diag", "ns-diag")],
    ])
    def test_oracle_at_lis_mc_stack_sizes(self, monkeypatch, kind, lapack, counts):
        # The modulus route in the stacks `lis-mc` hands it (at most
        # BATCH_ENTRIES entries), byte for byte against the full-width loop,
        # with no matrix rejected; real stacks with dgetrf hidden.
        from butterflylab.cli import BATCH_ENTRIES

        if not lapack:
            hide_symbols(monkeypatch, "dgetrf")
        for N, count in counts.items():
            mats = _stack(kind, N, count, 71)
            chunk = max(1, BATCH_ENTRIES // N**2)
            for lo in range(0, count, chunk):
                stack = mats[lo : lo + chunk]
                perm, ok = modulus_route(stack)
                assert ok.all()
                assert perm.tobytes() == full_width(stack).tobytes()
                assert gepp_perm_batch(stack).tobytes() == perm.tobytes()

    @pytest.mark.parametrize("lapack", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_empty_and_order_one(self, monkeypatch, dtype, lapack):
        # No matrices, or matrices of order 0 or 1, on every route: the
        # identity permutations, shaped (T, N).
        if not lapack:
            hide_symbols(monkeypatch, *SYMBOLS)
        for T, N in ((0, 0), (0, 1), (0, 5), (0, 2 * PANEL_WIDTH), (3, 0), (3, 1)):
            for value in (0.0, 0.5, 1.0):
                sig = gepp_perm_batch(np.full((T, N, N), value, dtype))
                assert sig.shape == (T, N)
                assert np.array_equal(sig, np.tile(np.arange(N), (T, 1)))

    @pytest.mark.parametrize("hidden", [("dtrsm", "ztrsm"), ("dlaswp", "zlaswp"), SYMBOLS])
    def test_missing_symbols_give_the_same_outputs(self, monkeypatch, hidden):
        # np.linalg.solve stands in for trsm and numpy swaps for laswp: every
        # route still gives the full-width permutations.
        stacks = [_stack(kind, N, 3, 72) for kind in ("goe", "gue", "bernoulli")
                  for N in (LEAF_WIDTH + 1, 2 * PANEL_WIDTH + 3, 128)]
        stacks.append(_stack("bernoulli", 128, 4, 66) + 1j * _stack("bernoulli", 128, 4, 68))
        expected = [full_width(mats) for mats in stacks]
        hide_symbols(monkeypatch, *hidden)
        for mats, want in zip(stacks, expected):
            assert gepp_perm_batch(mats).tobytes() == want.tobytes()
            if not np.iscomplexobj(mats):
                hide_symbols(monkeypatch, "dgetrf", *hidden)
                assert gepp_perm_batch(mats).tobytes() == want.tobytes()
                hide_symbols(monkeypatch, *hidden)

    @pytest.mark.parametrize("trsm", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_unit_lower_solve(self, monkeypatch, dtype, trsm):
        # A column-major stacked unit-lower system, against np.linalg.solve;
        # without trsm it is np.linalg.solve, in either memory order, and
        # trsm refuses a row-major pair. Multipliers of modulus at most 0.1
        # keep the systems well conditioned.
        rng = substream(73)
        W = rng.normal(size=(3, 40, 40)).astype(dtype)
        if dtype is np.complex128:
            W += 1j * rng.normal(size=W.shape)
        n = 24
        W[:, :n, :n] *= 0.1 / np.abs(W[:, :n, :n]).max()
        want = np.linalg.solve(np.tril(W[:, :n, :n], -1) + np.eye(n), W[:, :n, n:])
        if not trsm:
            hide_symbols(monkeypatch, "dtrsm", "ztrsm")
        column_major = np.array(W.transpose(0, 2, 1), order="C").transpose(0, 2, 1)
        for A in (column_major,) if trsm else (column_major, W.copy()):
            before = A.copy()
            _unit_lower_solve(A[:, :n, :n], A[:, :n, n:])
            assert np.abs(A[:, :n, n:] - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(A[:, :, :n], before[:, :, :n])
            assert np.array_equal(A[:, n:], before[:, n:])
            if not trsm:
                assert np.array_equal(A[:, :n, n:], want)
        if trsm:
            with pytest.raises(ValueError, match="column-major"):
                _unit_lower_solve(W[:, :n, :n], W[:, :n, n:])

    def test_panel_ties_do_not_count(self, monkeypatch):
        # A complex stack with entries in {0, 1, i, 1 + i} is integer-valued:
        # its ties, like the Bernoulli ones, fall in the exact first panel,
        # and the modulus route factors the Schur complement.
        mats = _stack("bernoulli", 128, 4, 66) + 1j * _stack("bernoulli", 128, 4, 68)
        check_panel_ties(monkeypatch, mats, [("modulus", 4)])


class TestIntermediateForms:
    def test_kron_block_elimination(self):
        # After m steps on C = P^T (x) Q the live block pattern keeps Q in
        # every untouched block row; the rows displaced out of block row one
        # land kappa-shuffled, composing to Q^2.
        rng = substream(31, 4)
        for _ in range(60):
            nn = int(rng.integers(2, 5))
            mm = int(rng.integers(2, 5))
            sigma = fisher_yates(nn, rng)
            Q = fisher_yates(mm, rng).matrix()
            C = np.kron(sigma.matrix().T, Q)
            W, _ = eliminate_steps(C, mm)
            M = np.triu(W)  # A^(mm+1): the used multipliers zeroed out
            M[mm:, mm:] = W[mm:, mm:]
            i1 = int(np.nonzero(sigma.map == 0)[0][0])  # block row holding block column one
            expected = np.zeros_like(C)
            expected[:mm, :mm] = np.eye(mm)
            for i in range(nn):
                if i == 0:
                    continue
                if i == i1 and i1 != 0:
                    blk, j = Q @ Q, int(sigma.map[0])
                else:
                    blk, j = Q, int(sigma.map[i])
                expected[i * mm : (i + 1) * mm, j * mm : (j + 1) * mm] = blk
            assert np.array_equal(M, expected)


class TestRotationAndShuffle:
    def test_rotation_zero(self):
        assert np.abs(rotation(0.0) - np.eye(2)).max() == 0

    def test_rotation_quarter_turn(self):
        assert np.abs(rotation(math.pi / 2) - np.array([[0, 1], [-1, 0]])).max() < 1e-15

    def test_rotation_pivot_movement(self):
        res = gepp(rotation(math.pi / 3))
        assert res.perm == P((2, 1))
        assert swap_count(rotation(math.pi / 3)) == 1

    def test_shuffle_small(self):
        assert perfect_shuffle(2) == identity(2)
        assert perfect_shuffle(4) == P((1, 3, 2, 4))

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_shuffle_defining_property(self, N):
        rng = substream(31, 5)
        Q = perfect_shuffle(N).matrix()
        X = rng.normal(size=(N // 2, N // 2))
        Y = rng.normal(size=(2, 2))
        assert np.abs(Q @ np.kron(X, Y) @ Q.T - np.kron(Y, X)).max() < 1e-14

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_shuffle_stripes_rotations(self, N):
        rng = substream(31, 6)
        h = N // 2
        th = rng.uniform(0, 2 * math.pi, size=h)
        F = np.block([[np.diag(np.cos(th)), np.diag(np.sin(th))],
                      [-np.diag(np.sin(th)), np.diag(np.cos(th))]])
        D = np.zeros((N, N))
        for j in range(h):
            D[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rotation(th[j])
        Q = perfect_shuffle(N).matrix()
        assert np.abs(F - Q @ D @ Q.T).max() < 1e-15


class TestButterflyConstruction:
    def test_angle_counts(self):
        assert angle_count("scalar", "simple", 8) == 3
        assert angle_count("scalar", "nonsimple", 8) == 7
        assert angle_count("diagonal", "nonsimple", 8) == 12
        assert angle_count("diagonal", "simple", 8) == 7

    def test_sample_spec_counts_and_range(self):
        rng = substream(31, 7)
        for flavor in ("scalar", "diagonal"):
            for shape in ("simple", "nonsimple"):
                spec = sample_spec(flavor, shape, 8, rng)
                assert len(spec.angles) == angle_count(flavor, shape, 8)
                assert all(0 <= a < 2 * math.pi for a in spec.angles)

    def test_zero_angles_give_identity(self):
        for flavor in ("scalar", "diagonal"):
            for shape in ("simple", "nonsimple"):
                spec = ButterflySpec(8, flavor, shape, (0.0,) * angle_count(flavor, shape, 8))
                assert np.abs(build_butterfly(spec) - np.eye(8)).max() == 0

    def test_scalar_simple_is_kronecker_of_rotations(self):
        rng = substream(31, 8)
        for n in (1, 2, 3, 4):
            spec = sample_spec("scalar", "simple", 2**n, rng)
            B = build_butterfly(spec)
            K = np.eye(1)
            for theta in spec.angles:
                K = np.kron(K, rotation(theta))
            assert np.abs(B - K).max() < 1e-14

    def test_orthogonality(self):
        rng = substream(31, 9)
        for flavor in ("scalar", "diagonal"):
            for shape in ("simple", "nonsimple"):
                for N in (2, 8, 64):
                    B = build_butterfly(sample_spec(flavor, shape, N, rng))
                    assert np.abs(B.T @ B - np.eye(N)).max() < 1e-12
                    assert abs(np.linalg.det(B) - 1.0) < 1e-9

    def test_batch_matches_single_distribution(self):
        rng = substream(31, 10)
        angles = rng.uniform(0, 2 * math.pi, (64, angle_count("scalar", "nonsimple", 8)))
        batch = build_butterflies("scalar", "nonsimple", 8, angles)
        assert batch.shape == (64, 8, 8)
        eye = np.eye(8)
        for B in batch[:8]:
            assert np.abs(B.T @ B - eye).max() < 1e-12

    def test_stack_builder_matches_recursive_reference(self):
        # The recursive construction B = [[C A1, S A2], [-S A1, C A2]],
        # node by node; the stack builder must agree to the bit.
        def reference(spec):
            levels, pos = [], 0
            for d in range(spec.n):
                size = spec.N >> d
                block = 1 if spec.flavor == "scalar" else size // 2
                nodes = 1 if spec.shape == "simple" else 1 << d
                levels.append([np.asarray(spec.angles[pos + j * block : pos + (j + 1) * block])
                               for j in range(nodes)])
                pos += nodes * block

            def rec(d, node):
                if d == spec.n:
                    return np.ones((1, 1))
                simple = spec.shape == "simple"
                A1 = rec(d + 1, 0 if simple else 2 * node)
                A2 = A1 if simple else rec(d + 1, 2 * node + 1)
                block = levels[d][0 if simple else node]
                c, s = np.cos(block)[:, None], np.sin(block)[:, None]
                return np.vstack([np.hstack([c * A1, s * A2]), np.hstack([-s * A1, c * A2])])

            return rec(0, 0)

        rng = substream(31, 23)
        for flavor in ("scalar", "diagonal"):
            for shape in ("simple", "nonsimple"):
                for N in (1, 2, 8, 64):
                    specs = [sample_spec(flavor, shape, N, rng) for _ in range(3)]
                    stack = build_butterflies(flavor, shape, N, [sp.angles for sp in specs])
                    assert stack.shape == (3, N, N)
                    for sp, B in zip(specs, stack):
                        assert reference(sp).tobytes() == B.tobytes()
                        assert build_butterfly(sp).tobytes() == B.tobytes()

    def test_stack_builder_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            build_butterflies("scalar", "simple", 8, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            build_butterflies("scalar", "simple", 8, np.zeros(3))
        with pytest.raises(ValueError):
            build_butterflies("scalar", "simple", 6, np.zeros((1, 3)))

    def test_wrong_angle_count_rejected(self):
        with pytest.raises(ValueError):
            ButterflySpec(8, "scalar", "simple", (0.0,) * 4)


class TestPredictedFactorization:
    def test_no_pivot_region(self):
        rng = substream(31, 11)
        for n in (1, 2, 3):
            angles = tuple(rng.uniform(-0.7, 0.7, size=2**n - 1))  # |tan| < 1
            spec = ButterflySpec(2**n, "scalar", "nonsimple", angles)
            res = predicted_factorization(spec)
            assert res.perm == identity(2**n)
            B = build_butterfly(spec)
            assert np.abs(B - res.lower @ res.upper).max() < 1e-12

    def test_simple_two_level_example(self):
        spec = ButterflySpec(4, "scalar", "simple", (math.pi / 3, math.pi / 6))
        res = predicted_factorization(spec)
        assert res.perm == kron(P((2, 1)), identity(2)) == P((3, 4, 1, 2))

    def test_matches_elimination(self):
        rng = substream(31, 12)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            shape = "simple" if rng.random() < 0.3 else "nonsimple"
            spec = sample_spec("scalar", shape, 2**n, rng)
            pred = predicted_factorization(spec)
            full = gepp(build_butterfly(spec))
            assert pred.perm == full.perm
            assert np.abs(pred.lower - full.lower).max() < 1e-10
            assert np.abs(pred.upper - full.upper).max() < 1e-10

    def test_tie_angle_rejected(self):
        spec = ButterflySpec(2, "scalar", "nonsimple", (math.pi / 4,))
        with pytest.raises(TieAngleError):
            predicted_factorization(spec)

    @pytest.mark.parametrize("N, shape, tie", [(8, "nonsimple", 5), (4, "simple", 1)])
    def test_tie_below_the_root_rejected(self, N, shape, tie):
        # Nonsimple angle 5 is the second node of depth 2; simple angle 1 is the second digit.
        angles = [0.3] * angle_count("scalar", shape, N)
        angles[tie] = 3 * math.pi / 4
        with pytest.raises(TieAngleError, match=f"tan\\({angles[tie]}\\)"):
            predicted_factorization(ButterflySpec(N, "scalar", shape, tuple(angles)))

    @pytest.mark.parametrize("shape", ["simple", "nonsimple"])
    def test_order_one_is_the_identity(self, shape):
        res = predicted_factorization(ButterflySpec(1, "scalar", shape, ()))
        assert res.perm == identity(1)
        assert res.lower.tolist() == [[1.0]] and res.upper.tolist() == [[1.0]]

    @pytest.mark.parametrize("shape", ["simple", "nonsimple"])
    def test_gepp_permutation_is_the_exponent_tree(self, shape):
        # No closed form: each elimination's permutation is the group element
        # whose exponent at each node is [|tan theta| > 1].
        from butterflylab.groups import NonsimpleButterfly, SimpleButterfly, materialize
        rng = substream(31, 22 if shape == "simple" else 23)
        for n in range(1, 7):
            angles = rng.uniform(0, 2 * math.pi, (20, angle_count("scalar", shape, 2**n)))
            perms = gepp_perm_batch(build_butterflies("scalar", shape, 2**n, angles))
            for row, theta in zip(perms, angles):
                e = (np.abs(np.tan(theta)) > 1).astype(int)
                elem = SimpleButterfly(2, e.tolist()) if shape == "simple" else NonsimpleButterfly(2, n, e)
                assert np.array_equal(row, materialize(elem).map)

    def test_uniform_permutation_factor_at_n4(self):
        from butterflylab.groups import enumerate_group, materialize
        from chisq import chi_square
        for shape, cells in (("simple", 4), ("nonsimple", 8)):
            index = {materialize(e): i
                     for i, e in enumerate(enumerate_group(2, 2, simple=shape == "simple"))}
            rng = substream(31, 20 if shape == "simple" else 21)
            counts = np.zeros(cells)
            angles = rng.uniform(0, 2 * math.pi, (2 * 10**4, angle_count("scalar", shape, 4)))
            perms = gepp_perm_batch(build_butterflies("scalar", shape, 4, angles))
            for row in perms:
                counts[index[Permutation(row)]] += 1
            assert chi_square(counts, [1.0 / cells] * cells).p_value > 0.01

    def test_diagonal_flavor_rejected(self):
        spec = ButterflySpec(4, "diagonal", "simple", (0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            predicted_factorization(spec)


class TestEnsembles:
    def _pivot_frequency(self, kind, expected, rng, trials=10**5):
        mats = np.stack([ensemble_sample(kind, 2, rng) for _ in range(trials)])
        moved = np.abs(mats[:, 1, 0]) > np.abs(mats[:, 0, 0])
        # same convention as gepp's min-index tie rule: strict inequality moves
        freq = moved.mean()
        assert abs(freq - expected) < 0.01
        # spot-check agreement with the full elimination (skip singular draws,
        # which the Bernoulli ensemble produces with positive probability)
        for i in range(200):
            try:
                res = gepp(mats[i])
            except SingularMatrixError:
                continue
            assert (res.perm != Permutation([0, 1])) == bool(moved[i])

    def test_goe_pivot_frequency(self):
        self._pivot_frequency("goe", 2 / math.pi * math.atan(1 / math.sqrt(2)), substream(31, 13))

    def test_gue_pivot_frequency(self):
        self._pivot_frequency("gue", 1 / math.sqrt(3), substream(31, 14))

    def test_bernoulli_pivot_frequency(self):
        self._pivot_frequency("bernoulli", 0.25, substream(31, 15))

    @pytest.mark.parametrize("N", [1, 2, 33, 128])
    def test_gue_matches_complex_formula(self, N):
        # the old complex-arithmetic construction, from the same two draws
        def complex_gue(rng):
            X = rng.normal(size=(N, N), scale=math.sqrt(0.5))
            Y = rng.normal(size=(N, N), scale=math.sqrt(0.5))
            G = X + 1j * Y
            return (G + G.conj().T) / math.sqrt(2.0)

        for seed in range(5):
            got = ensemble_sample("gue", N, substream(31, 18, N, seed))
            want = complex_gue(substream(31, 18, N, seed))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # bits, signed zeros too

    def test_shapes(self):
        rng = substream(31, 17)
        assert ensemble_sample("goe", 5, rng).shape == (5, 5)
        H = ensemble_sample("gue", 4, rng)
        assert np.abs(H - H.conj().T).max() < 1e-15
        B = ensemble_sample("bernoulli", 6, rng)
        assert set(np.unique(B)) <= {0.0, 1.0}

"""Experiment command line: reproduces the tables and figure data as CSV/JSON.

Each ``cmd_*`` checks its arguments and returns its files (``sample``'s as
lines made while they are written); ``main`` resolves the seed, writes
those files into --out and then a deterministic ``manifest.json`` (command,
seed, versions, and as parameters every flag of the subcommand except
--seed, --out and --format). ``verify`` writes only the manifest.
Identical seed and flags give byte-identical files; per-trial substreams
are derived from (seed, trial), so aggregation order never matters.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import itertools
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, cycles, gepp, groups, lis
from .permutations import Permutation, compose, cycle_stats, dsum, fisher_yates, identity, kron
from .pmf import Pmf
from .rng import DEFAULT_SEED, substream

SEED_ENV = "BUTTERFLYLAB_SEED"

ENSEMBLES = ("bs-scalar", "ns-scalar", "bs-diag", "ns-diag", "uniform", "goe", "gue", "bernoulli")
# Sampled directly as permutations; the other ensembles go through GEPP.
_PERMUTATION_ENSEMBLES = ("uniform", "bs-scalar", "ns-scalar")

# Matrix entries (N^2 a trial) in one draw chunk of a lis-mc row, for every
# ensemble (`_draws`): 16384 trials at N = 4, 16 at N = 128, 4 at N = 256,
# one from N = 512 on. Measured when mc-small took about 3 s, before the
# LAPACK and modulus routes (BENCH_blocked_gepp.json; 2 cores, 1 BLAS
# thread): over 10 alternated perfbench runs 1 << 18 took a median wall_s of
# 3.00 s against 3.65 s for 1 << 16, at 57.7 MB peak RSS for both. A larger
# stack would raise the peak RSS of the GUE rows.
BATCH_ENTRIES = 1 << 18
# Largest order lis-mc eliminates. One trial at N = 2^11 peaks at 212 MB of
# RSS for gue and 135 MB for bernoulli (1 BLAS thread); at 2^12 one GUE
# matrix is 268 MB, and the input stack, its one working copy and the
# guard's real moduli hold two and a half of them.
GEPP_MAX_N = 1 << 11
# Largest degree m^n of an exact fixed-points iterate. m = 2, n = 20 takes
# about 3.7 s; n = 22 took 58.6 s, about 16x per two levels.
FIXED_POINTS_MAX_DEGREE = 1 << 20
# Largest base of the bounds table; each base allocates O(m), and
# --m 2..16384 takes about 2.1 s.
BOUNDS_MAX_M = 1 << 14
# Most values of an --n/--m range or a density --t grid, and most lis-mc
# --trials; a grid of 10^6 points takes about 4.1 s at p = 2, n = 12.
MAX_VALUES = 1 << 20
# Bound on k_max^3 * bits(p) for moments (`_k_max_cap`). limit_moments
# costs about k^5 log(p)^1.6: m_k has about k^2 log2(p) bits, and step k
# multiplies k fractions of that size. At the cap every prime takes 2.2-4.5 s
# (p = 7, k = 128 is the slowest; the largest admitted prime, 2^40 - 87, gets
# k = 53 in 3.3 s), against 116 s for 2^40 - 87 at k = 100 and 17.4 s for
# p = 31 at k = 136. The cap is 146 at p = 2.
MOMENTS_MAX_WORK = 6 << 20


def _fmt(x) -> str:
    if type(x) is int:  # most cells are exact counts; skip the ABC check below
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-str digit limit; exact counts and moments outgrow it."""
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _parse_range(text: str) -> list[int]:
    try:
        if ".." not in text:
            return [int(tok) for tok in text.split(",")]
        lo, hi = map(int, text.split(".."))
    except ValueError:
        raise ValueError(f"range {text!r} must be N, N..M or a comma list of integers") from None
    if hi - lo >= MAX_VALUES:
        raise ValueError(f"range {text!r} has more than {MAX_VALUES} values")
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ValueError(f"grid {text!r} must be lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"grid {text!r} has a non-finite bound or step")
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step:g}")
    stop = hi + step * 0.5
    if not math.isfinite(stop):
        raise ValueError(f"grid {text!r} runs past the largest float")
    if (hi - lo) / step + 0.5 > MAX_VALUES:  # np.arange's length is its ceiling
        raise ValueError(f"grid {text!r} has more than {MAX_VALUES} points")
    grid = np.arange(lo, stop, step)
    if not grid.size:
        raise ValueError(f"empty grid {text!r}")
    return grid


def _resolve_seed(args) -> tuple[int, str]:
    if args.seed is not None:
        return int(args.seed), "flag"
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env), "env"
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_SEED, "default"


def _write_rows(out: Path, name: str, header: list[str], rows, fmt: str) -> Path:
    if fmt == "json":
        path = out / f"{name}.json"
        payload = [dict(zip(header, [_fmt(v) for v in row])) for row in rows]
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    else:
        # The bytes csv.writer would write: no field holds a comma, quote or
        # line break, and every row has two fields or more, so none is quoted.
        # Lines stream through the file buffer rather than one joined string,
        # which for the 2^20 rows of a depth-20 float table held 80 MB more.
        path = out / f"{name}.csv"
        with path.open("w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(",".join(map(_fmt, row)) + "\r\n" for row in rows)
    return path


def _scipy_version() -> str:
    """scipy.__version__, read from scipy/version.py without importing scipy.

    scipy takes __version__ from that module, which imports nothing. Importing
    scipy costs about 19 ms, and importlib.metadata about 33 ms and 1.2 MB of
    peak RSS; only some subcommands need scipy at all.
    """
    path = Path(importlib.util.find_spec("scipy").origin).with_name("version.py")
    namespace: dict = {}
    exec(path.read_text(), namespace)
    return namespace["version"]


# Parsed attributes that are not parameters of the computation.
_NOT_PARAMETERS = ("command", "fn", "seed", "out", "format")


def _write_manifest(out: Path, args, seed: int, seed_source: str) -> None:
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
        "seed": seed,
        "seed_source": seed_source,
        "versions": {
            "butterflylab": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sample(args, seed: int) -> dict:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.m < 2 or args.n < 0:  # before the generator: a refused sample writes no file
        raise ValueError(f"need --m >= 2 and --n >= 0, got --m {args.m} --n {args.n}")
    groups.check_size(args.m, args.n, groups.MATERIALIZE_SIZE_CAP, "size")

    def lines():  # one permutation at a time: at m^n = 2^22 a line is 30 MB of text
        for t in range(args.trials):
            rng = substream(seed, t)
            if args.kind == "uniform":
                perm = fisher_yates(args.m**args.n, rng)
            elif args.kind == "simple":
                perm = groups.materialize(groups.sample_simple(args.m, args.n, rng))
            else:
                perm = groups.materialize(groups.sample_nonsimple(args.m, args.n, rng))
            yield perm.to_text() + "\n"

    return {"permutations.txt": lines() if args.trials else "\n"}


def cmd_lis_table(args, seed: int) -> dict:
    count_rows, moment_rows = [], []
    for n in _parse_range(args.n):
        pmf = lis.nonsimple_lis_counts(n, mode=args.mode, m=args.m)
        cum = 0.0
        for k, mass in zip(pmf.support, pmf.masses):
            cum += float(mass) if pmf.total is None else mass / pmf.total
            count_rows.append((n, k, mass, cum))
        m1, m2 = pmf.moment(1), pmf.moment(2)
        moment_rows.append((n, float(m1), float(m2), args.mode))
    return {"lis_counts": (["n", "k", "mass", "cdf"], count_rows),
            "lis_moments": (["n", "mean", "second_moment", "mode"], moment_rows)}


def _draws(ensemble: str, N: int, trials: int, seed: int):
    """One lis-mc row's trials, trial t from substream(seed, e, N, t), in chunks of
    at most BATCH_ENTRIES matrix entries: encoded group elements for bs-scalar and
    ns-scalar, one-line arrays otherwise. No chunk is kept while the next is drawn."""
    e, n = ENSEMBLES.index(ensemble), N.bit_length() - 1
    shape = {"bs-diag": "simple", "ns-diag": "nonsimple"}.get(ensemble)
    chunk = max(1, BATCH_ENTRIES // N**2)
    for lo in range(0, trials, chunk):
        rngs = [substream(seed, e, N, t) for t in range(lo, min(lo + chunk, trials))]
        if ensemble == "uniform":  # `fisher_yates`'s draw
            yield [rng.permutation(N) for rng in rngs]
        elif ensemble in ("bs-scalar", "ns-scalar"):
            sample = groups.sample_simple if ensemble == "bs-scalar" else groups.sample_nonsimple
            yield [sample(2, n, rng) for rng in rngs]
        elif shape:  # the draw of `gepp.sample_spec`, written straight into one array
            angles = np.empty((len(rngs), gepp.angle_count("diagonal", shape, N)))
            for t, rng in enumerate(rngs):
                angles[t] = rng.uniform(0.0, 2.0 * math.pi, size=angles.shape[1])
            yield gepp.gepp_perm_batch(gepp.build_butterflies("diagonal", shape, N, angles))
            del angles
        else:  # one stack, each matrix written into it as it is drawn
            first = gepp.ensemble_sample(ensemble, N, rngs[0])
            stack = np.empty((len(rngs), *first.shape), first.dtype)
            stack[0] = first
            del first
            for t, rng in enumerate(rngs[1:], 1):
                stack[t] = gepp.ensemble_sample(ensemble, N, rng)
            yield gepp.gepp_perm_batch(stack)
            del stack


def _sample_lis(ensemble: str, N: int, trials: int, seed: int) -> tuple[float, float]:
    # One-line arrays are permutations by construction; patience sorting reads
    # them unchecked. chain lets go of each chunk before it asks for the next.
    measure = groups.lis if ensemble in ("bs-scalar", "ns-scalar") else lis._patience
    draws = itertools.chain.from_iterable(_draws(ensemble, N, trials, seed))
    vals = np.fromiter(map(measure, draws), float, trials)
    return float(vals.mean()), float(vals.std(ddof=1)) if trials > 1 else 0.0


def cmd_lis_mc(args, seed: int) -> dict:
    ensembles = args.ensembles.split(",")
    for e in ensembles:
        if e not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {e!r}")
    ns = _parse_range(args.n)
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.trials > MAX_VALUES:  # each row holds one float per trial
        raise ValueError(f"--trials {args.trials} exceeds {MAX_VALUES}")
    gepp_ensembles = [e for e in ensembles if e not in _PERMUTATION_ENSEMBLES]
    for n in ns:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        groups.check_size(2, n, groups.MATERIALIZE_SIZE_CAP, "size")
        if gepp_ensembles:
            groups.check_size(2, n, GEPP_MAX_N, f"{gepp_ensembles[0]} GEPP")
    rows = []
    for ens in ensembles:
        for n in ns:
            N = 2**n
            trials = args.trials or (1000 if ens in _PERMUTATION_ENSEMBLES else 100)
            mean, std = _sample_lis(ens, N, trials, seed)
            rows.append((ens, N, mean, std, trials))
    return {"lis_mc": (["ensemble", "N", "sample_mean", "sample_std", "trials"], rows)}


def cmd_fit(args, seed: int) -> dict:
    """OLS of log E L_n on log 2^n. Exact means come from `lis.nonsimple_lis_mean`,
    which reads depth n - 1 only; float means from the float ladder's level n."""
    ns = _parse_range(args.n)
    if args.source:
        with open(args.source, newline="") as fh:
            reader = csv.DictReader(fh)
            for column in ("n", "mean"):
                if column not in (reader.fieldnames or ()):
                    raise ValueError(f"{args.source} has no {column!r} column")
            means = []
            for row in reader:
                if not (row["n"] and row["mean"]):
                    raise ValueError(f"{args.source} line {reader.line_num} lacks an n or a mean")
                if int(row["n"]) in ns:
                    means.append((int(row["n"]), float(row["mean"])))
    elif args.mode == "exact":
        means = [(n, float(lis.nonsimple_lis_mean(n))) for n in ns]
    else:
        means = [(n, float(lis.nonsimple_lis_counts(n, mode="float").moment(1))) for n in ns]
    if max([n for n, _ in means], default=0) >= sys.float_info.max_exp:  # checked after the laws' caps
        raise ValueError(f"N = 2^n is past the float range from n = {sys.float_info.max_exp} on")
    res = lis.fit_exponent([(2.0**n, mean) for n, mean in means])
    return {"fit.json": json.dumps({
        "alpha_hat": res.alpha_hat,
        "intercept": res.intercept,
        "r_squared": res.r_squared,
        "n_values": ns,
    }, indent=1, sort_keys=True) + "\n"}


def cmd_bounds(args, seed: int) -> dict:
    ms = _parse_range(args.m)
    groups.check_size(max(ms), 1, BOUNDS_MAX_M, "bounds")
    rows = []
    for m in ms:
        b = lis.bounds(m)
        rows.append((m, b.alpha, b.beta,
                     b.beta_star if b.beta_star is not None else "",
                     b.c_star if b.c_star is not None else "",
                     b.mu, b.nu, b.n0))
    return {"bounds": (["m", "alpha", "beta", "beta_star", "c_star", "mu", "nu", "n0"], rows)}


def cmd_cycles_table(args, seed: int) -> dict:
    rows = []
    for n in _parse_range(args.n):
        pmf = cycles.nonsimple_cycle_counts(args.p, n, mode=args.mode)
        step = args.p - 1  # the law lives on k = 1 mod (p - 1), from its offset on
        rows += [(args.p, n, k, mass) for k, mass in zip(pmf.support[::step], pmf.masses[::step])]
    return {"cycle_counts": (["p", "n", "k", "mass"], rows)}


def _k_max_cap(p: int) -> int:
    """Largest moments --k-max at p: the largest k with k^3 * bits(p) <= MOMENTS_MAX_WORK."""
    k = round((MOMENTS_MAX_WORK / max(p.bit_length(), 1)) ** (1 / 3))
    return k if k**3 * p.bit_length() <= MOMENTS_MAX_WORK else k - 1


def cmd_moments(args, seed: int) -> dict:
    cap = _k_max_cap(args.p)
    if args.k_max > cap:
        raise ValueError(f"--k-max {args.k_max} exceeds the cap {cap} at p = {args.p}")
    # "float" is null past the double range: m_26 of p = 2^40 - 87 is about 10^330.
    payload = [{"p": args.p, "k": k, "numerator": str(m.numerator),
                "denominator": str(m.denominator), "float": float(m) if m <= sys.float_info.max else None}
               for k, m in enumerate(cycles.limit_moments(args.p, args.k_max))]
    return {"moments.json": json.dumps(payload, indent=1) + "\n"}


def cmd_density(args, seed: int) -> dict:
    return {"density": (["t", "f"], cycles.density_grid(args.p, args.n, _parse_grid(args.t)))}


def cmd_fixed_points(args, seed: int) -> dict:
    ms = _parse_range(args.m)
    groups.check_size(max(ms), args.n, FIXED_POINTS_MAX_DEGREE, "degree")
    rows = []
    for m in ms:
        p = cycles.no_fixed_point_prob(m, args.n)
        rows.append((m, args.n, p, float(p), cycles.x_star(m)))
    return {"fixed_points": (["m", "n", "p_no_fixed_point", "p_no_fixed_point_float", "x_star"], rows)}


# ---------------------------------------------------------------------------
# verify: fast cross-module oracle suite
# ---------------------------------------------------------------------------


def _census(m: int, n: int, simple: bool, stat) -> Counter:
    """Counter of stat(sigma) over every element sigma of a small group."""
    return Counter(stat(groups.materialize(elem)) for elem in groups.enumerate_group(m, n, simple))


def _is_law(census: Counter, pmf: Pmf) -> bool:
    """True when the census equals the exact pmf on its nonzero support."""
    return dict(census) == {k: c for k, c in zip(pmf.support, pmf.masses) if c}


def _verify_checks(seed: int):
    rng = substream(seed, 0)

    def random_perm(M):
        return fisher_yates(M, rng)

    def chk_kron_mixed_product():
        # The mixed-product laws of kron and dsum, and p (x) q = (p (x) 1)(1 (x) q).
        for _ in range(25):
            p1, p2 = random_perm(4), random_perm(4)
            q1, q2 = random_perm(3), random_perm(3)
            pq = compose(p1, p2), compose(q1, q2)
            if (compose(kron(p1, q1), kron(p2, q2)) != kron(*pq)
                    or compose(dsum(p1, q1), dsum(p2, q2)) != dsum(*pq)
                    or compose(kron(p1, identity(3)), kron(identity(4), q1)) != kron(p1, q1)):
                return False
        return True

    def chk_matrix_roundtrip():
        for M in (1, 2, 5, 16, 64):
            p = random_perm(M)
            if Permutation.from_matrix(p.matrix()) != p:
                return False
        return True

    def chk_gepp_recovers_perm():
        for M in (3, 8, 33):
            p = random_perm(M)
            if gepp.gepp(p.matrix().T).perm != p:
                return False
        return True

    def chk_predicted_matches_gepp():
        for _ in range(25):
            spec = gepp.sample_spec("scalar", "nonsimple", 16, rng)
            pred = gepp.predicted_factorization(spec)
            full = gepp.gepp(gepp.build_butterfly(spec))
            if (pred.perm != full.perm or np.abs(pred.lower - full.lower).max() > 1e-10
                    or np.abs(pred.upper - full.upper).max() > 1e-10):
                return False
        return True

    def chk_batch_gepp_agrees():
        # Gaussian 6 x 6 matrices take dgetrf; Bernoulli ones of order
        # 2 * PANEL_WIDTH take one exact panel, then dgetrf; GUE ones take
        # the recursive modulus-pivot route.
        bern, gue = substream(seed, 2), substream(seed, 3)
        for mats in (rng.normal(size=(20, 6, 6)),
                     np.stack([gepp.ensemble_sample("bernoulli", 2 * gepp.PANEL_WIDTH, bern)
                               for _ in range(4)]),
                     np.stack([gepp.ensemble_sample("gue", 2 * gepp.PANEL_WIDTH + 3, gue)
                               for _ in range(4)])):
            batch = gepp.gepp_perm_batch(mats)
            if any(gepp.gepp(A).perm != Permutation(row) for A, row in zip(mats, batch)):
                return False
        return True

    def chk_lis_census():
        return _is_law(_census(2, 3, False, lis.lis), lis.nonsimple_lis_counts(3, mode="exact"))

    def chk_cycle_census():
        return all(_is_law(_census(p, n, False, lambda q: cycle_stats(q).total_cycles),
                           cycles.nonsimple_cycle_counts(p, n))
                   for p, n in ((2, 3), (3, 2)))

    def chk_simple_lis_law():
        return (_census(2, 4, True, lambda p: lis.lis(p) * lis.lds(p)) == {16: 16}
                and _is_law(_census(2, 4, True, lis.lis), lis.simple_lis_pmf(2, 4)))

    def chk_simple_lds_law():
        return all(_is_law(_census(m, n, True, lis.lds), lis.simple_lds_pmf(m, n))
                   for m, n in ((2, 4), (3, 3)))

    def chk_simple_cycle_law():
        return _is_law(_census(3, 3, True, lambda p: cycle_stats(p).total_cycles),
                       cycles.simple_cycle_dist(3, 3))

    def chk_simple_cd_law():
        return all(_is_law(_census(6, 2, True, lambda p: cycle_stats(p).by_length.get(d, 0)),
                           cycles.simple_cd_dist(6, 2, d))
                   for d in (1, 2, 3))

    def chk_membership_roundtrip():
        for _ in range(50):
            elem = groups.sample_nonsimple(3, 3, rng)
            rec = groups.check_membership(groups.materialize(elem), 3)
            if rec is None:
                return False
            if isinstance(rec, groups.NonsimpleButterfly) and rec != elem:
                return False
            if groups.materialize(rec) != groups.materialize(elem):
                return False
        return True

    def chk_moment_engine():
        ms = cycles.limit_moments(2, 6)
        return ms[6] == Fraction(40435712, 2345265) and ms[2] == Fraction(4, 3)

    def chk_moment_polynomials():
        for p in (2, 3):
            table = cycles.moment_polynomials(p, 4)
            if list(table.limits) != cycles.limit_moments(p, 4):
                return False
            for n in range(4):
                pmf = cycles.nonsimple_cycle_counts(p, n)
                if any(table.moment(k, n) != pmf.moment(k) for k in range(1, 5)):
                    return False
        return True

    def chk_fixed_points():
        census = _census(2, 3, False, lambda p: cycle_stats(p).fixed_points)
        law = Pmf(0, [census[k] for k in range(max(census) + 1)])
        closed = abs(cycles.x_star(3) - (math.sqrt(3.0) - 1.0) / 2.0) < 1e-12
        return (law.p(0) == cycles.no_fixed_point_prob(2, 3) and closed
                and all(law.moment(k) == cycles.fixed_point_moments(2, 3, k) for k in (1, 2)))

    def chk_w_monte_carlo():
        # A fixed stream, independent of --seed: a 5 SE band is still missed
        # by some streams, and an unlucky seed must not fail verify.
        moments, ses = cycles.monte_carlo_w(2, 10, 4000, substream(DEFAULT_SEED, 1))
        table = cycles.moment_polynomials(2, 4)
        return all(abs(moments[k - 1] - float(table.moment(k, 10) / table.lam ** (10 * k)))
                   <= 5 * ses[k - 1] for k in range(1, 5))

    checks = [
        ("kron-mixed-product", chk_kron_mixed_product),
        ("perm-matrix-roundtrip", chk_matrix_roundtrip),
        ("gepp-recovers-permutation", chk_gepp_recovers_perm),
        ("predicted-factorization-vs-gepp", chk_predicted_matches_gepp),
        ("batched-gepp-agrees", chk_batch_gepp_agrees),
        ("nonsimple-lis-census", chk_lis_census),
        ("nonsimple-cycle-census", chk_cycle_census),
        ("simple-lis-law", chk_simple_lis_law),
        ("simple-lds-law", chk_simple_lds_law),
        ("simple-cycle-law", chk_simple_cycle_law),
        ("simple-cd-law", chk_simple_cd_law),
        ("membership-roundtrip", chk_membership_roundtrip),
        ("moment-engine", chk_moment_engine),
        ("moment-polynomials", chk_moment_polynomials),
        ("fixed-points", chk_fixed_points),
        ("w-monte-carlo", chk_w_monte_carlo),
    ]
    return checks


class ChecksFailed(Exception):
    """Raised by verify when a check fails; main still writes the manifest."""


def cmd_verify(args, seed: int) -> dict:
    failed = False
    for name, fn in _verify_checks(seed):
        try:
            ok, note = fn(), ""
        except Exception as exc:  # noqa: BLE001
            ok, note = False, f": {exc}"
        print(("ok   " if ok else "FAIL ") + name + note)
        failed = failed or not ok
    if failed:
        raise ChecksFailed
    return {}


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, like every other error; subparsers are this class too."""

    def error(self, message):
        self.exit(2, f"butterflylab: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="butterflylab", description="butterfly permutation experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default {DEFAULT_SEED}; env {SEED_ENV} overrides)")
        p.add_argument("--out", default="out", help="output directory")

    def common_rows(p):
        # Only the subcommands that write through _write_rows read --format.
        common(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sample", help="emit sampled permutations, one per line")
    common(p)
    p.add_argument("--kind", choices=("uniform", "simple", "nonsimple"), default="nonsimple")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("lis-table", help="exact/float LIS count triangle, moments, cdf")
    common_rows(p)
    p.add_argument("--n", default="1..4", help="depth or range, e.g. 1..4")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(fn=cmd_lis_table)

    p = sub.add_parser("lis-mc", help="sample-mean LIS curves over the comparison ensembles")
    common_rows(p)
    p.add_argument("--ensembles", default="", type=lambda text: text or ",".join(ENSEMBLES),
                   help=f"comma list from {','.join(ENSEMBLES)} (default all)")
    p.add_argument("--n", default="2..8")
    p.add_argument("--trials", type=int, default=0,
                   help=f"override per-ensemble defaults, at most {MAX_VALUES} (2^20)")
    p.set_defaults(fn=cmd_lis_mc)

    p = sub.add_parser("fit", help="power-law exponent regression on LIS means")
    common(p)
    p.add_argument("--n", default="3..15")
    p.add_argument("--mode", choices=("exact", "float"), default="float")
    p.add_argument("--from", dest="source", default="", help="lis_moments.csv to reuse")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("bounds", help="alpha/beta/beta*/mu/nu/N0 table")
    common_rows(p)
    p.add_argument("--m", default="2..11", help=f"bases, range or comma list; m <= {BOUNDS_MAX_M} (2^14)")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("cycles-table", help="butterfly Stirling count triangle")
    common_rows(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--n", default="1..4")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(fn=cmd_cycles_table)

    p = sub.add_parser("moments", help="exact limiting moments of the cycle law")
    common(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--k-max", type=int, default=10, help="largest moment order; k^3 * bits(p) <= 6 * 2^20, "
                   "so k <= 146 at p = 2 and 53 at p = 2^40 - 87")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("density", help="plug-in density grid for the cycle limit")
    common_rows(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--t", default="0.0:4.0:0.05", help=f"grid lo:hi:step, at most {MAX_VALUES} (2^20) points")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("fixed-points", help="no-fixed-point probabilities and q_m roots")
    common_rows(p)
    p.add_argument("--m", default="2..7")
    p.add_argument("--n", type=int, default=4,
                   help=f"depth; exact iterates have degree m^n <= {FIXED_POINTS_MAX_DEGREE} (2^20)")
    p.set_defaults(fn=cmd_fixed_points)

    p = sub.add_parser("verify", help="run the cross-module oracle suite")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help (0)
        return exc.code
    try:
        seed, seed_source = _resolve_seed(args)
        with _unlimited_int_digits():
            try:
                files, status = args.fn(args, seed), 0
            except ChecksFailed:
                files, status = {}, 1
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, data in files.items():
                if isinstance(data, str):
                    (out / name).write_text(data)
                elif isinstance(data, tuple):
                    _write_rows(out, name, *data, args.format)
                else:  # lines of text, written as they are made
                    with (out / name).open("w") as fh:
                        fh.writelines(data)
            _write_manifest(out, args, seed, seed_source)
        return status
    except (ValueError, OSError) as exc:
        print(f"butterflylab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

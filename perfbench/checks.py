"""Output checks for the benchmark's ops; they run after the timed episodes.

* Exact outputs (count triangles, moment rationals, manifests) must match
  the SHA-256 digests in reference.json, recorded from the commit that
  introduced the benchmark. They do not depend on the seed, except the
  manifest's ``seed`` field, which is checked against the seed given and
  then blanked before hashing.
* ``lis_mc.csv`` depends on the seed. At a seed listed in reference.json it
  must match the recorded digest. At every seed, each row must have the
  requested ensemble, N and trial count, and a mean in [1, N]; the
  ``bs-scalar`` and ``ns-scalar`` means must be plausible under the exact
  laws ``lis.simple_lis_pmf(2, n)`` and ``lis.nonsimple_lis_counts(n,
  "float")``: the observed sum of LIS values may not lie in a tail of
  probability below ``P_MIN`` of the exact law of that sum.
* Float outputs (``fit.json``, ``density.csv``) must agree with the
  recorded values within ``REL_TOL`` relative, the library's drift guard.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
FLOAT_FILES = ("fit.json", "density.csv")
REL_TOL = 1e-9
P_MIN = 1e-7
LIS_MC_HEADER = ["ensemble", "N", "sample_mean", "sample_std", "trials"]


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(path: Path, seed: int) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        if manifest.get("seed") != seed or manifest.get("seed_source") != "flag":
            return "manifest does not record the seed given as --seed"
        manifest["seed"] = None
        data = json.dumps(manifest, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def read_floats(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {"header": header, "rows": [[float(v) for v in row] for row in rows]}


def floats_close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(floats_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(floats_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL)
    return a == b


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


@functools.lru_cache(maxsize=None)
def _sum_tails(ensemble: str, n: int, trials: int):
    """P(S <= s) and P(S >= s) for S the sum of `trials` iid exact LIS draws."""
    import numpy as np
    from butterflylab import lis
    from scipy.signal import convolve

    if ensemble == "bs-scalar":
        pmf = lis.simple_lis_pmf(2, n)
        probs = np.array(pmf.masses, dtype=np.float64) / pmf.total
    else:
        pmf = lis.nonsimple_lis_counts(n, "float")
        probs = np.asarray(pmf.masses, dtype=np.float64)
    one = np.concatenate((np.zeros(pmf.offset), probs))  # index = LIS value
    law, power, k = np.array([1.0]), one, trials
    while k:
        if k & 1:
            law = np.clip(convolve(law, power), 0.0, None)
        k >>= 1
        if k:
            power = np.clip(convolve(power, power), 0.0, None)
    return np.cumsum(law), np.cumsum(law[::-1])[::-1]


def check_lis_mc(path: Path, argv: list[str]) -> list[str]:
    from butterflylab.cli import ENSEMBLES

    ensembles = _flag(argv, "--ensembles", ",".join(ENSEMBLES)).split(",")
    lo, hi = _flag(argv, "--n", "2..8").split("..")
    ns = range(int(lo), int(hi) + 1)
    trials = int(_flag(argv, "--trials", "0"))
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if header != LIS_MC_HEADER:
        return [f"{path.name}: header {header}"]
    expected = [(e, 2**n) for e in ensembles for n in ns]
    if len(rows) != len(expected):
        return [f"{path.name}: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for (ens, N), row in zip(expected, rows):
        mean, std, t = float(row[2]), float(row[3]), int(row[4])
        if row[0] != ens or int(row[1]) != N or t != trials:
            problems.append(f"{path.name}: row {row} is not ({ens}, {N}, {trials} trials)")
        elif not (1.0 <= mean <= N and std >= 0.0):
            problems.append(f"{path.name}: {ens} N={N} mean {mean} std {std} out of range")
        elif ens in ("bs-scalar", "ns-scalar"):
            below, above = _sum_tails(ens, N.bit_length() - 1, t)
            s = round(mean * t)
            p = min(below[s], above[s]) if s < len(below) else 0.0
            if p < P_MIN:
                problems.append(f"{path.name}: {ens} N={N} mean {mean} has tail "
                                f"probability {p:.3g} under the exact law")
    return problems


def check_op(op: dict, seed: int, reference: dict) -> list[str]:
    """Problems with one op's exit status and outputs; empty when it passed."""
    if op["error"]:
        return [op["error"]]
    if op["rc"] != 0:
        return [f"exit code {op['rc']}"]
    if op["argv"][0] == "verify":
        out = op["stdout"]
        return [] if out.strip() and "FAIL" not in out else ["verify reported a failure"]
    key = op_key(op["argv"])
    out_dir = Path(op["out"])
    seeded = reference["seeded"].get(str(seed), {})
    expected = {name.split("/")[-1] for table in (reference["exact"], reference["float"])
                for name in table if name.rsplit("/", 1)[0] == key}
    if op["argv"][0] == "lis-mc":
        expected.add("lis_mc.csv")
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    problems = [f"missing output {name}" for name in sorted(expected - found)]
    problems += [f"unexpected output {name}" for name in sorted(found - expected)]
    for name in sorted(found & expected):
        path, ref_key = out_dir / name, f"{key}/{name}"
        if ref_key in reference["float"]:
            if not floats_close(read_floats(path), reference["float"][ref_key]):
                problems.append(f"{name} differs from the reference beyond {REL_TOL} relative")
            continue
        if name == "lis_mc.csv":
            problems += check_lis_mc(path, op["argv"])
            want = seeded.get(ref_key)
        else:
            want = reference["exact"][ref_key]
        if want is not None and digest(path, seed) != want:
            problems.append(f"{name} does not match its recorded digest")
    return problems

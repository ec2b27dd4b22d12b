"""The butterflylab benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

A run spawns a fresh interpreter per episode (perfbench/episode.py), one at
a time, and repeats episodes until --seconds are spent. It always runs two,
and a third when that one should end within THIRD_EPISODE_BY_S, so that
each metric is a median of several even when one episode is longer than
--seconds, without a slow host stretching the run much further. Every
episode starts with empty memo ladders, so no state leaks between episodes
or runs. The children get PYTHONPATH=src and one BLAS thread. setup_s is
the median, over the episodes, of the time from spawning the interpreter
until its import of butterflylab.cli returns.

Outputs are checked after all episodes end (perfbench/checks.py). The last
line of stdout is the result; the lines before it are a report with every
metric, its unit and sample count, and an environment stamp. With --trace 0
the result holds the end-to-end metrics; with --trace 1 the per-layer ones,
taken from the traced episodes, plus the untraced per-subcommand times and
trace.overhead (traced wall_s over untraced wall_s).

Exits 2 without a result when the checkout holds no butterflylab sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THIRD_EPISODE_BY_S = 50.0
RUN_LIMIT_S = 170.0
COLD_RULE = ("every episode is a fresh interpreter: memo ladders start empty "
             "and nothing leaks between episodes or runs")

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(HERE))

from checks import REFERENCE, check_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BUTTERFLYLAB_SEED"}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def commit_hash() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_program() -> dict:
    """Import the program once (untimed) and report its versions and location."""
    code = ("import json, numpy, scipy, butterflylab.cli as c; print(json.dumps("
            "{'numpy': numpy.__version__, 'scipy': scipy.__version__, "
            "'butterflylab': c.__version__, 'file': c.__file__}))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cannot import butterflylab from {SRC}:\n{proc.stderr}")
    info = json.loads(proc.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: butterflylab imported from {info['file']}, not {SRC}")
    return info


def run_episode(workload: str, seed: int, traced: bool, work: Path, timeout: float) -> dict | None:
    """One fresh interpreter running the workload's ops; None if it died or hung."""
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "episode.py"), workload, str(seed), str(work / "out"),
           str(result), "1" if traced else "0"]
    t0 = now()
    with (work / "stderr.txt").open("w") as err:
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=err, stderr=err)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result.is_file():
        print((work / "stderr.txt").read_text()[-2000:], file=sys.stderr)
        return None
    ep = json.loads(result.read_text())
    ep.update(traced=traced, setup_s=ep["import_done"] - t0)
    return ep


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def lis_mc_trials(op: dict) -> int:
    csv_path = Path(op["out"]) / "lis_mc.csv"
    if not csv_path.is_file():
        return 0
    rows = csv_path.read_text().splitlines()[1:]
    return sum(int(row.rsplit(",", 1)[1]) for row in rows)


def episode_metrics(ep: dict) -> dict:
    m = {"wall_s": 0.0, "peak_rss_mb": ep["peak_rss_kb"] / 1024.0,
         "bytes_written": 0, "trials": 0}
    for op in ep["ops"]:
        if op["phase"] == "probe":
            continue
        m["bytes_written"] += bytes_under(Path(op["out"]))
        if op["phase"] == "warm":
            m["warm_s"] = m.get("warm_s", 0.0) + op["seconds"]
            continue
        m["wall_s"] += op["seconds"]
        name = op["argv"][0].replace("-", "_") + "_s"
        m[name] = m.get(name, 0.0) + op["seconds"]
        if op["argv"][0] == "lis-mc":
            m["trials"] += lis_mc_trials(op)
    if m["trials"]:
        m["trials_per_s"] = m["trials"] / m["lis_mc_s"]
    return m


def median_of(rows: list[dict], key: str):
    values = [r[key] for r in rows if key in r]
    return (statistics.median(values), len(values)) if values else (None, 0)


# Every end-to-end metric the report prints, with its unit. Only setup_s,
# wall_s and peak_rss_mb apply to every workload, so only they go in the result.
E2E = ["setup_s", "wall_s", "peak_rss_mb"]
REPORTED = [("setup_s", "s"), ("wall_s", "s"), ("warm_s", "s"), ("lis_table_s", "s"),
            ("fit_s", "s"), ("cycles_table_s", "s"), ("moments_s", "s"), ("density_s", "s"),
            ("lis_mc_s", "s"), ("verify_s", "s"), ("trials_per_s", "1/s"),
            ("peak_rss_mb", "MB"), ("fail_ratio", "ratio"), ("probe_failures", "count")]
# Untraced per-subcommand numbers that trace runs report as cli.* layer metrics.
CLI_FROM_UNTRACED = ["lis_table_s", "fit_s", "cycles_table_s", "moments_s", "density_s",
                     "lis_mc_s", "verify_s", "warm_s", "trials_per_s", "bytes_written"]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "1/s" if name.endswith("per_s") else "s"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    if name.endswith("batch_fill"):
        return "trials/call"
    return "count"


def run_episodes(args, run_dir: Path, start: float) -> list:
    """Two episodes, a third by THIRD_EPISODE_BY_S, more while they fit in --seconds.

    With --trace 1 they alternate untraced and traced, untraced first."""
    episodes, t0 = [], now()
    while True:
        traced = bool(args.trace) and len(episodes) % 2 == 1
        ep = run_episode(args.workload, args.seed, traced, run_dir / f"ep{len(episodes)}",
                         RUN_LIMIT_S - (now() - start))
        episodes.append(ep)
        if ep is None:
            return episodes
        n = len(episodes)
        limit = args.seconds if n >= 3 else max(args.seconds, THIRD_EPISODE_BY_S)
        if n >= 2 and (now() - t0) * (1 + 1 / n) > limit:
            return episodes


def check_episodes(episodes: list, args) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, probe failures, problems) over every op of every episode."""
    reference = json.loads(REFERENCE.read_text())
    ops_per_episode = sum(phase != "probe" for phase, _ in WORKLOADS[args.workload])
    attempted = failed = probe_failures = 0
    problems = []
    for ep in episodes:
        attempted += ops_per_episode
        if ep is None:
            failed += ops_per_episode
            problems.append("an episode crashed or timed out")
            continue
        for op in ep["ops"]:
            if op["phase"] == "probe":
                probe_failures += bool(op["error"] or op["rc"] != 0)
                continue
            bad = check_op(op, args.seed, reference)
            failed += bool(bad)
            problems += [f"{' '.join(op['argv'])}: {p}" for p in bad]
    return attempted, failed, probe_failures, problems


def layer_metrics(traced: list, traced_rows: list, summary: dict) -> dict:
    keys = sorted({k for ep in traced for k in ep["layers"]})
    metrics = {k: median_of([ep["layers"] for ep in traced], k)[0] for k in keys}
    metrics.update({f"cli.{name}": summary[name][0] for name in CLI_FROM_UNTRACED})
    traced_wall = median_of(traced_rows, "wall_s")[0]
    if traced_wall is not None and summary["wall_s"][0]:
        metrics["trace.overhead"] = traced_wall / summary["wall_s"][0]
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = now()
    if not (SRC / "butterflylab" / "cli.py").is_file():
        print(f"perfbench: no butterflylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info = probe_program()
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": info["numpy"],
             "scipy": info["scipy"], "butterflylab": info["butterflylab"],
             "openblas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
             "commit": commit_hash(), "cold_process_rule": COLD_RULE}

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        episodes = run_episodes(args, run_dir, start)
        attempted, failed, probe_failures, problems = check_episodes(episodes, args)
        good = [ep for ep in episodes if ep is not None]
        rows = [episode_metrics(ep) for ep in good]
        traced = [ep for ep in good if ep["traced"]]
        untraced = [row for row, ep in zip(rows, good) if not ep["traced"]]
        summary = {name: median_of(untraced, name) for name in CLI_FROM_UNTRACED + E2E}
        summary.update(setup_s=median_of(good, "setup_s"),
                       fail_ratio=(failed / attempted, attempted),
                       probe_failures=(probe_failures / len(episodes), len(episodes)))
        if args.trace:
            metrics = layer_metrics(traced, [r for r, ep in zip(rows, good) if ep["traced"]],
                                    summary)
            metrics["cli.probe_failures"] = summary["probe_failures"][0]
        else:
            metrics = {k: summary[k][0] for k in E2E}
        if traced:
            WORK.mkdir(exist_ok=True)
            shutil.copy(traced[-1]["spans"], WORK / f"spans-{args.workload}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# env {json.dumps(stamp, sort_keys=True)}")
    print(f"# {len(good)} episode(s) ({len(traced)} traced), "
          f"{attempted} ops, {failed} failed, run took {now() - start:.1f} s")
    print("# wall_s per episode: " + ", ".join(
        f"{row['wall_s']:.3f}{' traced' if ep['traced'] else ''}" for row, ep in zip(rows, good)))
    for name, unit in REPORTED:
        value, n = summary[name]
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"# {name:<16} {shown:<22} n={n}")
    for p in problems[:20]:
        print(f"# FAILED {p}")
    for op in traced[-1]["ops"] if traced else []:
        if op["phase"] == "cold":
            top = sorted(op["self_s"].items(), key=lambda kv: -kv[1])[:4]
            print(f"# self time in {' '.join(op['argv'])}: "
                  + ", ".join(f"{name} {sec:.3f} s" for name, sec in top))
    for name in sorted({name for ep in traced for name in ep["missing"]}):
        print(f"# missing layer {name}: its metrics are left out")
    units = dict(REPORTED)
    result = {"correct": failed == 0 and bool(good), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v or 0, "unit": units.get(k) or unit_of(k)}
                          for k, v in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

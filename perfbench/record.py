"""Write perfbench/reference.json from the outputs of the current commit.

    python3 perfbench/record.py

Runs one untraced episode of each workload per reference seed and stores the
digests of exact outputs, the values of float outputs, and per seed the
digests of lis_mc.csv. The reference fixes what correct output is, so
re-record only when a change is meant to alter outputs, and say so.
"""
import json
import shutil
from pathlib import Path

from checks import FLOAT_FILES, REFERENCE, digest, op_key, read_floats
from run import WORK, run_episode
from workloads import WORKLOADS

SEEDS = [*range(11), 20240917]


def main() -> None:
    ref = {"exact": {}, "float": {}, "seeded": {str(s): {} for s in SEEDS}}
    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    for workload, ops in WORKLOADS.items():
        seeded = any(argv[0] == "lis-mc" for _phase, argv in ops)
        for seed in SEEDS if seeded else SEEDS[:1]:
            ep = run_episode(workload, seed, False, work / f"{workload}-{seed}", 600.0)
            if ep is None:
                raise SystemExit(f"{workload} seed {seed}: the episode crashed")
            for op in ep["ops"]:
                if op["phase"] == "probe":
                    continue
                if op["error"] or op["rc"] != 0:
                    raise SystemExit(f"{workload} seed {seed}: {op['argv']} failed: {op['error']}")
                out = Path(op["out"])
                for path in sorted(out.iterdir()) if out.is_dir() else []:
                    key = f"{op_key(op['argv'])}/{path.name}"
                    if path.name in FLOAT_FILES:
                        ref["float"][key] = read_floats(path)
                    elif path.name == "lis_mc.csv":
                        ref["seeded"][str(seed)][key] = digest(path, seed)
                    elif ref["exact"].setdefault(key, digest(path, seed)) != digest(path, seed):
                        raise SystemExit(f"{key} differs between seeds or passes")
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""A traced mc-small episode of perfbench ends in a result.

`perfbench/episode.py` runs a workload's ops under the span tracer and writes
one JSON result; `run.py` reads it and prints the benchmark's last line. An
op that raises, or a tracer hook that cannot read a layer's arguments, would
leave a failed op or no result at all. This runs the episode as `run.py`
does, in a fresh interpreter with PYTHONPATH=src, and writes only under
tmp_path.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_mc_small_episode_writes_a_clean_result(tmp_path):
    result = tmp_path / "result.json"
    # One BLAS thread, as run.py gives its children; no bytecode, so nothing
    # is written into the checkout.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    env.pop("BUTTERFLYLAB_SEED", None)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "episode.py"), "mc-small", "1",
                           str(tmp_path / "out"), str(result), "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["ops"] and all(op["rc"] == 0 and op["error"] is None for op in report["ops"])
    assert report["layers"] and report["missing"] == []

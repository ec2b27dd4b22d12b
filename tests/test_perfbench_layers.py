"""perfbench's span tracer still finds every layer it wraps.

`perfbench/spans.py` wraps library functions by name and silently drops the
metrics of a name that no longer resolves, so renaming or removing a layer
would shrink the benchmark's per-layer report without any error. This test
installs the tracer in a fresh interpreter (installing rebinds module
attributes, which must not leak into the other tests), requires an empty
``missing`` list, and runs a small `lis-mc` and `verify` under the wrappers
so that the counter hooks read the real argument shapes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib.util, json, sys, tempfile

spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
from butterflylab import cli

with tempfile.TemporaryDirectory() as out:
    rc = cli.main(["lis-mc", "--n", "2..3", "--trials", "2", "--seed", "5", "--out", out])
    # lis-mc patience-sorts its one-line arrays directly; verify's censuses
    # still pass Permutations through lis.lis.
    rc = rc or cli.main(["verify", "--seed", "5", "--out", out])
print(json.dumps({"missing": tracer.missing, "rc": rc,
                  "layers": tracer.summary(), "names": [n for n, *_ in spans.LAYERS]}))
"""


def test_every_layer_resolves_and_its_hook_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "spans.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["missing"] == []
    assert report["rc"] == 0
    layers = report["layers"]
    assert layers["gepp.gepp_perm_batch.trials"] > 0 and layers["gepp.gepp_perm_batch.flops"] > 0
    assert layers["lis.lis.elements"] > 0
    # Every per-layer metric the benchmark declares for a wrapped layer is reported.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wrapped = [m["name"] for m in declared
               if any(m["name"].startswith(f"{name}.") for name in report["names"])]
    assert wrapped and not set(wrapped) - set(layers)

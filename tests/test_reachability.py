"""Every public library function is reached by a subcommand or by `verify`.

Run as a script, this file traces `verify` and one small run of each other
subcommand through `cli.main` under `sys.setprofile`, in a fresh
interpreter so that no memoized ladder hides a call, and prints the public
names that were never called as JSON. Public means defined in the module
(functions, methods, properties and static methods) with a name that does
not start with an underscore; dunder methods such as ``__repr__`` are hooks
the interpreter calls, not public names. A test-only public name belongs in
the tests that use it.
"""
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODULES = ("permutations", "groups", "gepp", "lis", "cycles", "pmf", "stats", "rng")
# Imported by tests/test_acceptance.py, which stays as the paper's criteria.
ALLOWED = {"lis.nonsimple_lis_moments", "stats.merge_sparse_cells"}
RUNS = [
    ["verify"],
    ["sample", "--n", "3", "--trials", "2"],
    ["lis-table", "--n", "1..3"],
    ["lis-mc", "--n", "2..3", "--trials", "3"],
    ["fit", "--n", "3..5"],
    ["bounds", "--m", "2..3"],
    ["cycles-table", "--p", "3", "--n", "1..2"],
    ["moments", "--p", "2", "--k-max", "4"],
    ["density", "--p", "2", "--n", "4", "--t", "0:2:0.5"],
    ["fixed-points", "--m", "2,3", "--n", "2"],
]


def public_code(mod) -> dict:
    """Code object of every public function and method that `mod` defines."""
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out[name] = obj.__code__
        elif inspect.isclass(obj):
            for attr, v in vars(obj).items():
                f = v.fget if isinstance(v, property) else getattr(v, "__func__", v)
                if not attr.startswith("_") and inspect.isfunction(f):
                    out[f"{name}.{attr}"] = f.__code__
    return out


def unreached() -> list[str]:
    from butterflylab import cli

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            codes = [cli.main([*argv, "--out", f"{tmp}/{i}"]) for i, argv in enumerate(RUNS)]
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(RUNS), codes
    return sorted(f"{m}.{name}" for m in MODULES
                  for name, code in public_code(importlib.import_module(f"butterflylab.{m}")).items()
                  if code not in called)


def test_every_public_name_is_reached():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("BUTTERFLYLAB_SEED", None)
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    missing = set(json.loads(proc.stdout.splitlines()[-1]))
    assert missing == ALLOWED, sorted(missing ^ ALLOWED)


if __name__ == "__main__":
    print(json.dumps(unreached()))

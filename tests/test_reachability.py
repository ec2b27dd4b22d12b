"""Every public library function is reached by a subcommand or by `verify`.

Run as a script, this file traces `verify` and one small run of each other
subcommand through `cli.main` under `sys.setprofile`, in a fresh
interpreter so that no memoized ladder hides a call, and prints the public
names that were never called as JSON. Public means defined in the module
(functions, methods, properties and static methods) with a name that does
not start with an underscore. Dunder methods written in a library class,
such as ``__eq__``, are traced too: the interpreter calls them, so they are
as reachable as any public name. Methods that ``dataclasses`` generates are
not written in the module and are left out. A test-only public name or hook
belongs in the tests that use it.
"""
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODULES = ("permutations", "groups", "gepp", "lis", "cycles", "pmf", "rng")
# Public names that only tests call. None: such a name moves into the tests.
ALLOWED: set[str] = set()
# Hooks that no run calls but that stay on purpose, each with its reason.
KEPT_HOOKS = {
    "groups.NonsimpleButterfly.__hash__":
        "defining __eq__ unsets the inherited hash; tests/test_groups.py keys dicts by element",
    "permutations.Permutation.__hash__":
        "defining __eq__ unsets the inherited hash; tests/test_acceptance.py keys dicts by permutation",
    "permutations.Permutation.__repr__":
        "prints the one-line form in assertion messages and at the prompt, not the object id",
    "permutations.Permutation.__setattr__":
        "the immutability guard: it runs only when code tries to assign, and then raises",
}
RUNS = [
    ["verify"],
    ["sample", "--n", "3", "--trials", "2"],
    ["lis-table", "--n", "1..3"],
    ["lis-mc", "--n", "2..3", "--trials", "3"],
    ["fit", "--n", "3..14"],  # depth 14 is the first LIS level made by FFT, so trimmed
    ["bounds", "--m", "2..3"],
    ["cycles-table", "--p", "3", "--n", "1..2"],
    ["moments", "--p", "2", "--k-max", "4"],
    ["density", "--p", "2", "--n", "4", "--t", "0:2:0.5"],
    ["fixed-points", "--m", "2,3", "--n", "2"],
]
# Runs traced on top of RUNS: a second mode of a subcommand in RUNS that
# takes its own library path (exact fit reads E L_n off `nonsimple_lis_mean`).
MODE_RUNS = [
    ["fit", "--mode", "exact", "--n", "3..5"],
]


def public_code(mod) -> dict:
    """Code object of every public function, method and dunder hook that `mod` defines."""
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out[name] = obj.__code__
        elif inspect.isclass(obj):
            for attr, v in vars(obj).items():
                f = v.fget if isinstance(v, property) else getattr(v, "__func__", v)
                if not inspect.isfunction(f):
                    continue
                dunder = attr.startswith("__") and attr.endswith("__")
                if dunder and f.__code__.co_filename != mod.__file__:
                    continue  # generated by dataclasses, not written here
                if dunder or not attr.startswith("_"):
                    out[f"{name}.{attr}"] = f.__code__
    return out


def unreached() -> list[str]:
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            # Traced from the import on: it builds the module-level ladders.
            from butterflylab import cli

            codes = [cli.main([*argv, "--out", f"{tmp}/{i}"]) for i, argv in enumerate(RUNS + MODE_RUNS)]
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(RUNS + MODE_RUNS), codes
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
    expected = ALLOWED | KEPT_HOOKS.keys()
    assert missing == expected, sorted(missing ^ expected)


if __name__ == "__main__":
    print(json.dumps(unreached()))

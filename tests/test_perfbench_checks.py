"""perfbench's output checker still reads the library's laws.

`perfbench/checks.py` tests each benchmark `lis-mc` run against the exact
laws `lis.simple_lis_pmf(2, n)` and `lis.nonsimple_lis_counts(n, "float")`,
reading their ``masses``, ``total`` and ``offset``. Only benchmark runs call
it, so a change to `Pmf` could break the benchmark's checks unseen. This
test loads the checker by path and runs it on a small `lis-mc` output.
"""
import importlib.util
from pathlib import Path

from butterflylab import cli

ROOT = Path(__file__).resolve().parents[1]


def test_lis_mc_check_passes_on_a_fresh_run(tmp_path):
    spec = importlib.util.spec_from_file_location("checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    argv = ["lis-mc", "--ensembles", "bs-scalar,ns-scalar", "--n", "2..5", "--trials", "50"]
    assert cli.main([*argv, "--seed", "5", "--out", str(tmp_path)]) == 0
    assert checks.check_lis_mc(tmp_path / "lis_mc.csv", argv) == []
    # Each row was held against its exact law: two ensembles at n = 2..5.
    assert checks._sum_tails.cache_info().currsize == 8

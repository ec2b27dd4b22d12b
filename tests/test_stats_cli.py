import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflylab import Permutation, cli, cycles, fisher_yates, gepp, groups, lis
from butterflylab.cli import main
from butterflylab.lis import nonsimple_lis_counts
from butterflylab.pmf import Pmf
from butterflylab.rng import substream
from chisq import chi_square, merge_sparse_cells
from test_float_ladders import zero_filled
from test_reachability import RUNS


class TestChiSquare:
    def test_exact_match(self):
        pmf = Pmf(0, [1, 1, 1, 1])
        res = chi_square({0: 25, 1: 25, 2: 25, 3: 25}, pmf)
        assert res.statistic == 0.0
        assert res.df == 3
        assert res.p_value == pytest.approx(1.0)

    def test_fair_die_calibration(self):
        # 100 seeded runs of a fair six-sided die; the 1% test should pass >= 98
        passes = 0
        for run in range(100):
            rng = substream(61, run)
            draws = rng.integers(0, 6, size=6 * 10**4)
            counts = np.bincount(draws, minlength=6)
            if chi_square(counts, [1 / 6] * 6).p_value > 0.01:
                passes += 1
        assert passes >= 98

    def test_detects_skew(self):
        rng = substream(61, 1000)
        draws = rng.integers(0, 6, size=6 * 10**4)
        counts = np.bincount(draws, minlength=6).astype(float)
        counts[2] *= 2.0
        assert chi_square(counts, [1 / 6] * 6).p_value < 1e-6

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            chi_square({7: 3}, Pmf(0, [1, 1]))
        with pytest.raises(ValueError):
            chi_square([1, 2, 3], [0.5, 0.5])

    def test_zero_expected_rejected(self):
        with pytest.raises(ValueError):
            chi_square([1, 2], [1.0, 0.0])

    def test_merge_sparse_cells(self):
        probs = [0.5, 0.45, 0.04, 0.009, 0.001]
        counts = [50, 45, 4, 1, 0]
        mp, mc = merge_sparse_cells(probs, counts)
        assert mp.sum() == pytest.approx(1.0)
        assert mc.sum() == 100
        assert (mp * 100 >= 5.0).all()


class TestParsers:
    """On any text, a range or grid parses to at most MAX_VALUES finite values or raises ValueError."""

    @staticmethod
    def parsed(parse, text):
        try:
            return parse(text)
        except ValueError:
            return None

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_any_text(self, text):
        values = self.parsed(cli._parse_range, text)
        assert values is None or 0 < len(values) <= cli.MAX_VALUES and all(type(v) is int for v in values)
        grid = self.parsed(cli._parse_grid, text)
        assert grid is None or 0 < grid.size <= cli.MAX_VALUES and np.isfinite(grid).all()

    @given(st.integers(-10**15, 10**15), st.one_of(st.integers(0, 1 << 20), st.integers(10**12, 10**30)))
    @settings(max_examples=60, deadline=None)
    def test_range_length(self, lo, length):
        # a range past the bound is refused before its list is built
        values = self.parsed(cli._parse_range, f"{lo}..{lo + length - 1}")
        if 0 < length <= cli.MAX_VALUES:
            assert values == list(range(lo, lo + length))
        else:
            assert values is None

    @given(st.floats(), st.floats(), st.floats())
    @settings(max_examples=200, deadline=None)
    def test_grid(self, lo, hi, step):
        grid = self.parsed(cli._parse_grid, f"{lo}:{hi}:{step}")
        assert grid is None or 0 < grid.size <= cli.MAX_VALUES and np.isfinite(grid).all()

    def test_documented_ranges_are_admitted(self):
        assert len(cli._parse_range("2..16384")) == 16383
        assert len(cli._parse_range(f"0..{cli.MAX_VALUES - 1}")) == cli.MAX_VALUES


def run_cli(args, tmp):
    rc = main([*args, "--out", str(tmp)])
    assert rc == 0
    return tmp


def csv_writer_bytes(header, rows):
    """What csv.writer writes for the header and the rows formatted by cli._fmt."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([cli._fmt(v) for v in row])
    return buf.getvalue().encode()


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class TestCli:
    def test_lis_table_exact(self, tmp_path):
        out = run_cli(["lis-table", "--n", "1..4", "--mode", "exact"], tmp_path / "a")
        rows = (out / "lis_counts.csv").read_text().splitlines()
        assert rows[0] == "n,k,mass,cdf"
        table, cdf = {}, {}
        for line in rows[1:]:
            n, k, mass, c = line.split(",")
            table[(int(n), int(k))] = int(mass)
            cdf[(int(n), int(k))] = float(c)
        assert [table[(3, k)] for k in range(1, 9)] == [1, 25, 32, 35, 18, 12, 4, 1]
        assert table[(4, 2)] == 676
        assert cdf[(3, 2)] == 26 / 128
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "lis-table"
        assert "butterflylab" in manifest["versions"]

    def test_lis_table_at_the_exact_cap(self, tmp_path):
        # Counts from depth 11 on overflow float(); the cdf divides exactly.
        out = run_cli(["lis-table", "--n", "12..13"], tmp_path / "cap")
        rows = [line.split(",") for line in (out / "lis_counts.csv").read_text().splitlines()[1:]]
        for n in (12, 13):
            got = [r for r in rows if r[0] == str(n)]
            pmf = nonsimple_lis_counts(n)
            assert [int(r[2]) for r in got] == pmf.masses.tolist()
            assert abs(float(got[-1][3]) - 1.0) < 1e-12

    @pytest.mark.parametrize("args, digests", [
        (["lis-table", "--m", "3", "--n", "0..7"], {
            "lis_counts.csv": "17d4cb910c273be4d796f6bd41d250539f98a87adcd77d6c3c3f78dc254d207c",
            "lis_moments.csv": "9d74f86a4c2984b7593e9dbdf1fe0760526810423994eb74aea2cf87e4205dd2"}),
        (["lis-table", "--m", "4", "--n", "0..6"], {
            "lis_counts.csv": "aba352f1ce6d900db34e9b18e1bb2319b6c40edb1e5440919195175e147f5df6",
            "lis_moments.csv": "2d81e7e012b0db338e2155cfd1067ac1df9a0b03c7f6774e40f857279ad6791d"}),
        (["lis-table", "--m", "5", "--n", "0..5"], {
            "lis_counts.csv": "f9397dc5905df244362c2cc9fbc4ed486eb8fae5fc11699e56d7c1ccc0744f96",
            "lis_moments.csv": "b652ead53fdce05baab21d1c2ee1959f32254d1689e0e4ec007c86adbe6cfa99"}),
        (["cycles-table", "--p", "5", "--n", "0..5"], {
            "cycle_counts.csv": "76328e18d7dff870a57388bd512f25ea1062b731b2c2b3aed6a019d9304a2c44"}),
        (["lis-table", "--mode", "float", "--m", "5", "--n", "0..8"], {
            "lis_counts.csv": "2fb8b6385afc2c8addc1d09c58fd56160bb5fd92abb049978d691d78d50648ef",
            "lis_moments.csv": "c0d02e0b6bea4212c308c7c8842790d06b2dbdcb4b0af929a9e03964a5be8a68"}),
        (["cycles-table", "--mode", "float", "--p", "7", "--n", "0..7"], {
            "cycle_counts.csv": "b68335c86374d0adb12778fe2276523711890f3a36517dde3903d8e7969ecd15"}),
    ])
    def test_exact_tables_pinned(self, tmp_path, args, digests):
        # SHA-256 of tables the benchmark's reference does not hold (it has
        # m = 2 and p = 2, 3). Exact LIS levels for m >= 3 start at
        # ceil(m/2)^n, and the rows of value 1 up to there are still written.
        # The float cases pin the float ladders' bytes, windows included.
        out = run_cli(args, tmp_path)
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests} == digests

    @pytest.mark.parametrize("args, env", [
        (["verify"], "abc"),
        (["cycles-table", "--p", "4"], None),
        (["lis-table", "--n", "14..14"], None),
        (["lis-table", "--m", "3", "--n", "9..9"], None),
        (["lis-mc", "--ensembles", "goe,cauchy", "--n", "2..2"], None),
        (["lis-mc", "--ensembles", "ns-scalar", "--n", "2,27", "--trials", "1"], None),
        (["density", "--t", "0:4:0"], None),
        (["fit", "--from", "/nonexistent.csv", "--n", "3..5"], None),
        (["fit", "--from", "{tmp}/lis_counts.csv", "--n", "1..4"], None),
        (["sample", "--kind", "uniform", "--n", "40"], None),
        (["sample", "--kind", "simple", "--m", "3", "--n", "2000000"], None),
        (["lis-mc", "--ensembles", "uniform,goe", "--n", "18", "--trials", "1"], None),
        (["lis-mc", "--ensembles", "gue", "--n", "2,12", "--trials", "1"], None),
        (["lis-mc", "--n=-1..-1", "--ensembles", "goe"], None),
        (["lis-mc", "--ensembles", "goe", "--n", "2..2", "--trials", "-1"], None),
        (["lis-mc", "--ensembles", "goe", "--n", "2..2", "--trials", "100000000000"], None),
        (["lis-mc", "--ensembles", "uniform", "--n", "2..2", "--trials", "1048577"], None),
        (["sample", "--trials", "-1"], None),
        (["lis-table", "--n", "3..1"], None),
        (["cycles-table", "--n", "3..1"], None),
        (["lis-mc", "--n", "3..1"], None),
        (["fit", "--n", "3..1"], None),
        (["bounds", "--m", "5..2"], None),
        (["density", "--t", "5:1:0.1"], None),
        (["density", "--t", "nan:1:0.1"], None),
        (["density", "--t", "0:1:inf"], None),
        (["density", "--t", "0:inf:0.1"], None),
        (["fixed-points", "--n", "21"], None),
        (["fixed-points", "--n", "40"], None),
        (["lis-table", "--n", "-1..2"], None),
        (["bounds", "--m", "10000000000"], None),
        (["bounds", "--m", "2..100000"], None),
        (["density", "--t", "0:1e7:1e-3"], None),
        (["sample", "--m", "0", "--n", "-1"], None),
        (["cycles-table", "--p", "1000000000000000003", "--n", "1"], None),
        (["moments", "--p", "1000000000000000003", "--k-max", "1"], None),
        (["cycles-table", "--p", "1000000000000000003", "--n", "0"], None),
        (["lis-table", "--n", "1..10000000000"], None),
        (["lis-mc", "--n", "0..100000000"], None),
        (["density", "--t", "1e308:1.7e308:1e308"], None),
        (["moments", "--p", "1099511627689", "--k-max", "54"], None),
        (["fit", "--mode", "exact", "--n", "14..14"], None),
        (["density", "--p", "4"], None),
        (["sample", "--kind", "uniform", "--m", "-2", "--n", "2"], None),
        (["sample", "--kind", "simple", "--m", "1", "--n", "3"], None),
        (["sample", "--kind", "nonsimple", "--n", "-1"], None),
        (["sample", "--kind", "uniform", "--n", "-1"], None),
        (["fit", "--n", "1024..1026"], None),
        (["fit", "--mode", "exact", "--n", "1100..1102"], None),
    ])
    def test_errors_are_one_line(self, tmp_path, monkeypatch, capsys, args, env):
        if env is None:
            monkeypatch.delenv("BUTTERFLYLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("BUTTERFLYLAB_SEED", env)
        (tmp_path / "lis_counts.csv").write_text("n,k,mass,cdf\n1,1,2,1.0\n")
        args = [a.format(tmp=tmp_path) for a in args]
        assert main([*args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("butterflylab: error: ") and err.count("\n") == 1
        # A refused command writes nothing: no data file and no manifest.
        assert [f.name for f in tmp_path.iterdir()] == ["lis_counts.csv"]

    def test_lis_mc_lower_bounds_still_run(self, tmp_path):
        # N = 2^0 = 1, and --trials 0 takes each ensemble's default.
        argv = ["lis-mc", "--ensembles", "uniform,goe", "--n", "0..0", "--trials", "0"]
        out = run_cli(argv, tmp_path)
        rows = (out / "lis_mc.csv").read_text().splitlines()
        assert rows[1:] == ["uniform,1,1,0,1000", "goe,1,1,0,100"]

    def test_fit_from_names_the_missing_column(self, tmp_path, capsys):
        source = tmp_path / "bounds.csv"
        source.write_text("m,mean\n2,0.5\n")
        assert main(["fit", "--from", str(source), "--n", "1..4", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"butterflylab: error: {source} has no 'n' column\n"

    @pytest.mark.parametrize("rows, n, message", [
        ("1024,3\n1025,4\n1026,5\n", "1024..1026", "N = 2^n is past the float range from n = 1024 on"),
        ("3,1\n4\n5,3\n", "3..5", "{source} line 3 lacks an n or a mean"),
        ("3,1\n,2\n5,3\n", "3..5", "{source} line 3 lacks an n or a mean"),
        ("3,1\n4,nan\n5,3\n", "3..5", "N and mean must be positive and finite"),
        ("3,1\n4,inf\n5,3\n", "3..5", "N and mean must be positive and finite"),
    ])
    def test_fit_from_refuses_bad_rows(self, tmp_path, capsys, rows, n, message):
        source = tmp_path / "means.csv"
        source.write_text("n,mean\n" + rows)
        assert main(["fit", "--from", str(source), "--n", n, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"butterflylab: error: {message.format(source=source)}\n"
        assert [f.name for f in tmp_path.iterdir()] == ["means.csv"]

    def test_sample_cap_is_checked_before_building_m_to_the_n(self, tmp_path, capsys):
        # 3^2000000 has about 954,000 digits: it must not be built or printed.
        args = ["sample", "--kind", "simple", "--m", "3", "--n", "2000000", "--out", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"butterflylab: error: m^n = 3^2000000 exceeds the size cap {groups.MATERIALIZE_SIZE_CAP}\n"

    def test_format_only_on_row_writers(self, tmp_path, capsys):
        # fit writes fit.json directly; a --format it would ignore is refused.
        assert main(["fit", "--format", "json", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "butterflylab: error: unrecognized arguments: --format json\n"

    def test_bounds_table(self, tmp_path):
        out = run_cli(["bounds", "--m", "2..11"], tmp_path / "b")
        lines = (out / "bounds.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = {int(l.split(",")[0]): dict(zip(header, l.split(","))) for l in lines[1:]}
        assert abs(float(rows[2]["alpha"]) - 0.58496) < 1e-5
        assert abs(float(rows[2]["beta"]) - 0.89029) < 1e-5
        assert abs(float(rows[2]["beta_star"]) - 0.83255) < 1e-5
        assert rows[2]["n0"] == "3493"
        assert abs(float(rows[11]["beta"]) - 0.90898) < 1e-5

    def test_fit(self, tmp_path):
        out = run_cli(["fit", "--n", "3..12", "--mode", "float"], tmp_path / "c")
        fit = json.loads((out / "fit.json").read_text())
        assert 0.66 < fit["alpha_hat"] < 0.70
        assert fit["r_squared"] > 0.999999

    @pytest.mark.parametrize("n", ["3..12", "3..13"])
    def test_exact_fit_equals_the_ladder_path(self, tmp_path, monkeypatch, n):
        # fit reads E L_n off depth n - 1; the ladder's level n gives the same bytes.
        argv = ["fit", "--mode", "exact", "--n", n]
        got = (run_cli(argv, tmp_path / "mean") / "fit.json").read_bytes()
        monkeypatch.setattr(lis, "nonsimple_lis_mean", lambda k: nonsimple_lis_counts(k).moment(1))
        assert got == (run_cli(argv, tmp_path / "ladder") / "fit.json").read_bytes()

    def test_exact_fit_runs_at_the_cap(self, tmp_path, capsys):
        fit = json.loads((run_cli(["fit", "--mode", "exact", "--n", "11..13"], tmp_path) / "fit.json").read_text())
        assert fit["n_values"] == [11, 12, 13]
        assert main(["fit", "--mode", "exact", "--n", "14..14", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "butterflylab: error: m^n = 2^14 exceeds the exact cap 8192\n"

    def test_exact_fit_builds_no_level_above_n_minus_one(self, tmp_path):
        # A fresh process, so no memoized level hides a product. The two
        # products behind depth 12 multiply 4.2M-bit operands, 8.4M bits
        # together, the ones behind depth 11 2.1M bits together: the first
        # are never formed, and the ladder stops at depth 11.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("from butterflylab import cli, lis, pmf\n"
                "bits = []\n"
                "multiply = pmf._multiply\n"
                "def counting(x, y):\n"
                "    bits.append(x.bit_length() + y.bit_length())\n"
                "    return multiply(x, y)\n"
                "pmf._multiply = counting\n"
                f"assert cli.main(['fit', '--mode', 'exact', '--n', '3..12', '--out', {str(tmp_path)!r}]) == 0\n"
                "assert bits and max(bits) < 2**22, max(bits)\n"
                "assert len(lis._LADDER._levels['exact', 2]) == 12\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cycles_table(self, tmp_path):
        out = run_cli(["cycles-table", "--p", "3", "--n", "1..2"], tmp_path / "d")
        lines = (out / "cycle_counts.csv").read_text().splitlines()
        got = [l.split(",") for l in lines[1:] if l.split(",")[1] == "2"]
        assert [int(r[3]) for r in got] == [36, 26, 12, 6, 1]

    def test_moments(self, tmp_path):
        out = run_cli(["moments", "--p", "2", "--k-max", "6"], tmp_path / "e")
        data = json.loads((out / "moments.json").read_text())
        m6 = next(d for d in data if d["k"] == 6)
        assert Fraction(int(m6["numerator"]), int(m6["denominator"])) == Fraction(40435712, 2345265)

    def test_moments_past_the_double_range(self, tmp_path):
        # At the largest admitted prime m_k passes 1.8e308 from k = 26 on.
        out = run_cli(["moments", "--p", "1099511627689", "--k-max", "30"], tmp_path / "big")
        data = json.loads((out / "moments.json").read_text())
        assert [d["float"] is None for d in data] == [k >= 26 for k in range(31)]
        assert all(d["float"] == float(Fraction(int(d["numerator"]), int(d["denominator"])))
                   for d in data[:26])

    def test_moments_past_the_int_to_str_limit(self, tmp_path):
        # m_136 of the p = 2 law has a numerator of more than 4300 digits.
        limit = sys.get_int_max_str_digits()
        out = run_cli(["moments", "--p", "2", "--k-max", "136"], tmp_path / "e136")
        assert sys.get_int_max_str_digits() == limit
        data = json.loads((out / "moments.json").read_text())
        assert len(data) == 137
        assert data[6]["numerator"] == "40435712" and data[6]["denominator"] == "2345265"
        assert len(data[136]["numerator"]) > 4300 and data[136]["numerator"].isdigit()

    def test_moments_heptanary_to_thirty(self, tmp_path):
        # k = 30 at p = 7 has about 1.9 million compositions into 7 parts;
        # the power rule needs 29 terms for it.
        out = run_cli(["moments", "--p", "7", "--k-max", "30"], tmp_path / "e7")
        data = json.loads((out / "moments.json").read_text())
        assert [d["k"] for d in data] == list(range(31))
        m2 = data[2]
        assert Fraction(int(m2["numerator"]), int(m2["denominator"])) == Fraction(49, 13)
        assert all(d["p"] == 7 and d["float"] > 0 for d in data)

    def test_density_past_the_double_range(self, tmp_path, capsys):
        # t = 0 lies below the atom 1, and from t = 1e307 on t lam^20 is inf, past
        # the largest atom 2^20: f = 0 on every row, with no OverflowError.
        out = run_cli(["density", "--p", "2", "--n", "20", "--t", "0:1e308:1e307"], tmp_path)
        with (out / "density.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["t", "f"] and len(rows) == 11
        assert all(float(f) == 0.0 for _, f in rows)
        assert capsys.readouterr().err == ""

    def test_density_and_fixed_points(self, tmp_path):
        out = run_cli(["density", "--p", "2", "--n", "10", "--t", "0.5:1.5:0.5"], tmp_path / "f")
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0] == "t,f" and len(lines) == 4
        out = run_cli(["fixed-points", "--m", "2,3", "--n", "4"], tmp_path / "g")
        lines = (out / "fixed_points.csv").read_text().splitlines()
        assert lines[0] == "m,n,p_no_fixed_point,p_no_fixed_point_float,x_star"
        row2 = lines[1].split(",")
        assert row2[2] == str(Fraction(no_fp_2_4_num(), 2**16))

    @pytest.mark.parametrize("m, n", [(7, 6), (2, 14)])
    def test_fixed_points_past_the_digit_limit(self, tmp_path, m, n):
        # Denominators of 16,571 and 4,933 digits: past Python's default
        # 4300-digit limit on int-to-str conversion, in both directions.
        out = run_cli(["fixed-points", "--m", str(m), "--n", str(n)], tmp_path)
        row = (out / "fixed_points.csv").read_text().splitlines()[1].split(",")
        with cli._unlimited_int_digits():
            assert Fraction(row[2]) == cycles.no_fixed_point_prob(m, n)

    def test_sample_deterministic(self, tmp_path):
        a = run_cli(["sample", "--kind", "nonsimple", "--n", "3", "--trials", "5", "--seed", "7"],
                    tmp_path / "h1")
        b = run_cli(["sample", "--kind", "nonsimple", "--n", "3", "--trials", "5", "--seed", "7"],
                    tmp_path / "h2")
        assert (a / "permutations.txt").read_bytes() == (b / "permutations.txt").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_sample_lines_are_the_permutations(self, tmp_path):
        # One line per trial, each the permutation's text; no trials write one
        # empty line. The size check refuses before the file is opened.
        out = run_cli(["sample", "--kind", "nonsimple", "--n", "4", "--trials", "3", "--seed", "5"],
                      tmp_path / "s")
        perms = [groups.materialize(groups.sample_nonsimple(2, 4, substream(5, t))) for t in range(3)]
        assert (out / "permutations.txt").read_text() == "".join(p.to_text() + "\n" for p in perms)
        out = run_cli(["sample", "--trials", "0"], tmp_path / "z")
        assert (out / "permutations.txt").read_bytes() == b"\n"
        assert main(["sample", "--n", "27", "--out", str(tmp_path / "big")]) == 2
        assert not (tmp_path / "big" / "permutations.txt").exists()

    def test_moments_k_max_cap(self, tmp_path, capsys):
        for p in (2, 3, 5, 7, 31, 65537, 1099511627689):
            cap, bits = cli._k_max_cap(p), p.bit_length()
            assert cap**3 * bits <= cli.MOMENTS_MAX_WORK < (cap + 1) ** 3 * bits
        # Every --k-max of perfbench and of these tests is admitted.
        assert cli._k_max_cap(5) >= 22 and cli._k_max_cap(7) >= 30 and cli._k_max_cap(2) >= 136
        assert (cli._k_max_cap(2), cli._k_max_cap(1099511627689)) == (146, 53)
        for p, k in ((2, 147), (1099511627689, 54)):
            assert main(["moments", "--p", str(p), "--k-max", str(k), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (
                f"butterflylab: error: --k-max {k} exceeds the cap {k - 1} at p = {p}\n")

    def test_lis_mc_small(self, tmp_path):
        out = run_cli(["lis-mc", "--ensembles", "uniform,ns-scalar,goe", "--n", "3..4",
                       "--trials", "50", "--seed", "3"], tmp_path / "i")
        lines = (out / "lis_mc.csv").read_text().splitlines()
        assert lines[0] == "ensemble,N,sample_mean,sample_std,trials"
        assert len(lines) == 1 + 3 * 2

    def test_lis_mc_all_ensembles_and_determinism(self, tmp_path):
        args = ["lis-mc", "--n", "3", "--trials", "8", "--seed", "11"]
        a = run_cli(args, tmp_path / "j1")
        b = run_cli(args, tmp_path / "j2")
        assert (a / "lis_mc.csv").read_bytes() == (b / "lis_mc.csv").read_bytes()
        lines = (a / "lis_mc.csv").read_text().splitlines()
        assert len(lines) == 9  # all eight ensembles at one size
        for line in lines[1:]:
            mean = float(line.split(",")[2])
            assert 1.0 <= mean <= 8.0

    @pytest.mark.parametrize("budget", [64, cli.BATCH_ENTRIES])
    def test_lis_mc_batches_match_per_trial_loop(self, tmp_path, monkeypatch, budget):
        # At budget 64 the chunks hold 16, 4 and 1 matrices at N = 2, 4, 8:
        # boundaries fall inside a row and the last chunk of N = 4 is partial.
        monkeypatch.setattr(cli, "BATCH_ENTRIES", budget)
        out = run_cli(["lis-mc", "--n", "1..3", "--trials", "10", "--seed", "4"], tmp_path / "b")
        rows = []
        for e, ens in enumerate(cli.ENSEMBLES):
            for n in (1, 2, 3):
                N = 2**n
                vals = []
                for t in range(10):
                    rng = substream(4, e, N, t)
                    if ens == "uniform":
                        perm = fisher_yates(N, rng)
                    elif ens in ("bs-scalar", "ns-scalar"):
                        sample = groups.sample_simple if ens == "bs-scalar" else groups.sample_nonsimple
                        perm = groups.materialize(sample(2, n, rng))
                    else:
                        if ens in ("bs-diag", "ns-diag"):
                            shape = "simple" if ens == "bs-diag" else "nonsimple"
                            A = gepp.build_butterfly(gepp.sample_spec("diagonal", shape, N, rng))
                        else:
                            A = gepp.ensemble_sample(ens, N, rng)
                        perm = Permutation(gepp.gepp_perm_batch(A[None])[0])
                    vals.append(lis.lis(perm))
                vals = np.array(vals, dtype=float)
                rows.append((ens, N, float(vals.mean()), float(vals.std(ddof=1)), 10))
        (tmp_path / "ref").mkdir()
        ref = cli._write_rows(tmp_path / "ref", "lis_mc",
                              ["ensemble", "N", "sample_mean", "sample_std", "trials"], rows, "csv")
        assert (out / "lis_mc.csv").read_bytes() == ref.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BUTTERFLYLAB_SEED", "12345")
        out = run_cli(["sample", "--kind", "simple", "--n", "2", "--trials", "2"], tmp_path / "j")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 12345
        assert manifest["seed_source"] == "env"

    def test_verify_passes(self, tmp_path, capsys):
        for seed in range(5):
            assert main(["verify", "--seed", str(seed), "--out", str(tmp_path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 16 and all(line.startswith("ok   ") for line in lines)
            for name in ("simple-lds-law", "simple-cycle-law", "simple-cd-law",
                         "moment-polynomials", "fixed-points", "w-monte-carlo"):
                assert f"ok   {name}" in lines

    def test_verify_failure_exits_1_and_still_writes_the_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_verify_checks", lambda seed: [("ok-check", lambda: True),
                                                                 ("bad-check", lambda: False)])
        assert main(["verify", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out == "ok   ok-check\nFAIL bad-check\n"
        assert json.loads((tmp_path / "manifest.json").read_text())["command"] == "verify"

    @pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
    def test_manifest_records_the_subcommands_flags(self, tmp_path, capsys, argv):
        run_cli(argv, tmp_path)
        capsys.readouterr()
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest for a in subparsers.choices[argv[0]]._actions if a.option_strings}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert set(manifest["parameters"]) == flags - {"help", "seed", "out", "format"}

    def test_lis_mc_manifest_records_the_expanded_ensembles(self, tmp_path):
        args = ["lis-mc", "--n", "2", "--trials", "2"]
        runs = [args, [*args, "--ensembles", ""], [*args, "--ensembles", ",".join(cli.ENSEMBLES)]]
        manifests = {(run_cli(argv, tmp_path / str(i)) / "manifest.json").read_bytes()
                     for i, argv in enumerate(runs)}
        assert len(manifests) == 1
        assert json.loads(manifests.pop())["parameters"]["ensembles"] == ",".join(cli.ENSEMBLES)

    def test_census_comparison_is_exact(self):
        census = cli._census(2, 3, False, lis.lis)
        pmf = nonsimple_lis_counts(3)
        assert cli._is_law(census, pmf)
        moved = census.copy()
        moved[2] -= 1
        moved[3] += 1
        assert not cli._is_law(moved, pmf)
        outside = census.copy()
        outside[9] += 1
        outside[1] -= 1
        assert not cli._is_law(outside, pmf)

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # The library imports no scipy module, and importing the CLI loads
        # no numpy.fft either: that is left to pmf._fft_convolve, the one
        # FFT convolution behind the big-integer multiply and the float
        # ladders.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, butterflylab.cli; "
                "loaded = {'scipy.signal', 'scipy.special', 'scipy.linalg', 'numpy.fft'} & set(sys.modules); "
                "assert not loaded, loaded")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_float_fft_ladders_leave_scipy_signal_unloaded(self, tmp_path):
        # fit and density at depth 14 take the FFT branch of
        # pmf.float_convolve, which runs on numpy.fft.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, butterflylab.cli as c; "
                f"c.main(['fit', '--mode', 'float', '--n', '12..14', '--out', {str(tmp_path / 'f')!r}]); "
                f"c.main(['density', '--p', '2', '--n', '14', '--out', {str(tmp_path / 'd')!r}]); "
                "assert 'numpy.fft' in sys.modules; "
                "assert 'scipy.signal' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "f" / "fit.json").read_text())["n_values"] == [12, 13, 14]
        assert (tmp_path / "d" / "density.csv").is_file()

    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        # The manifest reads scipy's version from scipy/version.py, so the
        # import and the subcommands load no scipy module: verify, and
        # lis-mc at N = 512, whose real stacks take numpy's LAPACK dgetrf.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, butterflylab.cli as c; "
                "assert 'scipy' not in sys.modules; "
                f"c.main(['bounds', '--m', '2', '--out', {str(tmp_path / 'b')!r}]); "
                f"c.main(['verify', '--out', {str(tmp_path / 'v')!r}]); "
                "c.main(['lis-mc', '--ensembles', 'goe,ns-diag', '--n', '9..9', '--trials', '1', "
                f"'--out', {str(tmp_path / 'mc')!r}]); "
                "assert 'scipy' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        import scipy

        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__

    def test_rows_match_csv_writer(self, tmp_path):
        header = ["big", "fraction", "float", "negative", "blank"]
        rows = [(3**9000, Fraction(-2**200, 3**150), 0.1, -2.5e-300, ""),
                (0, Fraction(1, 2), 1e300, -0.0, ""),
                (-7, Fraction(5), np.float64(6.5e-27), float("-inf"), "")]
        with cli._unlimited_int_digits():
            path = cli._write_rows(tmp_path, "rows", header, rows, "csv")
            assert path.read_bytes() == csv_writer_bytes(header, rows)

    @pytest.mark.parametrize("argv", [
        ["lis-table", "--n", "1..6"],
        ["lis-table", "--m", "3", "--mode", "float", "--n", "1..4"],
        ["lis-mc", "--ensembles", "uniform,goe", "--n", "2..3", "--trials", "3"],
        ["bounds", "--m", "2..5"],
        ["cycles-table", "--p", "3", "--n", "1..4"],
        ["cycles-table", "--p", "2", "--mode", "float", "--n", "1..6"],
        ["density", "--p", "2", "--n", "8"],
        ["fixed-points", "--m", "2..4", "--n", "3"],
        ["cycles-table", "--p", "2", "--mode", "float", "--n", "14..14"],  # rows end before k = 2^14
        ["lis-table", "--mode", "float", "--n", "14..14"],  # rows start at k = 69
    ])
    def test_subcommand_rows_match_csv_writer(self, tmp_path, argv):
        args = cli.build_parser().parse_args(argv)
        files = args.fn(args, 0)
        assert files
        for name, (header, rows) in files.items():
            path = cli._write_rows(tmp_path, name, header, rows, "csv")
            assert path.read_bytes() == csv_writer_bytes(header, rows)

    def test_float_outputs_match_the_benchmark_reference(self, tmp_path):
        # The float fit and density the benchmark checks, to its 1e-9
        # relative tolerance. Trimming the ladder tails at 1e-12 of the peak
        # instead of pmf.TRIM_FLOOR moves density.csv past it at t = 3.95, 4.
        reference = json.loads(REFERENCE.read_text())["float"]
        argv = ["fit", "--mode", "float", "--n", "3..20"]
        got = json.loads((run_cli(argv, tmp_path / "fit") / "fit.json").read_text())
        want = reference[" ".join(argv) + "/fit.json"]
        assert got.keys() == want.keys() and got["n_values"] == want["n_values"]
        for key in ("alpha_hat", "intercept", "r_squared"):
            assert math.isclose(got[key], want[key], rel_tol=1e-9), key
        argv = ["density", "--p", "2", "--n", "20"]
        with (run_cli(argv, tmp_path / "density") / "density.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        want = reference[" ".join(argv) + "/density.csv"]
        assert header == want["header"] and len(rows) == len(want["rows"])
        for row, want_row in zip(rows, want["rows"]):
            assert all(math.isclose(float(v), w, rel_tol=1e-9) for v, w in zip(row, want_row)), row

    @pytest.mark.parametrize("module, base, n",
                             [(cycles, 2, 14), (cycles, 3, 9), (lis, 2, 14), (lis, 3, 8)],
                             ids=["cycles-p2", "cycles-p3", "lis-m2", "lis-m3"])
    def test_float_tables_write_only_the_window(self, tmp_path, module, base, n):
        # The rows the zero-filled law wrote, less its zero rows outside the window.
        window = module._LADDER.level(base, n, "float")
        masses = zero_filled(module, base, n)
        if module is lis:
            argv = ["lis-table", "--m", str(base)]
            name, header = "lis_counts", ["n", "k", "mass", "cdf"]
            first, last = window.offset, window.offset + len(window.masses) - 1
            rows, cdf = [], 0.0
            for k, mass in enumerate(masses, 1):
                cdf += float(mass)
                rows.append((n, k, mass, cdf))
        else:
            argv = ["cycles-table", "--p", str(base)]
            name, header = "cycle_counts", ["p", "n", "k", "mass"]
            first = 1 + (base - 1) * window.offset
            last = first + (base - 1) * (len(window.masses) - 1)
            rows = [(base, n, k, mass) for k, mass in enumerate(masses, 1)
                    if (k - 1) % (base - 1) == 0]
        old = cli._write_rows(tmp_path, name, header, rows, "csv").read_bytes().split(b"\r\n")
        inside = [first <= row[header.index("k")] <= last for row in rows]
        assert all(line.split(b",")[header.index("mass")] == b"0"
                   for line, keep in zip(old[1:], inside) if not keep)
        assert not all(inside)  # the zero-filled table had rows to drop
        got = run_cli([*argv, "--mode", "float", "--n", str(n)], tmp_path / "new") / f"{name}.csv"
        kept = [line for line, keep in zip(old[1:], inside) if keep]
        assert got.read_bytes() == b"\r\n".join([old[0], *kept, b""])

    def test_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "butterflylab.cli", "bounds", "--m", "2",
             "--out", str(tmp_path / "k")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


def no_fp_2_4_num():
    # h iterate at depth 4 over denominator 2^16: p4 = 48621/65536
    x = Fraction(0)
    for _ in range(4):
        x = Fraction(1, 2) + Fraction(1, 2) * x * x
    assert x.denominator == 2**16 or (2**16 % x.denominator == 0)
    return x.numerator * (2**16 // x.denominator)

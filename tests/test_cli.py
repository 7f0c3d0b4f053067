import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nsdensity import cli, constants, enumeration, verify
from nsdensity.constants import cache_load
from nsdensity.core import DSet
from nsdensity.limits import decimal_str, gamma, gamma_lower_bound, tail_bound

ROOT = Path(__file__).resolve().parents[1]
CACHE_PATH = str(ROOT / "nsdensity.cache")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--f", "9")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "f = 9: 21 semigroups, 256 numerical sets"
        assert lines[-1] == "sum P(S) = 256 = 2^8: ok"
        assert len(lines) == 21 + 4  # intro, header, rule, footer

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--f", "9", "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "d,m,r,p,mu,mu_decimal"
        assert len(lines) == 1 + 21 + 1
        assert lines[-1].startswith("TOTAL,")
        assert ",256," in lines[-1]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--f", "9", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["semigroups"] == 21
        assert doc["sum_p"] == 256 and doc["sum_identity_ok"] is True
        assert len(doc["rows"]) == 21
        top = doc["rows"][0]
        assert top["d"] == "∅" and top["p"] == "140"

    def test_smallest_f(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--f", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["semigroups"] == 1 and doc["sum_p"] == 1


class TestGamma:
    def test_shipped_cache_value(self, capsys):
        code, out, _ = run(
            capsys, "gamma", "--d", "", "--depth", "15",
            "--cache", CACHE_PATH, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value_decimal"] == "0.48990"
        assert doc["interval_decimal"]["lo"] == "0.47654"
        assert doc["a_d"] == 1 and len(doc["terms"]) == 15
        assert doc["positivity_bound"] is None

    def test_small_depth_text(self, capsys):
        code, out, _ = run(capsys, "gamma", "--d", "1", "--depth", "2")
        assert code == 0
        assert "value     = 3/16" in out
        assert "positivity: gamma_D >= a_t/2^(t+1) = 7/384" in out

    def test_empty_d_text_mentions_no_bound(self, capsys):
        code, out, _ = run(capsys, "gamma", "--d", "", "--depth", "2")
        assert code == 0
        assert "no structural bound" in out

    def test_csv_row(self, capsys):
        code, out, _ = run(
            capsys, "gamma", "--d", "1,3", "--depth", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 2
        assert lines[1].startswith('"1,3",3,3/64,')


class TestTable:
    def test_leading_rows(self, capsys):
        code, out, _ = run(
            capsys, "table", "--max-t", "4", "--depth", "15",
            "--cache", CACHE_PATH, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["d"] for r in doc["rows"][:5]] == ["∅", "1", "2", "3", "1,3"]
        assert len(doc["rows"]) == 16
        assert doc["distinct_pairs"] + doc["inconclusive_pairs"] == 16 * 15 // 2

    @pytest.mark.parametrize("max_t, depth", [(8, 15), (6, 8), (2, 2), (1, 1), (0, 0)])
    def test_rows_equal_the_fraction_route(self, max_t, depth):
        # each row rendered from gamma(D)'s Fraction intervals, as the
        # table rendered them before its integer route; at depth 1 the
        # bound 7/384 lies far inside its grid cell [0, 1/4]
        cache = cache_load(CACHE_PATH)
        ests = sorted(
            (gamma(DSet(m), depth, cache) for m in range(1 << max_t)),
            key=lambda g: (-g.value, g.d.elements),
        )
        want = [
            [
                g.d.key, decimal_str(g.value), decimal_str(g.interval.lo),
                decimal_str(g.interval.hi), decimal_str(g.refined_interval.lo),
                decimal_str(gamma_lower_bound(g.d.max_element)) if g.d.mask else "",
            ]
            for g in ests
        ]
        args = cli.build_parser().parse_args(
            ["table", "--max-t", str(max_t), "--depth", str(depth), "--cache", CACHE_PATH]
        )
        assert cli.cmd_table(args).rows == want

    def test_text_footer(self, capsys):
        code, out, _ = run(
            capsys, "table", "--max-t", "2", "--depth", "6"
        )
        assert code == 0
        assert "distinctness:" in out


class TestAlpha:
    def test_n2_overlaps_reference_band(self, capsys):
        code, out, _ = run(
            capsys, "alpha", "--n", "2", "--depth", "15",
            "--cache", CACHE_PATH, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        lo = Fraction(doc["interval"]["lo"])
        hi = Fraction(doc["interval"]["hi"])
        assert lo <= Fraction("0.08186") and Fraction("0.07338") <= hi
        assert [c["d"] for c in doc["components"]] == ["2", "1,2"]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "alpha", "--n", "-1", "--depth", "3")
        assert code == 0
        assert "alpha_-1" in out and "components (1):" in out

    def test_summands_share_one_tail(self, capsys):
        # 2^(n-1) summands, one tail: the collapse is the whole point
        code, out, _ = run(
            capsys, "alpha", "--n", "3", "--depth", "6", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [c["d"] for c in doc["components"]] == ["3", "1,3", "2,3", "1,2,3"]
        lo, hi = Fraction(doc["interval"]["lo"]), Fraction(doc["interval"]["hi"])
        assert hi - lo == tail_bound(6)
        assert hi == Fraction(doc["value"]) == sum(
            Fraction(c["value"]) for c in doc["components"]
        )


def test_dyadic_reducer_writes_what_str_writes():
    # zero, negative and odd numerators included
    for e in range(8):
        for p in range(-300, 301):
            assert cli._dyadic(p, e) == str(Fraction(p, 1 << e)), (p, e)


class TestGLimit:
    def test_small(self, capsys):
        code, out, _ = run(
            capsys, "glimit", "--l", "1", "--depth", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lo"] == "5/64" and doc["hi"] == "11/64"
        assert [c["c"] for c in doc["c_constants"]] == [1, 1, 1]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "glimit", "--l", "1", "--depth", "4")
        assert code == 0
        assert "C_(1,k) for k <= 4: 1, 1, 1, 3" in out


class TestVerify:
    def test_window_restrict_matches_direct(self):
        f = 14
        wide = enumeration.window_counts(f, 5)
        for t in range(6):
            direct = enumeration.window_counts(f, t)
            assert np.array_equal(verify._window_restrict(wide, 5, t), direct)

    def test_window_restrict_validation(self):
        with pytest.raises(ValueError):
            verify._window_restrict(np.zeros(8, dtype=np.int64), 3, 4)

    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        assert "0 failed" in lines[-1]

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "oracle", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_all_suites_pass_at_default_scale(self, capsys):
        code, out, err = run(capsys, "verify", "--cache", CACHE_PATH)
        assert (code, err) == (0, "")
        assert "[FAIL]" not in out
        assert out.rstrip("\n").split("\n")[-1].endswith(" 0 failed")

    def test_report_runs_each_check_once(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--cache", CACHE_PATH, "--format", "json"
        )
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        # the same check at two scales counts twice: compare bare names
        bare = [n.split("(")[0] for n in names]
        assert len(bare) == len(set(bare)) == 28
        assert "series-engine(t<=3,depth=10)" in names
        # no check restates a fact enforced where the data enters
        deleted = ("a-bounds", "a-sum-identity", "sum-preimages", "alpha-width")
        assert not [n for n in names if n.startswith(deleted)]
        assert [n for n in names if n.startswith("c-unit-range")] == [
            "c-unit-range(l<=5)"
        ]
        assert [n for n in names if n.startswith("preimage-identity")] == [
            "preimage-identity(f=14,t<=3)"
        ]

    def test_a_check_that_raises_is_a_fail_line(self, capsys, monkeypatch):
        # the sweep refuses its table inside amap-sweep; that check alone
        # fails, with the refusal as its detail, and every other line prints
        real = verify.density_table

        def refused(f, **kwargs):
            if f == 14:
                raise ValueError("{0, 7, 15->} is not closed under addition")
            return real(f, **kwargs)

        monkeypatch.setattr(verify, "density_table", refused)
        code, out, err = run(capsys, "verify", "--suite", "core", "--cache", CACHE_PATH)
        lines = out.rstrip("\n").split("\n")
        assert (code, err) == (1, "")
        assert lines[2] == (
            "[FAIL] amap-sweep(f=14,chunk=32): {0, 7, 15->} is not closed under addition"
        )
        assert [line.split("(")[0] for line in lines[:4]] == [
            "[PASS] amap-exhaustive", "[PASS] amap-random", "[FAIL] amap-sweep",
            "[PASS] encode-roundtrip",
        ]
        assert lines[4] == "4 checks, 3 passed, 1 failed"

    def test_cache_consistency_resweeps_every_loaded_level(self, capsys, tmp_path):
        # one count moved from A_{1,2,15} to A_{2,15} keeps the level rule,
        # so the file loads; only the re-sweep of level 15 can refuse it
        text = Path(CACHE_PATH).read_text(encoding="utf-8")
        a, b = (int(re.search(rf"^A\|{key}\|(\d+)$", text, re.M)[1])
                for key in ("2,15", "1,2,15"))
        swap = tmp_path / "swap.cache"
        swap.write_text(
            text.replace(f"\nA|2,15|{a}\n", f"\nA|2,15|{a + 1}\n")
            .replace(f"\nA|1,2,15|{b}\n", f"\nA|1,2,15|{b - 1}\n"),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "verify", "--suite", "constants", "--cache", str(swap))
        assert (code, err) == (1, "")
        assert (
            f"[FAIL] cache-consistency: A[2,15] recomputed as {a}, cached {a + 1}\n"
        ) in out
        code, out, _ = run(capsys, "verify", "--suite", "constants", "--cache", CACHE_PATH)
        assert code == 0
        assert "cache-consistency: 32767 re-swept A and 15 re-swept C match" in out

    def test_cache_consistency_names_a_differing_c(self, capsys, tmp_path):
        text = Path(CACHE_PATH).read_text(encoding="utf-8")
        assert "\nC|2,8|36\n" in text
        bad = tmp_path / "bad.cache"
        bad.write_text(text.replace("\nC|2,8|36\n", "\nC|2,8|35\n"), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--suite", "constants", "--cache", str(bad))
        assert code == 1
        assert "[FAIL] cache-consistency: C[2,8] recomputed as 36, cached 35\n" in out

    def test_cache_consistency_checks_a_c_only_cache(self, capsys, tmp_path):
        # glimit --write-cache into a new path writes C records and no A level
        path = tmp_path / "c.cache"
        code, _, _ = run(
            capsys, "glimit", "--l", "1", "--depth", "9", "--cache", str(path),
            "--write-cache",
        )
        text = path.read_text(encoding="utf-8")
        assert code == 0 and "A|" not in text and "\nC|1,6|17\n" in text
        code, out, _ = run(capsys, "verify", "--suite", "constants", "--cache", str(path))
        assert code == 0
        assert "[PASS] cache-consistency: 0 re-swept A and 6 re-swept C match the cache\n" in out
        path.write_text(text.replace("\nC|1,6|17\n", "\nC|1,6|18\n"), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--suite", "constants", "--cache", str(path))
        assert code == 1
        assert "[FAIL] cache-consistency: C[1,6] recomputed as 17, cached 18\n" in out

    def test_shallow_written_cache_passes_every_check(self, capsys, tmp_path):
        # levels 1 and 2 only: the limits and convergence checks read Max(D)
        # up to 3 and G_1 at depth 2l+1 = 3, so they sweep level 3 themselves
        path = str(tmp_path / "shallow.cache")
        code, _, _ = run(
            capsys, "gamma", "--d", "1", "--depth", "2", "--cache", path, "--write-cache"
        )
        assert code == 0 and cache_load(path).a_depth() == 2
        code, out, err = run(capsys, "verify", "--cache", path)
        lines = out.rstrip("\n").split("\n")
        assert (code, err) == (0, "")
        assert [line for line in lines[:-1] if not line.startswith("[PASS] ")] == []
        assert lines[-1] == "28 checks, 28 passed, 0 failed"

    @pytest.mark.parametrize("max_f", range(1, 8))
    @pytest.mark.parametrize("suite", ["core", "convergence"])
    def test_small_max_f_completes(self, capsys, suite, max_f):
        # below a suite's floor the floor is used; mu-drift may honestly
        # FAIL at f = 7, which is a check result, not a crash
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--max-f", str(max_f),
            "--cache", CACHE_PATH,
        )
        assert "internal inconsistency" not in err
        last = out.rstrip("\n").split("\n")[-1]
        assert re.fullmatch(r"\d+ checks, \d+ passed, \d+ failed", last)
        assert code == (0 if last.endswith(" 0 failed") else 1)


def test_only_verify_imports_the_suites(tmp_path):
    script = "; ".join([
        "import sys",
        "import nsdensity",
        "assert 'nsdensity.verify' not in sys.modules, 'nsdensity'",
        "import nsdensity.cli",
        "assert 'nsdensity.verify' not in sys.modules, 'nsdensity.cli'",
        "assert nsdensity.cli.main(['verify', '--suite', 'oracle']) == 0",
        "assert 'nsdensity.verify' in sys.modules, 'verify'",
    ])
    env = {k: v for k, v in os.environ.items() if k != "NSDENSITY_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2 and "usage error" in err

    def test_enum_budget(self, capsys):
        code, _, err = run(capsys, "enumerate", "--f", "40")
        assert code == 2 and "budget error" in err

    def test_verify_max_f_beyond_the_budget(self, capsys):
        code, out, err = run(capsys, "verify", "--max-f", "31")
        assert (code, out) == (2, "")
        assert err == "usage error: --max-f must lie in [1, 30], the enumeration budget\n"

    def test_depth_budget(self, capsys):
        code, _, err = run(capsys, "gamma", "--d", "1", "--depth", "20")
        assert code == 2 and "budget error" in err

    @pytest.mark.parametrize("argv, message", [
        (["gamma", "--d", "1", "--depth", "16"], "--depth 16 exceeds depth budget 15"),
        (["enumerate", "--f", "31"],
         "--f 31 exceeds enumeration budget 30: its sweep visits 2^30 sets"),
        # at even f the dual halves the sweep
        (["enumerate", "--f", "32"],
         "--f 32 exceeds enumeration budget 30: its sweep visits 2^30 sets"),
        (["enumerate", "--f", "12", "--enum-budget", "9"],
         "--f 12 exceeds enumeration budget 9: its sweep visits 2^10 sets"),
        (["enumerate", "--f", "11", "--enum-budget", "9"],
         "--f 11 exceeds enumeration budget 9: its sweep visits 2^10 sets"),
        # the cost is stated without building the count of sets
        (["enumerate", "--f", "100000000000"],
         "--f 100000000000 exceeds enumeration budget 30: "
         "its sweep visits 2^99999999998 sets"),
    ])
    def test_budget_refused_before_any_sweep(self, capsys, monkeypatch,
                                             argv, message):
        # one past each default budget: the CLI alone refuses, so no
        # sweep of either kind may start
        def no_sweep(size, *args, **kwargs):
            raise AssertionError(f"sweep at {size} started")

        monkeypatch.setattr(enumeration, "_slice_table", no_sweep)
        monkeypatch.setattr(enumeration, "_flat_groups", no_sweep)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"budget error: {message}\n"

    def test_raised_depth_budget_is_not_refused_below_the_cli(self, capsys,
                                                              tmp_path):
        code, out, err = run(
            capsys, "gamma", "--d", "1", "--depth", "16", "--depth-budget", "16",
            "--cache", str(tmp_path / "empty.cache"),
        )
        assert (code, err) == (0, "")
        assert out.startswith("gamma_D for D = 1, truncated at depth 16\n")

    @pytest.mark.parametrize("argv, message", [
        (["gamma", "--d", "32", "--depth", "32", "--depth-budget", "32"],
         "--depth must be <= 31, the deepest top slice"),
        (["gamma", "--d", "1", "--depth", "32", "--depth-budget", "32"],
         "--depth must be <= 31, the deepest top slice"),
        (["glimit", "--l", "1", "--depth", "32", "--depth-budget", "32"],
         "--depth must be <= 31, the deepest top slice"),
        (["gamma", "--d", "1", "--depth", "-1"], "--depth must be >= 0"),
        # the other refusals of cli.validate, each before any sweep too
        (["gamma", "--d", "1", "--depth", "3", "--depth-budget", "0"],
         "--depth-budget must be >= 1"),
        (["enumerate", "--f", "9", "--enum-budget", "0"],
         "--enum-budget must lie in [1, 63]"),
        (["enumerate", "--f", "9", "--enum-budget", "64"],
         "--enum-budget must lie in [1, 63]"),
        (["enumerate", "--f", "0"], "--f must be >= 1"),
        (["gamma", "--d", "1,9", "--depth", "8"], "--depth 8 below Max(D) = 9"),
        (["table", "--max-t", "9", "--depth", "8"], "--max-t must lie in [0, depth]"),
        (["glimit", "--l", "0"], "--l must be >= 1"),
        (["glimit", "--l", "2", "--depth", "4"], "--depth must be >= 2l+1 = 5"),
    ])
    def test_depth_beyond_the_deepest_top_slice(self, capsys, monkeypatch,
                                                argv, message):
        # refused before any sweep: none may start, however small
        def no_sweep(digits, forced=0):
            raise AssertionError(f"top-slice table of {len(digits)} digits built")

        def no_flat_sweep(size, *args, **kwargs):
            raise AssertionError(f"flat sweep at {size} started")

        monkeypatch.setattr(enumeration, "_slice_table", no_sweep)
        monkeypatch.setattr(enumeration, "_flat_groups", no_flat_sweep)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"usage error: {message}\n"

    def test_unsorted_d(self, capsys):
        code, _, err = run(capsys, "gamma", "--d", "3,1", "--depth", "5")
        assert code == 2 and "usage error" in err

    def test_alpha_n_zero(self, capsys):
        code, _, err = run(capsys, "alpha", "--n", "0", "--depth", "5")
        assert code == 2

    def test_alpha_n_above_depth(self, capsys):
        code, _, err = run(capsys, "alpha", "--n", "5", "--depth", "3")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["gamma", "--d", "1", "--depth", "3", "--enum-budget", "5"],
        ["enumerate", "--f", "9", "--depth-budget", "5"],
        ["verify", "--suite", "oracle", "--write-cache"],
        ["verify", "--suite", "oracle", "--enum-budget", "40"],
        ["verify", "--suite", "oracle", "--workers", "2"],
    ])
    def test_flag_the_subcommand_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unreadable_cache_path(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "gamma", "--d", "1", "--depth", "3", "--cache", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert err == f"usage error: cannot read cache {tmp_path}: Is a directory\n"

    def test_unwritable_cache_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.cache"
        code, out, err = run(
            capsys, "gamma", "--d", "1", "--depth", "3", "--cache", str(path),
            "--write-cache",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: cannot write cache {path}: No such file or directory\n"
        )

    def test_corrupt_cache_is_inconsistency(self, capsys, tmp_path):
        bad = tmp_path / "bad.cache"
        bad.write_text("A|1|7\n", encoding="utf-8")  # truth is 1
        code, _, err = run(
            capsys, "gamma", "--d", "1", "--depth", "3", "--cache", str(bad)
        )
        assert code == 1 and "internal inconsistency" in err


class TestDeterminismAndCache:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--f", "9"],
        ["gamma", "--d", "1,3", "--depth", "15", "--cache", CACHE_PATH],
        ["table", "--max-t", "3", "--depth", "15", "--cache", CACHE_PATH],
        ["alpha", "--n", "2", "--depth", "15", "--cache", CACHE_PATH],
        ["glimit", "--l", "1", "--depth", "13", "--cache", CACHE_PATH],
    ])
    def test_workers_flag_accepts_only_1(self, capsys, monkeypatch, argv):
        # sweeps run on one thread: --workers 1, which existing command
        # lines pass, changes no byte, and any other value is refused
        # before any cache read or sweep
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--workers", "1") == (0, out, "")

        def no_work(*args, **kwargs):
            raise AssertionError("cache read or sweep started")

        monkeypatch.setattr(cli, "cache_load", no_work)
        monkeypatch.setattr(enumeration, "_slice_table", no_work)
        monkeypatch.setattr(enumeration, "_flat_groups", no_work)
        for n in ("2", "0"):
            assert run(capsys, *argv, "--workers", n) == (
                2, "", "usage error: --workers must be 1: sweeps run on one thread\n"
            )

    def test_glimit_sweeps_only_in_g_l_limit(self, capsys, monkeypatch):
        # the shipped cache holds C[1,k] for k <= 8; g_l_limit sweeps
        # k = 9..13 from one table, and the report reads the C it returned
        # without a second sweep
        swept, built = [], []
        real_c, real_table = constants.top_slice_c, enumeration._slice_table

        def counted(l, levels):
            swept.append(list(levels))
            return real_c(l, levels)

        def table(digits, forced=0):
            built.append(len(digits))
            return real_table(digits, forced)

        monkeypatch.setattr(constants, "top_slice_c", counted)
        monkeypatch.setattr(enumeration, "_slice_table", table)
        code, out, _ = run(
            capsys, "glimit", "--l", "1", "--depth", "13", "--cache", CACHE_PATH
        )
        assert code == 0 and swept == [[9, 10, 11, 12, 13]] and len(built) == 1
        assert out.endswith(
            ": 1, 1, 1, 3, 6, 17, 45, 130, 352, 1003, 2848, 8402, 23929\n"
        )

    def test_one_parser_serves_every_call(self, capsys):
        # parsing must leave the shared parser as it was: a repeated
        # --suite does not carry over into the next call
        assert cli.build_parser() is cli.build_parser()
        for _ in range(2):
            code, out, _ = run(
                capsys, "verify", "--suite", "oracle", "--cache", CACHE_PATH,
                "--format", "json",
            )
            assert code == 0 and json.loads(out)["suites"] == ["oracle"]

    def test_missing_cache_falls_back_to_fresh(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NSDENSITY_CACHE", raising=False)
        code, out, _ = run(capsys, "gamma", "--d", "1", "--depth", "4")
        assert code == 0
        assert not (tmp_path / "nsdensity.cache").exists()

    def test_write_cache_creates_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NSDENSITY_CACHE", raising=False)
        code, _, _ = run(
            capsys, "gamma", "--d", "1", "--depth", "4", "--write-cache"
        )
        assert code == 0
        written = cache_load(tmp_path / "nsdensity.cache")
        assert written.a_depth() == 4
        assert written.provenance["a-depth"] == "4"

    def test_inconsistent_cache_exits_1(self, capsys, tmp_path):
        text = Path(CACHE_PATH).read_text(encoding="utf-8")
        assert "\nA|1,3|3\n" in text
        bad = tmp_path / "bad.cache"
        bad.write_text(text.replace("\nA|1,3|3\n", "\nA|1,3|4\n"), encoding="utf-8")
        code, out, err = run(
            capsys, "gamma", "--d", "1,3", "--depth", "15", "--cache", str(bad)
        )
        assert code == 1
        assert out == ""
        assert "internal inconsistency" in err

    def test_env_var_resolution(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no ./nsdensity.cache here
        monkeypatch.setenv("NSDENSITY_CACHE", CACHE_PATH)
        code, out, _ = run(
            capsys, "gamma", "--d", "", "--depth", "15", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["value_decimal"] == "0.48990"


GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; tests/golden/<name>.<format> holds the whole stdout of
# ``nsdensity <argv> --format <format>``, and each run exits 0 with nothing
# on stderr.  "gamma-write" also pins the cache it writes from empty.
GOLDEN_CASES = {
    "enumerate": ["enumerate", "--f", "9"],
    "gamma": ["gamma", "--d", "1,3", "--depth", "15", "--cache", CACHE_PATH],
    "table": ["table", "--max-t", "3", "--depth", "15", "--cache", CACHE_PATH],
    "alpha": ["alpha", "--n", "2", "--depth", "15", "--cache", CACHE_PATH],
    "glimit": ["glimit", "--l", "1", "--depth", "13", "--cache", CACHE_PATH],
    "verify": ["verify", "--suite", "oracle", "--cache", CACHE_PATH],
    "gamma-write": ["gamma", "--d", "2,5", "--depth", "9", "--write-cache"],
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_golden_output(capsys, tmp_path, name, fmt):
    argv = GOLDEN_CASES[name] + ["--format", fmt]
    written = tmp_path / "written.cache"
    if "--write-cache" in argv:
        argv += ["--cache", str(written)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")
    if "--write-cache" in argv:
        assert written.read_bytes() == (GOLDEN / f"{name}.cache").read_bytes()


def report_of(argv):
    """The Report of one command line, as ``main`` builds it."""
    args = cli.build_parser().parse_args(argv)
    cli.validate(args)
    return cli.COMMANDS[args.subcommand](args)


def dumped(report):
    """The JSON document as ``json.dumps`` writes it, the payload's string
    rows as objects keyed by the header: the JSON writer's oracle."""
    payload = dict(report.payload)
    if "rows" in payload:
        payload["rows"] = [dict(zip(report.header, r)) for r in payload["rows"]]
    doc = {"schema_version": cli.SCHEMA_VERSION, **payload}
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def ljust_text(report):
    """The text document with every table cell padded by ``str.ljust``:
    the text writer's oracle."""
    lines = []
    for item in report.text:
        if isinstance(item, str):
            lines.append(item)
            continue
        widths = [max(map(len, column)) for column in zip(report.header, *item)]
        rule = ["-" * w for w in widths]
        for row in (report.header, rule, *item):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


WRITER_CASES = list(GOLDEN_CASES.values()) + [
    ["enumerate", "--f", "20"],
    ["table", "--max-t", "5", "--depth", "15", "--cache", CACHE_PATH],
    ["verify", "--suite", "core", "--cache", CACHE_PATH],
]


class TestWriters:
    @pytest.mark.parametrize("argv", WRITER_CASES, ids=" ".join)
    def test_every_report_as_json_dumps_and_ljust_write_it(self, tmp_path, argv):
        if "--write-cache" in argv:
            argv = argv + ["--cache", str(tmp_path / "written.cache")]
        report = report_of(argv)
        assert cli.render(report, "json") == dumped(report)
        assert cli.render(report, "text") == ljust_text(report)

    def test_json_cells_escaped_as_json_dumps_escapes_them(self):
        # the whole rows array goes through one %, so a % in a cell or a key
        # must come out as data
        cells = ['say "hi"', "back\\slash", "bell\x07 tab\t", "∅", "", "50%s",
                 "%%", "%(x)s", "%"]
        report = cli.Report(
            {
                "command": "line\nbreak",
                "rows": [cells, cells[::-1]],
                "nested": {"list": [1, {"none": None}], "empty": [], "ok": True},
            },
            ['q"uote', "b\\s", "c\x01", "∅", "", "%s", "%%", "%(x)s", "%"],
            [],
            [],
        )
        out = cli.render(report, "json")
        assert out == dumped(report)
        assert json.loads(out)["rows"][1]["%"] == 'say "hi"'
        assert json.loads(out)["rows"][0]["%(x)s"] == "%(x)s"
        empty = cli.Report({"rows": [], "after": 1}, ["d"], [], [])
        assert cli.render(empty, "json") == dumped(empty)

    def test_text_table_with_an_empty_column(self):
        # the first row of table, D = ∅, has no positivity bound
        report = report_of(["table", "--max-t", "2", "--depth", "15", "--cache", CACHE_PATH])
        assert report.text[1][0][-1] == ""
        assert cli.render(report, "text") == ljust_text(report)
        blank = cli.Report({}, ["a", "b", "c"], [], [[["", "", ""], ["∅", "", "x"]]])
        assert cli.render(blank, "text") == ljust_text(blank) == (
            "a  b  c\n-  -  -\n\n∅     x\n"
        )

    def test_enumerate_formats_hold_the_same_cells(self, capsys):
        out = {
            fmt: run(capsys, "enumerate", "--f", "20", "--format", fmt)[1]
            for fmt in ("text", "csv", "json")
        }
        header = ["d", "m", "r", "p", "mu", "mu_decimal"]
        objects = json.loads(out["json"])["rows"]
        assert all(list(r) == header for r in objects)
        csv_rows = list(csv.reader(io.StringIO(out["csv"])))
        assert csv_rows[0] == header and csv_rows[-1][0] == "TOTAL"
        # no cell of enumerate holds a space, so text splits into its cells
        text_rows = [line.split() for line in out["text"].split("\n")[3:-2]]
        assert len(objects) == 900
        assert [list(r.values()) for r in objects] == csv_rows[1:-1] == text_rows

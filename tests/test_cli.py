import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from bruhat_degrees import bruhat, cli, stats, verification
from bruhat_degrees._parallel import default_jobs
from bruhat_degrees.bruhat import StrongDescentSet
from bruhat_degrees.cli import build_parser, main
from bruhat_degrees.perm import Permutation, Transposition

EXAMPLE_TEXT = "[7,9,5,2,3,8,4,1,6]"
EXAMPLE_R1_LINE = ("t(1,2) t(1,3) t(1,4) t(2,5) t(3,5) t(4,5) "
                   "t(4,8) t(5,7) t(5,9) t(6,7) t(6,8) t(8,9)")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDegrees:
    @pytest.mark.parametrize("perm,expected", [
        ("[3,2,1]", "down=2 up=0 total=2 inv=3"),
        ("[1,2,3]", "down=0 up=2 total=2 inv=0"),
        ("[2,1]", "down=1 up=0 total=1 inv=1"),
    ])
    def test_degree_lines(self, capsys, perm, expected):
        code, out, _ = run_cli(capsys, "degrees", perm)
        assert code == 0
        assert out == expected + "\n"

    def test_list_flag(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "[2,1,3]", "--list")
        assert code == 0
        assert out == ("down=1 up=2 total=3 inv=1\n"
                       "covered_by: [1,2,3]\n"
                       "covers_of: [2,3,1] [3,1,2]\n")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "degrees", "[1,1,2]")
        assert code == 2
        assert "duplicate value 1" in err


class TestDescents:
    def test_worked_example_text(self, capsys):
        code, out, _ = run_cli(capsys, "descents", EXAMPLE_TEXT)
        assert code == 0
        assert out == EXAMPLE_R1_LINE + "\n"

    def test_order_two_text(self, capsys):
        code, out, _ = run_cli(capsys, "descents", EXAMPLE_TEXT, "--r", "2")
        assert code == 0
        members = out.split()
        assert len(members) == 19
        assert set(EXAMPLE_R1_LINE.split()) < set(members)
        assert "t(4,9)" not in members

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "descents", "[3,4,1,2]", "--format", "json")
        assert code == 0
        assert out == '{"n":4,"r":1,"members":[[1,3],[1,4],[2,3],[2,4]]}\n'

    def test_invalid_r(self, capsys):
        code, _, err = run_cli(capsys, "descents", "[2,1,3]", "--r", "9")
        assert code == 2
        assert "out of range" in err


class TestGraph:
    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "[3,4,1,2]")
        assert code == 0
        assert out == ("graph G {\n"
                       "  1;\n  2;\n  3;\n  4;\n"
                       "  1 -- 3;\n  1 -- 4;\n  2 -- 3;\n  2 -- 4;\n"
                       "}\n")

    def test_total_kind_dot_edge_count(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "[3,4,1,2]", "--kind", "total",
                               "--format", "dot")
        assert code == 0
        assert out.count(" -- ") == 6

    def test_rth_kind_json(self, capsys):
        code, out, _ = run_cli(capsys, "graph", EXAMPLE_TEXT, "--kind", "rth",
                               "--r", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 9
        assert len(payload["edges"]) == 19


class TestReconstruct:
    def test_from_json_file(self, capsys, tmp_path):
        descents = bruhat.strong_descent_set(
            Permutation((7, 9, 5, 2, 3, 8, 4, 1, 6)), 1)
        path = tmp_path / "example.json"
        path.write_text(descents.to_json())
        code, out, _ = run_cli(capsys, "reconstruct", "9", str(path))
        assert code == 0
        assert out == "[7,9,5,2,3,8,4,1,6]\n"

    def test_from_text_file(self, capsys, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("t(1,2)\n")
        code, out, _ = run_cli(capsys, "reconstruct", "2", str(path))
        assert code == 0
        assert out == "[2,1]\n"

    def test_unrealizable_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("t(1,2) t(1,3) t(2,3)")
        code, _, err = run_cli(capsys, "reconstruct", "3", str(path))
        assert code == 1
        assert "not realizable" in err

    def test_mismatched_n_exits_two(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(StrongDescentSet(3, 1, (Transposition(1, 2),)).to_json())
        code, _, err = run_cli(capsys, "reconstruct", "4", str(path))
        assert code == 2
        assert "n=3" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "reconstruct", "3", str(tmp_path / "nope"))
        assert code == 2


class TestExtremal:
    def test_table_down_n4(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "4")
        assert code == 0
        assert out == ("perm       down  up  total\n"
                       "[3,4,1,2]     4   2      6\n"
                       "[4,2,3,1]     4   1      5\n")

    def test_total_n5_has_sixteen_rows(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "5", "--stat", "total")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 16
        assert all(row.endswith("9") for row in rows)  # max total = 9 at n=5

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "4", "--format", "csv")
        assert code == 0
        assert out == ("perm,down,up,total\n"
                       '"[3,4,1,2]",4,2,6\n'
                       '"[4,2,3,1]",4,1,5\n')

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"perm": [2, 1], "down": 1, "up": 0, "total": 1}]


class TestExpectAndSampling:
    def test_exact(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "3")
        assert code == 0
        assert out == "4/3\n"

    def test_float(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "3", "--float")
        assert code == 0
        assert out == repr(4 / 3) + "\n"

    def test_distribution_json(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "3")
        assert code == 0
        assert out == '{"n":3,"stat":"down","counts":{"0":1,"1":2,"2":3}}\n'

    def test_sample_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "sample", "8", "--samples", "500",
                                 "--seed", "11")
        code2, out2, _ = run_cli(capsys, "sample", "8", "--samples", "500",
                                 "--seed", "11")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("mean=")

    @pytest.mark.parametrize("argv,expected", [
        ("sample 50 --samples 20000 --seed 7",
         "mean=129.5614 stderr=0.06922540075583228 samples=20000 seed=7"),
        ("sample 200 --stat total --samples 2000 --seed 3",
         "mean=1562.6325 stderr=0.4665753617145164 samples=2000 seed=3"),
        # three blocks of at most 20 000 samples
        ("sample 12 --samples 45000 --seed 5",
         "mean=16.349333333333334 stderr=0.012133070907081345 samples=45000 seed=5"),
    ])
    def test_sample_output_pinned(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("argv", [
        "sample 12 --samples 45000 --seed 5",
        "sample 12 --stat total --samples 45000 --seed 5",
        "sample 8 --stat rth --r 2 --samples 45000 --seed 5",
    ] + [f"distribution {n}" for n in range(1, 8)])
    def test_output_independent_of_jobs(self, capsys, argv):
        serial = run_cli(capsys, *argv.split(), "--jobs", "1")
        parallel = run_cli(capsys, *argv.split(), "--jobs", "2")
        assert serial[0] == 0
        assert serial == parallel

    def test_sample_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sample", "8"])
        assert err.value.code == 2


def strip_timings(report):
    return re.sub(r"\s+\d+\.\d\ds", "", report)


class TestVerify:
    @pytest.mark.parametrize("max_n", ["2", "3"])
    def test_small_run_passes(self, capsys, max_n):
        code, out, _ = run_cli(capsys, "verify", "--max-n", max_n,
                               "--sampled-n", "", "--samples", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1].endswith("checks passed")
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert len(lines) - 1 == len(verification.ALL_CHECKS)

    def test_max_n_capped(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-n", "12")
        assert code == 2
        assert "exhaustive limit" in err

    def test_broken_descent_criterion_fails_triangle_check(self, capsys, monkeypatch):
        real = bruhat.strong_descent_set

        def broken(p, r=1):
            full = real(p, r)
            if p.n >= 3 and r == 1:
                # claim a triangle {1,2,3} on top of the true descents
                members = set(full.members) | {Transposition(1, 2),
                                               Transposition(1, 3),
                                               Transposition(2, 3)}
                return StrongDescentSet(p.n, r, tuple(sorted(members)))
            return full

        monkeypatch.setattr(bruhat, "strong_descent_set", broken)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "4",
                               "--sampled-n", "", "--samples", "10")
        assert code == 1
        report = {line.split()[1]: line.split()[0]
                  for line in out.strip().split("\n")[:-1]}
        assert report["triangle-free-descent-graph"] == "FAIL"
        assert report["worked-examples"] == "FAIL"

    def test_each_maximum_computed_once(self, monkeypatch):
        # the maxima, classification and expectation checks share one scan
        # per (n, stat); n = 1 is scanned for the exact means only
        calls = []
        real = stats.exhaustive

        def counted(n, stat, **kwargs):
            calls.append((n, stat))
            return real(n, stat, **kwargs)

        monkeypatch.setattr(stats, "exhaustive", counted)
        opts = verification.VerifyOptions(max_n=4, sampled_n=(), samples=10)
        assert all(res.passed for res in verification.run_all(opts))
        assert sorted(calls) == [(n, stat) for n in (1, 2, 3, 4) for stat in ("down", "total")]

    @pytest.mark.parametrize("broken", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_merges_sizes_in_order(self, monkeypatch, jobs, broken):
        if broken:
            # an LDS of 1 makes every inversion a K_2 "found" at r = n - 1,
            # so the two sizes fail with different details
            monkeypatch.setattr(verification, "longest_decreasing_subsequence", lambda p: 1)
        opts = verification.VerifyOptions(sampled_n=(12, 20), samples=300, jobs=jobs)
        expected = {}
        for n in opts.sampled_n:
            part = verification.structural_sample_check(n, opts.samples, opts.seed, jobs=jobs)
            for key, (ok, detail) in part.items():
                if key not in expected or (expected[key][0] and not ok):
                    expected[key] = (ok, detail)
        assert verification._structural_samples(opts) == expected
        assert expected["clique_free"][0] is not broken

    def test_entry_point_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bruhat_degrees.cli", "degrees", "[3,2,1]"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "down=2 up=0 total=2 inv=3\n"


class TestJobs:
    @pytest.mark.parametrize("argv", [
        ["distribution", "3", "--jobs", "0"],
        ["sample", "8", "--seed", "1", "--jobs", "-3"],
        ["verify", "--max-n", "2", "--jobs", "0"],
    ])
    def test_below_one_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --jobs must be >= 1, got {argv[-1]}\n"

    def test_one_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "3", "--jobs", "1")
        assert code == 0
        assert out == '{"n":3,"stat":"down","counts":{"0":1,"1":2,"2":3}}\n'

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity on this platform")
    def test_default_is_the_affinity_set(self):
        assert default_jobs() == len(os.sched_getaffinity(0))


class TestInputBoundaries:
    @pytest.mark.parametrize("text,message", [
        ('{"n":3}', "keys n, r, members"),
        ('{"n":3,"r":1,"members":[1,2]}', "pairs"),
        ('{"n":3,"r":1,"members":[[1.0,2]]}', "integer, got 1.0"),
        ('{"n":3,"r":1,"members":[[true,2]]}', "integer, got True"),
        ('{"n":"3","r":1,"members":[]}', "integer, got '3'"),
        ('{"n":3,"r":1,"members":[[1,2,3]]}', "pairs"),
        ('{"n":3,"r":1,"members":{"1":2}}', "pairs"),
    ])
    def test_malformed_descent_json_exits_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "set.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "reconstruct", "3", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("flag,value", [("--max-n", "0"), ("--max-n", "1"),
                                            ("--samples", "0"), ("--samples", "-5")])
    def test_verify_counts_below_their_floor_are_usage_errors(self, capsys, flag, value):
        floor = 2 if flag == "--max-n" else 1
        code, out, err = run_cli(capsys, "verify", "--sampled-n", "", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be >= {floor}, got {value}\n"

    @pytest.mark.parametrize("n,text", [("0", ""), ("-3", ""),
                                        ("0", '{"n":0,"r":1,"members":[]}')])
    def test_reconstruct_degree_below_one(self, capsys, tmp_path, n, text):
        path = tmp_path / "set.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "reconstruct", n, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: degree must be >= 1, got n={n}\n"

    def test_descent_set_order_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"n":1,"r":2,"members":[]}')
        code, out, err = run_cli(capsys, "reconstruct", "1", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: order parameter r=2 out of range 1..1\n"

    @pytest.mark.parametrize("sizes", ["1", "2", "40,2"])
    def test_sampled_n_below_three_is_a_usage_error(self, capsys, sizes):
        code, out, err = run_cli(capsys, "verify", "--max-n", "2", "--sampled-n", sizes)
        assert code == 2
        assert out == ""
        assert err == f"error: --sampled-n sizes must be >= 3, got {sizes}\n"


# every integer argument of the parser, with {} where the token goes
INTEGER_ARGV = [
    "descents [2,1,3] --r {}",
    "graph [2,1,3] --kind rth --r {}",
    "reconstruct {} set.txt",
    "extremal {}",
    "expect {}",
    "distribution {}",
    "distribution 3 --stat rth --r {}",
    "distribution 3 --limit {}",
    "distribution 3 --jobs {}",
    "sample {} --seed 1",
    "sample 8 --stat rth --r {} --seed 1",
    "sample 8 --samples {} --seed 1",
    "sample 8 --seed {}",
    "sample 8 --seed 1 --jobs {}",
    "verify --max-n {}",
    "verify --sampled-n {}",
    "verify --samples {}",
    "verify --seed {}",
    "verify --jobs {}",
]


def run_cli_exit(capsys, argv):
    """Exit code, stdout and stderr of main, whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIntegerArguments:
    def test_every_integer_argument_is_listed(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {(command, (action.option_strings or [action.dest])[0])
                    for command, p in sub.choices.items() for action in p._actions
                    if action.type is cli._int}
        listed = set()
        for argv in INTEGER_ARGV:
            words = argv.split()
            flag = words[words.index("{}") - 1]
            listed.add((words[0], flag if flag.startswith("--") else "n"))
        assert declared | {("verify", "--sampled-n")} == listed

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff13"])
    @pytest.mark.parametrize("argv", INTEGER_ARGV)
    def test_non_ascii_digits_are_usage_errors(self, capsys, argv, token):
        code, out, err = run_cli_exit(capsys, argv.format(token).split())
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and repr(token) in err

    def test_argparse_wording_kept(self, capsys):
        code, out, err = run_cli_exit(capsys, ["distribution", "abc"])
        assert (code, out) == (2, "")
        assert err.endswith("error: argument n: invalid int value: 'abc'\n")

    def test_sampled_n_wording_kept(self, capsys):
        code, out, err = run_cli_exit(capsys, ["verify", "--sampled-n", "40,4x"])
        assert (code, out) == (2, "")
        assert err == "error: invalid literal for int() with base 10: '4x'\n"

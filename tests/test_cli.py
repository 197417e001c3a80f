import argparse
import collections
import contextlib
import dataclasses
import gzip
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from unittest.mock import ANY

import pytest

from bruhat_degrees import _parallel, bruhat, cli, graphs, stats, verification
from bruhat_degrees._parallel import default_jobs, resolve_jobs
from bruhat_degrees.bruhat import StrongDescentSet
from bruhat_degrees.cli import build_parser, main
from bruhat_degrees.perm import Permutation, identity, iter_permutations
from bruhat_degrees.verification import MAX_SAMPLED_N

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

    def test_rth_kind_defaults_to_order_one(self, capsys):
        assert run_cli(capsys, "graph", EXAMPLE_TEXT, "--kind", "rth") == run_cli(
            capsys, "graph", EXAMPLE_TEXT)

    @pytest.mark.parametrize("kind", ["descent", "total"])
    def test_order_refused_outside_rth(self, capsys, kind):
        code, out, err = run_cli(capsys, "graph", "[3,1,2]", "--kind", kind, "--r", "2")
        assert (code, out) == (2, "")
        assert err == f"error: --r applies only to --kind rth, not --kind {kind}\n"


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
        path.write_text(StrongDescentSet(3, 1, ((1, 2),)).to_json())
        code, _, err = run_cli(capsys, "reconstruct", "4", str(path))
        assert code == 2
        assert "n=3" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "reconstruct", "3", str(tmp_path / "nope"))
        assert code == 2

    @pytest.mark.parametrize("a,b", [(10, 1), (3, 3), (0, 2)])
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_member_outside_s_n_is_refused_once(self, capsys, tmp_path, form, a, b):
        # the parsers only orient a pair; StrongDescentSet refuses it, as a plain pair
        path = tmp_path / "set"
        path.write_text(f"t({a},{b})" if form == "text"
                        else f'{{"n":9,"r":1,"members":[[{a},{b}]]}}')
        assert run_cli(capsys, "reconstruct", "9", str(path)) == (
            2, "", f"error: member {(min(a, b), max(a, b))} out of range for n=9\n")

    @pytest.mark.parametrize("token", ["t(1,2,3)", "t(1)", "t(1,x)"])
    def test_bad_token_is_named(self, capsys, tmp_path, token):
        path = tmp_path / "set"
        path.write_text(token)
        assert run_cli(capsys, "reconstruct", "3", str(path)) == (
            2, "", f"error: bad transposition token {token!r}\n")


class TestLargeOutputs:
    """CLI output at sizes where the sweep and the walks do real work, pinned
    in tests/expected/; each word is random.Random(seed).shuffle of 1..n,
    seeded with n."""

    EXPECTED = Path(__file__).parent / "expected"

    @staticmethod
    def word(n):
        values = list(range(1, n + 1))
        random.Random(n).shuffle(values)
        return "[" + ",".join(map(str, values)) + "]"

    @pytest.mark.parametrize("argv,name", [
        (("degrees", 300, "--list"), "degrees-list-n300.txt.gz"),
        (("descents", 1000, "--format", "json"), "descents-r1-n1000.json"),
        (("descents", 1000, "--r", "2", "--format", "json"), "descents-r2-n1000.json"),
        (("graph", 200, "--kind", "total", "--format", "json"), "graph-total-n200.json"),
    ])
    def test_output_pinned(self, capsys, argv, name):
        command, n, *flags = argv
        expected = (self.EXPECTED / name).read_bytes()
        if name.endswith(".gz"):
            expected = gzip.decompress(expected)
        assert run_cli(capsys, command, self.word(n), *flags) == (0, expected.decode(), "")

    def test_reconstruct_pinned(self, capsys):
        # the set file is the pinned r = 1 descent set, so the output is the word
        path = self.EXPECTED / "descents-r1-n1000.json"
        expected = (self.EXPECTED / "reconstruct-n1000.txt").read_text()
        assert expected == self.word(1000) + "\n"
        assert run_cli(capsys, "reconstruct", "1000", str(path)) == (0, expected, "")


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

    @pytest.mark.parametrize("stat", ["down", "total"])
    def test_above_the_degree_cap(self, capsys, stat):
        # refused before any of the n-letter family is built
        code, out, err = run_cli(capsys, "extremal", "100001", "--stat", stat)
        assert (code, out, err) == (2, "", "error: degree n=100001 exceeds the cap 100000\n")


class TestExpectAndSampling:
    def test_exact(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "3")
        assert code == 0
        assert out == "4/3\n"

    def test_float(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "3", "--float")
        assert code == 0
        assert out == repr(4 / 3) + "\n"

    def test_exact_past_the_int_digit_limit(self, capsys):
        # the numerator has more than str()'s default 4300 digits; the CLI
        # lifts the limit for its print only, and the parse here needs it too
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        code, out, err = run_cli(capsys, "expect", "10000")
        assert (code, err, get_limit()) == (0, "", limit)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            assert Fraction(out.strip()) == stats.expected_down_degree(10000)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_expect_above_the_degree_cap(self, capsys):
        code, out, err = run_cli(capsys, "expect", "100001")
        assert (code, out) == (2, "")
        assert err == "error: degree n=100001 exceeds the cap 100000\n"

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

    # rth was scored by one word scan per row before the batched kernel took
    # every statistic; these are that route's outputs, at both job counts
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv,expected", [
        ("sample 50 --stat rth --r 5 --samples 500 --seed 1",
         "mean=366.68 stderr=0.7140580914154112 samples=500 seed=1"),
        ("sample 12 --stat rth --r 11 --samples 1000 --seed 7",
         "mean=32.764 stderr=0.2340493176300304 samples=1000 seed=7"),
        # three blocks
        ("sample 50 --stat rth --r 5 --samples 45000 --seed 1",
         "mean=367.2350666666667 stderr=0.07661416431804213 samples=45000 seed=1"),
        ("sample 200 --stat total --samples 25000 --seed 4",
         "mean=1562.9858 stderr=0.13096243576225455 samples=25000 seed=4"),
    ])
    def test_kernel_output_pinned_at_any_jobs(self, capsys, argv, expected, jobs):
        assert run_cli(capsys, *argv.split(), "--jobs", jobs) == (0, expected + "\n", "")

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

    def test_sample_negative_seed_names_its_flag(self, capsys):
        code, out, err = run_cli(capsys, "sample", "5", "--seed=-1", "--samples=3")
        assert (code, out, err) == (2, "", "error: --seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("stat", ["down", "total"])
    def test_sample_above_the_degree_cap(self, capsys, stat):
        # refused before the samples x n matrix is allocated
        code, out, err = run_cli(capsys, "sample", "100001", "--stat", stat, "--seed", "1")
        assert (code, out, err) == (2, "", "error: degree n=100001 exceeds the cap 100000\n")

    @pytest.mark.parametrize("argv", ["distribution 5 --r 3",
                                      "distribution 5 --stat total --r 1",
                                      "sample 50 --stat down --r 3 --seed 1",
                                      "sample 50 --stat total --r 3 --seed 1"])
    def test_order_refused_for_down_and_total(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        stat = "total" if "total" in argv else "down"
        assert err == f"error: statistic {stat!r} takes no order parameter r\n"

    def test_sample_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sample", "8"])
        assert err.value.code == 2


def strip_timings(report):
    return re.sub(r"\s+\d+\.\d\ds", "", report)


# the threads alive in this process at each fork; a hook cannot be removed,
# so this one serves every test, each clearing the list first
FORK_THREADS: list[int] = []
os.register_at_fork(before=lambda: FORK_THREADS.append(threading.active_count()))

# a small verify run whose Monte Carlo means, of at least 1000 samples each,
# split into three blocks once stats._MC_BLOCK is 400
SPLIT_RUN = dict(samples=30, max_n=3, sampled_n=(3,), jobs=2)


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
                members = set(full.members) | {(1, 2), (1, 3), (2, 3)}
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

    def test_exact_means_follow_max_n(self, monkeypatch):
        read = []
        real = verification._exhaustive
        monkeypatch.setattr(verification, "_exhaustive",
                            lambda opts, n, stat: read.append((n, stat)) or real(opts, n, stat))
        opts = verification.VerifyOptions(max_n=8, sampled_n=(), samples=10)
        assert verification.check_expectation_identities(opts) == (
            True, "triple sum to n=200, exhaustive to n<=8")
        assert sorted(read) == [(n, stat) for n in range(1, 9) for stat in ("down", "total")]

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
            part = verification._structural_samples(dataclasses.replace(opts, sampled_n=(n,)))
            for key, (ok, detail) in part.items():
                if key not in expected or (expected[key][0] and not ok):
                    expected[key] = (ok, detail)
        assert verification._structural_samples(opts) == expected
        assert expected["clique_free"][0] is not broken

    def test_draws_of_one_size_do_not_depend_on_the_other_sizes(self, monkeypatch):
        # reconstruction samples n = 50 whatever --sampled-n holds
        keys = []
        real = stats.random_permutation_matrix

        def recorded(n, count, seed_key):
            keys.append((n, count, seed_key))
            return real(n, count, seed_key)

        monkeypatch.setattr(stats, "random_permutation_matrix", recorded)
        drawn = []
        for sizes in ((40,), (60,)):
            keys.clear()
            opts = verification.VerifyOptions(max_n=2, sampled_n=sizes, samples=20, jobs=1)
            assert all(res.passed for res in verification.run_all(opts))
            drawn.append(sorted(key for key in keys if key[0] == 50))
        assert drawn[0] == drawn[1]
        assert (50, 20, (0, verification._RECONSTRUCTION_TAG, 50, 0)) in drawn[0]

    def test_reconstruction_failure_reads_the_same_at_any_jobs(self, monkeypatch):
        # at jobs=2 the n = 100 block runs in a worker forked from this
        # process, so it sees the patched reconstruct too
        real = verification.reconstruct
        monkeypatch.setattr(verification, "reconstruct",
                            lambda n, s: identity(n) if n == 100 else real(n, s))
        reports = []
        for jobs in (1, 2):
            opts = verification.VerifyOptions(max_n=4, sampled_n=(12,), samples=30, jobs=jobs)
            reports.append([(r.name, r.passed, r.detail) for r in verification.run_all(opts)])
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1]
        failed = [line for line in reports[0] if not line[1]]
        assert failed == [("reconstruction-round-trip", False,
                           "round trip fails for a sample at n=100")]

    @pytest.mark.parametrize("module,name,defect,line,detail", [
        # off by one on words of length 12 that start with 2: the sweep scans only p^-1,
        # against the between-count table of p, so the defect reaches the inverses alone
        (bruhat, "rth_down_degree",
         lambda real: lambda p, r: real(p, r) + (p.n == 12 and p.values[0] == 2),
         "inverse-symmetry-of-descents", "degree mismatch for a sample at n=12, r=1"),
        # one maximum too many on suffixes of length 10 and up, which S_n for n <= 9 lacks
        (stats, "ltr_maxima", lambda real: lambda w: real(w) + (len(w) >= 10),
         "increment-equals-suffix-ltr-maxima", "increment identity fails for a sample at n=12"),
    ], ids=["inverse", "increment"])
    def test_a_defect_only_the_samples_reach_fails_one_line(
            self, monkeypatch, module, name, defect, line, detail):
        # the sweep's blocks make the sampled comparisons, in forked workers at jobs=2
        monkeypatch.setattr(module, name, defect(getattr(module, name)))
        reports = []
        for jobs in (1, 2):
            opts = verification.VerifyOptions(max_n=4, sampled_n=(12,), samples=30, jobs=jobs)
            reports.append([(r.name, r.passed, r.detail) for r in verification.run_all(opts)
                            if not r.passed])
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1] == [(line, False, detail)]

    def test_no_sample_is_drawn_in_the_main_process_above_one_job(self, monkeypatch):
        parent, real = os.getpid(), verification._draw

        def draw(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("a sample drawn in the main process")
            return real(*args, **kwargs)

        monkeypatch.setattr(verification, "_draw", draw)
        opts = verification.VerifyOptions(max_n=4, sampled_n=(12,), samples=30, jobs=2)
        results = verification.run_all(opts)
        assert sum(res.passed for res in results) == len(results) == 26
        assert multiprocessing.active_children() == []

    def test_a_crash_while_blocks_are_in_flight_fails_one_line(self, monkeypatch):
        def crash(opts):
            raise RuntimeError("injected")

        checks = tuple((name, crash if fn is verification.check_cover_criterion else fn)
                       for name, fn in verification.ALL_CHECKS)
        monkeypatch.setattr(verification, "ALL_CHECKS", checks)
        opts = verification.VerifyOptions(max_n=4, sampled_n=(12,), samples=30, jobs=2)
        lines = verification.render_report(verification.run_all(opts)).splitlines()
        assert multiprocessing.active_children() == []
        assert len(lines) - 1 == len(checks) == 26
        assert lines[-1] == "25/26 checks passed"
        assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
            "cover-criterion-vs-length-oracle"]
        failed = next(line for line in lines if line.startswith("FAIL"))
        assert failed.endswith("error: RuntimeError('injected')")

    def test_shared_blocks_use_one_pool_only_above_one_job(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("not expected here")

        opts = verification.VerifyOptions(max_n=3, sampled_n=(12,), samples=30, jobs=1)
        monkeypatch.setattr(verification, "process_pool", refused)
        threads = threading.active_count()
        assert all(res.passed for res in verification.run_all(opts))
        assert threading.active_count() == threads
        monkeypatch.undo()
        # above one job the sweep and reconstruction blocks come from the
        # shared pool, never from map_blocks
        monkeypatch.setattr(verification, "map_blocks", refused)
        opts = verification.VerifyOptions(max_n=3, sampled_n=(12,), samples=30, jobs=2)
        assert all(res.passed for res in verification.run_all(opts))
        assert multiprocessing.active_children() == []

    def test_no_fork_while_the_run_has_threads(self, monkeypatch):
        monkeypatch.setattr(stats, "_MC_BLOCK", 400)
        threads = threading.active_count()
        FORK_THREADS.clear()
        results = verification.run_all(verification.VerifyOptions(**SPLIT_RUN))
        assert sum(res.passed for res in results) == len(results) == 26
        assert FORK_THREADS and set(FORK_THREADS) == {threads}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs,pools", [(1, 0), (2, 1)])
    def test_a_run_opens_one_pool_above_one_job(self, monkeypatch, jobs, pools):
        monkeypatch.setattr(stats, "_MC_BLOCK", 400)
        opened = []
        for module in (_parallel, verification):
            monkeypatch.setattr(module, "process_pool", lambda workers, real=module.process_pool:
                                opened.append(workers) or real(workers))
        opts = verification.VerifyOptions(**dict(SPLIT_RUN, jobs=jobs))
        assert all(res.passed for res in verification.run_all(opts))
        assert len(opened) == pools

    def test_each_run_computes_its_own_sweep(self, monkeypatch):
        calls = []
        real = verification._structural_block
        monkeypatch.setattr(verification, "_structural_block",
                            lambda block: calls.append(block) or real(block))
        opts = verification.VerifyOptions(**dict(SPLIT_RUN, jobs=1))
        per_run = []
        for _ in range(2):
            assert all(res.passed for res in verification.run_all(opts))
            per_run.append(len(calls))
            calls.clear()
        assert per_run == [1, 1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.samples = 10

    def test_pool_gets_each_kind_in_order_of_need_then_by_decreasing_n(self, monkeypatch):
        submitted = []

        class Recorder:  # a pool that records each submit and runs nothing
            def submit(self, fn, block):
                submitted.append((fn, block[0]))

        monkeypatch.setattr(verification, "process_pool",
                            lambda workers: contextlib.nullcontext(Recorder()))
        with verification._blocks_in_flight(verification.VerifyOptions(jobs=2)):
            pass
        exhaustive = verification._exhaustive_block
        sweep, rebuild = verification._structural_block, verification._reconstruction_block
        assert submitted == [(exhaustive, n) for n in (6, 5, 4, 3, 2, 1)] + [
            (sweep, 40), (rebuild, 100), (rebuild, 50), (rebuild, 40), (rebuild, 20)]

    def test_every_per_permutation_line_reads_max_n(self):
        v = verification
        per_permutation = {
            v.check_length_is_inversion_count, v.check_cover_criterion, v.check_descent_window,
            v.check_inverse_symmetry, v.check_descent_monotonicity, v.check_up_down_complement,
            v.check_triangle_free, v.check_clique_free, v.check_turan_bound,
            v.check_top_order_is_inversions, v.check_min_degree_bound, v.check_total_graph_union,
            v.check_increment_lemma, v.check_reconstruction, v.check_injectivity,
            v.check_components_vs_global_descents}
        opts = v.VerifyOptions(max_n=4, sampled_n=(), samples=10)
        details = dict(zip(v.ALL_CHECKS, (res.detail for res in v.run_all(opts))))
        assert sum(fn in per_permutation for _, fn in v.ALL_CHECKS) == 16
        for (name, fn), detail in details.items():
            if fn in per_permutation:
                assert "n<=4" in detail, name
        # the help states the bound that those lines read
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        help_text = next(action.help for action in sub.choices["verify"]._actions
                         if "--max-n" in action.option_strings)
        assert f"up to it or {v.MAX_PASS_N}," in help_text

    def test_pass_reaches_a_defect_of_s_8_alone(self, monkeypatch):
        # the scan drops its last pair at n = 8, r = 3 only
        real = bruhat._descent_pairs_word
        monkeypatch.setattr(bruhat, "_descent_pairs_word",
                            lambda w, r: real(w, r)[:-1] if (len(w), r) == (8, 3) else real(w, r))
        failures, _ = verification._exhaustive_block((8, 0, 0, 2000))
        assert set(failures) == {"window", "inverse", "monotonicity"}
        for index, count in enumerate((2000, 2000, 1040)):
            assert verification._exhaustive_block((7, 0, index, count)) == ({}, ANY)

    def test_pass_builds_each_descent_set_once(self, monkeypatch):
        calls = []
        real = bruhat.strong_descent_set
        monkeypatch.setattr(bruhat, "strong_descent_set",
                            lambda p, r=1: calls.append((p.values, r)) or real(p, r))
        monkeypatch.setattr(graphs, "strong_descent_graph", None)  # a call would raise
        assert verification._exhaustive_block((5, 0, 0, 120)) == ({}, ANY)
        assert len(calls) == len(set(calls)) == 120 * 4

    def test_a_pass_block_builds_permutations_for_its_own_ranks_only(self, monkeypatch):
        # the block of S_6 at ranks 20..23 builds as many as those ranks do one
        # at a time: none for the 20 ranks before it
        built = []
        real = Permutation.__post_init__
        monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(1) or real(p))

        def count(index, size):
            monkeypatch.setattr(verification, "_BLOCK", size)
            built.clear()
            assert verification._exhaustive_block((6, 0, index, size)) == ({}, ANY)
            return len(built)

        assert count(5, 4) == sum(count(rank, 1) for rank in range(20, 24))

    def test_a_pass_block_scans_each_order_twice(self, monkeypatch):
        # at each r >= 2 one scan of p^-1 gives the descent set and one of p
        # the position-order route, whose length is the degree
        scans = []
        real = bruhat._descent_pairs_word
        monkeypatch.setattr(bruhat, "_descent_pairs_word",
                            lambda w, r: scans.append(r) or real(w, r))
        assert verification._exhaustive_block((6, 0, 0, 720)) == ({}, ANY)
        assert collections.Counter(scans) == {r: 2 * 720 for r in range(2, 6)}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pass_finds_the_first_increment_failure_of_every_step(self, monkeypatch, jobs):
        # the pass compares only the step that inserts n; the lower steps are
        # the top steps of smaller sizes, so its first failure is the first
        # permutation that the check of every step rejects
        real = bruhat._down_pairs_word
        monkeypatch.setattr(bruhat, "_down_pairs_word",
                            lambda w: real(w)[1:] if len(w) == 5 else real(w))
        first = next(p for n in range(2, 7) for p in iter_permutations(n)
                     if not stats.check_increment_lemma(p))
        opts = verification.VerifyOptions(max_n=6, sampled_n=(), samples=10, jobs=jobs)
        assert verification._exhaustive_pass(opts)["increment"] == (
            f"increment identity fails for {first}")
        assert multiprocessing.active_children() == []

    def test_a_refused_reconstruction_fails_its_own_line_only(self, monkeypatch):
        # the descent sets of S_5 lose a member, which reconstruct refuses as
        # unrealizable: that is a failure of the round trip, not a crash of
        # the pass, so every line still names its first failing permutation
        real = bruhat._down_pairs_word
        monkeypatch.setattr(bruhat, "_down_pairs_word",
                            lambda w: real(w)[1:] if len(w) == 5 else real(w))
        opts = verification.VerifyOptions(max_n=6, sampled_n=(), samples=10)
        report = {res.name: res for res in verification.run_all(opts)}
        assert not any(res.detail.startswith("error:") for res in report.values())
        cover = report["cover-criterion-vs-length-oracle"]
        assert not cover.passed
        assert re.fullmatch(r"covered_by\(\[[1-5](,[1-5]){4}\]\) wrong", cover.detail)
        rebuilt = report["reconstruction-round-trip"]
        assert not rebuilt.passed
        assert re.fullmatch(r"(round trip fails for|reconstruct refuses the descent set of) "
                            r"\[[1-5](,[1-5]){4}\]", rebuilt.detail)
        # the sampled round trips fail alike
        monkeypatch.setattr(bruhat, "_down_pairs_word",
                            lambda w: real(w)[1:] if len(w) == 20 else real(w))
        assert verification._reconstruction_block((20, 0, 0, 5)) == (
            False, "reconstruct refuses the descent set of a sample at n=20")

    @pytest.mark.parametrize("broken", [False, True])
    def test_pass_blocks_merge_alike_at_any_size_and_jobs(self, monkeypatch, broken):
        target = Permutation((5, 3, 2, 1, 4))  # rank 110, in the last of S_5's 3 blocks
        if broken:
            real = bruhat.is_cover
            monkeypatch.setattr(bruhat, "is_cover",
                                lambda p, q: (not real(p, q)) if p == target else real(p, q))
        reports = []
        for block, jobs in ((2000, 1), (50, 1), (50, 2)):
            monkeypatch.setattr(verification, "_BLOCK", block)
            opts = verification.VerifyOptions(max_n=5, sampled_n=(12,), samples=30, jobs=jobs)
            assert [fn for fn, _ in verification._shared_blocks(opts)].count(
                verification._exhaustive_block) == (5 if block == 2000 else 7)
            reports.append([(r.name, r.passed, r.detail) for r in verification.run_all(opts)])
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1] == reports[2]
        failed = [line for line in reports[0] if not line[1]]
        # the first failure in lexicographic order over S_1..S_5
        assert failed == ([("cover-criterion-vs-length-oracle", False,
                            "is_cover([5,3,2,1,4], [5,3,1,2,4]) disagrees with length drop -1")]
                          if broken else [])

    def test_reconstruction_splits_into_blocks_of_2000(self, monkeypatch):
        # record what each block asks for, and draw one row of it
        keys = []
        real = stats.random_permutation_matrix
        monkeypatch.setattr(stats, "random_permutation_matrix",
                            lambda n, count, key: keys.append((key, count)) or real(n, 1, key))
        opts = verification.VerifyOptions(max_n=2, sampled_n=(), samples=2500)
        assert verification.check_reconstruction(opts) == (
            True, "exhaustive n<=2, 2500 samples at n in [20, 50, 100]")
        tag = verification._RECONSTRUCTION_TAG
        assert [key for key in keys if key[0][2] == 50] == [
            ((0, tag, 50, 0), 2000), ((0, tag, 50, 1), 500)]

    def test_no_sampled_detail_without_sampled_sizes(self):
        # with no --sampled-n sizes the seven swept lines examine no samples,
        # so they read like the lines that the pass alone decides
        def details(sizes):
            opts = verification.VerifyOptions(max_n=3, sampled_n=sizes, samples=30, jobs=1)
            return {res.name: res.detail for res in verification.run_all(opts)}

        without, with_sizes = details(()), details((12,))
        swept = {name for name, detail in with_sizes.items() if "sampled" in detail}
        assert swept == {
            "inverse-symmetry-of-descents", "triangle-free-descent-graph",
            "clique-free-rth-descent-graph", "turan-bound-on-rth-degree",
            "top-order-descents-equal-inversions", "min-degree-bound-total-graph",
            "increment-equals-suffix-ltr-maxima"}
        assert with_sizes["clique-free-rth-descent-graph"] == (
            "exhaustive n<=3 (all r), sampled at n in [12]")
        assert not any("sampled" in detail for detail in without.values())
        for name in swept:
            pass_only = with_sizes[name].split(", sampled")[0].replace(
                "exhaustive", "all of S_n for", 1)
            assert without[name] == pass_only, name
        # the reconstruction samples the --sampled-n sizes too, and says so
        rest = with_sizes.keys() - swept - {"reconstruction-round-trip"}
        assert {name: without[name] for name in rest} == {name: with_sizes[name] for name in rest}

    def test_the_memo_is_no_field(self):
        opts = verification.VerifyOptions()
        assert "_memo" not in dataclasses.asdict(opts)
        opts._memo["sweep"] = "kept"
        copy = dataclasses.replace(opts)
        assert copy == opts and copy._memo == {}
        assert opts._memo == {"sweep": "kept"}

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
        assert run_cli_exit(capsys, argv) == (
            2, "", f"error: --jobs must be >= 1, got {argv[-1]}\n")

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--max-n", "12", "--jobs", "0"], "--max-n 12 exceeds the exhaustive limit 9"),
        (["distribution", "12", "--jobs", "0"],
         "n=12 exceeds the exhaustive limit 9; pass a larger limit to override"),
        (["sample", "8", "--seed", "-1", "--jobs", "0"], "--seed must be >= 0, got -1"),
    ])
    def test_refused_after_the_commands_own_rules(self, capsys, argv, message):
        # only _parallel.resolve_jobs refuses a count, so the CLI keeps the library's order
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("call,value", [
        (lambda: stats.monte_carlo_mean(12, samples=50_000, seed=1, jobs=1.5), 1.5),
        (lambda: stats.distribution(3, jobs=1.5), 1.5),
        (lambda: resolve_jobs(True), True),
        (lambda: resolve_jobs("2"), "2"),
    ])
    def test_count_that_is_no_int_refused(self, call, value):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"--jobs must be an integer, got {value!r}"

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

    def test_json_set_of_another_degree_refused_by_reconstruct(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"n":5,"r":1,"members":[]}')
        code, out, err = run_cli(capsys, "reconstruct", "4", str(path))
        assert (code, out) == (2, "")
        assert err == "error: descent set carries n=5, expected 4\n"

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

    def test_sampled_n_above_the_sweep_bound_is_a_usage_error(self, capsys, monkeypatch):
        # a size the bound let through would run the sweep at n = 2001 for hours
        monkeypatch.setattr(verification, "run_all", lambda opts: pytest.fail("ran the checks"))
        code, out, err = run_cli(capsys, "verify", "--sampled-n", f"40,{MAX_SAMPLED_N + 1}")
        assert (code, out) == (2, "")
        assert err == "error: --sampled-n sizes must be <= 2000, got 40,2001\n"


class TestVerifyOptions:
    @pytest.mark.parametrize("fields,message", [
        # options that would examine nothing
        (dict(max_n=0, sampled_n=(), samples=0), "--max-n must be >= 2, got 0"),
        (dict(max_n=1), "--max-n must be >= 2, got 1"),
        (dict(samples=0), "--samples must be >= 1, got 0"),
        (dict(samples=-5, sampled_n=(2,)), "--samples must be >= 1, got -5"),
        (dict(sampled_n=(40, 2)), "--sampled-n sizes must be >= 3, got 40,2"),
        (dict(sampled_n=(40, 40)), "--sampled-n sizes must be distinct, got 40,40"),
        (dict(sampled_n=(12, 2, 12)), "--sampled-n sizes must be >= 3, got 12,2,12"),
        (dict(sampled_n=(12, 40, 12), seed=-1), "--sampled-n sizes must be distinct, got 12,40,12"),
        (dict(sampled_n=(1,), seed=-1), "--sampled-n sizes must be >= 3, got 1"),
        (dict(sampled_n=(2, MAX_SAMPLED_N + 1)), "--sampled-n sizes must be >= 3, got 2,2001"),
        (dict(sampled_n=(40, MAX_SAMPLED_N + 1), seed=-1),
         "--sampled-n sizes must be <= 2000, got 40,2001"),
        (dict(seed=-1), "--seed must be >= 0, got -1"),
        (dict(seed=-1, max_n=12), "--seed must be >= 0, got -1"),
        (dict(max_n=12), "--max-n 12 exceeds the exhaustive limit 9"),
        (dict(max_n=12, jobs=0), "--max-n 12 exceeds the exhaustive limit 9"),
        (dict(jobs=0), "--jobs must be >= 1, got 0"),
        (dict(jobs=-5), "--jobs must be >= 1, got -5"),
        # wrong types, each refused with one line before any other rule
        (dict(samples=2.5), "--samples must be an integer, got 2.5"),
        (dict(max_n=3.0), "--max-n must be an integer, got 3.0"),
        (dict(max_n=True), "--max-n must be an integer, got True"),
        (dict(seed=1.5, max_n=1), "--seed must be an integer, got 1.5"),
        (dict(sampled_n=(12.0,)), "--sampled-n must be a tuple of integers, got (12.0,)"),
        (dict(sampled_n=(12, False)), "--sampled-n must be a tuple of integers, got (12, False)"),
        (dict(sampled_n=[12]), "--sampled-n must be a tuple of integers, got [12]"),
        (dict(jobs=1.5), "--jobs must be an integer, got 1.5"),
    ])
    def test_faults_refused_in_order(self, fields, message):
        with pytest.raises(ValueError) as err:
            verification.VerifyOptions(**fields)
        assert str(err.value) == message

    @pytest.mark.parametrize("fields", [
        dict(max_n=2, sampled_n=(), samples=1, seed=0),
        dict(max_n=stats.MAX_EXHAUSTIVE_N, sampled_n=(3,)),
        dict(sampled_n=(MAX_SAMPLED_N,)),
    ])
    def test_boundaries_accepted(self, fields):
        verification.VerifyOptions(**fields)

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--max-n", "2",
                                 "--sampled-n", "3", "--samples", "2")
        assert (code, out, err) == (2, "", "error: --seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("argv,jobs", [([], None), (["--jobs", "2"], 2)])
    def test_cli_hands_options_to_run_all(self, capsys, monkeypatch, argv, jobs):
        # the parser's defaults are VerifyOptions()'s, and an absent --jobs
        # stays None for map_blocks to resolve
        seen = []
        monkeypatch.setattr(verification, "run_all", lambda opts: seen.append(opts) or [])
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert (code, out) == (0, "0/0 checks passed\n")
        assert seen == [verification.VerifyOptions(jobs=jobs)]


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

    @pytest.mark.parametrize("sizes", ["12,,20", "12,"])
    def test_empty_sampled_n_field_is_refused(self, capsys, monkeypatch, sizes):
        monkeypatch.setattr(verification, "run_all", lambda opts: pytest.fail("ran the checks"))
        code, out, err = run_cli_exit(capsys, ["verify", "--sampled-n", sizes])
        assert (code, out) == (2, "")
        assert err == "error: invalid literal for int() with base 10: ''\n"

    @pytest.mark.parametrize("sizes,parsed", [("", ()), (" ", ()), (" 12 , 20", (12, 20))])
    def test_sampled_n_sizes_parsed(self, capsys, monkeypatch, sizes, parsed):
        seen = []
        monkeypatch.setattr(verification, "run_all",
                            lambda opts: seen.append(opts.sampled_n) or [])
        code, out, err = run_cli_exit(capsys, ["verify", "--sampled-n", sizes])
        assert (code, err, seen) == (0, "", [parsed])

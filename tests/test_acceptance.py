"""Acceptance suite: one test per criterion, at the stated sizes and
tolerances.  Exact identities are asserted with Fraction equality (zero
tolerance); sampled estimates use the stated four-standard-error band.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion.
"""
import math
import re
import time
from fractions import Fraction

import pytest

from bruhat_degrees import bruhat, extremal, graphs, stats, verification
from bruhat_degrees.cli import main
from bruhat_degrees.perm import Permutation
from bruhat_degrees.reconstruct import reconstruct
from conftest import all_perms

JOBS = 8
SEED = 0


@pytest.fixture(scope="module")
def brute_down():
    return {n: extremal.brute_force_max(n, "down", jobs=JOBS) for n in range(2, 9)}


@pytest.fixture(scope="module")
def brute_total():
    return {n: extremal.brute_force_max(n, "total", jobs=JOBS) for n in range(2, 10)}


def report(line):
    print(f"PASS  {line}")


def test_criterion_1_max_down_degree(brute_down):
    start = time.perf_counter()
    best9, _ = extremal.brute_force_max(9, "down", jobs=JOBS)
    elapsed9 = time.perf_counter() - start
    assert best9 == 81 // 4 == extremal.max_down_degree(9)
    assert elapsed9 < 60.0
    for n in range(2, 9):
        assert brute_down[n][0] == n * n // 4 == extremal.max_down_degree(n)
    report(f"criterion 1: max down degree floor(n^2/4) for 2<=n<=9 "
           f"(S_9 scan {elapsed9:.1f}s < 60s with jobs={JOBS})")


def test_criterion_2_extremal_down_classification(brute_down):
    _, attaining9 = extremal.brute_force_max(9, "down", jobs=JOBS)
    sets = dict(brute_down)
    sets[9] = (20, attaining9)
    for n in range(2, 10):
        family = extremal.extremal_down_permutations(n)
        assert sets[n][1] == family, f"attaining set differs at n={n}"
        assert len(family) == (n if n % 2 else n // 2)
    report("criterion 2: extremal down sets equal the generated family, "
           "sizes n (odd) / n/2 (even), 2<=n<=9")


def test_criterion_3_max_total_degree_and_count(brute_total):
    for n in range(2, 10):
        best, attaining = brute_total[n]
        assert best == n * n // 4 + n - 2 == extremal.max_total_degree(n)
        family = extremal.extremal_total_permutations(n)
        assert attaining == family, f"attaining set differs at n={n}"
        expected = {2: 2, 3: 4, 4: 4}.get(n, 8 if n % 2 == 0 else 16)
        assert len(family) == expected
    vals5 = {p.values for p in brute_total[5][1]}
    assert (3, 2, 5, 1, 4) in vals5 and (4, 2, 5, 1, 3) in vals5
    report("criterion 3: max total degree floor(n^2/4)+n-2 with counts "
           "2/4/8/16 for 2<=n<=9, S_5 witnesses included")


def test_criterion_4_expectation_exact():
    for n in range(1, 201):
        assert stats.triple_sum_expectation(n) == stats.expected_down_degree(n)
    for n in range(1, 9):
        closed = stats.expected_down_degree(n)
        assert closed == (n + 1) * stats.harmonic(n) - 2 * n
        assert stats.exhaustive_mean(n, "down", jobs=JOBS if n >= 8 else 1) == closed
    report("criterion 4: triple sum == (n+1)H_n - 2n for n<=200 and both equal "
           "the exhaustive mean over S_n for n<=8, exact arithmetic")


def test_criterion_5_asymptotics_and_monte_carlo():
    for n in (10, 100, 1000, 10_000):
        gap = abs(float(stats.expected_down_degree(n)) / n - math.log(n))
        assert gap <= 2.0, f"gap {gap} at n={n}"
    exact = float(stats.expected_down_degree(50))
    runs = [stats.monte_carlo_mean(50, "down", samples=100_000, seed=SEED, jobs=j)
            for j in (1, JOBS, 1)]
    assert runs[0] == runs[1] == runs[2]  # fixed seed: reruns are identical
    mean, se = runs[0]
    assert abs(mean - exact) <= 4 * se
    for seed in (1, 2):
        m, s = stats.monte_carlo_mean(50, "down", samples=100_000, seed=seed)
        assert abs(m - exact) <= 4 * s
    report(f"criterion 5: |E/n - ln n| <= 2 up to n=10^4; Monte Carlo at n=50 "
           f"(10^5 samples) within 4 stderr, deterministic across reruns/jobs")


def test_criterion_6_reconstruction():
    for p in all_perms(8):
        assert reconstruct(8, bruhat.strong_descent_set(p, 1)) == p
    # block indices of 900 and up: streams that no verify run draws
    blocks = [(n, SEED, 900 + i, 10_000) for i, n in enumerate((20, 50, 100))]
    from bruhat_degrees._parallel import map_blocks
    for ok, detail in map_blocks(verification._reconstruction_block, blocks, JOBS):
        assert ok, detail
    for n in range(1, 8):
        seen = set()
        for p in all_perms(n):
            key = bruhat.strong_descent_set(p, 1).members
            assert key not in seen
            seen.add(key)
    report("criterion 6: round trip on all 40320 of S_8 and on 10^4 samples at "
           "each n in {20,50,100}; descent map injective for n<=7")


def test_criterion_7_structural_lemmas():
    for n in range(2, 7):
        cap = n // 2 + 1
        for p in all_perms(n):
            assert graphs.strong_descent_graph(p, 1).is_triangle_free()
            assert graphs.total_degree_graph(p).min_degree() <= cap
            assert bruhat.rth_down_degree(p, n - 1) == p.inversion_number()
            for r in range(1, n):
                g = graphs.strong_descent_graph(p, r)
                assert not g.has_clique(r + 2)
                assert g.edge_count <= graphs.turan_number(r + 1, n)
    for n in range(2, 50):
        for r in range(1, n):
            assert graphs.turan_number(r + 1, n) <= (
                math.comb(r + 1, 2) * Fraction(n, r + 1) ** 2)
    sweep = verification._structural_samples(verification.VerifyOptions(
        sampled_n=(40,), samples=10_000, seed=SEED, jobs=JOBS))
    for key, (ok, detail) in sweep.items():
        assert ok, f"{key}: {detail}"
    report("criterion 7: triangle-free, K_{r+2}-free (all r), min-degree bound, "
           "Turan bound, top-order=inversions; exhaustive n<=6 and 10^4 samples at n=40")


EXAMPLE_TEXT = "[7,9,5,2,3,8,4,1,6]"
R1_LINE = ("t(1,2) t(1,3) t(1,4) t(2,5) t(3,5) t(4,5) "
           "t(4,8) t(5,7) t(5,9) t(6,7) t(6,8) t(8,9)")
R2_LINE_AS_PRINTED = ("t(1,2) t(1,3) t(1,4) t(1,8) t(2,5) t(2,7) t(2,9) "
                      "t(3,5) t(3,7) t(3,9) t(4,5) t(4,7) t(4,8) t(4,9) "
                      "t(5,7) t(5,9) t(6,7) t(6,8) t(6,9) t(8,9)")
R2_LINE_PER_DEFINITION = ("t(1,2) t(1,3) t(1,4) t(1,8) t(2,5) t(2,7) t(2,9) "
                          "t(3,5) t(3,7) t(3,9) t(4,5) t(4,7) t(4,8) "
                          "t(5,7) t(5,9) t(6,7) t(6,8) t(6,9) t(8,9)")
S3_DEGREE_LINES = {
    "[1,2,3]": "down=0 up=2 total=2 inv=0",
    "[1,3,2]": "down=1 up=2 total=3 inv=1",
    "[2,1,3]": "down=1 up=2 total=3 inv=1",
    "[2,3,1]": "down=2 up=1 total=3 inv=2",
    "[3,1,2]": "down=2 up=1 total=3 inv=2",
    "[3,2,1]": "down=2 up=0 total=2 inv=3",
}


def cli_stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_criterion_8_worked_examples_cli(capsys):
    for perm, line in S3_DEGREE_LINES.items():
        assert cli_stdout(capsys, "degrees", perm) == line + "\n"
    assert cli_stdout(capsys, "descents", EXAMPLE_TEXT) == R1_LINE + "\n"
    assert cli_stdout(capsys, "descents", EXAMPLE_TEXT, "--r", "2") == (
        R2_LINE_PER_DEFINITION + "\n")
    report("criterion 8: S_3 degree table, the 12-member descent set and the "
           "order-2 set reproduced byte-for-byte (order-2 per the definition; "
           "see the companion erratum test)")


@pytest.mark.xfail(strict=True, reason=(
    "the printed order-2 example includes t(4,9), which contradicts the "
    "defining length window: swapping 4 and 9 drops the inversion number by "
    "5, outside (0,-4).  The definition-true set has 19 members; the "
    "companion test below proves the discrepancy with the length oracle."))
def test_criterion_8_order_two_set_as_printed(capsys):
    assert cli_stdout(capsys, "descents", EXAMPLE_TEXT, "--r", "2") == (
        R2_LINE_AS_PRINTED + "\n")


def test_criterion_8_order_two_erratum_proof():
    p = Permutation((7, 9, 5, 2, 3, 8, 4, 1, 6))
    printed = set(R2_LINE_AS_PRINTED.split())
    ours = set(R2_LINE_PER_DEFINITION.split())
    assert printed - ours == {"t(4,9)"}
    assert ours < printed
    # the independent oracle: inversion-number change of each candidate
    assert bruhat.length_change((4, 9), p) == -5  # outside (0,-4)
    for token in sorted(ours):
        a, b = (int(x) for x in token[2:-1].split(","))
        assert 0 > bruhat.length_change((a, b), p) > -4
    report("criterion 8 addendum: t(4,9) proven outside the order-2 window by "
           "the inversion-count oracle; remaining 19 members all inside")


def strip_timings(text):
    return re.sub(r"\s+\d+\.\d{2}s", "", text)


def test_criterion_9_verify_determinism(capsys):
    out = {}
    for jobs in (1, 8):
        code = main(["verify", "--max-n", "6", "--samples", "500",
                     "--seed", str(SEED), "--jobs", str(jobs)])
        assert code == 0
        out[jobs] = capsys.readouterr().out
    assert strip_timings(out[1]) == strip_timings(out[8])
    assert out[1].strip().split("\n")[-1] == (
        f"{len(verification.ALL_CHECKS)}/{len(verification.ALL_CHECKS)} checks passed")
    report("criterion 9: verify reports identical for --jobs 1 and --jobs 8 "
           "(timing column aside), all checks PASS at --max-n 6")

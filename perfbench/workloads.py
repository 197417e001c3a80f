"""The benchmark's four workloads.

Each workload is a closed loop: the benchmark issues one operation, waits
for it to finish, checks its output against an independent route
(``oracles``) and only then issues the next.  One pass is the workload's
fixed unit of work; a run repeats passes for the requested time.  No
workload ever asks for more worker processes than ``nproc``, the size of
the CPU affinity set.

exhaustive
    ``stats.distribution`` (down and total over S_9, r=2 over S_8) and
    ``extremal.brute_force_max`` (down and total over S_9), at jobs=nproc.
    This is the computation behind the extremal theorems: count-only word
    scans over every permutation, fanned out by ``_parallel.map_blocks``.
    It bypasses parsing, the value objects, reconstruction and numpy, so a
    faster exhaustive engine shows here and nowhere else.  S_n has no random
    input; the seed only orders the five calls of a pass.
sampled
    Seeded permutations at n in {20, 100, 400, 1000} go through
    parse_permutation -> total_degree -> strong_descent_set (r=1, r=2 and,
    for n <= 400, r=n/2) -> to_json/from_json -> reconstruct; every fourth
    one also submits a perturbed, unrealizable set that must be rejected.
    Then monte_carlo_mean for down at n=50, total at n=200 and r=5 at n=50.
    Everything runs at jobs=1, so this workload bypasses the process
    fan-out and the exhaustive engine.  Its sizes sit on both sides of the
    per-permutation numpy threshold (n=32) and of the ~500 crossover where
    an output-sensitive cover sweep would overtake the quadratic scans.
verify
    ``bruhat-degrees verify`` at its default flags with --jobs nproc, run
    in-process through ``cli.main``.  It is what a user runs to trust the
    library and it mixes every layer; it bypasses only process start-up.
cli-cold
    Fresh ``python -m bruhat_degrees.cli`` processes, one at a time:
    degrees (with and without --list), descents --r 2 --format json,
    graph --kind total, reconstruct from a set file and expect, at
    n in {9, 100}, plus extremal 9 --stat total.  Interpreter start-up and
    imports dominate, so this is the only workload that sees the ``cli``
    layer and import cost; it bypasses every scan that matters at scale.

The repository's tier-1 test suite (about 74 s) is deliberately not a
workload: it is how the repository checks itself, not something users run,
and at 22 runs per benchmark check it would not fit the time budget.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

clock = time.perf_counter

LIBRARY_MODULES = ("perm", "bruhat", "graphs", "reconstruct", "stats", "extremal",
                   "verification", "cli")


def library() -> SimpleNamespace:
    """The library's modules, imported from this checkout's ``src``."""
    if not (SRC / "bruhat_degrees" / "__init__.py").is_file():
        raise SystemExit(f"error: no bruhat_degrees package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"bruhat_degrees.{name}") for name in LIBRARY_MODULES}
    return SimpleNamespace(**modules)


def run_child(argv: list[str], timeout: float = 120, **kwargs: Any) -> subprocess.CompletedProcess:
    """``subprocess.run`` with a kill timer in place of its timeout, which
    polls the child with sleeps of up to 50 ms and so rounds short run
    times up to 50 ms steps.  Waits until the child has ended."""
    with subprocess.Popen(argv, **kwargs) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@contextlib.contextmanager
def no_span(name: str):
    yield


class Ledger:
    """Outcomes and timings of the operations of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds per latency-timed operation
        self.op_seconds = 0.0
        self.items = 0  # work items done by those operations
        self.samples = 0  # Monte Carlo samples drawn
        self.sample_seconds = 0.0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def busy(self) -> float:
        """Seconds inside operations, checks excluded."""
        return self.op_seconds + self.sample_seconds

    def op(self, name: str, call: Callable[[], Any], check: Callable[[Any], str | None],
           *, items: int = 1, samples: int = 0, span: Callable = no_span) -> None:
        """Time ``call``; then, untimed, ``check`` its result (None means
        correct).  Raising counts as a failure, like a wrong answer."""
        self.attempted += 1
        start = clock()
        try:
            with span(f"bench.{name}"):
                result = call()
        except Exception as exc:  # any exception is a failed operation
            self.failures.append((name, f"raised {type(exc).__name__}: {exc}"))
            return
        seconds = clock() - start
        if samples:
            self.samples += samples
            self.sample_seconds += seconds
        else:
            self.latencies.append(seconds)
            self.op_seconds += seconds
            self.items += items
        try:
            problem = check(result)
        except Exception as exc:  # a check that cannot run is a failure too
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append((name, problem))

    def verify(self, name: str, problem: str | None) -> None:
        """Count a check made outside any timed operation."""
        self.attempted += 1
        if problem:
            self.failures.append((name, problem))


def monte_carlo_problem(result: tuple[float, float], n: int, stat: str, r: int | None) -> str | None:
    mean, stderr = result
    exact = float(oracles.expected_stat(n, stat, r))
    if abs(mean - exact) > 4 * stderr:
        return f"mean {mean} is more than 4 stderr ({stderr}) from the exact {exact}"
    return None


# ---------------------------------------------------------------------------

class Exhaustive:
    name = "exhaustive"
    item = "permutation scanned"
    fans_out = True
    single_process = False
    N = 9
    RTH_N, RTH_R = 8, 2

    def __init__(self, seed: int, jobs: int) -> None:
        self.lib = lib = library()
        self.jobs = jobs
        n, m = self.N, self.RTH_N
        mean1 = oracles.expected_rth_degree(n, 1)
        self.calls = [
            ("distribution.down.n9", lambda j: lib.stats.distribution(n, "down", jobs=j),
             self._histogram_check(n, mean1, oracles.max_down_degree(n)), math.factorial(n)),
            ("distribution.total.n9", lambda j: lib.stats.distribution(n, "total", jobs=j),
             self._histogram_check(n, 2 * mean1, oracles.max_total_degree(n)), math.factorial(n)),
            ("distribution.rth2.n8",
             lambda j: lib.stats.distribution(m, "rth", r=self.RTH_R, jobs=j),
             self._histogram_check(m, oracles.expected_rth_degree(m, self.RTH_R), None),
             math.factorial(m)),
            ("brute_force_max.down.n9", lambda j: lib.extremal.brute_force_max(n, "down", jobs=j),
             self._max_check(oracles.max_down_degree(n), lib.extremal.extremal_down_permutations(n)),
             math.factorial(n)),
            ("brute_force_max.total.n9", lambda j: lib.extremal.brute_force_max(n, "total", jobs=j),
             self._max_check(oracles.max_total_degree(n), lib.extremal.extremal_total_permutations(n)),
             math.factorial(n)),
        ]
        random.Random(seed).shuffle(self.calls)

    @staticmethod
    def _histogram_check(n: int, mean, top: int | None) -> Callable[[Any], str | None]:
        def check(hist) -> str | None:
            if hist.total() != math.factorial(n):
                return f"histogram counts {hist.total()} permutations, expected {n}!"
            if hist.mean() != mean:
                return f"mean {hist.mean()} differs from the closed form {mean}"
            if top is not None and max(hist.counts) != top:
                return f"largest value {max(hist.counts)}, expected {top}"
            return None
        return check

    @staticmethod
    def _max_check(best: int, attaining: list) -> Callable[[Any], str | None]:
        def check(result) -> str | None:
            found, perms = result
            if found != best:
                return f"maximum {found}, expected {best}"
            if perms != attaining:
                return f"{len(perms)} attaining permutations differ from the extremal family"
            return None
        return check

    def run_pass(self, ledger: Ledger, index: int, span: Callable = no_span) -> None:
        for name, call, check, items in self.calls:
            ledger.op(name, lambda: call(self.jobs), check, items=items, span=span)

    def record(self) -> dict:
        return {"n": [self.N, self.RTH_N], "r": [1, self.RTH_R], "jobs": self.jobs,
                "permutations_per_pass": sum(items for *_, items in self.calls)}


class Sampled:
    name = "sampled"
    item = "permutation through the pipeline"
    fans_out = False
    single_process = True  # no worker or child processes
    SIZES = (20, 100, 400, 1000)
    # Sorted by latency, the n=20 pipelines fill the lowest 96% of a pass, so
    # p50 and p90 both measure the pure-Python path below the numpy
    # threshold, from about a thousand operations per run.  Percentiles among
    # the few dozen large-size operations of a run spread too much from run
    # to run; the large sizes show in items_per_s and wall_s.
    PER_PASS = {20: 96, 100: 2, 400: 1, 1000: 1}
    HALF_ORDER_MAX_N = 400
    POOL = 8  # passes of distinct inputs; later passes reuse them
    MONTE_CARLO = (("monte_carlo.down.n50", 50, "down", 20_000, None),
                   ("monte_carlo.total.n200", 200, "total", 2_000, None),
                   ("monte_carlo.rth5.n50", 50, "rth", 500, 5))

    def __init__(self, seed: int, jobs: int) -> None:
        self.lib = library()
        self.seed = seed
        self.jobs = 1  # sampling is per permutation; the fan-out is not under test here
        rng = random.Random(seed)
        self.pool = []
        for _ in range(self.POOL):
            batch = [oracles.random_word(n, rng) for n in self.SIZES for _ in range(self.PER_PASS[n])]
            rng.shuffle(batch)
            self.pool.append([(oracles.one_line(w), w) for w in batch])
        self.mc_first: dict[str, tuple[float, float]] = {}

    def _pipeline(self, text: str, n: int, perturbed: bool):
        lib = self.lib
        p = lib.perm.parse_permutation(text)
        degrees = lib.bruhat.total_degree(p)
        orders = (1, 2, n // 2) if n <= self.HALF_ORDER_MAX_N else (1, 2)
        sets = {r: lib.bruhat.strong_descent_set(p, r) for r in orders}
        parsed = lib.bruhat.StrongDescentSet.from_json(sets[1].to_json())
        rebuilt = lib.reconstruct.reconstruct(n, parsed)
        rejected = None
        if perturbed:
            bad = oracles.perturb(n, sets[1].pairs())
            candidate = lib.bruhat.StrongDescentSet.from_json(oracles.set_json(n, 1, bad or []))
            try:
                lib.reconstruct.reconstruct(n, candidate)
                rejected = False
            except lib.reconstruct.ValidationFailure:
                rejected = True
        return p, degrees, sets, parsed, rebuilt, rejected

    def _pipeline_check(self, w: tuple[int, ...], result) -> str | None:
        p, degrees, sets, parsed, rebuilt, rejected = result
        if p.values != w:
            return "parse_permutation changed the permutation"
        if degrees.down != len(sets[1]):
            return f"down degree {degrees.down} != |D(p,1)| = {len(sets[1])}"
        for r, s in sets.items():
            if len(s) != self.lib.bruhat.rth_down_degree(p, r):
                return f"|D(p,{r})| = {len(s)} differs from rth_down_degree"
        if parsed != sets[1]:
            return "JSON round trip changed the descent set"
        if rebuilt != p:
            return "reconstruct(D(p)) != p"
        if rejected is False:
            return "a triangle-closing (unrealizable) set was accepted"
        return None

    def _mc_check(self, name: str, n: int, stat: str, r: int | None):
        def check(result) -> str | None:
            first = self.mc_first.setdefault(name, result)
            if result != first:
                return f"same seed gave {result}, earlier {first}"
            return monte_carlo_problem(result, n, stat, r)
        return check

    def run_pass(self, ledger: Ledger, index: int, span: Callable = no_span) -> None:
        for position, (text, w) in enumerate(self.pool[index % self.POOL]):
            perturbed = position % 4 == 3
            ledger.op(f"pipeline.n{len(w)}",
                      lambda: self._pipeline(text, len(w), perturbed),
                      lambda result: self._pipeline_check(w, result), span=span)
        stats = self.lib.stats
        for name, n, stat, samples, r in self.MONTE_CARLO:
            ledger.op(name,
                      lambda: stats.monte_carlo_mean(n, stat, samples=samples, seed=self.seed,
                                                     r=r, jobs=self.jobs),
                      self._mc_check(name, n, stat, r), samples=samples, span=span)

    def record(self) -> dict:
        return {"n": list(self.SIZES), "r": [1, 2, "n/2 for n<=400"],
                "permutations_per_pass": dict(self.PER_PASS),
                "distinct_passes": self.POOL, "perturbed_share": 0.25,
                "monte_carlo": [{"n": n, "stat": stat, "r": r, "samples": s}
                                for _, n, stat, s, r in self.MONTE_CARLO],
                "jobs": self.jobs}


class Verify:
    name = "verify"
    item = "theorem check"
    fans_out = True
    single_process = False

    def __init__(self, seed: int, jobs: int) -> None:
        # verify's own --seed keeps its default: its Monte Carlo check is
        # known to pass there, and default flags are what users run
        self.lib = library()
        self.jobs = jobs
        self.checks = len(self.lib.verification.ALL_CHECKS)

    def _call(self) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lib.cli.main(["verify", "--jobs", str(self.jobs)])
        return code, out.getvalue()

    def _check(self, result) -> str | None:
        code, text = result
        lines = text.splitlines()
        summary = f"{self.checks}/{self.checks} checks passed"
        if code != 0 or not lines or lines[-1] != summary:
            return f"exit code {code}, last line {lines[-1] if lines else ''!r}"
        if sum(line.startswith("PASS") for line in lines) != self.checks:
            return "PASS lines do not match the number of checks"
        return None

    def run_pass(self, ledger: Ledger, index: int, span: Callable = no_span) -> None:
        ledger.op("verify", self._call, self._check, items=self.checks, span=span)

    def record(self) -> dict:
        defaults = dataclasses.asdict(self.lib.verification.VerifyOptions())
        del defaults["jobs"]
        return {"argv": ["verify", "--jobs", str(self.jobs)], "checks": self.checks,
                "jobs": self.jobs, "defaults": defaults}


class CliCold:
    name = "cli-cold"
    item = "CLI call"
    fans_out = False
    single_process = False
    SIZES = (9, 100)
    EXTREMAL_N = 9
    EXTREMAL_TOTAL_COUNT = 16  # size of the orbit of maximal total degree for n = 9

    def __init__(self, seed: int, jobs: int) -> None:
        self.jobs = 1
        rng = random.Random(seed)
        OUT.mkdir(exist_ok=True)
        self.calls: list[tuple[str, list[str], Callable[[str], str | None]]] = []
        for n in self.SIZES:
            w = oracles.random_word(n, rng)
            perm = oracles.one_line(w)
            down = oracles.descent_pairs(w, 1)
            up = oracles.up_pairs(w)
            set_file = OUT / f"cli-set-n{n}-seed{seed}.json"
            set_file.write_text(oracles.set_json(n, 1, down) + "\n", encoding="utf-8")
            line = f"down={len(down)} up={len(up)} total={len(down) + len(up)} inv={oracles.inversions(w)}\n"
            covered = " ".join(oracles.one_line(q) for q in sorted(oracles.swapped(w, a, b) for a, b in down))
            covering = " ".join(oracles.one_line(q) for q in sorted(oracles.swapped(w, a, b) for a, b in up))
            dot = ("graph G {\n" + "".join(f"  {v};\n" for v in range(1, n + 1))
                   + "".join(f"  {a} -- {b};\n" for a, b in sorted(down + up)) + "}\n")
            mean = oracles.expected_rth_degree(n, 1)
            self.calls += [
                (f"degrees.n{n}", ["degrees", perm], self._equals(line)),
                (f"degrees_list.n{n}", ["degrees", perm, "--list"],
                 self._equals(f"{line}covered_by: {covered}\ncovers_of: {covering}\n")),
                (f"descents.n{n}", ["descents", perm, "--r", "2", "--format", "json"],
                 self._equals(oracles.set_json(n, 2, oracles.descent_pairs(w, 2)) + "\n")),
                (f"graph.n{n}", ["graph", perm, "--kind", "total"], self._equals(dot)),
                (f"reconstruct.n{n}", ["reconstruct", str(n), str(set_file)], self._equals(perm + "\n")),
                (f"expect.n{n}", ["expect", str(n)],
                 self._equals(f"{mean.numerator}/{mean.denominator}\n")),
            ]
        self.calls.append((f"extremal.n{self.EXTREMAL_N}",
                           ["extremal", str(self.EXTREMAL_N), "--stat", "total"], self._extremal_check))

    @staticmethod
    def _equals(expected: str) -> Callable[[str], str | None]:
        def check(stdout: str) -> str | None:
            if stdout != expected:
                return f"stdout {stdout[:80]!r} differs from the expected {expected[:80]!r}"
            return None
        return check

    def _extremal_check(self, stdout: str) -> str | None:
        n = self.EXTREMAL_N
        rows = stdout.splitlines()[1:]
        perms = []
        for row in rows:
            text, down, up, total = row.split()
            w = tuple(int(v) for v in text.strip("[]").split(","))
            if (int(down), int(up)) != (len(oracles.descent_pairs(w, 1)), len(oracles.up_pairs(w))):
                return f"row {row!r} misreports the degrees"
            if int(total) != oracles.max_total_degree(n):
                return f"row {row!r} does not attain {oracles.max_total_degree(n)}"
            perms.append(w)
        if len(set(perms)) != self.EXTREMAL_TOTAL_COUNT or perms != sorted(perms):
            return f"{len(perms)} rows, expected {self.EXTREMAL_TOTAL_COUNT} distinct sorted rows"
        return None

    @staticmethod
    def invoke(args: list[str]) -> str:
        done = run_child([sys.executable, "-m", "bruhat_degrees.cli", *args], cwd=ROOT,
                         env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"exit code {done.returncode}: {done.stderr.strip()[-200:]}")
        return done.stdout

    def run_pass(self, ledger: Ledger, index: int, span: Callable = no_span) -> None:
        for name, args, check in self.calls:
            ledger.op(name, lambda: self.invoke(args), check, span=span)

    def record(self) -> dict:
        return {"n": list(self.SIZES) + [self.EXTREMAL_N],
                "calls_per_pass": [name for name, _, _ in self.calls],
                "jobs": self.jobs}


WORKLOADS = {cls.name: cls for cls in (Exhaustive, Sampled, Verify, CliCold)}

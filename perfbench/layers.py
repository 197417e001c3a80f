"""The per-layer table that every traced run reports.

Each entry times direct calls into one module's public functions on inputs
made from the run's seed, and checks what they return.  The scans inside
the exhaustive loops and the per-permutation calls of the sampled pipeline
are too hot to wrap with spans, so they are measured here instead.  The
table is the same for every workload: a traced run must report every
per-layer metric, and the layers a workload never enters would otherwise
have no number.  What the workload itself spent in each layer is in the
spans that ``run.py`` writes next to the result.
"""
from __future__ import annotations

import random
import statistics
import subprocess
import sys
from typing import Any, Callable, Iterable

import numpy as np

import oracles
from tracing import Tracer
from workloads import (ROOT, CliCold, Ledger, Sampled, cli_env, clock, library,
                       monte_carlo_problem, run_child)

SIZES = (20, 100, 400, 1000)
COUNT = {20: 64, 100: 16, 400: 4, 1000: 2}  # distinct permutations per size
SMALL_REPEAT = 8  # passes over the n=100 inputs for the microsecond-scale calls
CLIQUE_N = 40
BATCH_ROWS = {50: 2000, 200: 200}
EXHAUSTIVE_N = 8  # full S_9 scans at jobs=1 cost about ten seconds
VERIFY_SAMPLES = 200
COLD_REPEAT = 3


def _per_call(fn: Callable, inputs: Iterable) -> tuple[float, list]:
    """Mean microseconds per call of fn over inputs, and the results."""
    inputs = list(inputs)
    start = clock()
    results = [fn(x) for x in inputs]
    return (clock() - start) / len(inputs) * 1e6, results


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = clock()
    result = fn()
    return clock() - start, result


def _python(args: list[str]) -> str:
    done = run_child([sys.executable, *args], cwd=ROOT, env=cli_env(),
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    done.check_returncode()
    return done.stdout


class _Table:
    """Measures one layer per method; inputs are drawn in a fixed order."""

    def __init__(self, seed: int, nproc: int, ledger: Ledger) -> None:
        self.lib = library()
        self.seed = seed
        self.nproc = nproc
        self.check = ledger.verify
        self.rng = random.Random(seed)
        self.out: dict[str, tuple[float, str]] = {}
        self.words = {n: [oracles.random_word(n, self.rng) for _ in range(COUNT[n])] for n in SIZES}
        self.perms = {n: [self.lib.perm.Permutation(w) for w in ws] for n, ws in self.words.items()}
        self.small = [self.lib.perm.Permutation(oracles.random_word(CLIQUE_N, self.rng))
                      for _ in range(20)]
        self.sets: dict[int, list] = {}  # D(p, 1) of self.perms, filled by bruhat()

    def perm(self) -> None:
        perm, words = self.lib.perm, self.words[100]
        texts = [oracles.one_line(w) for w in words]
        self.out["perm.parse_us"] = (_per_call(perm.parse_permutation, texts * SMALL_REPEAT)[0], "us")
        self.out["perm.construct_us"] = (_per_call(perm.Permutation, words * SMALL_REPEAT)[0], "us")
        self.check("perm.parse", None if [perm.parse_permutation(t).values for t in texts] == words
                   else "parse_permutation changed a permutation")

    def bruhat(self) -> None:
        bruhat, out = self.lib.bruhat, self.out
        for n in SIZES:
            out[f"bruhat.degree_us.n{n}"] = (_per_call(bruhat.total_degree, self.perms[n])[0], "us")
        for n in SIZES:
            us, self.sets[n] = _per_call(lambda p: bruhat.strong_descent_set(p, 1), self.perms[n])
            out[f"bruhat.descent_set_us.r1.n{n}"] = (us, "us")
        for n in SIZES:
            us, _ = _per_call(lambda p: bruhat.strong_descent_set(p, 2), self.perms[n])
            out[f"bruhat.descent_set_us.r2.n{n}"] = (us, "us")
        for n in SIZES:
            if n <= Sampled.HALF_ORDER_MAX_N:
                us, _ = _per_call(lambda p: bruhat.strong_descent_set(p, p.n // 2), self.perms[n])
                out[f"bruhat.descent_set_us.rhalf.n{n}"] = (us, "us")
        for n in SIZES:
            degrees = [bruhat.down_degree(p) for p in self.perms[n]]
            self.check("bruhat.degree", None if degrees == [len(s) for s in self.sets[n]]
                       else "down degree != |D(p,1)|")
        for w, s in zip(self.words[20] + self.words[100][:2], self.sets[20] + self.sets[100][:2]):
            self.check("bruhat.descent_set", None if s.pairs() == oracles.descent_pairs(w, 1)
                       else "D(p,1) differs from the cubic definition")

        us, parsed = _per_call(lambda s: bruhat.StrongDescentSet.from_json(s.to_json()),
                               self.sets[100] * SMALL_REPEAT)
        out["bruhat.descent_json_us"] = (us, "us")
        self.check("bruhat.descent_json", None if parsed[:COUNT[100]] == self.sets[100]
                   else "JSON round trip changed a set")

        us, tables = _per_call(bruhat.between_counts, self.small)
        out[f"bruhat.between_counts_us.n{CLIQUE_N}"] = (us, "us")
        values = np.arange(1, CLIQUE_N + 1)
        for p, (counts, pos) in zip(self.small, tables):
            covers = np.triu(pos[values][None, :] < pos[values][:, None], 1) & (counts == 0)
            pairs = sorted((int(a) + 1, int(b) + 1) for a, b in np.argwhere(covers))
            self.check("bruhat.between_counts", None if pairs == bruhat.strong_descent_set(p, 1).pairs()
                       else "between-count covers differ from D(p,1)")

    def reconstruct(self) -> None:
        rec, bruhat = self.lib.reconstruct, self.lib.bruhat
        calls = rejected = 0
        for n in SIZES:
            us, rebuilt = _per_call(lambda s: rec.reconstruct(n, s), self.sets[n])
            self.out[f"reconstruct.call_us.n{n}"] = (us, "us")
            self.check("reconstruct", None if rebuilt == self.perms[n] else "reconstruct(D(p)) != p")
            bad = oracles.perturb(n, self.sets[n][0].pairs())
            calls += COUNT[n] + 1
            try:
                rec.reconstruct(n, bruhat.StrongDescentSet.from_json(oracles.set_json(n, 1, bad or [])))
                self.check("reconstruct.reject", "an unrealizable set was accepted")
            except rec.ValidationFailure:
                rejected += 1
                self.check("reconstruct.reject", None)
        self.out["reconstruct.reject_ratio"] = (rejected / calls, "ratio")

    def graphs(self) -> None:
        graphs = self.lib.graphs
        us, built = _per_call(lambda p: graphs.strong_descent_graph(p, 1), self.perms[100])
        self.out["graphs.descent_graph_us"] = (us, "us")
        edges = [g.edge_count for g in built]
        self.check("graphs.descent_graph", None if edges == [len(s) for s in self.sets[100]]
                   else "descent graph edges != |D(p,1)|")
        order2 = [graphs.strong_descent_graph(p, 2) for p in self.small]
        us, found = _per_call(lambda g: g.has_clique(4), order2)
        self.out["graphs.has_clique_us"] = (us, "us")
        self.check("graphs.has_clique", None if not any(found) else "K_4 in an order-2 descent graph")

    def stats(self) -> None:
        lib, stats, out = self.lib, self.lib.stats, self.out
        for n, rows in BATCH_ROWS.items():
            W = np.array([oracles.random_word(n, self.rng) for _ in range(rows)], dtype=np.int64)
            seconds, degs = _timed(lambda: stats.down_degrees_batch(W))
            out[f"stats.batch_us_per_row.n{n}"] = (seconds / rows * 1e6, "us")
            scans = [lib.bruhat.down_degree(lib.perm.Permutation(tuple(map(int, row)))) for row in W[:10]]
            self.check("stats.batch", None if [int(d) for d in degs[:10]] == scans
                       else "batch degrees differ from the word scan")
        for name, n, stat, samples, r in Sampled.MONTE_CARLO:
            seconds, result = _timed(lambda: stats.monte_carlo_mean(
                n, stat, samples=samples, seed=self.seed, r=r, jobs=1))
            out[f"stats.monte_carlo_s.{name.split('.', 1)[1]}"] = (seconds, "s")
            self.check("stats.monte_carlo", monte_carlo_problem(result, n, stat, r))

        m, extremal = EXHAUSTIVE_N, lib.extremal
        scans = (
            ("stats.distribution_s.total.n8", lambda: stats.distribution(m, "total", jobs=1),
             lambda h: (h.mean(), max(h.counts)) == (oracles.expected_stat(m, "total"),
                                                     oracles.max_total_degree(m))),
            ("stats.distribution_s.rth2.n8", lambda: stats.distribution(m, "rth", r=2, jobs=1),
             lambda h: h.mean() == oracles.expected_stat(m, "rth", 2)),
            ("extremal.brute_force_max_s.down.n8", lambda: extremal.brute_force_max(m, "down", jobs=1),
             lambda res: res == (oracles.max_down_degree(m), extremal.extremal_down_permutations(m))),
            ("extremal.brute_force_max_s.total.n8", lambda: extremal.brute_force_max(m, "total", jobs=1),
             lambda res: res == (oracles.max_total_degree(m), extremal.extremal_total_permutations(m))),
        )
        for name, call, ok in scans:
            seconds, result = _timed(call)
            out[name] = (seconds, "s")
            self.check(name, None if ok(result) else "result differs from the closed form")

    def parallel(self) -> None:
        """One S_9 scan at jobs=1 and at jobs=nproc; blocks and workers are
        counted from outside, through the map_blocks wrapper."""
        stats = self.lib.stats
        serial, hist1 = _timed(lambda: stats.distribution(9, "down", jobs=1))
        fan = Tracer(spans=False)
        with fan.installed():
            parallel, hist2 = _timed(lambda: stats.distribution(9, "down", jobs=self.nproc))
        self.check("parallel", None if hist1 == hist2 and hist1.mean() == oracles.expected_stat(9, "down")
                   else "distribution differs between job counts")
        workers = max((record["workers"] for record in fan.fanout), default=1)
        self.out["stats.distribution_s.down.n9"] = (serial, "s")
        self.out["parallel.blocks"] = (sum(record["blocks"] for record in fan.fanout), "count")
        self.out["parallel.workers"] = (workers, "count")
        self.out["parallel.speedup"] = (serial / parallel, "ratio")
        self.out["parallel.efficiency"] = (serial / parallel / workers, "ratio")

    def verification(self) -> None:
        ver = self.lib.verification
        opts = ver.VerifyOptions(samples=VERIFY_SAMPLES, jobs=1)
        # verify computes the shared structural sweep once, inside the first
        # check that needs it; timing it first bills it here instead
        seconds, _ = _timed(lambda: ver._structural_samples(opts))
        self.out["verification.structural_sweep_s"] = (seconds, "s")
        for name, fn in ver.ALL_CHECKS:
            seconds, (passed, detail) = _timed(lambda: fn(opts))
            self.out[f"verification.{name}_s"] = (seconds, "s")
            self.check(f"verification.{name}", None if passed else detail)

    def cli(self) -> None:
        """Cold interpreter, cold import, one cold call per subcommand."""
        runs = [_timed(lambda: _python(["-c", "pass"]))[0] for _ in range(COLD_REPEAT)]
        self.out["cli.interpreter_ms"] = (statistics.median(runs) * 1e3, "ms")
        imports = [float(_python(["-c", "import time; t = time.perf_counter(); "
                                        "import bruhat_degrees.cli; print(time.perf_counter() - t)"]))
                   for _ in range(COLD_REPEAT)]
        self.out["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
        cold = CliCold(self.seed, 1)
        for name, args, ok in cold.calls:
            command = name.split(".")[0]
            if name.endswith(".n100") or command == "extremal":
                seconds, stdout = _timed(lambda: cold.invoke(args))
                self.out[f"cli.{command}_ms"] = (seconds * 1e3, "ms")
                self.check(f"cli.{command}", ok(stdout))


def probe(seed: int, nproc: int, ledger: Ledger) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); checks go to ledger."""
    table = _Table(seed, nproc, ledger)
    for layer in (table.perm, table.bruhat, table.reconstruct, table.graphs, table.stats,
                  table.parallel, table.verification, table.cli):
        layer()
    return table.out

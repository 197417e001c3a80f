"""Benchmark for bruhat_degrees.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
With --trace 0 a run measures the end-to-end metrics: it repeats passes of
the workload's fixed work (see ``workloads``) for about S seconds, checks
every output, and prints on its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 1 it
runs one untraced and one traced pass at jobs=1 (their ratio is
``trace.overhead_ratio``), one pass at jobs=nproc for the workloads that
fan out, and the per-layer table of ``layers``; S does not apply.  Each run
also writes its result, with the environment it ran in, to
``perfbench/out/`` (traced runs add their spans), and prints a table of its
metrics with units on stderr.  ``--workload all`` runs the four workloads
one after another, each in its own process, prints their tables on stdout
and writes them to one file.

End-to-end metrics, per workload:
  setup_s      median over 7 fresh processes of start-up, imports and input
               generation
  wall_s       median time of one pass's operations (checks excluded)
  items_per_s  work items per second of operation time; the item is a
               permutation scanned (exhaustive), a permutation through the
               pipeline (sampled), a theorem check (verify) or a CLI call
               (cli-cold)
  op_ms_p50/p90  latency of one operation: a library call (exhaustive), one
               permutation's pipeline (sampled; both percentiles fall among
               its n=20 pipelines), a whole verify (verify), a CLI process
               (cli-cold); the sample count is in the result file
  peak_rss_mb  peak resident memory of this process plus its largest child
The result file and the tables also carry error_rate (failed / attempted),
perms_per_s (exhaustive and sampled) and samples_per_s (sampled).
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import OUT, ROOT, WORKLOADS, Ledger, clock  # noqa: E402

SETUP_REPEAT = 7
UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "op_ms_p50": "ms",
         "op_ms_p90": "ms", "peak_rss_mb": "MB"}
EXTRA_UNITS = {"error_rate": "ratio", "perms_per_s": "1/s", "samples_per_s": "1/s",
               "operations": "count", "passes": "count"}

_SETUP = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
          "workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), int(sys.argv[4]))")


def nproc() -> int:
    """Cores this process may run on; no workload uses more jobs."""
    return len(os.sched_getaffinity(0))


def setup_seconds(name: str, seed: int, jobs: int) -> float:
    """Median wall time of a fresh interpreter that imports everything the
    workload needs and generates its inputs."""
    times = []
    for _ in range(SETUP_REPEAT):
        start = clock()
        done = workloads.run_child([sys.executable, "-c", _SETUP, str(HERE), name, str(seed), str(jobs)],
                                   cwd=ROOT, env=workloads.cli_env(), stdout=subprocess.DEVNULL)
        times.append(clock() - start)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up of {name} failed with exit code {done.returncode}")
    return statistics.median(times)


def percentiles_ms(latencies: list[float]) -> tuple[float, float]:
    ms = [x * 1e3 for x in latencies] or [0.0]  # no latencies only when every operation failed
    if len(ms) < 2:
        return ms[0], ms[0]
    cuts = statistics.quantiles(ms, n=10, method="inclusive")
    return cuts[4], cuts[8]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024  # ru_maxrss is in KiB on Linux


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, jobs: int, workload) -> dict:
    return {
        "seed": seed, "jobs": jobs, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "platform": platform.platform(),
        "git_commit": git_commit(), "inputs": workload.record(),
    }


def measure(name: str, seed: int, seconds: float) -> tuple[Ledger, dict, dict, dict]:
    """Untraced run: passes until about ``seconds`` have gone by."""
    jobs = nproc() if WORKLOADS[name].fans_out else 1
    setup = setup_seconds(name, seed, jobs)
    workload = WORKLOADS[name](seed, jobs)
    ledger = Ledger()
    passes: list[float] = []
    cpus = sorted(os.sched_getaffinity(0))
    start = clock()
    try:
        while True:
            if workload.single_process:
                # A single-threaded run stays on one core for its whole life,
                # and on a shared machine the cores slow down and recover
                # independently for minutes at a time.  Moving each pass to
                # the next core makes a run average over all of them.  Runs
                # with workers or child processes are left alone: those would
                # inherit the pinning.
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            busy = ledger.busy
            workload.run_pass(ledger, len(passes))
            passes.append(ledger.busy - busy)  # the pass's operations, without their checks
            # stop once another pass would overrun by more than half a pass
            if clock() - start + 0.5 * statistics.median(passes) > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    p50, p90 = percentiles_ms(ledger.latencies)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(passes),
        "items_per_s": ledger.items / ledger.op_seconds if ledger.op_seconds else 0.0,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "peak_rss_mb": peak_rss_mb(),
    }
    extras = {"error_rate": ledger.failed / ledger.attempted,
              "operations": len(ledger.latencies), "passes": len(passes)}
    if workload.item.startswith("permutation"):
        extras["perms_per_s"] = metrics["items_per_s"]
    if ledger.samples:
        extras["samples_per_s"] = ledger.samples / ledger.sample_seconds
    details = {"pass_seconds": passes, "item": workload.item,
               "env": environment(seed, jobs, workload)}
    return ledger, metrics, extras, details


def trace(name: str, seed: int) -> tuple[Ledger, dict, dict, dict]:
    """Traced run: per-layer table, spans, fan-out and tracing overhead."""
    import layers
    from tracing import Tracer

    cores = nproc()
    workload = WORKLOADS[name](seed, 1)
    ledger = Ledger()
    # the layer table goes first so that both timed passes run in a warm process
    table = layers.probe(seed, cores, ledger)
    start = clock()
    workload.run_pass(ledger, 0)
    untraced = clock() - start
    tracer = Tracer()
    with tracer.installed():
        start = clock()
        workload.run_pass(ledger, 0, tracer.span)
        traced = clock() - start
    walls = {"untraced_jobs1_s": untraced, "traced_jobs1_s": traced}
    fan = Tracer(spans=False)
    if workload.fans_out:
        workload.jobs = cores
        with fan.installed():
            start = clock()
            workload.run_pass(ledger, 0)
            walls["untraced_nproc_s"] = clock() - start
        walls["pass_speedup"] = untraced / walls["untraced_nproc_s"]
    table["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics = {key: value for key, (value, _) in table.items()}
    units = {key: unit for key, (_, unit) in table.items()}
    details = {"units": units, "pass_walls": walls, "fanout_jobs1": tracer.fanout,
               "fanout_nproc": fan.fanout, "layer_self_s": tracer.layer_self_times(),
               "env": environment(seed, 1, workload)}
    spans = _out_file(name, seed, 1, "spans").with_suffix(".json.gz")
    details["spans_file"] = str(spans.relative_to(ROOT))
    tracer.dump(str(spans), {"workload": name, "seed": seed})
    return ledger, metrics, {"error_rate": ledger.failed / ledger.attempted}, details


def _out_file(name: str, seed: int, traced: int, kind: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / f"{name}-seed{seed}-trace{traced}-{kind}.json"


def table(title: str, metrics: dict, units: dict) -> str:
    lines = [title]
    for key, value in metrics.items():
        lines.append(f"  {key:48} {value:>16.6g} {units.get(key, '')}")
    return "\n".join(lines)


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    workloads.library()  # fail early, before any output, when src is missing
    if traced:
        ledger, metrics, extras, details = trace(name, seed)
        units = details["units"]
    else:
        ledger, metrics, extras, details = measure(name, seed, seconds)
        units = UNITS
    result = {"correct": ledger.failed == 0 and ledger.attempted > 0,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}}
    report = dict(result, extras=extras, failures=ledger.failures, workload=name, **details)
    _out_file(name, seed, int(traced), "result").write_text(json.dumps(report, indent=1) + "\n")
    for op, problem in ledger.failures:
        print(f"FAILED {op}: {problem}", file=sys.stderr)
    print(table(f"{name} (seed {seed}, trace {int(traced)})", {**metrics, **extras},
                {**units, **EXTRA_UNITS}), file=sys.stderr)
    if traced:
        print(table("  self seconds by layer in the traced pass", details["layer_self_s"], {}),
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(traced))],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(table(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']}",
                    {k: v["value"] for k, v in result["metrics"].items()},
                    {k: v["unit"] for k, v in result["metrics"].items()}))
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    _out_file("all", seed, int(traced), "result").write_text(json.dumps(combined, indent=1) + "\n")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

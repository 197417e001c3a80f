"""Command-line interface.

Subcommands:

    degrees       down/up/total degree and inversion count of one permutation
    descents      r-th strong descent set (text or JSON)
    graph         descent / total / r-th descent graph as DOT or JSON
    reconstruct   permutation from a descent-set file
    extremal      the permutations attaining a degree maximum
    expect        exact expected down degree ((n+1)H_n - 2n)
    distribution  exact histogram of a statistic over all of S_n
    sample        Monte Carlo estimate of a statistic at large n
    verify        run every theorem check and report PASS/FAIL per fact

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All output is byte-deterministic given identical flags and seed (the
verify timing column aside).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bruhat, extremal, graphs, stats, verification
from ._parallel import default_jobs
from .reconstruct import ValidationFailure, reconstruct
from .perm import InvalidPermutationError, _parse_int, parse_permutation


def _int(token: str) -> int:
    """argparse type of every integer argument: ASCII digits with an optional
    sign, where ``int`` alone also reads ``1_0`` and non-ASCII digits."""
    return _parse_int(token)


_int.__name__ = "int"  # argparse names the type in its message: "invalid int value"


class _JobsAction(argparse.Action):
    """Store a --jobs value, rejecting counts below 1 with one line on stderr."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values < 1:
            parser.exit(2, f"error: {option_string} must be >= 1, got {values}\n")
        setattr(namespace, self.dest, values)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_int, default=None, action=_JobsAction,
                        help="worker processes (default: all cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhat-degrees",
        description="Degree statistics in the Hasse diagram of the strong Bruhat order.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrees", help="degrees of one permutation")
    p.add_argument("perm", help="permutation, e.g. '[3,2,1]' or '3 2 1'")
    p.add_argument("--list", action="store_true", help="also print the cover lists")

    p = sub.add_parser("descents", help="r-th strong descent set")
    p.add_argument("perm")
    p.add_argument("--r", type=_int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("graph", help="graph view of a permutation")
    p.add_argument("perm")
    p.add_argument("--kind", choices=("descent", "total", "rth"), default="descent")
    p.add_argument("--r", type=_int, default=1, help="order for --kind rth")
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = sub.add_parser("reconstruct", help="permutation from a descent-set file")
    p.add_argument("n", type=_int)
    p.add_argument("set_file", help="descent set as JSON or 't(a,b) ...' text")

    p = sub.add_parser("extremal", help="permutations attaining a degree maximum")
    p.add_argument("n", type=_int)
    p.add_argument("--stat", choices=("down", "total"), default="down")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("expect", help="exact expected down degree")
    p.add_argument("n", type=_int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--float", dest="as_float", action="store_true")

    p = sub.add_parser("distribution", help="exact histogram over all of S_n")
    p.add_argument("n", type=_int)
    p.add_argument("--stat", choices=("down", "total", "rth"), default="down")
    p.add_argument("--r", type=_int, default=None)
    p.add_argument("--limit", type=_int, default=stats.MAX_EXHAUSTIVE_N,
                   help="exhaustive size limit (n! permutations are scanned)")
    _add_jobs(p)

    p = sub.add_parser("sample", help="Monte Carlo estimate of a statistic")
    p.add_argument("n", type=_int)
    p.add_argument("--stat", choices=("down", "total", "rth"), default="down")
    p.add_argument("--r", type=_int, default=None)
    p.add_argument("--samples", type=_int, default=10_000)
    p.add_argument("--seed", type=_int, required=True)
    _add_jobs(p)

    p = sub.add_parser("verify", help="check every theorem, print one line per fact")
    p.add_argument("--max-n", type=_int, default=6,
                   help="exhaustive checks run for all n up to this bound")
    p.add_argument("--sampled-n", default="40",
                   help="comma-separated degrees for the sampled checks")
    p.add_argument("--samples", type=_int, default=1000)
    p.add_argument("--seed", type=_int, default=0)
    _add_jobs(p)

    return parser


def _cmd_degrees(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    profile = bruhat.total_degree(p)
    print(f"down={profile.down} up={profile.up} total={profile.total} "
          f"inv={p.inversion_number()}")
    if args.list:
        print("covered_by: " + " ".join(str(q) for q in bruhat.covered_by(p)))
        print("covers_of: " + " ".join(str(q) for q in bruhat.covers_of(p)))
    return 0


def _cmd_descents(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    descents = bruhat.strong_descent_set(p, args.r)
    print(descents.to_json() if args.format == "json" else descents.to_text())
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    if args.kind == "total":
        g = graphs.total_degree_graph(p)
    else:
        r = 1 if args.kind == "descent" else args.r
        g = graphs.strong_descent_graph(p, r)
    sys.stdout.write(g.to_dot() if args.format == "dot" else g.to_json() + "\n")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    with open(args.set_file, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if text.startswith("{"):
        descents = bruhat.StrongDescentSet.from_json(text)
        if descents.n != args.n:
            raise ValueError(f"file carries n={descents.n}, command line says {args.n}")
    else:
        descents = bruhat.StrongDescentSet.from_text(args.n, 1, text)
    print(reconstruct(args.n, descents))
    return 0


def _cmd_extremal(args: argparse.Namespace) -> int:
    if args.stat == "down":
        perms = extremal.extremal_down_permutations(args.n)
    else:
        perms = extremal.extremal_total_permutations(args.n)
    rows = []
    for p in perms:
        profile = bruhat.total_degree(p)
        rows.append((str(p), profile.down, profile.up, profile.total))
    if args.format == "json":
        payload = [{"perm": list(p.values), "down": d, "up": u, "total": t}
                   for p, (_, d, u, t) in zip(perms, rows)]
        print(json.dumps(payload, separators=(",", ":")))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["perm", "down", "up", "total"])
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        width = max(len(r[0]) for r in rows)
        print(f"{'perm':<{width}}  down  up  total")
        for text, d, u, t in rows:
            print(f"{text:<{width}}  {d:>4}  {u:>2}  {t:>5}")
    return 0


def _cmd_expect(args: argparse.Namespace) -> int:
    value = stats.expected_down_degree(args.n)
    print(repr(float(value)) if args.as_float else f"{value.numerator}/{value.denominator}")
    return 0


def _cmd_distribution(args: argparse.Namespace) -> int:
    hist = stats.distribution(args.n, args.stat, r=args.r, jobs=args.jobs,
                              limit=args.limit)
    print(hist.to_json())
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    mean, stderr = stats.monte_carlo_mean(
        args.n, args.stat, samples=args.samples, seed=args.seed, r=args.r,
        jobs=args.jobs)
    print(f"mean={mean!r} stderr={stderr!r} samples={args.samples} seed={args.seed}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # --samples also sizes the reconstruction samples, which run at any --sampled-n
    if args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    sampled = tuple(_parse_int(tok.strip()) for tok in str(args.sampled_n).split(",")
                    if tok.strip())
    if any(n < 3 for n in sampled):
        raise ValueError(f"--sampled-n sizes must be >= 3, got {args.sampled_n}")
    opts = verification.VerifyOptions(
        max_n=args.max_n,
        sampled_n=sampled,
        samples=args.samples,
        seed=args.seed,
        jobs=args.jobs if args.jobs is not None else default_jobs(),
    )
    if args.max_n > stats.MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"--max-n {args.max_n} exceeds the exhaustive limit {stats.MAX_EXHAUSTIVE_N}")
    results = verification.run_all(opts)
    sys.stdout.write(verification.render_report(results))
    return 0 if all(r.passed for r in results) else 1


_DISPATCH = {
    "degrees": _cmd_degrees,
    "descents": _cmd_descents,
    "graph": _cmd_graph,
    "reconstruct": _cmd_reconstruct,
    "extremal": _cmd_extremal,
    "expect": _cmd_expect,
    "distribution": _cmd_distribution,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidPermutationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

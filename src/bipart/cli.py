"""Command-line front end: instance generation, solving, benchmark campaigns.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal failure.
All tabular output is CSV with a fixed header (one row per run); see
BENCH_COLUMNS for the column order.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback
from contextlib import nullcontext
from itertools import product
from typing import Callable, NamedTuple

from .graph import (GraphFormatError, generate_er, parse_graph, read_float,
                    read_int, serialize_graph)
from .bounds import CONFIG_PRESETS
from .solver import SearchStrategy
from .parallel import MAX_THREADS, solve_parallel

THREADS_ENV_VAR = "BIPART_THREADS"

BENCH_COLUMNS = [
    "n", "p", "wmax", "seed", "config", "strategy", "threads",
    "time_total", "cut", "solutions_found", "subproblems_explored",
    "irrelevant_tasks", "time_to_optimum", "subproblems_with_optimal_initial",
]

_STRATEGY_NAMES = sorted(s.value for s in SearchStrategy)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CLI contract wants 1.
    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        return read_int(raw)
    except ValueError:
        raise UsageError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")


def _output(path: str):
    """The stream for an output path: stdout for '-', else the file."""
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_rows(stream, rows):
    writer = csv.writer(stream)
    writer.writerow(BENCH_COLUMNS)
    for row in rows:  # a column a row lacks is empty
        writer.writerow([_fmt(row.get(c)) for c in BENCH_COLUMNS])
        stream.flush()  # a run stopped part-way keeps the rows it wrote


# -- generate ----------------------------------------------------------------

def cmd_generate(args) -> int:
    wmax = args.wmax if args.wmax is not None else args.wmin
    if args.n < 0:
        raise UsageError(f"-n must be at least 0, got {args.n}")
    if not 0.0 <= args.p <= 1.0:
        raise UsageError(f"-p must be in [0,1], got {args.p}")
    if not 1 <= args.wmin <= wmax:
        raise UsageError(f"need 1 <= wmin <= wmax, got [{args.wmin},{wmax}]")
    graph = generate_er(args.n, args.p, args.wmin, wmax, args.seed)
    text = serialize_graph(graph)
    with _output(args.out) as fh:
        fh.write(text)
    return 0


# -- solve -------------------------------------------------------------------

def _solve_row(graph, s0, s1, cfg, strategy, threads, reps, with_optimal,
               columns):
    """The CSV row of one solve cell: `columns`, the strategy and the
    requested `threads` (not the processes that searched), then the results
    of `reps` solves.  `time_total` and `time_to_optimum` are the means over
    the reps, and every other result column is the last solve's.  With
    `with_optimal`, one more solve, whose cutoff is the optimum just found
    and which runs no heuristic, gives subproblems_with_optimal_initial."""
    results = [solve_parallel(graph, s0, s1, cfg, strategy, threads=threads)
               for _ in range(reps)]
    result = results[-1]
    seeded = None
    if with_optimal:
        seeded = solve_parallel(graph, s0, s1, cfg, strategy, threads=threads,
                                initial_value=result.optimum)
    return {
        **columns,
        "strategy": strategy.value,
        "threads": threads,
        "time_total": sum(r.time_total for r in results) / reps,
        "cut": result.optimum,
        "solutions_found": result.solutions_found,
        "subproblems_explored": result.subproblems_explored,
        "irrelevant_tasks": result.irrelevant_tasks,
        "time_to_optimum": sum(r.time_to_optimum for r in results) / reps,
        "subproblems_with_optimal_initial": (
            seeded.subproblems_explored if seeded else None),
    }


def cmd_solve(args) -> int:
    threads = args.threads if args.threads is not None else _default_threads()
    if not _KEYS["threads"].ok(threads):
        raise UsageError(_KEYS["threads"].bad.format(threads))
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph = parse_graph(fh.read())
    s0, s1 = args.s0, args.s1
    if s0 is None:
        s0 = graph.n // 2 if s1 is None else graph.n - s1
    if s1 is None:
        s1 = graph.n - s0
    row = _solve_row(graph, s0, s1, CONFIG_PRESETS[args.config],
                     SearchStrategy(args.strategy), threads, reps=1,
                     with_optimal=args.with_optimal,
                     columns={"n": graph.n, "config": args.config})
    _write_rows(sys.stdout, [row])
    return 0


# -- bench -------------------------------------------------------------------

def _switch(text: str) -> bool:
    """with_optimal's value: yes/true/1/on or no/false/0/off, in any case."""
    on = text.lower() in ("yes", "true", "1", "on")
    if not on and text.lower() not in ("no", "false", "0", "off"):
        raise ValueError(text)
    return on


class _Key(NamedTuple):
    """One campaign key's row in _KEYS."""
    default: object  # None: the campaign must give the key
    many: bool  # takes a comma-separated list of distinct values
    read: Callable  # one value's text to the value; ValueError if bad
    kind: str = ""  # what `read` accepts, for that error's message
    ok: Callable = lambda value: True  # the range test of one value
    bad: str = ""  # the message for a value out of range, formatted with it


_KEYS = {
    "n": _Key(None, True, read_int, "an integer", lambda n: n >= 2,
              "vertex count n must be at least 2, got {}"),
    "p": _Key([0.5], True, read_float, "a number", lambda p: 0.0 <= p <= 1.0,
              "edge probability p must be in [0, 1], got {}"),
    "wmax": _Key([1], True, read_int, "an integer"),  # >= wmin: after the last line
    "wmin": _Key(1, False, read_int, "an integer", lambda w: w >= 1,
                 "minimum weight wmin must be at least 1, got {}"),
    "seeds": _Key([0], True, read_int, "an integer"),
    "configs": _Key(["trivial"], True, str, ok=lambda c: c in CONFIG_PRESETS,
                    bad="unknown config {!r}; choose from "
                        + str(sorted(CONFIG_PRESETS))),
    "strategies": _Key(["dfs"], True, str, ok=lambda s: s in _STRATEGY_NAMES,
                       bad="unknown strategy {!r}; choose from "
                           + str(_STRATEGY_NAMES)),
    "threads": _Key([1], True, read_int, "an integer",
                    lambda t: 1 <= t <= MAX_THREADS,
                    f"thread count must be in 1..{MAX_THREADS}, got {{}}"),
    "reps": _Key(1, False, read_int, "an integer", lambda r: r >= 1,
                 "reps must be at least 1, got {}"),
    "with_optimal": _Key(False, False, _switch,
                         "yes/true/1/on or no/false/0/off"),
}


def parse_campaign(text: str) -> dict:
    """Campaign file: 'key = value' lines, each key at most once; see _KEYS.

    Each line's checks run in this order: the key is known, each value
    reads, no value repeats in its list, the key is new, each value is in
    range.  Each error names its line.  After the last line, n must have
    been given and every wmax must be at least wmin."""
    campaign = {key: row.default for key, row in _KEYS.items()
                if row.default is not None}
    seen = {}  # key: the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"campaign line {lineno}: "
        if "=" not in line:
            raise ValueError(f"{where}expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        row = _KEYS.get(key)
        if row is None:
            raise ValueError(f"{where}unknown key {key!r}")
        items = [x.strip() for x in value.split(",")] if row.many else [value]
        if row.many and "" in items:
            raise ValueError(f"{where}empty item in the list for {key}")
        values = []
        for x in items:
            try:
                values.append(row.read(x))
            except ValueError:
                raise ValueError(
                    f"{where}{key} must be {row.kind}, got {x!r}") from None
        for i, x in enumerate(values):
            if x in values[:i]:
                raise ValueError(f"{where}{key} lists {x!r} more than once")
        if key in seen:
            raise ValueError(f"{where}{key} is already set on line {seen[key]}")
        seen[key] = lineno
        for x in values:
            if not row.ok(x):
                raise ValueError(where + row.bad.format(x))
        campaign[key] = values if row.many else values[0]
    if "n" not in seen:
        raise ValueError("campaign must list at least one value for n")
    wmin = campaign["wmin"]
    for wmax in campaign["wmax"]:
        if wmax < wmin:
            raise ValueError(
                f"maximum weight wmax must be at least wmin = {wmin}, got {wmax}")
    return campaign


def run_campaign(campaign: dict):
    """Run the full campaign matrix; yields one CSV row dict per cell (see
    _solve_row), or, for a cell that raised, its columns and empty results.
    """
    for n, p, wmax, seed in product(
        campaign["n"], campaign["p"], campaign["wmax"], campaign["seeds"]
    ):
        graph = generate_er(n, p, campaign["wmin"], wmax, seed)
        s0 = n // 2
        s1 = n - s0
        for config_name, strat_name, threads in product(
            campaign["configs"], campaign["strategies"], campaign["threads"]
        ):
            columns = {"n": n, "p": p, "wmax": wmax, "seed": seed,
                       "config": config_name}
            try:
                yield _solve_row(
                    graph, s0, s1, CONFIG_PRESETS[config_name],
                    SearchStrategy(strat_name), threads,
                    reps=campaign["reps"],
                    with_optimal=campaign["with_optimal"], columns=columns,
                )
            except Exception as exc:  # record the failure, keep going
                cell = {**columns, "strategy": strat_name, "threads": threads}
                print(f"bipart: bench cell {cell} failed: {exc}",
                      file=sys.stderr)
                traceback.print_exc()
                yield cell


def cmd_bench(args) -> int:
    with open(args.campaign, "r", encoding="utf-8") as fh:
        plan = parse_campaign(fh.read())
    with _output(args.out) as fh:  # open before the first cell runs
        _write_rows(fh, run_campaign(plan))
    return 0


# -- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bipart",
        description="Exact size-constrained weighted graph bipartitioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a seeded random instance")
    g.add_argument("-n", type=read_int, required=True, help="vertex count")
    g.add_argument("-p", type=read_float, required=True, help="edge probability")
    g.add_argument("-w", "--wmin", type=read_int, default=1, help="minimum weight")
    g.add_argument("-W", "--wmax", type=read_int, default=None,
                   help="maximum weight (default: wmin)")
    g.add_argument("--seed", type=read_int, default=0)
    g.add_argument("-o", "--out", default="-", help="output path ('-' = stdout)")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one instance from a file")
    s.add_argument("graph", help="edge-list file")
    s.add_argument("--s0", type=read_int, default=None,
                   help="side-0 size (default n-s1 if --s1 is given, else n//2)")
    s.add_argument("--s1", type=read_int, default=None, help="side-1 size (default n-s0)")
    s.add_argument("--config", choices=CONFIG_PRESETS, default="trivial")
    s.add_argument("--strategy", choices=_STRATEGY_NAMES, default="dfs")
    s.add_argument("--threads", type=read_int, default=None,
                   help=f"worker processes, 1..{MAX_THREADS}, at most one "
                        f"per CPU; a small solve starts none "
                        f"(default ${THREADS_ENV_VAR} or 1)")
    s.add_argument("--with-optimal", action="store_true",
                   help="also re-solve with the optimum as the cutoff")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark campaign")
    b.add_argument("--campaign", required=True, help="campaign description file")
    b.add_argument("--out", default="-", help="CSV output path ('-' = stdout)")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"bipart: usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"bipart: input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"bipart: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

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

from .graph import GraphFormatError, generate_er, parse_graph, serialize_graph
from .bounds import CONFIG_PRESETS, BoundConfig
from .solver import SearchStrategy
from .parallel import MAX_THREADS, solve_parallel

THREADS_ENV_VAR = "BIPART_THREADS"

BENCH_COLUMNS = [
    "n", "p", "wmax", "seed", "config", "strategy", "threads",
    "time_total", "cut", "solutions_found", "subproblems_explored",
    "irrelevant_tasks", "time_to_optimum", "subproblems_with_optimal_initial",
]

_STRATEGY_NAMES = sorted(s.value for s in SearchStrategy)

# Each bound flag of `solve`: its label in a 'trivial+...' config name and
# the BoundConfig field it turns on.
_BOUND_FLAGS = [
    ("--rebalance", "rebalance", "enable_rebalance"),
    ("--high-degree", "highdegree", "enable_high_degree"),
    ("--component", "component", "enable_component"),
]


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
        value = int(raw)
    except ValueError:
        raise UsageError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    return value


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

def _config_from_args(args) -> tuple[str, BoundConfig]:
    """The flags' BoundConfig and its label: a preset's name, or else
    'trivial' and each flag turned on, joined by '+'."""
    cfg = BoundConfig(**{field: getattr(args, field)
                         for _, _, field in _BOUND_FLAGS})
    for name, preset in CONFIG_PRESETS.items():
        if preset == cfg:
            return name, cfg
    labels = [label for _, label, field in _BOUND_FLAGS if getattr(cfg, field)]
    return "+".join(["trivial"] + labels), cfg


def _solve_row(graph, s0, s1, cfg, strategy, threads, reps, with_optimal,
               columns):
    """The CSV row of one solve cell: `columns`, the strategy and the
    requested `threads` (not the processes that searched), then the results
    of `reps` solves.  `time_total` and `time_to_optimum` are the means over
    the reps, and every other result column is the last solve's.  With
    `with_optimal`, one more solve seeded with the optimum just found gives
    subproblems_with_optimal_initial."""
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
    name, cfg = _config_from_args(args)
    threads = args.threads if args.threads is not None else _default_threads()
    if not 1 <= threads <= MAX_THREADS:
        raise UsageError(f"thread count must be in 1..{MAX_THREADS}, got {threads}")
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph = parse_graph(fh.read())
    s0, s1 = args.s0, args.s1
    if s0 is None:
        s0 = graph.n // 2 if s1 is None else graph.n - s1
    if s1 is None:
        s1 = graph.n - s0
    row = _solve_row(graph, s0, s1, cfg, SearchStrategy(args.strategy),
                     threads, reps=1, with_optimal=args.with_optimal,
                     columns={"n": graph.n, "config": name})
    _write_rows(sys.stdout, [row])
    return 0


# -- bench -------------------------------------------------------------------

_LIST_KEYS = {"n", "p", "wmax", "seeds", "configs", "strategies", "threads"}
_CAMPAIGN_DEFAULTS = {
    "p": [0.5],
    "wmax": [1],
    "wmin": 1,
    "seeds": [0],
    "configs": ["trivial"],
    "strategies": ["dfs"],
    "threads": [1],
    "reps": 1,
    "with_optimal": False,
}
_SWITCH_VALUES = {"yes": True, "true": True, "1": True, "on": True,
                  "no": False, "false": False, "0": False, "off": False}


def _number(convert, text: str, lineno: int, key: str):
    """convert(text), or a ValueError naming the campaign line and key."""
    try:
        return convert(text)
    except ValueError:
        kind = "a number" if convert is float else "an integer"
        raise ValueError(f"campaign line {lineno}: {key} must be {kind}, "
                         f"got {text!r}") from None


def parse_campaign(text: str) -> dict:
    """Campaign file: 'key = value' lines, list values comma-separated,
    each key at most once and each value at most once in its list."""
    campaign = dict(_CAMPAIGN_DEFAULTS)
    seen = {}  # key: the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"campaign line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in _LIST_KEYS:
            items = [x.strip() for x in value.split(",") if x.strip()]
            if not items:
                raise ValueError(f"campaign line {lineno}: empty list for {key}")
            if key in ("p",):
                campaign[key] = [_number(float, x, lineno, key) for x in items]
            elif key in ("configs", "strategies"):
                campaign[key] = items
            else:
                campaign[key] = [_number(int, x, lineno, key) for x in items]
            for i, x in enumerate(campaign[key]):
                if x in campaign[key][:i]:
                    raise ValueError(f"campaign line {lineno}: {key} lists "
                                     f"{x!r} more than once")
        elif key in ("wmin", "reps"):
            campaign[key] = _number(int, value, lineno, key)
        elif key == "with_optimal":
            if value.lower() not in _SWITCH_VALUES:
                raise ValueError(
                    f"campaign line {lineno}: with_optimal must be yes/true/1/on"
                    f" or no/false/0/off, got {value!r}")
            campaign[key] = _SWITCH_VALUES[value.lower()]
        else:
            raise ValueError(f"campaign line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"campaign line {lineno}: {key} is already set "
                             f"on line {seen[key]}")
        seen[key] = lineno
    if "n" not in seen:
        raise ValueError("campaign must list at least one value for n")
    for n in campaign["n"]:
        if n < 2:
            raise ValueError(f"vertex count n must be at least 2, got {n}")
    for p in campaign["p"]:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability p must be in [0, 1], got {p}")
    wmin = campaign["wmin"]
    if wmin < 1:
        raise ValueError(f"minimum weight wmin must be at least 1, got {wmin}")
    for wmax in campaign["wmax"]:
        if wmax < wmin:
            raise ValueError(
                f"maximum weight wmax must be at least wmin = {wmin}, got {wmax}")
    if campaign["reps"] < 1:
        raise ValueError(f"reps must be at least 1, got {campaign['reps']}")
    for threads in campaign["threads"]:
        if not 1 <= threads <= MAX_THREADS:
            raise ValueError(
                f"thread count must be in 1..{MAX_THREADS}, got {threads}")
    for cfg in campaign["configs"]:
        if cfg not in CONFIG_PRESETS:
            raise ValueError(
                f"unknown config {cfg!r}; choose from {sorted(CONFIG_PRESETS)}"
            )
    for strat in campaign["strategies"]:
        if strat not in _STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {strat!r}; choose from {_STRATEGY_NAMES}"
            )
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
    g.add_argument("-n", type=int, required=True, help="vertex count")
    g.add_argument("-p", type=float, required=True, help="edge probability")
    g.add_argument("-w", "--wmin", type=int, default=1, help="minimum weight")
    g.add_argument("-W", "--wmax", type=int, default=None,
                   help="maximum weight (default: wmin)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", default="-", help="output path ('-' = stdout)")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one instance from a file")
    s.add_argument("graph", help="edge-list file")
    s.add_argument("--s0", type=int, default=None,
                   help="side-0 size (default n-s1 if --s1 is given, else n//2)")
    s.add_argument("--s1", type=int, default=None, help="side-1 size (default n-s0)")
    for flag, _, field in _BOUND_FLAGS:
        s.add_argument(flag, dest=field, action="store_true")
    s.add_argument("--strategy", choices=_STRATEGY_NAMES, default="dfs")
    s.add_argument("--threads", type=int, default=None,
                   help=f"worker processes, 1..{MAX_THREADS}, at most one "
                        f"per CPU; a small solve starts none "
                        f"(default ${THREADS_ENV_VAR} or 1)")
    s.add_argument("--with-optimal", action="store_true",
                   help="also re-solve with the optimum seeding the incumbent")
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

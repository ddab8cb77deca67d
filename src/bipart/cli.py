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
from itertools import product

from .graph import GraphFormatError, generate_er, parse_graph, serialize_graph
from .bounds import CONFIG_PRESETS, BoundConfig
from .solver import SearchStrategy
from .parallel import solve_parallel

THREADS_ENV_VAR = "BIPART_THREADS"

BENCH_COLUMNS = [
    "n", "p", "wmax", "seed", "config", "strategy", "threads",
    "time_total", "cut", "solutions_found", "subproblems_explored",
    "irrelevant_tasks", "time_to_optimum", "subproblems_with_optimal_initial",
]

STRATEGIES = {
    "dfs": SearchStrategy.DFS,
    "lb": SearchStrategy.BEST_FIRST_LB,
    "gap": SearchStrategy.GAP,
}


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
    if value < 1:
        raise UsageError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
    return value


def _result_row(result, *, n=None, p=None, wmax=None, seed=None,
                config_name="", with_optimal=None, time_total=None):
    return {
        "n": n,
        "p": p,
        "wmax": wmax,
        "seed": seed,
        "config": config_name,
        "strategy": result.strategy.value,
        "threads": result.threads,
        "time_total": result.time_total if time_total is None else time_total,
        "cut": result.optimum,
        "solutions_found": result.solutions_found,
        "subproblems_explored": result.subproblems_explored,
        "irrelevant_tasks": result.irrelevant_tasks,
        "time_to_optimum": result.time_to_optimum,
        "subproblems_with_optimal_initial": with_optimal,
    }


def _write_rows(stream, rows):
    writer = csv.writer(stream)
    writer.writerow(BENCH_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in BENCH_COLUMNS])


# -- generate ----------------------------------------------------------------

def cmd_generate(args) -> int:
    wmax = args.wmax if args.wmax is not None else args.wmin
    if not 0.0 <= args.p <= 1.0:
        raise UsageError(f"-p must be in [0,1], got {args.p}")
    if not 1 <= args.wmin <= wmax:
        raise UsageError(f"need 1 <= wmin <= wmax, got [{args.wmin},{wmax}]")
    graph = generate_er(args.n, args.p, args.wmin, wmax, args.seed)
    text = serialize_graph(graph)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# -- solve -------------------------------------------------------------------

def _config_from_args(args) -> tuple[str, BoundConfig]:
    if args.doubling and not args.high_degree:
        # The doubling rule only rescales the high-degree term.
        raise UsageError("--doubling needs --high-degree")
    cfg = BoundConfig(
        enable_rebalance=args.rebalance,
        enable_high_degree=args.high_degree,
        enable_hd_doubling=args.doubling,
        enable_component=args.component,
    )
    for name, preset in CONFIG_PRESETS.items():
        if preset == cfg:
            return name, cfg
    flags = [
        flag for flag, on in (
            ("rebalance", cfg.enable_rebalance),
            ("highdegree", cfg.enable_high_degree),
            ("doubling", cfg.enable_hd_doubling),
            ("component", cfg.enable_component),
        ) if on
    ]
    return "+".join(flags) if flags else "trivial", cfg


def cmd_solve(args) -> int:
    name, cfg = _config_from_args(args)
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph = parse_graph(fh.read())
    s0 = args.s0 if args.s0 is not None else graph.n // 2
    s1 = args.s1 if args.s1 is not None else graph.n - s0
    strategy = STRATEGIES[args.strategy]
    threads = args.threads if args.threads is not None else _default_threads()
    result = solve_parallel(graph, s0, s1, cfg, strategy, threads=threads)
    with_optimal = None
    if args.initial is not None:
        seeded = solve_parallel(
            graph, s0, s1, cfg, strategy, threads=threads,
            initial_value=args.initial,
        )
        with_optimal = seeded.subproblems_explored
    _write_rows(
        sys.stdout,
        [_result_row(result, n=graph.n, config_name=name,
                     with_optimal=with_optimal)],
    )
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


def parse_campaign(text: str) -> dict:
    """Campaign file: 'key = value' lines, list values comma-separated."""
    campaign = dict(_CAMPAIGN_DEFAULTS)
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"campaign line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        seen.add(key)
        if key in _LIST_KEYS:
            items = [x.strip() for x in value.split(",") if x.strip()]
            if not items:
                raise ValueError(f"campaign line {lineno}: empty list for {key}")
            if key in ("p",):
                campaign[key] = [float(x) for x in items]
            elif key in ("configs", "strategies"):
                campaign[key] = items
            else:
                campaign[key] = [int(x) for x in items]
        elif key in ("wmin", "reps"):
            campaign[key] = int(value)
        elif key == "with_optimal":
            campaign[key] = value.lower() in ("yes", "true", "1", "on")
        else:
            raise ValueError(f"campaign line {lineno}: unknown key {key!r}")
    if "n" not in seen:
        raise ValueError("campaign must list at least one value for n")
    for cfg in campaign["configs"]:
        if cfg not in CONFIG_PRESETS:
            raise ValueError(
                f"unknown config {cfg!r}; choose from {sorted(CONFIG_PRESETS)}"
            )
    for strat in campaign["strategies"]:
        if strat not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strat!r}; choose from {sorted(STRATEGIES)}"
            )
    return campaign


def run_campaign(campaign: dict, reps: int | None = None):
    """Run the full campaign matrix; yields one BenchRow dict per cell."""
    reps = reps if reps is not None else campaign["reps"]
    for n, p, wmax, seed in product(
        campaign["n"], campaign["p"], campaign["wmax"], campaign["seeds"]
    ):
        graph = generate_er(n, p, campaign["wmin"], wmax, seed)
        s0 = n // 2
        s1 = n - s0
        for config_name, strat_name, threads in product(
            campaign["configs"], campaign["strategies"], campaign["threads"]
        ):
            cfg = CONFIG_PRESETS[config_name]
            strategy = STRATEGIES[strat_name]
            meta = dict(n=n, p=p, wmax=wmax, seed=seed, config_name=config_name)
            try:
                times = []
                result = None
                for _ in range(max(1, reps)):
                    result = solve_parallel(
                        graph, s0, s1, cfg, strategy, threads=threads
                    )
                    times.append(result.time_total)
                with_optimal = None
                if campaign["with_optimal"]:
                    seeded = solve_parallel(
                        graph, s0, s1, cfg, strategy, threads=threads,
                        initial_value=result.optimum,
                    )
                    with_optimal = seeded.subproblems_explored
                yield _result_row(
                    result, **meta, with_optimal=with_optimal,
                    time_total=sum(times) / len(times),
                )
            except Exception as exc:  # record the failure, keep going
                print(
                    f"bipart: bench cell {meta} failed: {exc}",
                    file=sys.stderr,
                )
                yield {
                    **{c: None for c in BENCH_COLUMNS},
                    "n": n, "p": p, "wmax": wmax, "seed": seed,
                    "config": config_name, "strategy": strat_name,
                    "threads": threads,
                }


def cmd_bench(args) -> int:
    with open(args.campaign, "r", encoding="utf-8") as fh:
        plan = parse_campaign(fh.read())
    rows = list(run_campaign(plan, reps=args.reps))
    if args.out == "-":
        _write_rows(sys.stdout, rows)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh, rows)
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
    s.add_argument("--s0", type=int, default=None, help="side-0 size (default n//2)")
    s.add_argument("--s1", type=int, default=None, help="side-1 size (default n-s0)")
    s.add_argument("--rebalance", action="store_true")
    s.add_argument("--high-degree", action="store_true")
    s.add_argument("--doubling", action="store_true")
    s.add_argument("--component", action="store_true")
    s.add_argument("--strategy", choices=sorted(STRATEGIES), default="dfs")
    s.add_argument("--threads", type=int, default=None,
                   help=f"worker threads (default ${THREADS_ENV_VAR} or 1)")
    s.add_argument("--initial", type=int, default=None,
                   help="also re-solve with this value seeding the incumbent")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark campaign")
    b.add_argument("--campaign", required=True, help="campaign description file")
    b.add_argument("--out", default="-", help="CSV output path ('-' = stdout)")
    b.add_argument("--reps", type=int, default=None,
                   help="repetitions per cell (mean time reported)")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"bipart: usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise UsageError("--threads must be >= 1")
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

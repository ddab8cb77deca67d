"""Interleaved in-process A/B of two source trees on one benchmark workload.

    python3 tools/ab_inprocess.py ../parent . --workload dense-dfs --seed 11
    python3 tools/ab_inprocess.py A B --workload sparse-dfs --rounds 3 \
        --instances 60

Imports ``A/src/bipart`` and ``B/src/bipart`` into one process under two
package names, and builds each side's instances of benchmark seed ``--seed``
(the workload's first ``--instances`` ones) with that side's own
``generate_er``.  Each round solves every operation of the workload with
both sides back to back, alternating which side goes first from one
operation to the next and from one round to the next, so a change in the
host's speed lands on both sides of an operation alike.  The workloads are
those of this repository's ``perfbench/workloads.py``.

It prints every operation whose explored count differs between the sides,
each side's sum over operations of the per-operation median wall time and
of the median ``time_to_optimum``, and how many rounds each side won on
wall time.  The exit status is 1 when an optimum differs.

This is a sizing aid, for estimating a gain of a few percent before it is
committed: alternating process pairs have failed to resolve a 9% node cut
on a host whose speed scale ranged from 0.52 to 1.38.  The record of a gain
stays a ``BENCH_*.json`` from ``tools/bench_pairs.py``, which runs the
benchmark itself.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import WMAX, WMIN, WORKLOADS  # noqa: E402

SIDES = ("A", "B")


def load_tree(root: Path, name: str):
    """``root/src/bipart`` imported as package `name`; its ``__init__``
    imports the submodules the tool calls.  A package of that name
    imported before is replaced."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = root / "src" / "bipart"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def solve(side, op, graph, sides):
    """Wall time, optimum, explored count and time to optimum of one solve."""
    cfg = side.bounds.CONFIG_PRESETS[op.preset]
    strategy = side.solver.SearchStrategy(op.strategy)
    t0 = time.perf_counter()
    if op.sequential:
        r = side.solver.solve_sequential(graph, *sides, cfg, strategy)
    else:
        r = side.parallel.solve_parallel(graph, *sides, cfg, strategy,
                                         threads=op.threads)
    wall = time.perf_counter() - t0
    return wall, r.optimum, r.subproblems_explored, r.time_to_optimum


def percent(side: int, value: float, baseline: float) -> str:
    """Side B's change against side A, as " (+x.x%)"; empty for side A."""
    if side == 0 or not baseline:
        return ""
    return f" ({100 * (value / baseline - 1):+.1f}%)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/ab_inprocess.py")
    parser.add_argument("a", type=Path, help="source tree A (the baseline)")
    parser.add_argument("b", type=Path, help="source tree B (the change)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--instances", type=int, default=None,
                        help="the workload's first K instances (default all)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    count = workload.count if args.instances is None else args.instances
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    if not 1 <= count <= workload.count:
        parser.error(f"--instances must be in 1..{workload.count}, got {count}")
    for tree in (args.a, args.b):
        if not (tree / "src" / "bipart" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/bipart package")

    trees = [load_tree(tree.resolve(), f"_ab_bipart_{s.lower()}")
             for tree, s in zip((args.a, args.b), SIDES)]
    seeds = workload.generator_seeds(args.seed)[:count]
    graphs = [[t.graph.generate_er(workload.n, workload.p, WMIN, WMAX, s)
               for s in seeds] for t in trees]
    ops = [op for op in workload.ops() if op.instance < count]
    # runs[side][op] = (wall, optimum, explored, time to optimum) per round
    runs = [[[] for _ in ops] for _ in SIDES]
    round_wall = [[0.0, 0.0] for _ in range(args.rounds)]
    for r in range(args.rounds):
        for i, op in enumerate(ops):
            for k in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                run = solve(trees[k], op, graphs[k][op.instance],
                            workload.sides)
                runs[k][i].append(run)
                round_wall[r][k] += run[0]

    print(f"{workload.name} seed {args.seed}, {count} instances, "
          f"{len(ops)} operations, {args.rounds} rounds")
    optima_differ = explored_differ = 0
    for i, op in enumerate(ops):
        optima = {run[1] for k in range(2) for run in runs[k][i]}
        explored = [{run[2] for run in runs[k][i]} for k in range(2)]
        if len(optima) > 1:
            optima_differ += 1
            print(f"{op.label}: optima differ: {sorted(optima)}")
        if explored[0] != explored[1]:
            explored_differ += 1
            print(f"{op.label}: explored A {sorted(explored[0])}, "
                  f"B {sorted(explored[1])}")
    sums = [[sum(statistics.median(run[j] for run in rs) for rs in runs[k])
             for j in (0, 3)] for k in range(2)]
    for k, (side, tree) in enumerate(zip(SIDES, (args.a, args.b))):
        (wall, ttb), (wall_a, ttb_a) = sums[k], sums[0]
        print(f"{side} {tree}: wall {wall:.3f} s{percent(k, wall, wall_a)}, "
              f"time to optimum {ttb:.3f} s{percent(k, ttb, ttb_a)}")
    wins = [sum(1 for w in round_wall if w[k] < w[1 - k]) for k in range(2)]
    print(f"rounds won on wall time: A {wins[0]}, B {wins[1]} "
          f"of {args.rounds}")
    print(f"explored counts differ on {explored_differ} and optima on "
          f"{optima_differ} of {len(ops)} operations")
    return 1 if optima_differ else 0


if __name__ == "__main__":
    sys.exit(main())

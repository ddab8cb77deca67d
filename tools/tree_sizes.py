"""Search-tree sizes on the benchmark's instances.

    python3 tools/tree_sizes.py                        # every workload, seed 0
    python3 tools/tree_sizes.py --workload sparse-dfs --seed 1

For each workload it solves every instance of the benchmark seed under each
preset and strategy the workload runs, with ``solve_sequential``, and
prints the subproblems explored under each operation's configuration and
their total over the workload's operations.  A two-thread operation counts
the tree of its one-thread strategy, solved once: every benchmark solve
ends inside the parallel solver's in-process budget, where both explore the
same tree.  Each line also gives the sum of the optima, which a change that
must not move any optimum leaves as it is.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import (WORKLOADS,  # noqa: E402  (puts src/ on the path)
                                 generate_graphs)
from bipart.bounds import CONFIG_PRESETS  # noqa: E402
from bipart.solver import SearchStrategy, solve_sequential  # noqa: E402


def tree_sizes(workload, seed: int) -> dict[str, tuple[int, int]]:
    """"preset/strategy/threads" -> (subproblems explored, sum of optima),
    in the workload's configuration order."""
    graphs = generate_graphs(workload, seed)
    s0, s1 = workload.sides
    trees = {}
    for preset, strategy, _ in workload.configs:
        if (preset, strategy) in trees:
            continue
        explored = optima = 0
        for g in graphs:
            r = solve_sequential(g, s0, s1, CONFIG_PRESETS[preset],
                                 SearchStrategy(strategy))
            explored += r.subproblems_explored
            optima += r.optimum
        trees[preset, strategy] = explored, optima
    return {f"{preset}/{strategy}/{threads}t": trees[preset, strategy]
            for preset, strategy, threads in workload.configs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/tree_sizes.py")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        sizes = tree_sizes(WORKLOADS[name], args.seed)
        for label, (explored, optima) in sizes.items():
            print(f"{name} seed {args.seed} {label}: {explored:,} subproblems, "
                  f"optima sum {optima:,}")
        total = sum(explored for explored, _ in sizes.values())
        print(f"{name} seed {args.seed} total: {total:,} subproblems")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""How good the starting incumbent is on the benchmark's instances.

    python3 tools/incumbent_quality.py                 # every workload, seed 0
    python3 tools/incumbent_quality.py --workload sparse-dfs --seed 0 --seed 3

For each workload and benchmark seed it builds, on every instance, the
maximum-adjacency split and the seed ``greedy_initial_solution`` returns
(that split refined by Kernighan-Lin), and compares both values with the
instance's optimum in ``perfbench/reference.json``, which it only reads.
It prints, for each, on how many instances it is optimal and its mean
excess over the optimum.  It reports no time: a best-of-few timing in one
process does not settle on a shared host, and ``tools/bench_pairs.py``
measures the solve end to end.  A seed with an instance missing from the
reference file is skipped with a note; ``python3 -m perfbench.reference
--seed S`` adds it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import reference  # noqa: E402  (puts src/ on the path)
from perfbench.workloads import WORKLOADS, generate_graphs  # noqa: E402
from bipart.completion import (greedy_initial_solution,  # noqa: E402
                               max_adjacency_split)

def excess(value, optimum):
    """Relative excess over the optimum; 0 for a zero-cut optimum met."""
    if optimum == 0:
        return 0.0 if value == 0 else float("inf")
    return (value - optimum) / optimum


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/incumbent_quality.py")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, action="append")
    args = parser.parse_args(argv)
    table = reference.load()
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seed or [0]:
            keys = workload.instance_keys(seed)
            if any(key not in table for key in keys):
                print(f"{name} seed {seed}: skipped, not in {reference.REFERENCE_FILE.name}")
                continue
            optima = [table[key] for key in keys]
            graphs = generate_graphs(workload, seed)
            for label, build in (("split", max_adjacency_split),
                                 ("seed", greedy_initial_solution)):
                values = [build(g, *workload.sides).value for g in graphs]
                hits = sum(v == o for v, o in zip(values, optima))
                mean = statistics.fmean(excess(v, o) for v, o in zip(values, optima))
                print(f"{name} seed {seed} {label:5s}: optimal on {hits} of "
                      f"{len(graphs)}, mean excess {100 * mean:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())

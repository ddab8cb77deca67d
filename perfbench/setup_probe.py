"""One set-up, timed from outside: import the solver, build the instances.

The parent starts ``python3 -m perfbench.setup_probe WORKLOAD SEED`` and
stops its clock when the line ``ready`` arrives, so the figure covers the
interpreter start, the import and instance generation: everything before
the first solve.  It imports nothing the benchmark run itself needs.
"""

import sys

import bipart  # noqa: F401  (the whole package, as a user imports it)

from .workloads import WORKLOADS, generate_graphs

if __name__ == "__main__":
    generate_graphs(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print("ready", flush=True)

"""Independent exact optima for the benchmark's instances.

The solver here shares nothing with ``src/bipart`` beyond the edge list it
is given.  It keeps its own weight matrix, takes its first upper bound from
a Kernighan-Lin swap descent, and runs a depth-first branch-and-bound over
a fixed vertex order (heaviest first).  Its bound is the cut among fixed
vertices plus the cheapest placement of the free vertices against the fixed
ones under the side sizes; free-free edges are bounded by 0.

Rebuild the committed reference file for a seed, or add another seed::

    python3 -m perfbench.reference --seed 0
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import BENCH_DIR
from .workloads import WORKLOADS, Workload, generate_graphs

REFERENCE_FILE = BENCH_DIR / "reference.json"


def cut_weight(wm: list[list[int]], side: list[int]) -> int:
    n = len(side)
    total = 0
    for u in range(n):
        row = wm[u]
        for v in range(u + 1, n):
            if side[u] != side[v]:
                total += row[v]
    return total


def swap_descent(wm: list[list[int]], s0: int, starts: int, rng) -> int:
    """Best cut over `starts` random balanced starts improved by pair swaps."""
    n = len(wm)
    best = None
    for _ in range(starts):
        perm = list(range(n))
        rng.shuffle(perm)
        side = [1] * n
        for v in perm[:s0]:
            side[v] = 0
        while True:
            # gain[u]: weight u would stop cutting minus weight it would start
            gain = [0] * n
            for u in range(n):
                row, su = wm[u], side[u]
                g = 0
                for v in range(n):
                    if row[v]:
                        g += row[v] if side[v] != su else -row[v]
                gain[u] = g
            best_gain, pair = 0, None
            for a in range(n):
                if side[a]:
                    continue
                row, ga = wm[a], gain[a]
                for b in range(n):
                    if side[b]:
                        g = ga + gain[b] - 2 * row[b]
                        if g > best_gain:
                            best_gain, pair = g, (a, b)
            if pair is None:
                break
            side[pair[0]], side[pair[1]] = 1, 0
        value = cut_weight(wm, side)
        if best is None or value < best:
            best = value
    return best


def exact_optimum(n: int, edges, s0: int, s1: int) -> int:
    """Minimum cut weight over all bipartitions with s0 | s1 vertices."""
    if s0 <= 0 or s1 <= 0 or s0 + s1 != n:
        raise ValueError(f"invalid sizes ({s0},{s1}) for n={n}")
    wm = [[0] * n for _ in range(n)]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        wm[u][v] = wm[v][u] = w
        adj[u].append((v, w))
        adj[v].append((u, w))
    order = sorted(range(n), key=lambda v: (-sum(wm[v]), v))
    # The first bound is one above a known cut, so the search itself
    # reaches a leaf of optimal weight.
    best = swap_descent(wm, s0, 4, random.Random(12345)) + 1
    to0 = [0] * n  # weight from each vertex to the vertices fixed on side 0
    to1 = [0] * n

    def search(i: int, cut: int, r0: int, r1: int) -> None:
        nonlocal best
        free = order[i:]
        if r0 == 0 or r1 == 0:
            pay = to0 if r0 == 0 else to1
            value = cut + sum(pay[v] for v in free)
            if value < best:
                best = value
            return
        # Every free vertex pays to0 on side 1; moving r0 of them to side 0
        # changes that by to1 - to0 each, and the cheapest r0 are taken.
        base = 0
        shifts = []
        for v in free:
            base += to0[v]
            shifts.append(to1[v] - to0[v])
        shifts.sort()
        if cut + base + sum(shifts[:r0]) >= best:
            return
        v = order[i]
        first = 0 if to1[v] <= to0[v] else 1
        for s in (first, 1 - first):
            if i == 0 and s0 == s1 and s == 1:
                continue  # mirror images: the first vertex stays on side 0
            pay = to1[v] if s == 0 else to0[v]
            gained = to0 if s == 0 else to1
            for u, w in adj[v]:
                gained[u] += w
            if s == 0:
                search(i + 1, cut + pay, r0 - 1, r1)
            else:
                search(i + 1, cut + pay, r0, r1 - 1)
            for u, w in adj[v]:
                gained[u] -= w

    search(0, 0, s0, s1)
    return best


def load() -> dict[str, int]:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def optima(workload: Workload, seed: int, graphs, table: dict[str, int]) -> list[int]:
    """Reference optimum of each instance: from the table, else computed."""
    s0, s1 = workload.sides
    out = []
    for key, g in zip(workload.instance_keys(seed), graphs):
        if key not in table:
            table[key] = exact_optimum(g.n, list(g.edges()), s0, s1)
        out.append(table[key])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench.reference",
        description="Recompute the reference optima of every workload for "
        "the given seeds and merge them into perfbench/reference.json.",
    )
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    table = load()
    for seed in args.seed:
        if seed < 0:
            parser.error("seeds are non-negative")
        for workload in WORKLOADS.values():
            graphs = generate_graphs(workload, seed)
            for key in workload.instance_keys(seed):
                table.pop(key, None)
            optima(workload, seed, graphs, table)
    REFERENCE_FILE.write_text(json.dumps(dict(sorted(table.items())), indent=0) + "\n")
    print(f"{len(table)} reference optima in {REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Brute-force ground truth for small instances: brute_force_optimum.

Deliberately naive: subsets come from lexicographic combination
enumeration and every cut is evaluated by a raw loop over the edge list.
Nothing here shares code with the incremental bound machinery it is used
to validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import WeightedGraph, side_sizes
from .completion import Solution

MAX_ORACLE_N = 24


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    witness: Solution


def brute_force_optimum(g: WeightedGraph, s0: int, s1: int) -> OracleResult:
    """Exhaustive minimum over all bipartitions of sizes (s0, s1).

    When s0 == s1, vertex 0 is fixed to side 0 (each partition equals its
    mirror image, so half the subsets suffice).  s0 and s1 must be positive
    integers that sum to n, else ValueError.
    """
    n = g.n
    s0, s1 = side_sizes(s0, s1, n)
    if n > MAX_ORACLE_N:
        raise ValueError(f"instance too large for the oracle (n={n})")
    edges = list(g.edges())
    best = None
    best_sides = None
    if s0 == s1:
        candidates = ((0,) + rest for rest in combinations(range(1, n), s0 - 1))
    else:
        candidates = combinations(range(n), s0)
    for subset in candidates:
        sides = [1] * n
        for v in subset:
            sides[v] = 0
        value = 0
        for u, v, w in edges:
            if sides[u] != sides[v]:
                value += w
        if best is None or value < best:
            best = value
            best_sides = tuple(sides)
    witness = Solution(assignment=best_sides, value=best)
    return OracleResult(optimum=best, witness=witness)

"""Completion rules, feasible solutions, the initial heuristic and the
Kernighan-Lin refinement applied to it and to each improving completion.

A Solution is always re-evaluated by direct edge enumeration when built,
so an incumbent can never be corrupted by a bug in the incremental
bookkeeping.  try_complete builds one only for a completion that beats the
caller's cutoff: it first computes the completion's value from the
maintained sums and D arrays, and a rule that fires on a completion no
better than the cutoff returns that value instead, which the search treats
as a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import WeightedGraph, cut_value, side_sizes
from .subproblem import Subproblem
from .bounds import rebalance_bound, rebalance_value


@dataclass(frozen=True)
class Solution:
    """A feasible bipartition: sides[v] in {0,1}, value = its cut weight."""

    assignment: tuple[int, ...]
    value: int


def make_solution(graph: WeightedGraph, sides, s0: int, s1: int) -> Solution:
    """Validate labels and cardinalities; compute the cut from scratch."""
    sides = tuple(sides)
    if len(sides) != graph.n:
        raise ValueError("assignment length does not match vertex count")
    n0 = sides.count(0)
    if n0 + sides.count(1) != len(sides):
        raise ValueError("assignment has a side label other than 0 and 1")
    if n0 != s0 or len(sides) - n0 != s1:
        raise ValueError(
            f"assignment has {n0}|{len(sides) - n0} vertices, expected {s0}|{s1}"
        )
    return Solution(assignment=sides, value=cut_value(graph, sides))


def _complete(sp: Subproblem, side0) -> Solution:
    """The completion of sp with the free vertices of `side0`, f0 of them,
    on side 0 and the other free vertices on side 1."""
    g = sp.graph
    a0 = sp.a0
    for v in side0:
        a0 |= 1 << v
    s0 = sp.f0 + sp.a0.bit_count()
    return make_solution(g, [0 if (a0 >> v) & 1 else 1 for v in range(g.n)],
                         s0, g.n - s0)


def try_complete(
    sp: Subproblem, cutoff: float = math.inf
) -> Solution | int | None:
    """Solve the subproblem without branching when a completion rule fires.

    In priority order:
      1. one-missing: one side needs exactly one vertex and the other at
         least one; the best choice minimizes key = d_other - d_own +
         (weight of its free edges, which all end up crossing), at value
         fixed_cut + the sum of d_own over free vertices + that key.  Ties
         broken by vertex id.
      2. rebalancing: one side needs no more vertices, or no free-free
         edge remains (sp.free_edges is 0, whatever the edges' weights),
         so the rebalancing completion is optimal, at value
         fixed_cut + basic + rebalance_value.  With a side full it is the
         unique completion, everything free on the other side.

    Returns None when no rule applies.  Otherwise the rule's value is
    computed first, in O(f) (O(f log f) for rebalancing), and the Solution
    is built, with its cut re-evaluated edge by edge, only when that value
    is below `cutoff`, a number (always with the default, infinity); else
    the value alone is returned, an int, as the completion cannot beat the
    incumbent.
    """
    free = sp.free_list
    f0, f1 = sp.f0, sp.f1
    if f0 == 1 and f1 or f1 == 1 and f0:
        d0, d1 = sp.d0, sp.d1
        d_own, d_other = (d0, d1) if f0 == 1 else (d1, d0)
        tw = sp.graph.total_weight
        best_v = -1
        best_key = None
        for v in free:
            free_w = tw[v] - d0[v] - d1[v]
            key = d_other[v] - d_own[v] + free_w
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        value = sp.fixed_cut + best_key + sum(map(d_own.__getitem__, free))
        if value >= cutoff:
            return value
        if f0 == 1:
            return _complete(sp, [best_v])
        return _complete(sp, [v for v in free if v != best_v])

    if not f0 or not f1 or not sp.free_edges:
        value = sp.fixed_cut + sp.basic + rebalance_value(sp)
        if value >= cutoff:
            return value
        return _complete(sp, rebalance_bound(sp)[:f0])

    return None


def rebalancing_completion_value(sp: Subproblem) -> int:
    """Full cut value of the completion implied by the rebalancing bound.

    Feasible, hence an upper bound for the subproblem; used as the
    estimated upper bound by the gap search strategy.  Computed as the
    fixed cut, plus the fixed-free weight of the rebalancing order (the
    first f0 free vertices pay d1, the rest d0), plus the free-free edges
    that order cuts: O(f log f + free degrees), with no full cut pass.
    """
    order = rebalance_bound(sp)
    d0, d1 = sp.d0, sp.d1
    f0 = sp.f0
    total = sp.fixed_cut
    side1 = 0
    for v in order[f0:]:
        total += d0[v]
        side1 |= 1 << v
    g = sp.graph
    for v in order[:f0]:
        total += d1[v]
        a_n = g.adj_nbr[v]
        a_w = g.adj_w[v]
        for j in range(len(a_n)):
            if (side1 >> a_n[j]) & 1:
                total += a_w[j]
    return total


def kernighan_lin(graph: WeightedGraph, sol: Solution) -> Solution:
    """Kernighan-Lin (1970) local optimum reached from `sol`, same sides.

    A pass swaps pairs (a on side 0, b on side 1) tentatively: each time
    the unlocked pair of largest gain D[a] + D[b] - 2 w(a, b), where D[v]
    is v's crossing minus non-crossing weight, and locks both; ties go to
    the pair found first with each side in descending D order (a stable
    sort, so the result is deterministic).  The pass keeps its shortest
    prefix of largest total gain and undoes the rest.  Passes repeat until
    one gains nothing.  Since w >= 0, no pair beats D[a] + D[b], so each
    side is scanned in D order and a scan stops once that sum cannot beat
    the best gain found.

    D is computed once per call and kept exact by every move: the moved
    vertex's D changes sign, and each neighbour's moves by twice the edge
    weight.  A pass snapshots D at its best prefix, and the next pass
    starts from that snapshot.  With equal sides a pass stops one swap
    short: its last swap would move every vertex, which gives back the
    starting cut and so never a better prefix.  Returns `sol` itself when
    the first pass gains nothing, else a new Solution.
    """
    n = graph.n
    adj_nbr, adj_w, nbr_mask = graph.adj_nbr, graph.adj_w, graph.nbr_mask
    side = list(sol.assignment)
    s0 = side.count(0)
    steps = min(s0, n - s0) - (2 * s0 == n)
    d = [-t for t in graph.total_weight]
    for v in range(n):  # each crossing edge once, from its side-0 end
        if side[v] == 0:
            for u, w in zip(adj_nbr[v], adj_w[v]):
                if side[u] != 0:
                    d[u] += 2 * w
                    d[v] += 2 * w
    improved = False
    while True:
        key = d.__getitem__
        unlocked0 = [v for v in range(n) if side[v] == 0]
        unlocked1 = [v for v in range(n) if side[v] == 1]
        swaps = []
        total = best_total = best_len = 0
        for _ in range(steps):
            unlocked0.sort(key=key, reverse=True)
            unlocked1.sort(key=key, reverse=True)
            best = -math.inf
            for a in unlocked0:
                da = d[a]
                if da + d[unlocked1[0]] <= best:
                    break
                mask = nbr_mask[a]
                for b in unlocked1:
                    gain = da + d[b]
                    if gain <= best:
                        break
                    if (mask >> b) & 1:
                        gain -= 2 * adj_w[a][adj_nbr[a].index(b)]
                    if gain > best:
                        best, pair = gain, (a, b)
            a, b = pair
            unlocked0.remove(a)
            unlocked1.remove(b)
            for v in pair:  # move v to the other side; update its neighbours
                sv = side[v]
                for u, w in zip(adj_nbr[v], adj_w[v]):
                    d[u] += 2 * w if side[u] == sv else -2 * w
                d[v] = -d[v]
                side[v] = 1 - sv
            swaps.append(pair)
            total += best
            if total > best_total:
                best_total, best_len = total, len(swaps)
                best_d = d.copy()
        for a, b in swaps[best_len:]:
            side[a], side[b] = 0, 1
        if best_total <= 0:
            break
        improved = True
        d = best_d
    if not improved:
        return sol
    return make_solution(graph, side, s0, n - s0)


def max_adjacency_split(graph: WeightedGraph, s0: int, s1: int) -> Solution:
    """Feasible solution from a maximum-adjacency ordering.

    Starting at vertex 0, repeatedly append the unordered vertex with the
    largest total edge weight into the ordered set (ties by vertex id);
    the first s0 ordered vertices form side 0, so the ordering stops there.
    conn[v] is that weight for an unordered v, and -1 once v is ordered.
    s0 and s1 must be integers >= 1 that sum to n, else ValueError.
    """
    n = graph.n
    s0, s1 = side_sizes(s0, s1, n)
    conn = [0] * n
    sides = [1] * n
    best = 0
    for _ in range(s0):
        conn[best] = -1
        sides[best] = 0
        for u, w in zip(graph.adj_nbr[best], graph.adj_w[best]):
            if conn[u] >= 0:
                conn[u] += w
        best = conn.index(max(conn))
    return make_solution(graph, sides, s0, s1)


def greedy_initial_solution(graph: WeightedGraph, s0: int, s1: int) -> Solution:
    """Initial incumbent: the maximum-adjacency split refined by
    kernighan_lin."""
    return kernighan_lin(graph, max_adjacency_split(graph, s0, s1))

"""Completion rules, feasible solutions, and the initial heuristic.

A Solution is always re-evaluated by direct edge enumeration when built,
so an incumbent can never be corrupted by a bug in the incremental
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import WeightedGraph, cut_value
from .subproblem import Subproblem
from .bounds import rebalance_bound


@dataclass(frozen=True)
class Solution:
    """A feasible bipartition: sides[v] in {0,1}, value = its cut weight."""

    assignment: tuple[int, ...]
    value: int


def make_solution(graph: WeightedGraph, sides, s0: int, s1: int) -> Solution:
    """Validate cardinalities and compute the cut weight from scratch."""
    sides = tuple(sides)
    if len(sides) != graph.n:
        raise ValueError("assignment length does not match vertex count")
    n0 = sides.count(0)
    if n0 != s0 or len(sides) - n0 != s1:
        raise ValueError(
            f"assignment has {n0}|{len(sides) - n0} vertices, expected {s0}|{s1}"
        )
    return Solution(assignment=sides, value=cut_value(graph, sides))


def _sides_template(sp: Subproblem) -> list[int]:
    sides = [-1] * sp.graph.n
    a0, a1 = sp.a0, sp.a1
    for v in range(sp.graph.n):
        if (a0 >> v) & 1:
            sides[v] = 0
        elif (a1 >> v) & 1:
            sides[v] = 1
    return sides


def try_complete(sp: Subproblem) -> Solution | None:
    """Solve the subproblem without branching when a completion rule fires.

    In priority order:
      1. side-full: one side needs no more vertices, everything free goes
         to the other side (the unique completion).
      2. one-missing: one side needs exactly one vertex; the best choice
         minimizes d_other - d_own + (weight of its free edges, which all
         end up crossing).  Ties broken by vertex id.
      3. degree-zero: no free-free edges remain, so the rebalancing
         completion is optimal.

    Returns None when no rule applies.
    """
    g = sp.graph
    if sp.f0 == 0 or sp.f1 == 0:
        full = 0 if sp.f0 == 0 else 1
        other = 1 - full
        sides = _sides_template(sp)
        for v in sp.free_list:
            sides[v] = other
        return make_solution(g, sides, sp.s0, sp.s1)

    if sp.f0 == 1 or sp.f1 == 1:
        short = 0 if sp.f0 == 1 else 1
        d_own = sp.d0 if short == 0 else sp.d1
        d_other = sp.d1 if short == 0 else sp.d0
        tw = g.total_weight
        best_v = -1
        best_key = None
        for v in sp.free_list:
            free_w = tw[v] - sp.d0[v] - sp.d1[v]
            key = d_other[v] - d_own[v] + free_w
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        sides = _sides_template(sp)
        for v in sp.free_list:
            sides[v] = 1 - short
        sides[best_v] = short
        return make_solution(g, sides, sp.s0, sp.s1)

    if sp.zero_free_degree_count == sp.f:
        order = rebalance_bound(sp)
        sides = _sides_template(sp)
        for i, v in enumerate(order):
            sides[v] = 0 if i < sp.f0 else 1
        return make_solution(g, sides, sp.s0, sp.s1)

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


def greedy_initial_solution(graph: WeightedGraph, s0: int, s1: int) -> Solution:
    """Initial feasible solution from a maximum-adjacency ordering.

    Starting at vertex 0, repeatedly append the unordered vertex with the
    largest total edge weight into the ordered set (ties by vertex id);
    the first s0 ordered vertices form side 0.
    """
    n = graph.n
    if s0 <= 0 or s1 <= 0 or s0 + s1 != n:
        raise ValueError(f"invalid sizes ({s0},{s1}) for n={n}")
    conn = [0] * n
    ordered = [0]
    in_order = [False] * n
    in_order[0] = True
    for u, w in graph.neighbors(0):
        conn[u] += w
    for _ in range(n - 1):
        best, best_c = -1, -1
        for v in range(n):
            if not in_order[v] and conn[v] > best_c:
                best, best_c = v, conn[v]
        ordered.append(best)
        in_order[best] = True
        for u, w in graph.neighbors(best):
            if not in_order[u]:
                conn[u] += w
    sides = [1] * n
    for v in ordered[:s0]:
        sides[v] = 0
    return make_solution(graph, sides, s0, s1)

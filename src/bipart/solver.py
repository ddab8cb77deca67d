"""Branch-and-bound engine: the prologue and expansion step shared by both
entry points, and the sequential search loop.

The loop keeps one priority heap keyed by (-priority, push number) for
every strategy, the key the thread pool uses too: ties go to the earlier
push and side 0 is pushed first, so dfs pops in plain stack order.  It
pops the best subproblem, drops it when its stored lower bound no longer
beats the incumbent (counted separately as an irrelevant task), otherwise
tries the completion rules and, failing those, branches on the free
vertex with the largest guaranteed bound increase.  Child bounds are
computed once at creation, cheapest term first against the incumbent, and
stored with the child; a child whose bound reaches the incumbent is dropped
on the spot, before its high-degree upkeep, component BFS or gap estimate
is built.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from enum import Enum

from .graph import WeightedGraph
from .subproblem import Subproblem, root_subproblem
from .bounds import BoundConfig, lower_bound
from .completion import (
    Solution,
    greedy_initial_solution,
    rebalancing_completion_value,
    try_complete,
)


class SearchStrategy(Enum):
    DFS = "dfs"
    BEST_FIRST_LB = "lb"
    GAP = "gap"


@dataclass
class SolveResult:
    best: Solution | None
    optimum: int
    subproblems_explored: int
    irrelevant_tasks: int
    popped: int
    solutions_found: int
    time_total: float
    time_to_optimum: float
    config: BoundConfig
    strategy: SearchStrategy
    threads: int


def branch_vertex(sp: Subproblem) -> int:
    """Free vertex with the largest |d1 - d0| gap.

    Fixing it on its worse side raises the bound by that gap.  Ties are
    broken by larger d0 + d1, then by smaller vertex id.
    """
    d0, d1 = sp.d0, sp.d1
    best = -1
    best_gap = -1
    best_sum = -1
    for v in sp.free_list:
        a, b = d0[v], d1[v]
        gap = b - a if b >= a else a - b
        if gap > best_gap or (gap == best_gap and a + b > best_sum):
            best, best_gap, best_sum = v, gap, a + b
    return best


def priority(sp: Subproblem, strategy: SearchStrategy) -> float:
    """Scheduling priority of a subproblem; larger means processed earlier.

    Requires sp.lb to be set (dfs aside); the gap strategy's estimated
    upper bound is computed on first use and cached on the subproblem.
    """
    if strategy is SearchStrategy.DFS:
        return sp.depth
    if strategy is SearchStrategy.BEST_FIRST_LB:
        return -sp.lb
    if sp.ub_est is None:
        sp.ub_est = rebalancing_completion_value(sp)
    return -(sp.ub_est - sp.lb)


def expand(sp, cfg, cutoff):
    """Completion-or-branch step shared by the sequential and parallel loops.

    Returns (solution, None) when a completion rule fired, otherwise
    (None, children) with each child's lower bound stored on it.  `cutoff`
    is the incumbent value: a child whose stored bound is >= cutoff holds
    only that certificate, since the bound terms after the one that reached
    the cutoff were skipped.
    """
    sol = try_complete(sp)
    if sol is not None:
        return sol, None
    v = branch_vertex(sp)
    children = []
    for side in (0, 1):
        child = sp.assign(v, side)
        child.lb = lower_bound(child, cfg, cutoff)
        children.append(child)
    return None, children


def prologue(graph, s0, s1, cfg, initial, initial_value):
    """Checks, incumbent seed and root shared by both search entry points.

    Returns (t_start, best, best_value, t_best, root): the incumbent is
    `initial` when given, else the greedy heuristic; `initial_value` caps
    its value without an assignment (best is then None).  `t_best` is the
    seed's time stamp and `root` carries its full lower bound.
    """
    t_start = time.perf_counter()
    if s0 <= 0 or s1 <= 0 or s0 + s1 != graph.n:
        raise ValueError(f"invalid sizes ({s0},{s1}) for n={graph.n}")
    if initial is not None and len(initial.assignment) != graph.n:
        raise ValueError("initial solution does not match the graph")
    best = initial if initial is not None else greedy_initial_solution(
        graph, s0, s1
    )
    best_value = best.value
    if initial_value is not None and initial_value < best_value:
        best, best_value = None, initial_value
    t_best = time.perf_counter() - t_start
    root = root_subproblem(graph, s0, s1, maintain_hd=cfg.enable_high_degree)
    root.lb = lower_bound(root, cfg)
    return t_start, best, best_value, t_best, root


def solve_sequential(
    graph: WeightedGraph,
    s0: int,
    s1: int,
    cfg: BoundConfig = BoundConfig(),
    strategy: SearchStrategy = SearchStrategy.DFS,
    initial: Solution | None = None,
    initial_value: int | None = None,
) -> SolveResult:
    """Exact optimum of the (s0, s1) bipartitioning problem.

    The incumbent is seeded with `initial` when given, else with the greedy
    heuristic; `initial_value` additionally caps the incumbent value
    without providing an assignment (used for proving optimality of a known
    value: the returned best is then None unless something better was
    found).  Identical inputs give identical results and counts.
    """
    t_start, best_sol, best_value, t_best, root = prologue(
        graph, s0, s1, cfg, initial, initial_value
    )
    solutions_found = 0 if best_sol is None else 1

    frontier = [(-priority(root, strategy), 0, root)]
    pushes = 0
    explored = 0
    irrelevant = 0
    popped = 0
    while frontier:
        sp = heapq.heappop(frontier)[2]
        popped += 1
        if sp.lb >= best_value:
            irrelevant += 1
            continue
        explored += 1
        sol, children = expand(sp, cfg, best_value)
        if sol is not None:
            if sol.value < best_value:
                best_value = sol.value
                best_sol = sol
                solutions_found += 1
                t_best = time.perf_counter() - t_start
            continue
        for child in children:
            if child.lb < best_value:
                pushes += 1
                heapq.heappush(
                    frontier, (-priority(child, strategy), pushes, child)
                )

    return SolveResult(
        best=best_sol,
        optimum=best_value,
        subproblems_explored=explored,
        irrelevant_tasks=irrelevant,
        popped=popped,
        solutions_found=solutions_found,
        time_total=time.perf_counter() - t_start,
        time_to_optimum=t_best,
        config=cfg,
        strategy=strategy,
        threads=1,
    )

"""Branch-and-bound engine: the search both entry points run, from its
incumbent and root to its result, and the expansion step of its loop.

The loop keeps one priority heap keyed by (-priority, push number) for
every strategy: ties go to the earlier push, so dfs pops the first child
with the fewest free vertices first.  It pops the best subproblem, drops it
when its stored lower bound no longer beats the incumbent (counted
separately as an irrelevant task), otherwise tries the completion rules.
Failing those, it fixes in one batch every free vertex that the stored
bound and its split of the free vertices already force to one side (see
expand), and branches on the free vertex of largest |d1 - d0| plus twice
its weight to free vertices, the weight the cheap bound terms cannot see
yet (see branch_vertex).  One Subproblem.assign call gives both children
and never builds one whose fixed cut + basic already reaches the
incumbent.  The bounds of the others are computed once, cheapest term
first against the incumbent, and stored with the child; a child whose
bound reaches the incumbent is dropped on the spot, before its high-degree
terms, component search or gap estimate are computed.  The surviving
children are pushed lower stored bound first, side 0 first on a tie, so
dfs dives into the more promising child.  A completion that beats the
incumbent is refined by Kernighan-Lin before it replaces it.  The loop can
stop after a node budget and resume on the same heap, which is how the
parallel solver runs it.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from enum import Enum

from .graph import WeightedGraph, integer, side_sizes
from .subproblem import Subproblem, root_subproblem
from .bounds import BoundConfig, lower_bound
from .completion import (
    Solution,
    greedy_initial_solution,
    kernighan_lin,
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
    solutions_found: int
    time_total: float
    time_to_optimum: float
    threads: int  # processes that searched: forked workers, else 1

    @property
    def popped(self) -> int:
        """Dequeued subproblems: the explored and the irrelevant ones."""
        return self.subproblems_explored + self.irrelevant_tasks


def branch_vertex(sp: Subproblem) -> int:
    """Free vertex v with the largest 2 total_weight[v] - 3 min(d0[v], d1[v])
    - max(d0[v], d1[v]).

    That is |d1 - d0|, what fixing v on its worse side adds to the bound at
    once, plus twice v's weight to free vertices, which basic and rebalance
    cannot charge for until branching turns it into fixed-free weight.
    Counting that weight twice rather than once cuts the rebalancing
    presets' trees by about a tenth (README, "Branching").  Ties go to the
    smallest vertex id.
    """
    d0, d1, tw = sp.d0, sp.d1, sp.graph.total_weight
    best = -1
    best_key = -1
    for v in sp.free_list:
        a, b = d0[v], d1[v]
        key = 2 * tw[v] - (3 * a + b if a < b else a + 3 * b)
        if key > best_key:
            best, best_key = v, key
    return best


def priority(sp: Subproblem, strategy: SearchStrategy) -> float:
    """Scheduling priority of a subproblem; larger means processed earlier.

    Requires sp.lb to be set (dfs aside).  Dfs takes the fewest free
    vertices: its open subproblems are the unexplored siblings along the
    current path, so that is the deepest branching.  The gap strategy's
    priority is minus the gap between the rebalancing completion's value,
    a feasible upper bound, and sp.lb; it is read once, when sp is pushed.
    """
    if strategy is SearchStrategy.DFS:
        return -len(sp.free_list)
    if strategy is SearchStrategy.BEST_FIRST_LB:
        return -sp.lb
    return sp.lb - rebalancing_completion_value(sp)


def expand(sp, cfg, cutoff):
    """Completion-or-branch step of the search loop.

    Returns the improving Solution when a completion rule fired on a
    completion below `cutoff`, else the list of children to push, each
    with its lower bound stored on it and below `cutoff`, in non-decreasing
    stored bound (side 0 first on a tie).  The list is empty when a rule
    fired on a completion that cannot beat the cutoff, or when no child
    can (a leaf).  `cutoff` is the incumbent value, and sp.lb must be below
    it.  A child whose fixed cut + basic reaches it is not built; one whose
    stored bound reaches it is dropped before its later terms are computed.

    Before branching, every free vertex whose other side would lift the
    stored bound to the cutoff is fixed, all in one Subproblem.fix, and
    the children are those of that state.  With gap = cutoff - sp.lb and
    delta = d1 - d0, v is forced to side 0 when delta <= delta_hi - gap and
    to side 1 when delta >= delta_lo + gap, the split the stored bound
    recorded (see Subproblem): under `trivial`, to its cheaper side when
    |delta| >= gap.  This is sound: the price of v on its wrong side, the
    difference between its delta and delta_hi or delta_lo, is exactly what
    the fixed-free part of the bound rises by when v must go there.  The
    high-degree and component terms inside sp.lb bound only the free-free
    edges, which every completion pays however v is placed.  So sp.lb plus
    that price bounds every completion with v on its wrong side, each
    forced vertex holds in every completion below the cutoff, and so does
    the batch jointly.  A batch that puts more vertices on a side than it
    has room for leaves no such completion; that is checked before the
    batch is built, since fix does not examine the pairs after it stops.
    fix gets the cutoff and returns None as soon as fixed cut + basic
    reaches it, which closes the node.  That sum never falls during a
    batch, so this closes exactly the nodes whose fully built batch reaches
    the cutoff, without building the rest of the batch.
    """
    sol = try_complete(sp, cutoff)
    if sol is None:
        gap = cutoff - sp.lb
        lo, hi = sp.delta_hi - gap, sp.delta_lo + gap
        d0, d1 = sp.d0, sp.d1
        forced = []
        to0 = 0
        for v in sp.free_list:
            delta = d1[v] - d0[v]
            if delta <= lo:
                forced.append((v, 0))
                to0 += 1
            elif delta >= hi:
                forced.append((v, 1))
        if forced:
            if to0 > sp.f0 or len(forced) - to0 > sp.f1:
                return []
            sp = sp.fix(forced, cutoff)
            if sp is None:
                return []
            sol = try_complete(sp, cutoff)
    if sol is not None:
        return sol if isinstance(sol, Solution) else []
    children = []
    for child in sp.assign(branch_vertex(sp), cutoff):
        if child is not None:
            child.lb = lower_bound(child, cfg, cutoff)
            if child.lb < cutoff:
                children.append(child)
    if len(children) == 2 and children[1].lb < children[0].lb:
        children.reverse()
    return children


class Search:
    """One search from incumbent to result: its frontier heap, its
    incumbent and its counts.

    The incumbent is the greedy heuristic's split refined by Kernighan-Lin,
    unless an integer `initial_value` is given: that is then the cutoff, no
    heuristic runs, best is None, and the search proves that nothing beats
    `initial_value` unless it finds something that does.  The root carries
    its full lower bound.  A `cfg` that is not a BoundConfig, a `strategy`
    that is not a SearchStrategy or its value, side sizes that are not
    integers >= 1 summing to graph.n and a non-integer `initial_value`
    raise ValueError before any work.

    `run` pops and expands until the frontier is empty or a node budget is
    spent, and a later `run` resumes on the same heap, so a search run in
    slices explores exactly the tree of one unbudgeted run.  `best_value`
    is the pruning cutoff and `best` the best solution this search holds;
    best is None while the cutoff came from elsewhere (an `initial_value`,
    or another worker's incumbent).
    """

    def __init__(self, graph, s0, s1, cfg, strategy, initial_value=None):
        self.t_start = time.perf_counter()
        if not isinstance(cfg, BoundConfig):
            raise ValueError(f"cfg must be a BoundConfig, got {cfg!r}")
        self.cfg = cfg
        self.strategy = SearchStrategy(strategy)
        s0, s1 = side_sizes(s0, s1, graph.n)
        if initial_value is None:
            self.best = greedy_initial_solution(graph, s0, s1)
            self.best_value = self.best.value
            self.solutions_found = 1
        else:
            self.best = None
            self.best_value = integer(initial_value, "initial_value")
            self.solutions_found = 0
        self.t_best = time.perf_counter() - self.t_start
        root = root_subproblem(graph, s0, s1)
        root.lb = lower_bound(root, cfg)
        self.frontier = [(-priority(root, self.strategy), 0, root)]
        self.pushes = self.explored = self.irrelevant = 0

    def run(self, budget: int | None = None) -> bool:
        """Explore until the frontier is empty, returning True, or until
        `budget` more subproblems have been explored, returning False."""
        cfg, strategy, frontier = self.cfg, self.strategy, self.frontier
        pushes, explored, irrelevant = self.pushes, self.explored, self.irrelevant
        best, best_value = self.best, self.best_value
        stop = -1 if budget is None else explored + budget
        while frontier and explored != stop:
            sp = heapq.heappop(frontier)[2]
            if sp.lb >= best_value:
                irrelevant += 1
                continue
            explored += 1
            step = expand(sp, cfg, best_value)
            if isinstance(step, Solution):
                if step.value < best_value:
                    best = kernighan_lin(sp.graph, step)
                    best_value = best.value
                    self.solutions_found += 1
                    self.t_best = time.perf_counter() - self.t_start
                continue
            for child in step:
                pushes += 1
                heapq.heappush(
                    frontier, (-priority(child, strategy), pushes, child)
                )
        self.pushes, self.explored, self.irrelevant = pushes, explored, irrelevant
        self.best, self.best_value = best, best_value
        return not frontier

    def result(self, threads: int = 1) -> SolveResult:
        return SolveResult(
            best=self.best,
            optimum=self.best_value,
            subproblems_explored=self.explored,
            irrelevant_tasks=self.irrelevant,
            solutions_found=self.solutions_found,
            time_total=time.perf_counter() - self.t_start,
            time_to_optimum=self.t_best,
            threads=threads,
        )


def solve_sequential(
    graph: WeightedGraph,
    s0: int,
    s1: int,
    cfg: BoundConfig = BoundConfig(),
    strategy: SearchStrategy = SearchStrategy.DFS,
    initial_value: int | None = None,
) -> SolveResult:
    """Exact optimum of the (s0, s1) bipartitioning problem, by one Search
    run to the end (see Search for the incumbent and `initial_value`).
    Identical inputs give identical results and counts.
    """
    search = Search(graph, s0, s1, cfg, strategy, initial_value)
    search.run()
    return search.result()

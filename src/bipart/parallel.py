"""Parallel branch-and-bound: one shared priority heap, a shared incumbent.

All workers pop from one heap under one lock, keyed like the sequential
loop's, by (-priority, push number), so every pop returns the best open
task.  Subproblems are owned by exactly one worker at a time; the graph is
shared read-only; the Incumbent only ever improves.  A busy count of the
workers expanding a task detects termination exactly: the pool is done when
the heap is empty and no worker is busy, since only a busy worker can push.
One thread is the sequential loop itself, with no thread and no lock.
"""

from __future__ import annotations

import heapq
import threading
import time

from .graph import WeightedGraph
from .bounds import BoundConfig, lower_bound  # noqa: F401
from .completion import Solution, greedy_initial_solution  # noqa: F401
from .solver import (
    SearchStrategy,
    SolveResult,
    expand,
    priority,
    prologue,
    solve_sequential,
)
from .subproblem import root_subproblem  # noqa: F401

# lower_bound, greedy_initial_solution and root_subproblem are reached
# through bipart.solver's prologue; they stay importable from this module
# for the per-layer trace in perfbench/layers.py.

_INFINITY = float("inf")

# Threads share one interpreter lock, so more only add switching; the cap
# keeps a mistyped count from starting thousands of system threads.
MAX_THREADS = 64


class Incumbent:
    """Shared, monotonically improving best solution.

    Updates are linearizable (single lock, strict-improvement test inside
    the critical section); readers prune on the value alone, which is a
    plain attribute read.
    """

    def __init__(self, value=_INFINITY, solution: Solution | None = None):
        self._lock = threading.Lock()
        self.value = value
        self.solution = solution
        self.improved_at = 0.0
        self.accepted = 1 if solution is not None else 0

    def update(self, candidate: Solution, stamp: float = 0.0) -> bool:
        """Publish the candidate if strictly better; returns acceptance."""
        with self._lock:
            if candidate.value < self.value:
                self.value = candidate.value
                self.solution = candidate
                self.improved_at = stamp
                self.accepted += 1
                return True
            return False


class _Pool:
    """The shared heap and the counts kept under its condition's lock."""

    def __init__(self, root, strategy: SearchStrategy):
        self.cond = threading.Condition(threading.Lock())
        self.heap = [(-priority(root, strategy), 0, root)]
        self.pushes = 0
        self.busy = 0  # workers expanding a popped task
        self.aborted = False
        self.error: BaseException | None = None
        self.explored = 0
        self.irrelevant = 0
        self.popped = 0


def _work(pool: _Pool, incumbent: Incumbent, cfg, strategy, t_start):
    """Worker thread: pop the best task, expand it, push its survivors.

    Each turn under the lock hands back the previous task's children and
    busy slot and takes the next task.  A worker waits only while the heap
    is empty and another worker is busy; it is woken by a push, by the busy
    count reaching 0 or by an abort.  Any exception aborts the pool and is
    re-raised by solve_parallel after the join.
    """
    cond, heap = pool.cond, pool.heap
    keyed = None  # (key, child) pairs of the task just expanded
    try:
        while True:
            with cond:
                if keyed is not None:
                    pool.busy -= 1
                    for key, child in keyed:
                        pool.pushes += 1
                        heapq.heappush(heap, (key, pool.pushes, child))
                    if keyed:
                        cond.notify(len(keyed))
                while True:
                    if pool.aborted:
                        return
                    if heap:
                        sp = heapq.heappop(heap)[2]
                        pool.popped += 1
                        if sp.lb < incumbent.value:
                            break
                        pool.irrelevant += 1
                    elif pool.busy == 0:
                        cond.notify_all()
                        return
                    else:
                        cond.wait()
                pool.busy += 1
                pool.explored += 1
            # The incumbent only decreases, so a child whose bound reaches
            # the value read here can never be needed.
            sol, children = expand(sp, cfg, incumbent.value)
            if sol is not None:
                incumbent.update(sol, stamp=time.perf_counter() - t_start)
                keyed = ()
            else:
                keyed = [(-priority(child, strategy), child)
                         for child in children if child.lb < incumbent.value]
    except BaseException as exc:  # re-raised by solve_parallel after join
        with cond:
            if pool.error is None:
                pool.error = exc
            pool.aborted = True
            cond.notify_all()


def solve_parallel(
    graph: WeightedGraph,
    s0: int,
    s1: int,
    cfg: BoundConfig = BoundConfig(),
    strategy: SearchStrategy = SearchStrategy.DFS,
    threads: int = 1,
    initial: Solution | None = None,
    initial_value: int | None = None,
) -> SolveResult:
    """Exact optimum using a pool of worker threads.

    Returns the same optimum as solve_sequential.  With one thread it is
    solve_sequential, so every strategy explores exactly the sequential
    tree; with more, exploration counts vary from run to run with
    scheduling.  A thread count outside 1..MAX_THREADS raises ValueError
    before any thread starts.
    """
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"thread count must be in 1..{MAX_THREADS}, got {threads}")
    if threads == 1:
        return solve_sequential(
            graph, s0, s1, cfg, strategy, initial, initial_value
        )
    t_start, best, best_value, t_best, root = prologue(
        graph, s0, s1, cfg, initial, initial_value
    )
    incumbent = Incumbent(value=best_value, solution=best)
    incumbent.improved_at = t_best

    pool = _Pool(root, strategy)
    workers = [
        threading.Thread(
            target=_work, args=(pool, incumbent, cfg, strategy, t_start),
            name=f"bipart-worker-{i}", daemon=True,
        )
        for i in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if pool.error is not None:
        raise pool.error

    return SolveResult(
        best=incumbent.solution,
        optimum=incumbent.value,
        subproblems_explored=pool.explored,
        irrelevant_tasks=pool.irrelevant,
        popped=pool.popped,
        solutions_found=incumbent.accepted,
        time_total=time.perf_counter() - t_start,
        time_to_optimum=incumbent.improved_at,
        config=cfg,
        strategy=strategy,
        threads=threads,
    )

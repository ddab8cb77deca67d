"""Parallel branch-and-bound: an in-process start, then a fork process pool.

A solve runs solve_sequential's loop in this process for up to NODE_BUDGET
explored subproblems, then splits its open subproblems with the most free
vertices into tasks for forked workers, which search them around a shared
incumbent.
"""

import heapq
import os
import sys
import threading

from .graph import WeightedGraph, integer
from .bounds import BoundConfig, lower_bound  # noqa: F401
from .completion import Solution, greedy_initial_solution  # noqa: F401
from .solver import (Search, SearchStrategy, SolveResult,  # noqa: F401
                     expand)
from .subproblem import Subproblem, root_subproblem  # noqa: F401

# expand, greedy_initial_solution, lower_bound, root_subproblem: for
# perfbench/layers.py.

# A larger count is a usage error; no more workers than CPUs ever start.
MAX_THREADS = 64

# Explored subproblems before a solve forks its pool.  On a 2-core host,
# forking two workers and joining them costs 7-12 ms, and a node of the
# loop 28-42 us (rebalance and component, DFS, on G(52, 0.1, 1..1000), as
# in tools/pool_speedup.py).  After 5,000 nodes, 0.14-0.21 s of work,
# starting the pool adds at most about a twelfth; every smaller solve
# never pays for it.
NODE_BUDGET = 5000
# Tasks per worker, so that no worker waits long on another's last subtree.
TASKS_PER_WORKER = 8
# Nodes between two looks at the shared incumbent: about 1 ms of work.
SLICE = 64
# The shared incumbent is a signed 64-bit integer; this value means unset.
_SHARED_MAX = 2**63 - 1


class Incumbent:
    """Monotonically improving best solution; updates are linearizable
    (one lock, strict-improvement test inside the critical section)."""

    def __init__(self, value=float("inf")):
        self._lock = threading.Lock()
        self.value = value
        self.solution = None
        self.improved_at = 0.0

    def update(self, candidate: Solution, stamp: float = 0.0) -> bool:
        """Publish the candidate if strictly better; returns acceptance."""
        with self._lock:
            if candidate.value < self.value:
                self.value = candidate.value
                self.solution = candidate
                self.improved_at = stamp
                return True
            return False


def worker_count(threads: int) -> int:
    """Worker processes for `threads`: at most the CPUs available here, and
    1 (this process) without fork or in a daemonic process, barred from it."""
    mp = sys.modules.get("multiprocessing")  # a daemon has imported it
    if not hasattr(os, "fork") or mp and mp.current_process().daemon:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return min(threads, len(affinity(0)) if affinity else os.cpu_count() or 1)


def _split(search: Search, count: int) -> list[Subproblem]:
    """Expand the open subproblems with the most free vertices until `count`
    are open or none is; take them off the frontier, with their stored
    bounds, in its order."""
    widest = sorted((-len(sp.free_list), push, key, sp)
                    for key, push, sp in search.frontier)
    while widest and len(widest) < count:
        _, push, key, sp = heapq.heappop(widest)
        search.frontier = [(key, push, sp)]
        search.run(1)
        for key, push, sp in search.frontier:
            heapq.heappush(widest, (-len(sp.free_list), push, key, sp))
    search.frontier = []
    widest.sort(key=lambda entry: (entry[2], entry[1]))
    return [sp for *_, sp in widest]


def _worker(conn, search, tasks, claim, shared, lock):
    """Forked worker: claim tasks in order and search each, as the fork
    holds it with its stored bound, in slices on this copy of `search`;
    send its SolveResult or its error and leave through os._exit, past the
    caller's flushes and finalizers.  The caller may run other threads, so
    it imports nothing and takes no lock but `lock`."""
    try:
        search.best = None
        search.explored = search.irrelevant = search.solutions_found = 0
        while True:
            with lock:
                i = claim.value
                claim.value = i + 1
            if i >= len(tasks):
                break
            search.frontier = [(0, 0, tasks[i])]
            while search.frontier:
                search.run(SLICE)
                with lock:  # publish a better value, or prune with one
                    if search.best_value < shared.value:
                        shared.value = search.best_value
                    elif shared.value < min(search.best_value, _SHARED_MAX):
                        # A search's best is the solution of its cutoff.
                        search.best, search.best_value = None, shared.value
        conn.send((None, search.result()))
    except BaseException as exc:  # the parent re-raises it
        conn.send((exc, None))
    finally:
        os._exit(0)


def _search_in_pool(search: Search, tasks, workers) -> None:
    """Search `tasks` in `workers` forked processes, merging into `search`."""
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    lock = ctx.Lock()
    claim = ctx.RawValue("q", 0)
    shared = ctx.RawValue("q", min(search.best_value, _SHARED_MAX))
    incumbent = Incumbent(search.best_value)
    pool = []  # (worker, the read end of its pipe)
    try:
        for _ in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, daemon=True, args=(
                writer, search, tasks, claim, shared, lock))
            proc.start()
            writer.close()
            pool.append((proc, reader))
        pending = [reader for _, reader in pool]
        while pending:  # the first error is raised at once
            reader = wait(pending)[0]
            pending.remove(reader)
            try:
                error, result = reader.recv()
            except EOFError:
                raise RuntimeError("a worker exited without a result") from None
            if error is not None:
                raise error
            if result.best is not None:
                incumbent.update(result.best, result.time_to_optimum)
            search.explored += result.subproblems_explored
            search.irrelevant += result.irrelevant_tasks
            search.solutions_found += result.solutions_found
    finally:
        for proc, reader in pool:
            proc.terminate()  # past its result, or left behind by an error
            proc.join()
            reader.close()
    if incumbent.solution is not None:
        search.best, search.best_value = incumbent.solution, incumbent.value
        search.t_best = incumbent.improved_at


def solve_parallel(
    graph: WeightedGraph,
    s0: int,
    s1: int,
    cfg: BoundConfig = BoundConfig.TRIVIAL,
    strategy: SearchStrategy = SearchStrategy.DFS,
    threads: int = 1,
    initial_value: int | None = None,
) -> SolveResult:
    """Exact optimum, searched by up to `threads` worker processes.

    A solve that ends within NODE_BUDGET explored subproblems, or has one
    thread, one CPU or a daemonic caller, is solve_sequential, counts
    included.  A larger one continues in worker_count(threads) forked
    workers, its counts varying with scheduling; none is left running when
    this returns or raises.  The result's `threads` is the number of
    processes that searched: the forked workers, or 1 when none was
    started.  A `threads` that is not an integer in 1..MAX_THREADS raises
    ValueError before any work, as do the arguments Search rejects.
    """
    if not 1 <= integer(threads, "thread count") <= MAX_THREADS:
        raise ValueError(f"thread count must be in 1..{MAX_THREADS}, got {threads}")
    search = Search(graph, s0, s1, cfg, strategy, initial_value)
    workers = worker_count(threads)
    searched = 1
    if workers > 1 and not search.run(NODE_BUDGET):
        tasks = _split(search, TASKS_PER_WORKER * workers)
        if tasks:
            _search_in_pool(search, tasks, workers)
            searched = workers
    search.run()  # all of a one-worker solve; else the frontier is empty
    return search.result(searched)

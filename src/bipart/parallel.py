"""Parallel branch-and-bound: worker pool, shared incumbent, task stealing.

Subproblems travel between workers as tasks but are owned by exactly one
worker at a time; the graph is shared read-only; the Incumbent is the only
mutable shared state and only ever improves.  Each worker keeps a local
priority heap and, when empty, steals the top task from the peer whose
best-known task looks most promising at peek time.  Pops are therefore
relaxed: the returned task was the best task of some local pool at some
moment during the pop, not necessarily the global best.

Termination uses a quiescence counter: pushes increment it, and a task
decrements it only after its children have been pushed, so the counter
reaches zero exactly once, when no task exists or can appear.
"""

from __future__ import annotations

import heapq
import threading
import time

from .graph import WeightedGraph
from .bounds import BoundConfig, lower_bound
from .completion import Solution, greedy_initial_solution
from .solver import SearchStrategy, SolveResult, expand, priority
from .subproblem import Subproblem, root_subproblem

_INFINITY = float("inf")


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

    def cap_value(self, value: int) -> None:
        """Lower the pruning value without publishing an assignment."""
        with self._lock:
            if value < self.value:
                self.value = value
                self.solution = None
                self.accepted = 0


class _Worker(threading.Thread):
    def __init__(self, pool: "_TaskPool", index: int, cfg, strategy, t_start):
        super().__init__(daemon=True, name=f"bipart-worker-{index}")
        self.pool = pool
        self.index = index
        self.cfg = cfg
        self.strategy = strategy
        self.t_start = t_start
        self.heap: list[tuple[float, int, Subproblem]] = []
        self.lock = threading.Lock()
        self.seq = 0
        self.explored = 0
        self.irrelevant = 0
        self.popped = 0
        self.error: BaseException | None = None

    def run(self):
        try:
            self._loop()
        except BaseException as exc:  # surfaced by solve_parallel after join
            self.error = exc
            self.pool.abort()

    def _loop(self):
        pool = self.pool
        incumbent = pool.incumbent
        cfg = self.cfg
        while True:
            task = pool.pop(self)
            if task is None:
                return
            self.popped += 1
            try:
                if task.lb >= incumbent.value:
                    self.irrelevant += 1
                    continue
                self.explored += 1
                # The incumbent only decreases, so a child whose bound
                # reaches the value read here can never be needed.
                sol, children = expand(task, cfg, incumbent.value)
                if sol is not None:
                    incumbent.update(
                        sol, stamp=time.perf_counter() - self.t_start
                    )
                    continue
                # Side-0 child pushed last: later pushes win priority ties,
                # so dfs explores it first, as the sequential loop does.
                for child in reversed(children):
                    if child.lb < incumbent.value:
                        pool.push(self, child)
            finally:
                pool.task_done()


class _TaskPool:
    """Per-worker heaps with stealing; counts outstanding tasks."""

    def __init__(self, incumbent: Incumbent):
        self.incumbent = incumbent
        self.workers: list[_Worker] = []
        self.cond = threading.Condition()
        self.outstanding = 0
        self.aborted = False

    def abort(self):
        with self.cond:
            self.aborted = True
            self.cond.notify_all()

    def push(self, worker: _Worker, sp: Subproblem):
        with self.cond:
            self.outstanding += 1
        # Later pushes win ties, giving LIFO behavior among equal
        # priorities (keeps dfs-style searches deep and frugal).
        worker.seq -= 1
        key = (-priority(sp, worker.strategy), worker.seq, sp)
        with worker.lock:
            heapq.heappush(worker.heap, key)
        with self.cond:
            self.cond.notify()

    def seed(self, sp: Subproblem, strategy: SearchStrategy):
        worker = self.workers[0]
        with self.cond:
            self.outstanding += 1
        with worker.lock:
            heapq.heappush(worker.heap, (-priority(sp, strategy), 0, sp))

    def task_done(self):
        with self.cond:
            self.outstanding -= 1
            if self.outstanding == 0:
                self.cond.notify_all()

    def _try_pop(self, worker: _Worker) -> Subproblem | None:
        with worker.lock:
            if worker.heap:
                return heapq.heappop(worker.heap)[2]
        # Steal from the peer whose top task has the best key at peek
        # time.  The peek is racy by design (relaxed priority order); the
        # locked re-check below keeps the pop itself safe.
        best_peer = None
        best_key = None
        for peer in self.workers:
            if peer is worker:
                continue
            try:
                key = peer.heap[0][0]
            except IndexError:
                continue
            if best_key is None or key < best_key:
                best_key, best_peer = key, peer
        if best_peer is not None:
            with best_peer.lock:
                if best_peer.heap:
                    return heapq.heappop(best_peer.heap)[2]
        return None

    def pop(self, worker: _Worker) -> Subproblem | None:
        while True:
            task = self._try_pop(worker)
            if task is not None:
                return task
            with self.cond:
                if self.outstanding == 0 or self.aborted:
                    return None
                self.cond.wait(timeout=0.01)


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

    Returns the same optimum as solve_sequential.  With one thread, dfs
    explores exactly the sequential tree; with more, exploration counts
    vary from run to run with scheduling.
    """
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")
    t_start = time.perf_counter()
    if s0 <= 0 or s1 <= 0 or s0 + s1 != graph.n:
        raise ValueError(f"invalid sizes ({s0},{s1}) for n={graph.n}")

    if initial is not None:
        if len(initial.assignment) != graph.n:
            raise ValueError("initial solution does not match the graph")
        seed_sol = initial
    else:
        seed_sol = greedy_initial_solution(graph, s0, s1)
    incumbent = Incumbent(value=seed_sol.value, solution=seed_sol)
    if initial_value is not None:
        incumbent.cap_value(initial_value)

    root = root_subproblem(graph, s0, s1, maintain_hd=cfg.enable_high_degree)
    root.lb = lower_bound(root, cfg)

    pool = _TaskPool(incumbent)
    workers = [
        _Worker(pool, i, cfg, strategy, t_start) for i in range(threads)
    ]
    pool.workers = workers
    pool.seed(root, strategy)
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for w in workers:
        if w.error is not None:
            raise w.error

    return SolveResult(
        best=incumbent.solution,
        optimum=incumbent.value,
        subproblems_explored=sum(w.explored for w in workers),
        irrelevant_tasks=sum(w.irrelevant for w in workers),
        popped=sum(w.popped for w in workers),
        solutions_found=incumbent.accepted,
        time_total=time.perf_counter() - t_start,
        time_to_optimum=incumbent.improved_at,
        config=cfg,
        strategy=strategy,
        threads=threads,
    )

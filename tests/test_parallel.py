import itertools
import multiprocessing
import os
import random
import threading
from unittest import mock

import pytest

from checks import (complete_unweighted, irregular_graph, random_er,
                    solve_parallel_checked)

import bipart.parallel
import bipart.solver
from bipart.bounds import CONFIG_PRESETS
from bipart.completion import Solution, make_solution
from bipart.graph import build_graph, cut_value, generate_er
from bipart.oracle import brute_force_optimum
from bipart.parallel import MAX_THREADS, Incumbent, solve_parallel, worker_count
from bipart.solver import Search, SearchStrategy, solve_sequential


@pytest.fixture
def force_pool(monkeypatch):
    """Every solve_parallel with more than one worker goes to the pool,
    split as little as possible, so that small trees reach the workers."""
    monkeypatch.setattr(bipart.parallel, "NODE_BUDGET", 0)
    monkeypatch.setattr(bipart.parallel, "TASKS_PER_WORKER", 1)


def forbid_heuristic(monkeypatch):
    """From here on, a solve that calls the incumbent heuristic fails."""
    def no_seed(*args):
        raise AssertionError("the heuristic ran")

    monkeypatch.setattr(bipart.solver, "greedy_initial_solution", no_seed)


@pytest.fixture
def started(monkeypatch):
    """The processes started during the test, recorded as they start."""
    seen = []
    real_start = multiprocessing.process.BaseProcess.start

    def start(self):
        seen.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return seen


class TestIncumbent:
    def test_min_semantics(self):
        inc = Incumbent()
        for value in (9, 7, 8):
            inc.update(Solution(assignment=(), value=value))
        assert inc.value == 7

    def test_equal_value_rejected(self):
        inc = Incumbent()
        assert inc.update(Solution(assignment=(), value=5))
        assert not inc.update(Solution(assignment=(), value=5))

    def test_concurrent_stress_reaches_global_min(self):
        rng = random.Random(555)
        values = [rng.randint(0, 10**9) for _ in range(100_000)]
        inc = Incumbent()
        chunks = [values[i::8] for i in range(8)]

        def worker(chunk):
            for v in chunk:
                inc.update(Solution(assignment=(), value=v))

        threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert inc.value == min(values)
        assert inc.solution.value == min(values)

    def test_monotone_nonincreasing(self):
        rng = random.Random(556)
        inc = Incumbent()
        published = []
        for _ in range(1000):
            if inc.update(Solution(assignment=(), value=rng.randint(0, 1000))):
                published.append(inc.value)
        assert published == sorted(published, reverse=True)
        assert len(published) == len(set(published))


class TestSolveParallel:
    def test_single_thread_matches_sequential_value(self):
        g = generate_er(12, 0.5, 1, 1000, seed=2)
        seq = solve_sequential(g, 6, 6, CONFIG_PRESETS["rebalance"])
        par = solve_parallel(g, 6, 6, CONFIG_PRESETS["rebalance"], threads=1)
        assert par.optimum == seq.optimum

    @pytest.mark.parametrize("preset", list(CONFIG_PRESETS))
    def test_single_thread_dfs_explores_the_sequential_tree(self, preset):
        """One thread explores the sequential tree, dfs and every other
        strategy alike."""
        cfg = CONFIG_PRESETS[preset]
        for strategy in SearchStrategy:
            for seed in range(3):
                g = generate_er(18, 0.5, 1, 1000, seed)
                seq = solve_sequential(g, 9, 9, cfg, strategy)
                par = solve_parallel(g, 9, 9, cfg, strategy, threads=1)
                assert (
                    par.subproblems_explored, par.popped, par.irrelevant_tasks
                ) == (seq.subproblems_explored, seq.popped, seq.irrelevant_tasks)

    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_matches_oracle_across_threads(self, threads, force_pool):
        rng = random.Random(100 + threads)
        for _ in range(12):
            n = rng.randint(4, 14)
            g = generate_er(n, rng.choice([0.1, 0.5, 1.0]), 1,
                            rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            expected = brute_force_optimum(g, s0, n - s0).optimum
            r = solve_parallel_checked(
                g, s0, n - s0, CONFIG_PRESETS["component"],
                SearchStrategy.DFS, threads=threads,
            )
            assert r.optimum == expected
            assert r.best is not None and r.best.value == expected

    def test_complete_graph_root_pruned_any_thread_count(self, force_pool):
        g = complete_unweighted(30)
        for threads in (1, 2, 4):
            r = solve_parallel_checked(
                g, 15, 15, CONFIG_PRESETS["highdegree"], threads=threads
            )
            assert r.optimum == 225
            assert r.subproblems_explored == 0

    def test_strategies_agree(self, force_pool):
        g = generate_er(13, 0.5, 1, 1000, seed=77)
        expected = brute_force_optimum(g, 6, 7).optimum
        for strategy in SearchStrategy:
            r = solve_parallel_checked(
                g, 6, 7, CONFIG_PRESETS["rebalance"], strategy, threads=4
            )
            assert r.optimum == expected

    @pytest.mark.parametrize("seed", [7, 19, 20, 22])
    def test_one_worker_counts_as_the_in_process_search(self, seed):
        """One pooled worker searches the split's tasks in the order this
        process would, so the parent's merge of its SolveResult gives as
        many explored subproblems, irrelevant tasks (1, 3, 2 and 1 here)
        and improving completions."""
        g = generate_er(24, 0.3, 1, 1000, seed)

        def split():
            search = Search(g, 12, 12, CONFIG_PRESETS["rebalance"],
                            SearchStrategy.DFS)
            return search, bipart.parallel._split(search, 8)

        pooled, tasks = split()
        bipart.parallel._search_in_pool(pooled, tasks, 1)
        alone, tasks = split()
        for task in tasks:
            alone.frontier = [(0, 0, task)]
            alone.run()
        assert alone.irrelevant > 0
        assert (pooled.explored, pooled.irrelevant, pooled.solutions_found) == (
            alone.explored, alone.irrelevant, alone.solutions_found)

    def test_initial_value_seeding(self, force_pool):
        g = generate_er(12, 0.5, 1, 1000, seed=3)
        opt = solve_sequential(g, 6, 6).optimum
        r = solve_parallel_checked(g, 6, 6, threads=2, initial_value=opt)
        assert r.optimum == opt and r.best is None
        loose = solve_parallel_checked(
            g, 6, 6, threads=2, initial_value=opt + 1
        )
        assert loose.optimum == loose.best.value == opt

    def test_initial_value_runs_no_heuristic(self, monkeypatch, started):
        """Given an initial_value, neither entry point calls the heuristic,
        in this process or in the pool, and the solve still ends with the
        heuristic-seeded solve's optimum: without an assignment at the
        optimum, with one above it."""
        g = generate_er(20, 0.3, 1, 1000, seed=4)
        cfg = CONFIG_PRESETS["rebalance"]
        opt = solve_sequential(g, 10, 10, cfg).optimum
        exact = solve_sequential(g, 10, 10, cfg, initial_value=opt)
        forbid_heuristic(monkeypatch)
        for budget in (bipart.parallel.NODE_BUDGET, 0):  # in budget, pool
            monkeypatch.setattr(bipart.parallel, "NODE_BUDGET", budget)
            for solve in (solve_sequential, solve_parallel_checked):
                kwargs = {} if solve is solve_sequential else {"threads": 2}
                r = solve(g, 10, 10, cfg, initial_value=opt, **kwargs)
                assert r.optimum == opt and r.best is None
                if solve is solve_sequential or budget:
                    assert r.subproblems_explored == exact.subproblems_explored
                loose = solve(g, 10, 10, cfg, initial_value=opt + 1, **kwargs)
                assert loose.optimum == loose.best.value == opt
        assert started or worker_count(2) == 1

    @pytest.mark.parametrize("s0, s1", [(8.0, 8.0), (True, 15), (0, 16),
                                        (9, 8), (-1, 17)])
    @pytest.mark.parametrize("initial_value", [None, 5335])
    def test_bad_side_sizes_rejected_before_any_work(
        self, s0, s1, initial_value, monkeypatch, force_pool, started
    ):
        """Side sizes that are not integers >= 1 summing to n raise
        ValueError naming them from both entry points, before the
        heuristic runs or a process starts."""
        g = generate_er(16, 0.4, 1, 1000, seed=3)
        forbid_heuristic(monkeypatch)
        with pytest.raises(ValueError, match="s0"):
            solve_sequential(g, s0, s1, initial_value=initial_value)
        with pytest.raises(ValueError, match="s0"):
            solve_parallel_checked(g, s0, s1, threads=2,
                                   initial_value=initial_value)
        assert started == []

    @pytest.mark.parametrize("value", [5334.5, 5335.0, True])
    def test_non_integer_initial_value_rejected(self, value, force_pool,
                                                started):
        """A cut is an integer, so a fractional, float or bool cutoff
        raises from both entry points, the pool forced, and no process
        starts."""
        g = generate_er(16, 0.4, 1, 1000, seed=3)
        assert solve_sequential(g, 8, 8).optimum == 5335
        with pytest.raises(ValueError, match="initial_value"):
            solve_sequential(g, 8, 8, initial_value=value)
        with pytest.raises(ValueError, match="initial_value"):
            solve_parallel_checked(g, 8, 8, threads=2, initial_value=value)
        assert started == []

    def test_cut_values_beyond_64_bits_through_the_pool(self, force_pool):
        """Values the shared 64-bit incumbent cannot hold are not shared,
        and the search stays exact."""
        for seed in range(4, 8):
            small = generate_er(14, 0.5, 1, 1000, seed)
            g = build_graph(14, [(u, v, w << 55) for u, v, w in small.edges()])
            expected = solve_sequential(small, 7, 7).optimum << 55
            for strategy in SearchStrategy:
                r = solve_parallel_checked(
                    g, 7, 7, CONFIG_PRESETS["component"], strategy, threads=2
                )
                assert r.optimum == r.best.value == expected

    def test_irregular_inputs_reach_the_pool(self, force_pool, monkeypatch):
        """Zero weights, isolated vertices, several components and sides of
        size 1, every preset and strategy in turn: each solve is exact, and
        the open subproblems of most of them are searched by the workers.
        The incumbent starts at the split of the first s0 vertices, so that
        a tree stays open to hand off; the floor on pool runs keeps that
        coverage from shrinking silently."""
        pool = mock.Mock(wraps=bipart.parallel._search_in_pool)
        monkeypatch.setattr(bipart.parallel, "_search_in_pool", pool)
        pairs = list(itertools.product(CONFIG_PRESETS.values(), SearchStrategy))
        rng = random.Random(1515)
        for i in range(48):
            n = rng.randint(8, 12)
            g = irregular_graph(rng, n)
            s0 = rng.randint(1, n - 1)
            expected = brute_force_optimum(g, s0, n - s0).optimum
            first = make_solution(g, [0] * s0 + [1] * (n - s0), s0, n - s0)
            monkeypatch.setattr(bipart.solver, "greedy_initial_solution",
                                lambda *args: first)
            cfg, strategy = pairs[i % len(pairs)]
            r = solve_parallel_checked(g, s0, n - s0, cfg, strategy,
                                       threads=2)
            assert r.optimum == r.best.value == expected
        assert pool.call_count >= 24 or worker_count(2) == 1

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ValueError):
            solve_parallel(complete_unweighted(4), 2, 2, threads=0)

    def test_non_integer_thread_count_starts_no_process(self, monkeypatch,
                                                        started):
        """threads=2.0 and threads=True raise on a solve inside the
        in-process budget and on one forced into the pool, before any
        process starts."""
        g = generate_er(16, 0.4, 1, 1000, seed=3)
        for threads in (2.0, True):
            with pytest.raises(ValueError, match="thread count"):
                solve_parallel_checked(g, 8, 8, threads=threads)
        monkeypatch.setattr(bipart.parallel, "NODE_BUDGET", 0)
        for threads in (2.0, True):
            with pytest.raises(ValueError, match="thread count"):
                solve_parallel_checked(g, 8, 8, threads=threads)
        assert started == []

    def test_thread_count_above_the_cap_starts_no_thread(
        self, force_pool, started
    ):
        before = threading.active_count()
        with pytest.raises(ValueError, match="thread count"):
            solve_parallel_checked(
                complete_unweighted(4), 2, 2, threads=MAX_THREADS + 1
            )
        assert threading.active_count() == before
        assert started == []

    def test_worker_count_is_capped_by_the_cpus_available(self, monkeypatch):
        """min(threads, CPUs this process may run on), the CPU count where
        the platform has no affinity mask, and 1 where it has no fork."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert [worker_count(t) for t in (1, 2, 3, 4, 64)] == [1, 2, 3, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert [worker_count(t) for t in (4, 5, 6)] == [4, 5, 5]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(MAX_THREADS) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "fork")  # a platform that cannot fork
        assert worker_count(MAX_THREADS) == 1

    def test_small_solve_starts_no_process(self, started):
        g = generate_er(18, 0.5, 1, 1000, seed=0)
        for strategy in SearchStrategy:
            solve_parallel_checked(
                g, 9, 9, CONFIG_PRESETS["rebalance"], strategy, threads=2
            )
        assert started == []

    def test_pool_starts_at_most_one_worker_per_cpu(self, monkeypatch, started):
        monkeypatch.setattr(bipart.parallel, "NODE_BUDGET", 0)
        g = generate_er(18, 0.5, 1, 1000, seed=0)
        r = solve_parallel_checked(
            g, 9, 9, CONFIG_PRESETS["rebalance"], threads=MAX_THREADS
        )
        assert r.optimum == solve_sequential(g, 9, 9).optimum
        workers = worker_count(MAX_THREADS)  # on one CPU, no pool at all
        assert len(started) == (workers if workers > 1 else 0)
        assert r.threads == max(1, len(started))

    def test_concurrent_solves_from_threads(self, force_pool):
        """Solves forked from several caller threads at once: none hangs,
        none is wrong, and no worker outlives them."""
        graphs = [generate_er(16, 0.4, 1, 1000, seed) for seed in range(4)]
        expected = [solve_sequential(g, 8, 8).optimum for g in graphs]
        got = [[] for _ in graphs]

        def run(i):
            for strategy in SearchStrategy:
                got[i].append(solve_parallel(
                    graphs[i], 8, 8, CONFIG_PRESETS["component"], strategy,
                    threads=2,
                ).optimum)

        callers = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(graphs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers), "a solve hung"
        assert got == [[opt] * len(SearchStrategy) for opt in expected]
        assert multiprocessing.active_children() == []

    def test_daemonic_caller_solves_in_process(self, force_pool):
        """A daemonic process may not fork, so its solves stay in it."""
        g = generate_er(18, 0.5, 1, 1000, seed=0)
        reader, writer = multiprocessing.Pipe(duplex=False)

        def run():
            try:
                writer.send(solve_parallel(g, 9, 9, threads=2).optimum)
            except BaseException as exc:
                writer.send(repr(exc))

        proc = multiprocessing.get_context("fork").Process(
            target=run, daemon=True
        )
        proc.start()
        proc.join(timeout=60)
        assert not proc.is_alive() and reader.poll()
        assert reader.recv() == solve_sequential(g, 9, 9).optimum

    @pytest.mark.parametrize("threads", [2, 4])
    def test_worker_failure_is_reraised_without_hanging(
        self, threads, monkeypatch, force_pool
    ):
        """A failure in the parent's split (the first) or in a worker (the
        last) is re-raised, and every worker is gone."""
        g = generate_er(18, 0.5, 1, 1000, seed=0)
        real_expand = bipart.solver.expand
        for fail_at in (0, 5, 60):
            calls = [0]
            lock = threading.Lock()

            def failing_expand(sp, cfg, cutoff):
                with lock:
                    calls[0] += 1
                    n = calls[0]
                if n > fail_at:
                    raise RuntimeError(f"expand call {n}")
                return real_expand(sp, cfg, cutoff)

            monkeypatch.setattr(bipart.solver, "expand", failing_expand)
            outcome = []

            def run():
                try:
                    solve_parallel_checked(
                        g, 9, 9, CONFIG_PRESETS["rebalance"], threads=threads
                    )
                except RuntimeError as exc:
                    outcome.append(exc)
                else:
                    outcome.append(None)

            t = threading.Thread(target=run, daemon=True)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive(), f"solve hung after expand failed ({fail_at})"
            assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)

    def test_pool_stress_more_workers_than_cores(self, force_pool):
        """Eight workers asked for, every preset and strategy through the
        pool: a lost claim of a task or a lost update of the shared
        incumbent would hang a solve or lose a task (wrong optimum)."""
        rng = random.Random(4242)
        instances = []
        for _ in range(20):
            n = rng.randint(10, 14)
            g = random_er(rng, n)
            s0 = rng.randint(1, n - 1)
            instances.append((g, s0, brute_force_optimum(g, s0, n - s0).optimum))
        runs = [(preset, strategy)
                for preset in ("trivial", "highdegree", "component")
                for strategy in SearchStrategy]
        for g, s0, expected in instances:
            for preset, strategy in runs:
                cfg = CONFIG_PRESETS[preset]
                out = []
                t = threading.Thread(
                    target=lambda: out.append(solve_parallel_checked(
                        g, s0, g.n - s0, cfg, strategy, threads=8,
                    )),
                    daemon=True,
                )
                t.start()
                t.join(timeout=60)
                assert not t.is_alive(), f"{preset}/{strategy.value} solve hung"
                r = out[0]
                seq = solve_sequential(g, s0, g.n - s0, cfg, strategy)
                assert r.optimum == seq.optimum == expected
                if r.best is not None:
                    assert cut_value(g, r.best.assignment) == expected

import random
import sys
import threading

import pytest

import bipart.parallel
from bipart.bounds import CONFIG_PRESETS
from bipart.completion import Solution
from bipart.graph import build_graph, cut_value, generate_er
from bipart.oracle import brute_force_optimum
from bipart.parallel import Incumbent, solve_parallel
from bipart.solver import SearchStrategy, solve_sequential


def complete_unweighted(n):
    return build_graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


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
        assert inc.accepted == 1

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
    def test_matches_oracle_across_threads(self, threads):
        rng = random.Random(100 + threads)
        for _ in range(12):
            n = rng.randint(4, 14)
            g = generate_er(n, rng.choice([0.1, 0.5, 1.0]), 1,
                            rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            expected = brute_force_optimum(g, s0, n - s0).optimum
            r = solve_parallel(
                g, s0, n - s0, CONFIG_PRESETS["component"],
                SearchStrategy.DFS, threads=threads,
            )
            assert r.optimum == expected
            assert r.best is not None and r.best.value == expected

    def test_complete_graph_root_pruned_any_thread_count(self):
        g = complete_unweighted(30)
        for threads in (1, 2, 4):
            r = solve_parallel(
                g, 15, 15, CONFIG_PRESETS["highdegree"], threads=threads
            )
            assert r.optimum == 225
            assert r.subproblems_explored == 0

    def test_strategies_agree(self):
        g = generate_er(13, 0.5, 1, 1000, seed=77)
        expected = brute_force_optimum(g, 6, 7).optimum
        for strategy in SearchStrategy:
            r = solve_parallel(
                g, 6, 7, CONFIG_PRESETS["rebalance"], strategy, threads=4
            )
            assert r.optimum == expected

    def test_wasted_work_accounting(self):
        g = generate_er(13, 0.6, 1, 1000, seed=8)
        r = solve_parallel(g, 6, 7, CONFIG_PRESETS["rebalance"], threads=4)
        assert r.popped == r.subproblems_explored + r.irrelevant_tasks

    def test_initial_value_seeding(self):
        g = generate_er(12, 0.5, 1, 1000, seed=3)
        opt = solve_sequential(g, 6, 6).optimum
        r = solve_parallel(g, 6, 6, threads=2, initial_value=opt)
        assert r.optimum == opt

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ValueError):
            solve_parallel(complete_unweighted(4), 2, 2, threads=0)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_worker_failure_is_reraised_without_hanging(
        self, threads, monkeypatch
    ):
        g = generate_er(18, 0.5, 1, 1000, seed=0)
        real_expand = bipart.parallel.expand
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

            monkeypatch.setattr(bipart.parallel, "expand", failing_expand)
            outcome = []

            def run():
                try:
                    solve_parallel(
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

    def test_pool_stress_more_workers_than_cores(self):
        """Eight workers with a tiny switch interval: a lost update of the
        busy count or the tallies would hang a solve, lose a task (wrong
        optimum) or break popped == explored + irrelevant."""
        rng = random.Random(4242)
        instances = []
        for _ in range(20):
            n = rng.randint(10, 14)
            g = generate_er(n, rng.choice([0.2, 0.5, 1.0]), 1,
                            rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            instances.append((g, s0, brute_force_optimum(g, s0, n - s0).optimum))
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for g, s0, expected in instances:
                for strategy in SearchStrategy:
                    out = []
                    t = threading.Thread(
                        target=lambda: out.append(solve_parallel(
                            g, s0, g.n - s0, CONFIG_PRESETS["trivial"],
                            strategy, threads=8,
                        )),
                        daemon=True,
                    )
                    t.start()
                    t.join(timeout=60)
                    assert not t.is_alive(), f"{strategy.value} solve hung"
                    r = out[0]
                    assert r.optimum == expected
                    assert r.popped == r.subproblems_explored + r.irrelevant_tasks
                    if r.best is not None:
                        assert cut_value(g, r.best.assignment) == expected
        finally:
            sys.setswitchinterval(old_interval)

import random
from itertools import combinations

import pytest

from checks import random_partial_assignment

from bipart.bounds import FULL_CONFIG, lower_bound, rebalance_bound
from bipart.completion import (
    greedy_initial_solution,
    make_solution,
    rebalancing_completion_value,
    try_complete,
)
from bipart.graph import build_graph, cut_value, generate_er
from bipart.subproblem import recompute_from_scratch, root_subproblem


def k3_weighted():
    return build_graph(3, [(0, 1, 3), (1, 2, 5), (0, 2, 2)])


def subproblem_optimum(sp):
    """Exhaustive minimum cut over all completions of sp."""
    best = None
    for chosen in combinations(sp.free_list, sp.f0):
        sides = [
            0 if ((sp.a0 >> v) & 1 or v in chosen) else 1
            for v in range(sp.graph.n)
        ]
        value = cut_value(sp.graph, sides)
        best = value if best is None else min(best, value)
    return best


def random_subproblem(rng, n_max=10):
    n = rng.randint(2, n_max)
    g = generate_er(n, rng.choice([0.2, 0.6, 1.0]), 1,
                    rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
    s0 = rng.randint(1, n - 1)
    s1 = n - s0
    u0, u1 = [], []
    for v in rng.sample(range(n), rng.randint(0, n)):
        if len(u0) < s0 and (len(u1) >= s1 or rng.random() < 0.5):
            u0.append(v)
        elif len(u1) < s1:
            u1.append(v)
    return recompute_from_scratch(g, u0, u1, s0, s1)


class TestMakeSolution:
    def test_value_recomputed(self):
        g = k3_weighted()
        sol = make_solution(g, [0, 0, 1], 2, 1)
        assert sol.value == 5 + 2

    def test_cardinality_enforced(self):
        with pytest.raises(ValueError):
            make_solution(k3_weighted(), [0, 0, 0], 2, 1)


class TestTryComplete:
    def test_side_full(self):
        g = k3_weighted()
        sp = recompute_from_scratch(g, [0, 1], [], 2, 1)
        sol = try_complete(sp)
        assert sol is not None
        assert sol.assignment == (0, 0, 1)
        assert sol.value == sp.fixed_cut + sp.d0[2]

    def test_k3_one_missing_from_rule_one(self):
        sp = recompute_from_scratch(k3_weighted(), [0], [2], 2, 1)
        sol = try_complete(sp)  # side 1 is full
        assert sol is not None and sol.value == 7
        assert sol.assignment == (0, 0, 1)

    def test_one_missing_picks_true_minimum(self):
        # d1 alone would pick vertex 2; the completion value needs d1-d0+free
        g = build_graph(5, [(0, 4, 5), (1, 4, 6), (1, 3, 10)])
        sp = recompute_from_scratch(g, [3], [4], 2, 3)
        assert (sp.f0, sp.f1) == (1, 2)
        sol = try_complete(sp)
        assert sol is not None
        assert sol.value == subproblem_optimum(sp) == 6
        assert sol.assignment[1] == 0

    def test_degree_zero_fires_at_root_of_empty_graph(self):
        g = build_graph(6, [])
        sp = root_subproblem(g, 3, 3)
        sol = try_complete(sp)
        assert sol is not None and sol.value == 0

    def test_no_rule_fires(self):
        g = generate_er(8, 1.0, 1, 9, seed=1)
        sp = root_subproblem(g, 4, 4)
        assert try_complete(sp) is None

    def test_rules_produce_subproblem_optima(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 250:
            sp = random_subproblem(rng)
            sol = try_complete(sp)
            if sol is None:
                continue
            checked += 1
            assert sol.value == subproblem_optimum(sp)
            n0 = sol.assignment.count(0)
            assert n0 == sp.s0 and sp.graph.n - n0 == sp.s1


class TestRebalancingCompletionValue:
    def test_degree_zero_equals_bound(self):
        g = build_graph(4, [(0, 2, 3), (1, 3, 8)])
        sp = recompute_from_scratch(g, [0], [1], 2, 2)
        # free vertices 2,3 have no free-free edges
        from bipart.bounds import basic_bound, rebalance_value

        value = rebalancing_completion_value(sp)
        assert value == sp.fixed_cut + basic_bound(sp) + rebalance_value(sp)

    def test_matches_cut_of_implied_completion(self):
        # The defining reference: place the free vertices by the rebalancing
        # order and take the cut of the whole assignment.
        rng = random.Random(3233)
        for _ in range(1000):
            n = rng.randint(2, 22)
            g = generate_er(n, rng.choice([0.15, 0.5, 1.0]), 1,
                            rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            sp = random_partial_assignment(rng, g, s0, n - s0)
            order = rebalance_bound(sp)
            sides = [sp.side_of(v) for v in range(n)]
            for i, v in enumerate(order):
                sides[v] = 0 if i < sp.f0 else 1
            assert rebalancing_completion_value(sp) == cut_value(g, sides)

    def test_upper_bounds_lower_bound(self):
        rng = random.Random(3033)
        for _ in range(200):
            sp = random_subproblem(rng)
            assert rebalancing_completion_value(sp) >= lower_bound(sp, FULL_CONFIG)

    def test_upper_bounds_subproblem_optimum(self):
        rng = random.Random(3133)
        for _ in range(200):
            sp = random_subproblem(rng)
            assert rebalancing_completion_value(sp) >= subproblem_optimum(sp)


class TestGreedyInitial:
    @pytest.mark.parametrize("n,expected", [(20, 100), (30, 225)])
    def test_complete_unweighted_value(self, n, expected):
        g = build_graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])
        sol = greedy_initial_solution(g, n // 2, n // 2)
        assert sol.value == expected

    def test_star_graph(self):
        g = build_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        sol = greedy_initial_solution(g, 2, 2)
        assert sol.value == 2

    def test_empty_graph(self):
        g = build_graph(5, [])
        sol = greedy_initial_solution(g, 2, 3)
        assert sol.value == 0

    def test_feasible_on_random_instances(self):
        rng = random.Random(4044)
        for _ in range(40):
            n = rng.randint(2, 15)
            g = generate_er(n, rng.random(), 1, 100, seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            sol = greedy_initial_solution(g, s0, n - s0)
            assert sol.assignment.count(0) == s0
            assert sol.value == cut_value(g, sol.assignment)

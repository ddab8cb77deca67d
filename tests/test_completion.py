import random

import pytest

from checks import (assign_walk, complete_unweighted, irregular_graph,
                    k3_weighted, random_partial_assignment,
                    recompute_from_scratch, reference_kernighan_lin, reference_max_adjacency_split,
                    side_of, subproblem_optimum)

from bipart import completion
from bipart.bounds import CONFIG_PRESETS, lower_bound, rebalance_bound
from bipart.completion import (
    Solution,
    greedy_initial_solution,
    kernighan_lin,
    make_solution,
    max_adjacency_split,
    rebalancing_completion_value,
    try_complete,
)
from bipart.graph import build_graph, cut_value, generate_er
from bipart.oracle import brute_force_optimum
from bipart.solver import expand
from bipart.subproblem import root_subproblem


def random_subproblem(rng, n_max=10):
    n = rng.randint(2, n_max)
    g = generate_er(n, rng.choice([0.2, 0.6, 1.0]), 1,
                    rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
    s0 = rng.randint(1, n - 1)
    return random_partial_assignment(rng, g, s0, n - s0), s0


class TestMakeSolution:
    def test_value_recomputed(self):
        g = k3_weighted()
        sol = make_solution(g, [0, 0, 1], 2, 1)
        assert sol.value == 5 + 2

    def test_cardinality_enforced(self):
        with pytest.raises(ValueError):
            make_solution(k3_weighted(), [0, 0, 0], 2, 1)

    @pytest.mark.parametrize("sides", [[0, 0, 2, 1], [0, 0, -1, 1]])
    def test_labels_other_than_0_and_1_rejected(self, sides):
        # Two 0s make the count of side 0 right, so only the label check
        # can refuse these; unchecked, both read as a cut of 7.
        path = build_graph(4, [(0, 1, 3), (1, 2, 7), (2, 3, 5)])
        with pytest.raises(ValueError, match="label"):
            make_solution(path, sides, 2, 2)


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
            sp, s0 = random_subproblem(rng)
            sol = try_complete(sp)
            if sol is None:
                continue
            checked += 1
            assert sol.value == subproblem_optimum(sp)
            n0 = sol.assignment.count(0)
            assert n0 == s0  # so side 1 has the other n - s0


def completion_rule(sp):
    """Which case of try_complete's rules sp falls under: a full side, one
    vertex missing on a side, or no free-free edge left."""
    if sp.f0 == 0 or sp.f1 == 0:
        return "side_full"
    if sp.f0 == 1 or sp.f1 == 1:
        return "one_missing"
    if not sp.free_edges:
        return "degree_zero"
    return None


class TestCompletionCutoff:
    """try_complete computes each rule's value before building a Solution,
    and builds one only for a value below the cutoff."""

    def test_value_first_and_solution_only_below_cutoff(self, monkeypatch):
        rng = random.Random(77)
        hits = {"side_full": 0, "one_missing": 0, "degree_zero": 0}
        cut_calls = []
        real_cut_value = completion.cut_value

        def counting_cut_value(graph, sides):
            cut_calls.append(1)
            return real_cut_value(graph, sides)

        monkeypatch.setattr(completion, "cut_value", counting_cut_value)
        for i in range(200):
            n = rng.randint(2, 12)
            g = (irregular_graph(rng, n) if i % 2 else generate_er(
                n, rng.choice([0.05, 0.1, 0.3, 0.7]), 1, rng.choice([1, 1000]),
                seed=rng.randint(0, 10**9)))
            for sp in assign_walk(rng, g, rng.randint(1, n - 1)):
                rule = completion_rule(sp)
                if rule is None:
                    assert try_complete(sp) is None
                    continue
                hits[rule] += 1
                sol = try_complete(sp)
                assert isinstance(sol, Solution)
                del cut_calls[:]
                value = try_complete(sp, sol.value)
                assert value == sol.value and not cut_calls
                assert not isinstance(value, Solution)
                assert expand(sp, CONFIG_PRESETS["component"],
                              sol.value) == []
                assert try_complete(sp, sol.value + 1) == sol
                assert expand(sp, CONFIG_PRESETS["component"],
                              sol.value + 1) == sol
        assert min(hits.values()) >= 20, hits


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
            sides = [side_of(sp, v) for v in range(n)]
            for i, v in enumerate(order):
                sides[v] = 0 if i < sp.f0 else 1
            assert rebalancing_completion_value(sp) == cut_value(g, sides)

    def test_upper_bounds_lower_bound(self):
        rng = random.Random(3033)
        for _ in range(200):
            sp, _ = random_subproblem(rng)
            assert rebalancing_completion_value(sp) >= lower_bound(
                sp, CONFIG_PRESETS["component"])

    def test_upper_bounds_subproblem_optimum(self):
        rng = random.Random(3133)
        for _ in range(200):
            sp, _ = random_subproblem(rng)
            assert rebalancing_completion_value(sp) >= subproblem_optimum(sp)


class TestGreedyInitial:
    @pytest.mark.parametrize("n,expected", [(20, 100), (30, 225)])
    def test_complete_unweighted_value(self, n, expected):
        sol = greedy_initial_solution(complete_unweighted(n), n // 2, n // 2)
        assert sol.value == expected

    def test_star_graph(self):
        g = build_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        sol = greedy_initial_solution(g, 2, 2)
        assert sol.value == 2

    def test_empty_graph(self):
        g = build_graph(5, [])
        sol = greedy_initial_solution(g, 2, 3)
        assert sol.value == 0

    @pytest.mark.parametrize("s0,s1", [(True, 3), (2.0, 2.0), ("2", "2"),
                                       (2, 2.0), (0, 4), (3, 2)])
    @pytest.mark.parametrize("heuristic",
                             [max_adjacency_split, greedy_initial_solution])
    def test_bad_sizes_rejected(self, heuristic, s0, s1):
        # A bool used to pass as 1 and build a 1 | 3 split, and a float or
        # a string raised TypeError.
        with pytest.raises(ValueError, match=r"\bs[01]\b"):
            heuristic(complete_unweighted(4), s0, s1)

    def test_feasible_on_random_instances(self):
        rng = random.Random(4044)
        for _ in range(40):
            n = rng.randint(2, 15)
            g = generate_er(n, rng.random(), 1, 100, seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            sol = greedy_initial_solution(g, s0, n - s0)
            assert sol.assignment.count(0) == s0
            assert sol.value == cut_value(g, sol.assignment)


def refinement_instances(rng, count, n_max=14, wmaxes=(1, 1000)):
    """(graph, s0) on n = 2..n_max: ER graphs with weights 1..w for a w
    drawn from wmaxes and, every other one, graphs with zero-weight edges,
    isolated vertices and several components; s0 cycles through 1, n - 1
    and a random size."""
    for i in range(count):
        n = rng.randint(2, n_max)
        g = (irregular_graph(rng, n) if i % 2 else generate_er(
            n, rng.choice([0.1, 0.3, 0.6, 1.0]), 1, rng.choice(wmaxes),
            seed=rng.randint(0, 10**9)))
        yield g, (1, n - 1, rng.randint(1, n - 1))[i % 3]


def assert_refined(g, s0, start, sol, optimum):
    """sol, refined from start: s0 vertices on side 0, its value the cut,
    no worse than start and no better than the optimum."""
    assert sol.assignment.count(0) == s0
    assert sol.value == cut_value(g, sol.assignment)
    assert optimum <= sol.value <= start.value


class TestKernighanLin:
    def test_greedy_seed_against_the_oracle(self):
        rng = random.Random(1970)
        zero_weight = isolated = 0
        for g, s0 in refinement_instances(rng, 240):
            s1 = g.n - s0
            optimum = brute_force_optimum(g, s0, s1).optimum
            sol = greedy_initial_solution(g, s0, s1)
            assert_refined(g, s0, max_adjacency_split(g, s0, s1), sol, optimum)
            assert greedy_initial_solution(g, s0, s1) == sol
            zero_weight += any(w == 0 for _, _, w in g.edges())
            isolated += () in g.adj_nbr  # so the graph is disconnected
        assert zero_weight >= 20 and isolated >= 20, (zero_weight, isolated)

    def test_random_starts_reach_a_swap_local_optimum(self):
        """From any split the result admits no improving pair swap (a pass
        with one would gain), and refining it again returns it unchanged."""
        rng = random.Random(1971)
        for g, s0 in refinement_instances(rng, 240):
            n = g.n
            side0 = set(rng.sample(range(n), s0))
            start = make_solution(g, [0 if v in side0 else 1 for v in range(n)],
                                  s0, n - s0)
            sol = kernighan_lin(g, start)
            assert_refined(g, s0, start, sol,
                           brute_force_optimum(g, s0, n - s0).optimum)
            assert kernighan_lin(g, start) == sol
            assert kernighan_lin(g, sol) is sol
            for a in range(n):
                for b in range(n):
                    if sol.assignment[a] == 0 and sol.assignment[b] == 1:
                        swapped = list(sol.assignment)
                        swapped[a], swapped[b] = 1, 0
                        assert cut_value(g, swapped) >= sol.value

    def test_improves_a_poor_split(self):
        # Two heavy triangles joined by a light edge, split across them.
        g = build_graph(6, [(0, 1, 9), (1, 2, 9), (0, 2, 9),
                            (3, 4, 9), (4, 5, 9), (3, 5, 9), (2, 3, 1)])
        sol = kernighan_lin(g, make_solution(g, [0, 1, 0, 1, 0, 1], 3, 3))
        assert sol.value == 1
        assert {v for v in range(6) if sol.assignment[v] == 0} in (
            {0, 1, 2}, {3, 4, 5})

    def test_heuristic_matches_the_reference_code(self):
        """The maximum-adjacency split and Kernighan-Lin, which carries D
        across passes, return exactly the Solution of the code that rebuilt
        D every pass, kept in checks.py, from the split and from a random
        start; both return the start itself when nothing gains.  Weights
        1..3 give many tied gains, and a 70-vertex graph spans two machine
        words."""
        rng = random.Random(1972)
        big = generate_er(70, 0.1, 1, 3, seed=70)
        instances = [(big, 1), (big, 69), (big, 30)] + list(
            refinement_instances(rng, 1200, n_max=40, wmaxes=(1, 3, 1000)))
        unchanged = 0
        for g, s0 in instances:
            n, s1 = g.n, g.n - s0
            split = max_adjacency_split(g, s0, s1)
            assert split == reference_max_adjacency_split(g, s0, s1)
            side0 = set(rng.sample(range(n), s0))
            start = make_solution(
                g, [0 if v in side0 else 1 for v in range(n)], s0, s1)
            for sol in (split, start):
                expected = reference_kernighan_lin(g, sol)
                refined = kernighan_lin(g, sol)
                assert refined == expected
                assert (refined is sol) == (expected is sol)
                unchanged += refined is sol
        assert unchanged >= 300, unchanged

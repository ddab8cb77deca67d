import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from checks import (assert_equivalent, complete_unweighted, example_graph,
                    irregular_graph, k3_weighted, oracle_of, random_er,
                    random_partial_assignment, recompute_from_scratch,
                    side1_mask, side_of, solve_parallel_checked)

import bipart.parallel
import bipart.solver
from bipart.bounds import CONFIG_PRESETS, lower_bound
from bipart.completion import (Solution, greedy_initial_solution,
                               make_solution, max_adjacency_split,
                               rebalancing_completion_value, try_complete)
from bipart.graph import build_graph, cut_value, generate_er
from bipart.oracle import brute_force_optimum
from bipart.solver import (
    Search,
    SearchStrategy,
    branch_vertex,
    expand,
    priority,
    solve_sequential,
)
from bipart.subproblem import Subproblem, root_subproblem


def reference_branch_vertex(sp):
    """The smallest free v maximising |d1 - d0| + 2 × v's weight to free
    vertices, every term counted by direct edge enumeration."""
    side = {v: side_of(sp, v) for v in range(sp.graph.n)}
    key = {v: [0, 0, 0] for v in sp.free_list}  # to side 0, side 1, free
    for u, v, w in sp.graph.edges():
        for x, y in ((u, v), (v, u)):
            if side[x] is None:
                key[x][2 if side[y] is None else side[y]] += w
    keys = {v: abs(k[1] - k[0]) + 2 * k[2] for v, k in key.items()}
    return min(keys, key=lambda v: (-keys[v], v)), keys


class TestBranchVertex:
    def test_single_candidate(self):
        sp = recompute_from_scratch(k3_weighted(), [0], [2], 2, 1)
        assert branch_vertex(sp) == 1

    def test_free_weight_outweighs_a_smaller_gap(self):
        # Free 1..4.  Vertex 1 has the largest |d1 - d0|, 5, and no free
        # edges; vertex 2 has gap 0 but 8 of weight to free vertices, which
        # no cheap bound term sees until it is fixed; the key counts it
        # twice.
        g = build_graph(5, [(0, 1, 5), (2, 3, 4), (2, 4, 4)])
        sp = recompute_from_scratch(g, [0], [], 2, 3)
        assert [abs(sp.d1[v] - sp.d0[v]) for v in sp.free_list] == [5, 0, 0, 0]
        assert branch_vertex(sp) == 2  # keys 5, 16, 8, 8

    def test_gap_and_free_weight_add_up(self):
        # Vertex 1: gap 10, no free edges.  Vertex 2: gap 3 and free weight
        # 4 (key 3 + 2 × 4 = 11) beats it, though either term alone is
        # smaller; vertex 3 has only the free weight (key 8).
        g = build_graph(5, [(0, 1, 10), (0, 2, 3), (2, 3, 4)])
        sp = recompute_from_scratch(g, [0], [4], 2, 3)
        assert branch_vertex(sp) == 2

    def test_ties_go_to_the_smallest_id(self):
        # Vertex 0: gap 4, free weight 0.  Vertex 1: gap 0, free weight 2
        # (the edge to 2, whose key is also 4).  All tie at key 4.
        g = build_graph(5, [(0, 3, 4), (1, 2, 2)])
        sp = recompute_from_scratch(g, [3], [4], 2, 3)
        assert branch_vertex(sp) == 0
        sp2 = recompute_from_scratch(build_graph(4, []), [], [], 2, 2)
        assert branch_vertex(sp2) == 0  # every key is 0

    def test_free_weight_counts_twice(self):
        # Vertex 1: gap 5, no free edges (key 5).  Vertices 2 and 3: gap 0
        # and free weight 3 (key 6).  Counting the free weight once, vertex
        # 1 would win 5 to 3.
        g = build_graph(4, [(0, 1, 5), (2, 3, 3)])
        sp = recompute_from_scratch(g, [0], [], 2, 2)
        assert branch_vertex(sp) == 2

    def check_states(self, rng, graphs):
        ties = 0
        for g, s0 in graphs:
            for _ in range(8):
                sp = random_partial_assignment(rng, g, s0, g.n - s0)
                if not sp.free_list:
                    continue
                expected, keys = reference_branch_vertex(sp)
                assert branch_vertex(sp) == expected
                ties += list(keys.values()).count(keys[expected]) > 1
        assert ties > 0  # the tie-break was exercised

    def test_matches_edge_enumeration_on_random_states(self):
        rng = random.Random(41)
        graphs = []
        for _ in range(100):
            n = rng.randint(2, 14)
            g = random_er(rng, n)
            graphs.append((g, rng.randint(1, n - 1)))
        self.check_states(rng, graphs)

    def test_matches_edge_enumeration_on_irregular_states(self):
        rng = random.Random(42)
        graphs = []
        for _ in range(100):
            n = rng.randint(2, 14)
            graphs.append((irregular_graph(rng, n), rng.randint(1, n - 1)))
        assert any(0 in g.adj_w[v] for g, _ in graphs for v in range(g.n))
        assert any(() in g.adj_nbr for g, _ in graphs)
        self.check_states(rng, graphs)


class TestPriority:
    def test_dfs_takes_the_fewest_free_vertices(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        child = sp.assign(1)[1]
        key = priority(child, SearchStrategy.DFS)
        assert key == -len(child.free_list) == -2
        assert key > priority(sp, SearchStrategy.DFS)

    def test_best_first_prefers_smaller_bound(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        a, b = sp.assign(1)
        a.lb, b.lb = 9, 5
        assert priority(b, SearchStrategy.BEST_FIRST_LB) > priority(
            a, SearchStrategy.BEST_FIRST_LB
        )

    def test_gap_tight_subproblem_is_maximal(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        sp.lb = rebalancing_completion_value(sp)
        assert priority(sp, SearchStrategy.GAP) == 0
        loose = sp.assign(1)[0]
        loose.lb = rebalancing_completion_value(loose) - 5
        assert priority(loose, SearchStrategy.GAP) < 0


class TestSolveSequential:
    def test_example_graph_optimum(self):
        r = solve_sequential(example_graph(), 2, 2)
        assert r.optimum == 7
        assert r.best.value == 7
        assert set(
            v for v in range(4) if r.best.assignment[v] == 0
        ) in ({0, 1}, {2, 3})

    @pytest.mark.parametrize("n,expected", [(20, 100), (30, 225)])
    def test_complete_unweighted_prunes_to_zero(self, n, expected):
        g = complete_unweighted(n)
        r = solve_sequential(
            g, n // 2, n // 2, CONFIG_PRESETS["highdegree"], SearchStrategy.DFS
        )
        assert r.optimum == expected
        assert r.subproblems_explored == 0
        assert r.solutions_found == 1

    def test_configs_and_strategies_agree(self):
        rng = random.Random(111)
        for _ in range(30):
            n = rng.randint(4, 12)
            g = generate_er(n, rng.choice([0.1, 0.5, 1.0]), 1,
                            rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            expected = brute_force_optimum(g, s0, n - s0).optimum
            for cfg in CONFIG_PRESETS.values():
                for strategy in SearchStrategy:
                    r = solve_sequential(g, s0, n - s0, cfg, strategy)
                    assert r.optimum == expected

    def test_deterministic_counts(self):
        g = generate_er(14, 0.5, 1, 1000, seed=5)
        runs = [
            solve_sequential(g, 7, 7, CONFIG_PRESETS["rebalance"], s)
            for s in (SearchStrategy.DFS, SearchStrategy.DFS)
        ]
        assert runs[0].subproblems_explored == runs[1].subproblems_explored
        assert runs[0].solutions_found == runs[1].solutions_found
        assert runs[0].irrelevant_tasks == runs[1].irrelevant_tasks

    def test_initial_value_proves_optimality(self):
        # The max-adjacency split puts {0,1} on side 0 here (cut 9), and
        # Kernighan-Lin refines it to {0,3} (cut 2), the optimum.  An
        # initial_value equal to the seed's value still makes a proof run.
        g = build_graph(4, [(0, 1, 1), (1, 2, 9), (2, 3, 1)])
        assert max_adjacency_split(g, 2, 2).value == 9
        assert greedy_initial_solution(g, 2, 2).value == 2
        assert solve_sequential(g, 2, 2).optimum == 2
        r = solve_sequential(g, 2, 2, initial_value=2)
        assert r.optimum == 2
        assert r.best is None  # nothing strictly below the seed exists
        loose = solve_sequential(g, 2, 2, initial_value=100)
        assert loose.optimum == 2 and loose.best.value == 2

    def test_pruning_dominance_with_pinned_incumbent(self):
        rng = random.Random(222)
        names = ["trivial", "rebalance", "highdegree", "component"]
        for _ in range(12):
            n = rng.randint(6, 14)
            g = generate_er(n, rng.choice([0.3, 0.7]), 1,
                            rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            opt = brute_force_optimum(g, s0, n - s0).optimum
            counts = [
                solve_sequential(
                    g, s0, n - s0, CONFIG_PRESETS[c], SearchStrategy.DFS,
                    initial_value=opt,
                ).subproblems_explored
                for c in names
            ]
            assert counts == sorted(counts, reverse=True)

    def test_accounting_invariants(self):
        g = generate_er(12, 0.6, 1, 1000, seed=9)
        for strategy in SearchStrategy:
            r = solve_sequential(g, 6, 6, CONFIG_PRESETS["component"], strategy)
            assert r.time_total >= r.time_to_optimum >= 0.0

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(ValueError):
            solve_sequential(example_graph(), 0, 4)
        with pytest.raises(ValueError):
            solve_sequential(example_graph(), 3, 2)

    def test_strategy_is_resolved_once_and_checked(self, monkeypatch):
        """A strategy's value searches as the strategy itself (dfs 59, lb
        58, gap 60 nodes here), and a value that is no strategy raises
        from both entry points before the heuristic seed runs."""
        g = generate_er(22, 0.2, 1, 1000, seed=0)
        cfg = CONFIG_PRESETS["rebalance"]

        def nodes(strategy):
            return solve_sequential(g, 11, 11, cfg, strategy).subproblems_explored

        assert [nodes(s) for s in SearchStrategy] == [59, 58, 60]
        assert [nodes(s.value) for s in SearchStrategy] == [59, 58, 60]

        def no_seed(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(bipart.solver, "greedy_initial_solution", no_seed)
        for bad in ("bogus", None, "DFS"):
            with pytest.raises(ValueError, match="SearchStrategy"):
                solve_sequential(g, 11, 11, cfg, bad)
            with pytest.raises(ValueError, match="SearchStrategy"):
                solve_parallel_checked(g, 11, 11, cfg, bad, threads=2)

    def test_cfg_is_checked_before_any_work(self, monkeypatch):
        """A preset name or None in place of a BoundConfig raises
        ValueError from both entry points before the heuristic seed runs."""
        g = generate_er(12, 0.4, 1, 1000, seed=2)

        def no_seed(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(bipart.solver, "greedy_initial_solution", no_seed)
        for bad in ("rebalance", None):
            with pytest.raises(ValueError, match="BoundConfig"):
                solve_sequential(g, 6, 6, bad)
            with pytest.raises(ValueError, match="BoundConfig"):
                solve_parallel_checked(g, 6, 6, bad, threads=2)


# (optimum, subproblems_explored, popped, irrelevant_tasks) of
# solve_sequential on G(n, p, 1..1000, seed), sides n//2 | n - n//2.  Any
# change to a bound, a pruning test, the incumbent or the exploration order
# moves these.  Where the refined seed is already optimal, every strategy
# explores the same proof tree.
# The component rows depend on which children skip the component BFS
# (lower_bound's cutoff rule), since a skipped child stores a lower bound.
PINNED_COUNTS = {
    (18, 0.5, 0): {
        "trivial": {"dfs": (13889, 375, 375, 0), "lb": (13889, 375, 375, 0), "gap": (13889, 375, 375, 0)},
        "rebalance": {"dfs": (13889, 116, 116, 0), "lb": (13889, 116, 116, 0), "gap": (13889, 116, 116, 0)},
        "highdegree": {"dfs": (13889, 115, 115, 0), "lb": (13889, 115, 115, 0), "gap": (13889, 115, 115, 0)},
        "component": {"dfs": (13889, 113, 113, 0), "lb": (13889, 113, 113, 0), "gap": (13889, 113, 113, 0)},
    },
    (18, 0.5, 1): {
        "trivial": {"dfs": (11442, 344, 344, 0), "lb": (11442, 344, 344, 0), "gap": (11442, 344, 344, 0)},
        "rebalance": {"dfs": (11442, 127, 127, 0), "lb": (11442, 127, 127, 0), "gap": (11442, 127, 127, 0)},
        "highdegree": {"dfs": (11442, 124, 124, 0), "lb": (11442, 124, 124, 0), "gap": (11442, 124, 124, 0)},
        "component": {"dfs": (11442, 122, 122, 0), "lb": (11442, 122, 122, 0), "gap": (11442, 122, 122, 0)},
    },
    (18, 0.5, 2): {
        "trivial": {"dfs": (12629, 303, 303, 0), "lb": (12629, 303, 303, 0), "gap": (12629, 303, 303, 0)},
        "rebalance": {"dfs": (12629, 91, 91, 0), "lb": (12629, 91, 91, 0), "gap": (12629, 91, 91, 0)},
        "highdegree": {"dfs": (12629, 88, 88, 0), "lb": (12629, 88, 88, 0), "gap": (12629, 88, 88, 0)},
        "component": {"dfs": (12629, 87, 87, 0), "lb": (12629, 87, 87, 0), "gap": (12629, 87, 87, 0)},
    },
    (22, 0.2, 0): {
        "trivial": {"dfs": (4041, 145, 145, 0), "lb": (4041, 136, 143, 7), "gap": (4041, 137, 137, 0)},
        "rebalance": {"dfs": (4041, 59, 59, 0), "lb": (4041, 58, 62, 4), "gap": (4041, 60, 60, 0)},
        "highdegree": {"dfs": (4041, 59, 59, 0), "lb": (4041, 58, 62, 4), "gap": (4041, 60, 60, 0)},
        "component": {"dfs": (4041, 58, 58, 0), "lb": (4041, 57, 60, 3), "gap": (4041, 57, 57, 0)},
    },
    (22, 0.2, 1): {
        "trivial": {"dfs": (5667, 206, 206, 0), "lb": (5667, 206, 206, 0), "gap": (5667, 206, 206, 0)},
        "rebalance": {"dfs": (5667, 44, 44, 0), "lb": (5667, 44, 44, 0), "gap": (5667, 44, 44, 0)},
        "highdegree": {"dfs": (5667, 44, 44, 0), "lb": (5667, 44, 44, 0), "gap": (5667, 44, 44, 0)},
        "component": {"dfs": (5667, 43, 43, 0), "lb": (5667, 43, 43, 0), "gap": (5667, 43, 43, 0)},
    },
    (22, 0.2, 2): {
        "trivial": {"dfs": (3932, 190, 190, 0), "lb": (3932, 190, 190, 0), "gap": (3932, 190, 190, 0)},
        "rebalance": {"dfs": (3932, 62, 62, 0), "lb": (3932, 62, 62, 0), "gap": (3932, 62, 62, 0)},
        "highdegree": {"dfs": (3932, 62, 62, 0), "lb": (3932, 62, 62, 0), "gap": (3932, 62, 62, 0)},
        "component": {"dfs": (3932, 61, 61, 0), "lb": (3932, 61, 61, 0), "gap": (3932, 61, 61, 0)},
    },
}


def search_counts(g, s0, s1):
    """preset -> strategy -> (optimum, explored, popped, irrelevant)."""
    got = {}
    for preset, cfg in CONFIG_PRESETS.items():
        for strategy in SearchStrategy:
            r = solve_sequential(g, s0, s1, cfg, strategy)
            got.setdefault(preset, {})[strategy.value] = (
                r.optimum, r.subproblems_explored, r.popped, r.irrelevant_tasks
            )
    return got


@pytest.mark.parametrize("n,p,seed", sorted(PINNED_COUNTS))
def test_pinned_node_counts(n, p, seed):
    g = generate_er(n, p, 1, 1000, seed)
    assert search_counts(g, n // 2, n - n // 2) == PINNED_COUNTS[(n, p, seed)]


def disjoint_union(*parts):
    """The given graphs side by side, vertex ids offset in order."""
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset, w) for u, v, w in g.edges()]
        offset += g.n
    return build_graph(offset, edges)


# Inputs PINNED_COUNTS lacks, where the root differs from the connected,
# equal-sided case: two disconnected graphs whose largest component fits
# the larger side (the root's component estimate is below n), and an ER
# graph with unequal sides (no vertex is pre-assigned at the root).
# name -> (graph, s0, s1).
IRREGULAR_INSTANCES = {
    "components 7+6+5, sides 9|9": lambda: (disjoint_union(
        generate_er(7, 0.6, 1, 1000, 2), generate_er(6, 0.7, 1, 1000, 3),
        generate_er(5, 0.8, 1, 1000, 4)), 9, 9),
    "components 9+6+4+1, sides 6|14": lambda: (disjoint_union(
        generate_er(9, 0.6, 1, 1000, 15), generate_er(6, 0.7, 1, 1000, 16),
        generate_er(4, 1.0, 1, 1000, 17), build_graph(1, [])), 6, 14),
    "G(18, 0.5, 0), sides 6|12": lambda: (
        generate_er(18, 0.5, 1, 1000, 0), 6, 12),
}

# Same layout as PINNED_COUNTS, for IRREGULAR_INSTANCES.
PINNED_COUNTS_IRREGULAR = {
    "components 7+6+5, sides 9|9": {
        "trivial": {"dfs": (1234, 41, 41, 0), "lb": (1234, 37, 45, 8), "gap": (1234, 25, 25, 0)},
        "rebalance": {"dfs": (1234, 9, 10, 1), "lb": (1234, 10, 12, 2), "gap": (1234, 9, 10, 1)},
        "highdegree": {"dfs": (1234, 9, 10, 1), "lb": (1234, 10, 12, 2), "gap": (1234, 9, 10, 1)},
        "component": {"dfs": (1234, 9, 10, 1), "lb": (1234, 10, 12, 2), "gap": (1234, 9, 10, 1)},
    },
    "components 9+6+4+1, sides 6|14": {
        "trivial": {"dfs": (0, 59, 72, 13), "lb": (0, 53, 95, 42), "gap": (0, 42, 58, 16)},
        "rebalance": {"dfs": (0, 16, 30, 14), "lb": (0, 17, 32, 15), "gap": (0, 24, 33, 9)},
        "highdegree": {"dfs": (0, 16, 30, 14), "lb": (0, 17, 32, 15), "gap": (0, 24, 33, 9)},
        "component": {"dfs": (0, 16, 30, 14), "lb": (0, 17, 32, 15), "gap": (0, 24, 33, 9)},
    },
    "G(18, 0.5, 0), sides 6|12": {
        "trivial": {"dfs": (11798, 406, 406, 0), "lb": (11798, 406, 406, 0), "gap": (11798, 406, 406, 0)},
        "rebalance": {"dfs": (11798, 122, 122, 0), "lb": (11798, 122, 122, 0), "gap": (11798, 122, 122, 0)},
        "highdegree": {"dfs": (11798, 121, 121, 0), "lb": (11798, 121, 121, 0), "gap": (11798, 121, 121, 0)},
        "component": {"dfs": (11798, 121, 121, 0), "lb": (11798, 121, 121, 0), "gap": (11798, 121, 121, 0)},
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS_IRREGULAR))
def test_pinned_node_counts_irregular(name):
    g, s0, s1 = IRREGULAR_INSTANCES[name]()
    assert search_counts(g, s0, s1) == PINNED_COUNTS_IRREGULAR[name]


def two_hubs():
    """n = 22: hubs 0 and 1 joined by weight 5000, and leaves 2..21, each
    joined to both hubs, w(0, i) = 501 + i mod 7 and w(1, i) = 500.  No
    leaf-leaf edge, and weights past the generator's 1..1000."""
    edges = [(0, 1, 5000)]
    for i in range(2, 22):
        edges += [(0, i, 501 + i % 7), (1, i, 500)]
    return build_graph(22, edges)


# (s0, s1) -> preset -> subproblems explored by solve_sequential on
# two_hubs(), the same under every strategy.
TWO_HUBS_COUNTS = {
    (11, 11): {"trivial": 2, "rebalance": 1, "highdegree": 1, "component": 1},
    (7, 15): {"trivial": 5, "rebalance": 2, "highdegree": 2, "component": 2},
}


@pytest.mark.parametrize("s0,s1", sorted(TWO_HUBS_COUNTS))
def test_degree_zero_rule_completes_once_the_hubs_are_fixed(s0, s1):
    """Once both hubs are fixed no free-free edge is left, so try_complete's
    degree-zero rule solves the node outright.  Every leaf weighs about the
    same to each hub, so the trivial bound barely separates the leaves:
    without the rule, trivial/dfs explores 87,516 (11|11) and 37,549 (7|15)
    subproblems here, where it explores 2 and 5."""
    g = two_hubs()
    expected = brute_force_optimum(g, s0, s1).optimum
    explored = {}
    for preset, cfg in CONFIG_PRESETS.items():
        for strategy in SearchStrategy:
            r = solve_sequential(g, s0, s1, cfg, strategy)
            assert r.optimum == r.best.value == expected
            explored.setdefault(preset, set()).add(r.subproblems_explored)
    assert explored == {preset: {count} for preset, count
                        in TWO_HUBS_COUNTS[s0, s1].items()}


def pinned_tables():
    """(graph, s0, s1, table) of PINNED_COUNTS and PINNED_COUNTS_IRREGULAR."""
    for (n, p, seed), table in sorted(PINNED_COUNTS.items()):
        yield generate_er(n, p, 1, 1000, seed), n // 2, n - n // 2, table
    for name, table in sorted(PINNED_COUNTS_IRREGULAR.items()):
        yield (*IRREGULAR_INSTANCES[name](), table)


@pytest.mark.parametrize("budget", [1, 7, 5000])
def test_budgeted_loop_resumes_on_the_same_tree(budget):
    """Run in slices of `budget` explored nodes, the search loop gives
    every pinned row's optimum and counts of one unbudgeted run."""
    for g, s0, s1, table in pinned_tables():
        for preset, cfg in CONFIG_PRESETS.items():
            for strategy in SearchStrategy:
                search = Search(g, s0, s1, cfg, strategy)
                slices = 1
                while not search.run(budget):
                    slices += 1
                    assert search.explored == (slices - 1) * budget
                r = search.result()
                assert (
                    r.optimum, r.subproblems_explored, r.popped,
                    r.irrelevant_tasks,
                ) == table[preset][strategy.value]


def test_parallel_inside_the_budget_explores_the_sequential_tree(monkeypatch):
    """Every pinned row fits in the in-process budget, so threads=2 gives
    its sequential counts exactly, for every strategy, and forks nothing."""

    def no_pool(*args):
        raise AssertionError("a solve inside the budget started the pool")

    monkeypatch.setattr(bipart.parallel, "_search_in_pool", no_pool)
    for g, s0, s1, table in pinned_tables():
        for preset, cfg in CONFIG_PRESETS.items():
            for strategy in SearchStrategy:
                r = solve_parallel_checked(g, s0, s1, cfg, strategy, threads=2)
                assert (
                    r.optimum, r.subproblems_explored, r.popped,
                    r.irrelevant_tasks,
                ) == table[preset][strategy.value]


@st.composite
def irregular_instances(draw):
    """(graph, s0, s1) of the kinds generate_er never emits: zero weights,
    isolated vertices, several components and sides of size 1.

    Each vertex draws a block label and edges join only equal labels, so
    graphs fall apart into components; a vertex none of its block's edges
    reach is isolated.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    blocks = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, blocks - 1), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if labels[u] == labels[v]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)
                  if pairs else st.just([]))
    weight = st.sampled_from([0, 0, 1, 2, 5, 1000])
    edges = [(u, v, draw(weight)) for u, v in chosen]
    s0 = draw(st.one_of(st.integers(1, n - 1), st.sampled_from([1, n - 1])))
    return build_graph(n, edges), s0, n - s0


@given(irregular_instances(),
       st.sampled_from(list(itertools.product(CONFIG_PRESETS.values(),
                                              SearchStrategy))))
@settings(max_examples=300, deadline=None)
def test_irregular_inputs_match_oracle(instance, pool_pair):
    """Every preset and strategy reaches the oracle's optimum.  One pair
    per example also solves through the process pool: with no in-process
    budget and one task per worker, the open subproblems of the first
    expansions go to forked workers.  Its incumbent starts at the split
    of the first s0 vertices, not at the heuristic's, so that more trees
    stay open long enough to be handed off."""
    g, s0, s1 = instance
    expected = brute_force_optimum(g, s0, s1).optimum
    for cfg in CONFIG_PRESETS.values():
        for strategy in SearchStrategy:
            r = solve_sequential(g, s0, s1, cfg, strategy)
            assert r.optimum == r.best.value == expected
    cfg, strategy = pool_pair
    first = make_solution(g, [0] * s0 + [1] * s1, s0, s1)
    with mock.patch.object(bipart.parallel, "NODE_BUDGET", 0), \
            mock.patch.object(bipart.parallel, "TASKS_PER_WORKER", 1), \
            mock.patch.object(bipart.solver, "greedy_initial_solution",
                              lambda *args: first):
        r = solve_parallel_checked(g, s0, s1, cfg, strategy, threads=2)
    assert r.optimum == r.best.value == expected


def path_optimum(weights, s0):
    """Least cut of the path with edge weights `weights` split into s0 |
    n - s0, by dynamic programming over (position, side-0 count, side of
    the last vertex)."""
    inf = float("inf")
    best = [[inf, inf] for _ in range(s0 + 1)]  # [side-0 count][last side]
    best[0][1] = 0
    best[1][0] = 0
    for w in weights:
        nxt = [[inf, inf] for _ in range(s0 + 1)]
        for count in range(s0 + 1):
            for last in (0, 1):
                for side in (0, 1):
                    c = count + (side == 0)
                    if c <= s0:
                        cut = best[count][last] + (w if side != last else 0)
                        nxt[c][side] = min(nxt[c][side], cut)
        best = nxt
    return min(best[s0])


@pytest.mark.parametrize("n", [70, 100, 130])
def test_paths_whose_masks_span_several_words(n, monkeypatch):
    """A weighted path of more than 64 vertices, so the side masks span
    several machine words: every preset and strategy reaches the optimum
    of the path DP, and so does one solve through the process pool, with
    no in-process budget and one task per worker.  Seed 6 keeps the three
    paths near a second in all; at n = 130 some seeds take the lb solves
    past 20,000 nodes, since no bound term sees the path's free-free
    edges."""
    rng = random.Random(6)
    weights = [rng.randint(1, 1000) for _ in range(n - 1)]
    g = build_graph(n, [(v, v + 1, w) for v, w in enumerate(weights)])
    s0 = n // 2
    expected = path_optimum(weights, s0)
    for cfg in CONFIG_PRESETS.values():
        for strategy in SearchStrategy:
            r = solve_sequential(g, s0, n - s0, cfg, strategy)
            assert r.optimum == r.best.value == expected
    pool = mock.Mock(wraps=bipart.parallel._search_in_pool)
    monkeypatch.setattr(bipart.parallel, "_search_in_pool", pool)
    with mock.patch.object(bipart.parallel, "NODE_BUDGET", 0), \
            mock.patch.object(bipart.parallel, "TASKS_PER_WORKER", 1):
        r = solve_parallel_checked(g, s0, n - s0, CONFIG_PRESETS["component"],
                                   SearchStrategy.DFS, threads=2)
    assert r.optimum == r.best.value == expected
    assert pool.called or bipart.parallel.worker_count(2) == 1


@pytest.mark.parametrize("preset", ["highdegree", "component"])
def test_search_keeps_only_fully_maintained_children(preset, monkeypatch):
    """A DFS through expand: every kept child and every state a batch of
    forced vertices builds matches the from-scratch oracle, and the search
    reaches the brute-force optimum.  The floors on checked states keep
    that coverage from shrinking silently: a change that shrinks the tree
    below them should widen the inputs, not lower them."""
    cfg = CONFIG_PRESETS[preset]
    fixed = []
    real_fix = Subproblem.fix

    def checked_fix(sp, pairs, cutoff=math.inf):
        state = built = real_fix(sp, pairs, cutoff)
        if state is None:
            # Stopped at the cutoff: the whole batch, built without one,
            # reaches it too.
            built = real_fix(sp, pairs)
            assert built.fixed_cut + built.basic >= cutoff
        assert_equivalent(built, oracle_of(built, s0, n - s0))
        fixed.append(built)
        return state

    monkeypatch.setattr(Subproblem, "fix", checked_fix)
    rng = random.Random(727)
    kept = 0
    for _ in range(40):
        n = rng.randint(4, 16)
        g = random_er(rng, n)
        s0 = rng.randint(1, n - 1)
        best = max_adjacency_split(g, s0, n - s0).value
        root = root_subproblem(g, s0, n - s0)
        root.lb = lower_bound(root, cfg)
        stack = [root]
        while stack:
            sp = stack.pop()
            if sp.lb >= best:
                continue
            children = expand(sp, cfg, best)
            if isinstance(children, Solution):
                best = min(best, children.value)
                continue
            for child in reversed(children):
                if child.lb >= best:
                    continue
                assert_equivalent(child, oracle_of(child, s0, n - s0))
                kept += 1
                stack.append(child)
        assert best == brute_force_optimum(g, s0, n - s0).optimum
    assert kept >= 150 and len(fixed) >= 50, (kept, len(fixed))


@pytest.mark.parametrize("preset", sorted(CONFIG_PRESETS))
def test_expand_returns_children_lower_bound_first(preset):
    """Both children survive: the one of lower stored bound comes first,
    side 0 on a tie, so dfs dives into it."""
    cfg = CONFIG_PRESETS[preset]
    rng = random.Random(515)
    order = {"side 1 first": 0, "tie": 0}
    for i in range(30):
        n = rng.randint(4, 14)
        g = (irregular_graph(rng, n) if i % 2 else
             generate_er(n, rng.choice([0.2, 0.5]), 1, rng.choice([1, 1000]),
                         seed=rng.randint(0, 10**9)))
        s0 = rng.randint(1, n - 1)
        best = max_adjacency_split(g, s0, n - s0).value
        root = root_subproblem(g, s0, n - s0)
        root.lb = lower_bound(root, cfg)
        stack = [root]
        while stack:
            sp = stack.pop()
            if sp.lb >= best:
                continue
            children = expand(sp, cfg, best)
            if isinstance(children, Solution):
                best = min(best, children.value)
                continue
            if len(children) == 2:
                first, second = children
                assert first.lb <= second.lb
                # Siblings differ in one vertex.
                if side1_mask(first) > side1_mask(second):
                    order["side 1 first"] += 1
                    assert first.lb < second.lb
                order["tie"] += first.lb == second.lb
            stack.extend(reversed(children))
    assert all(order.values()), order


@pytest.mark.parametrize("preset", sorted(CONFIG_PRESETS))
def test_expand_returns_only_children_below_the_cutoff(preset, monkeypatch):
    """Every child expand returns stores a bound below the cutoff, and the
    children it drops are exactly those whose bound reached it, so the
    search loop pushes the list as it comes."""
    cfg = CONFIG_PRESETS[preset]
    bounded = []
    real_lower_bound = bipart.solver.lower_bound

    def recording_lower_bound(sp, cfg, cutoff=math.inf):
        lb = real_lower_bound(sp, cfg, cutoff)
        bounded.append((sp, lb < cutoff))
        return lb

    monkeypatch.setattr(bipart.solver, "lower_bound", recording_lower_bound)
    rng = random.Random(1313)
    dropped = 0
    for i in range(40):
        n = rng.randint(4, 14)
        g = irregular_graph(rng, n) if i % 2 else random_er(rng, n)
        s0 = rng.randint(1, n - 1)
        best = max_adjacency_split(g, s0, n - s0).value
        root = root_subproblem(g, s0, n - s0)
        root.lb = lower_bound(root, cfg)
        stack = [root]
        while stack:
            sp = stack.pop()
            if sp.lb >= best:
                continue
            bounded.clear()
            children = expand(sp, cfg, best)
            if isinstance(children, Solution):
                best = min(best, children.value)
                continue
            assert all(child.lb < best for child in children)
            assert ({id(c) for c, below in bounded if below}
                    == {id(c) for c in children})
            dropped += sum(not below for _, below in bounded)
            stack.extend(reversed(children))
    # Under trivial the bound is fixed cut + basic, which assign tests.
    assert dropped == 0 if preset == "trivial" else dropped >= 20, dropped


@pytest.mark.parametrize("preset", sorted(CONFIG_PRESETS))
def test_states_start_at_the_basic_split(preset, monkeypatch):
    """Every state root_subproblem, assign and fix build has delta_lo ==
    delta_hi == 0, basic's split.  Under trivial, which never records
    another, each batch expand forces is exactly {v : |delta| >= gap},
    each v on its cheaper side."""
    cfg = CONFIG_PRESETS[preset]
    real_assign, real_fix = Subproblem.assign, Subproblem.fix
    seen = {"assign": 0, "fix": 0, "batch": 0}

    def at_basic_split(state, kind):
        if state is not None:
            assert (state.delta_lo, state.delta_hi) == (0, 0)
            seen[kind] += 1

    def checked_assign(sp, v, cutoff=math.inf):
        children = real_assign(sp, v, cutoff)
        for child in children:
            at_basic_split(child, "assign")
        return children

    def checked_fix(sp, pairs, cutoff=math.inf):
        if preset == "trivial" and cutoff < math.inf:  # a batch of expand
            gap = cutoff - sp.lb
            deltas = [(v, sp.d1[v] - sp.d0[v]) for v in sp.free_list]
            assert pairs == [(v, int(d > 0)) for v, d in deltas
                             if abs(d) >= gap]
            seen["batch"] += 1
        state = real_fix(sp, pairs, cutoff)
        at_basic_split(state, "fix")
        return state

    monkeypatch.setattr(Subproblem, "assign", checked_assign)
    monkeypatch.setattr(Subproblem, "fix", checked_fix)
    rng = random.Random(1414)
    for i in range(40):
        n = rng.randint(2, 14)
        g = irregular_graph(rng, n) if i % 2 else random_er(rng, n)
        s0 = rng.randint(1, n - 1)
        root = root_subproblem(g, s0, n - s0)
        assert (root.delta_lo, root.delta_hi) == (0, 0)
        best = max_adjacency_split(g, s0, n - s0).value
        root.lb = lower_bound(root, cfg)
        stack = [root]
        while stack:
            sp = stack.pop()
            if sp.lb >= best:
                continue
            children = expand(sp, cfg, best)
            if isinstance(children, Solution):
                best = min(best, children.value)
                continue
            stack.extend(reversed(children))
    assert seen["assign"] and seen["fix"], seen
    assert seen["batch"] or preset != "trivial", seen


def balanced_completions(g, s0):
    """(side-0 bitmask, cut) of every s0 | n - s0 bipartition of g."""
    out = []
    for side0 in itertools.combinations(range(g.n), s0):
        sides = [1] * g.n
        for v in side0:
            sides[v] = 0
        out.append((sum(1 << v for v in side0), cut_value(g, sides)))
    return out


@pytest.mark.parametrize("preset", sorted(CONFIG_PRESETS))
def test_forced_vertices_hold_in_every_completion_below_the_cutoff(
        preset, monkeypatch):
    """By enumeration, at every node a DFS through expand reaches: each
    forced (v, side) holds in every completion of the node whose cut is
    below the cutoff; a node expand closes without a solution has no such
    completion; and each such completion lies under one returned child."""
    cfg = CONFIG_PRESETS[preset]
    batches = []
    real_fix = Subproblem.fix

    def recording_fix(sp, pairs, *args, **kwargs):
        batches.append(pairs)
        return real_fix(sp, pairs, *args, **kwargs)

    monkeypatch.setattr(Subproblem, "fix", recording_fix)
    rng = random.Random(929)
    seen = {"forced": 0, "closed": 0, "overfull": 0}
    for i in range(60):
        n = rng.randint(4, 12)
        g = (irregular_graph(rng, n) if i % 3 == 2 else
             random_er(rng, n))
        s0 = rng.randint(1, n - 1)
        completions = balanced_completions(g, s0)
        best = max_adjacency_split(g, s0, n - s0).value
        root = root_subproblem(g, s0, n - s0)
        root.lb = lower_bound(root, cfg)
        stack = [root]
        while stack:
            sp = stack.pop()
            if sp.lb >= best:
                continue
            below = [m for m, cut in completions if cut < best
                     and not sp.a0 & ~m and not side1_mask(sp) & m]
            batches.clear()
            children = expand(sp, cfg, best)
            for pairs in batches:
                seen["forced"] += len(pairs)
                for v, side in pairs:
                    assert all((m >> v & 1) == (side == 0) for m in below)
            if isinstance(children, Solution):
                best = min(best, children.value)
                continue
            if not children:
                assert not below
                seen["closed"] += 1
                seen["overfull"] += (
                    not batches and try_complete(sp, best) is None)
            for m in below:
                assert any(not c.a0 & ~m and not side1_mask(c) & m
                           for c in children)
            stack.extend(reversed(children))
    assert seen["forced"] and seen["closed"], seen
    if preset == "trivial":
        assert seen["overfull"], seen

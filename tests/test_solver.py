import random

import pytest
from hypothesis import given, settings, strategies as st

from checks import assert_equivalent, oracle_of, solve_parallel_checked

import bipart.parallel
from bipart.bounds import CONFIG_PRESETS, lower_bound
from bipart.completion import (greedy_initial_solution, make_solution,
                               max_adjacency_split)
from bipart.graph import build_graph, generate_er
from bipart.oracle import brute_force_optimum
from bipart.parallel import solve_parallel
from bipart.solver import (
    SearchStrategy,
    branch_vertex,
    expand,
    priority,
    solve_sequential,
    start_search,
)
from bipart.subproblem import recompute_from_scratch, root_subproblem


def example_graph():
    return build_graph(4, [(0, 1, 3), (1, 2, 5), (0, 2, 2), (2, 3, 4)])


def complete_unweighted(n):
    return build_graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


class TestBranchVertex:
    def test_single_candidate(self):
        sp = recompute_from_scratch(
            build_graph(3, [(0, 1, 3), (1, 2, 5), (0, 2, 2)]), [0], [2], 2, 1
        )
        assert branch_vertex(sp) == 1

    def test_argmax_abs_delta(self):
        g = build_graph(7, [(0, 4, 7), (1, 5, 3), (1, 6, 3)])
        sp = recompute_from_scratch(g, [4], [5, 6], 3, 4)
        # deltas over free {0,1,2,3}: 0 -> -7, 1 -> +6, others 0
        assert branch_vertex(sp) == 0

    def test_tie_break_by_d_sum_then_id(self):
        g = build_graph(6, [(0, 4, 2), (0, 5, 2), (1, 4, 1), (1, 5, 1)])
        sp = recompute_from_scratch(g, [4], [5], 3, 3)
        # free 0..3 all have delta 0; vertex 0 has the largest d0+d1
        assert branch_vertex(sp) == 0
        g2 = build_graph(4, [])
        sp2 = recompute_from_scratch(g2, [], [], 2, 2)
        assert branch_vertex(sp2) == 0  # full tie: smallest id


class TestPriority:
    def test_dfs_uses_depth(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        child = sp.assign(1)[1]
        assert priority(child, SearchStrategy.DFS) == child.depth == 1

    def test_best_first_prefers_smaller_bound(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        a, b = sp.assign(1)
        a.lb, b.lb = 9, 5
        assert priority(b, SearchStrategy.BEST_FIRST_LB) > priority(
            a, SearchStrategy.BEST_FIRST_LB
        )

    def test_gap_tight_subproblem_is_maximal(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        sp.lb = 4
        sp.ub_est = 4
        assert priority(sp, SearchStrategy.GAP) == 0
        loose = sp.assign(1)[0]
        loose.lb, loose.ub_est = 4, 9
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

    def test_initial_solution_seeds_incumbent(self):
        g = example_graph()
        seed_sol = make_solution(g, [0, 0, 1, 1], 2, 2)  # value 7, optimal
        r = solve_sequential(g, 2, 2, initial=seed_sol)
        assert r.optimum == 7
        assert r.best is seed_sol
        assert r.solutions_found == 1

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
            assert r.popped == r.subproblems_explored + r.irrelevant_tasks
            assert r.time_total >= r.time_to_optimum >= 0.0

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(ValueError):
            solve_sequential(example_graph(), 0, 4)
        with pytest.raises(ValueError):
            solve_sequential(example_graph(), 3, 2)


# (optimum, subproblems_explored, popped, irrelevant_tasks) of
# solve_sequential on G(n, p, 1..1000, seed), sides n//2 | n - n//2.  Any
# change to a bound, a pruning test, the incumbent or the exploration order
# moves these.  Where the refined seed is already optimal, every strategy
# explores the same proof tree.
# The component rows depend on which children skip the component BFS
# (lower_bound's cutoff rule), since a skipped child stores a lower bound.
PINNED_COUNTS = {
    (18, 0.5, 0): {
        "trivial": {"dfs": (13889, 909, 909, 0), "lb": (13889, 909, 909, 0), "gap": (13889, 909, 909, 0)},
        "rebalance": {"dfs": (13889, 422, 422, 0), "lb": (13889, 422, 422, 0), "gap": (13889, 422, 422, 0)},
        "highdegree": {"dfs": (13889, 343, 343, 0), "lb": (13889, 343, 343, 0), "gap": (13889, 343, 343, 0)},
        "component": {"dfs": (13889, 338, 338, 0), "lb": (13889, 338, 338, 0), "gap": (13889, 338, 338, 0)},
    },
    (18, 0.5, 1): {
        "trivial": {"dfs": (11442, 829, 829, 0), "lb": (11442, 829, 829, 0), "gap": (11442, 829, 829, 0)},
        "rebalance": {"dfs": (11442, 460, 460, 0), "lb": (11442, 460, 460, 0), "gap": (11442, 460, 460, 0)},
        "highdegree": {"dfs": (11442, 396, 396, 0), "lb": (11442, 396, 396, 0), "gap": (11442, 396, 396, 0)},
        "component": {"dfs": (11442, 385, 385, 0), "lb": (11442, 385, 385, 0), "gap": (11442, 385, 385, 0)},
    },
    (18, 0.5, 2): {
        "trivial": {"dfs": (12629, 743, 743, 0), "lb": (12629, 743, 743, 0), "gap": (12629, 743, 743, 0)},
        "rebalance": {"dfs": (12629, 385, 385, 0), "lb": (12629, 385, 385, 0), "gap": (12629, 385, 385, 0)},
        "highdegree": {"dfs": (12629, 316, 316, 0), "lb": (12629, 316, 316, 0), "gap": (12629, 316, 316, 0)},
        "component": {"dfs": (12629, 316, 316, 0), "lb": (12629, 316, 316, 0), "gap": (12629, 316, 316, 0)},
    },
    (22, 0.2, 0): {
        "trivial": {"dfs": (4041, 516, 516, 0), "lb": (4041, 515, 519, 4), "gap": (4041, 530, 530, 0)},
        "rebalance": {"dfs": (4041, 311, 311, 0), "lb": (4041, 305, 314, 9), "gap": (4041, 312, 312, 0)},
        "highdegree": {"dfs": (4041, 311, 311, 0), "lb": (4041, 305, 314, 9), "gap": (4041, 312, 312, 0)},
        "component": {"dfs": (4041, 290, 290, 0), "lb": (4041, 284, 294, 10), "gap": (4041, 287, 287, 0)},
    },
    (22, 0.2, 1): {
        "trivial": {"dfs": (5667, 637, 637, 0), "lb": (5667, 637, 637, 0), "gap": (5667, 637, 637, 0)},
        "rebalance": {"dfs": (5667, 268, 268, 0), "lb": (5667, 268, 268, 0), "gap": (5667, 268, 268, 0)},
        "highdegree": {"dfs": (5667, 267, 267, 0), "lb": (5667, 267, 267, 0), "gap": (5667, 267, 267, 0)},
        "component": {"dfs": (5667, 246, 246, 0), "lb": (5667, 246, 246, 0), "gap": (5667, 246, 246, 0)},
    },
    (22, 0.2, 2): {
        "trivial": {"dfs": (3932, 1096, 1096, 0), "lb": (3932, 1096, 1096, 0), "gap": (3932, 1096, 1096, 0)},
        "rebalance": {"dfs": (3932, 590, 590, 0), "lb": (3932, 590, 590, 0), "gap": (3932, 590, 590, 0)},
        "highdegree": {"dfs": (3932, 589, 589, 0), "lb": (3932, 589, 589, 0), "gap": (3932, 589, 589, 0)},
        "component": {"dfs": (3932, 546, 546, 0), "lb": (3932, 546, 546, 0), "gap": (3932, 546, 546, 0)},
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
        "trivial": {"dfs": (1234, 85, 86, 1), "lb": (1234, 59, 65, 6), "gap": (1234, 56, 62, 6)},
        "rebalance": {"dfs": (1234, 69, 69, 0), "lb": (1234, 47, 53, 6), "gap": (1234, 48, 53, 5)},
        "highdegree": {"dfs": (1234, 53, 53, 0), "lb": (1234, 35, 46, 11), "gap": (1234, 43, 48, 5)},
        "component": {"dfs": (1234, 54, 54, 0), "lb": (1234, 36, 47, 11), "gap": (1234, 43, 48, 5)},
    },
    "components 9+6+4+1, sides 6|14": {
        "trivial": {"dfs": (0, 32, 33, 1), "lb": (0, 24, 43, 19), "gap": (0, 34, 47, 13)},
        "rebalance": {"dfs": (0, 27, 28, 1), "lb": (0, 16, 31, 15), "gap": (0, 29, 42, 13)},
        "highdegree": {"dfs": (0, 27, 28, 1), "lb": (0, 16, 31, 15), "gap": (0, 29, 42, 13)},
        "component": {"dfs": (0, 27, 28, 1), "lb": (0, 16, 31, 15), "gap": (0, 29, 42, 13)},
    },
    "G(18, 0.5, 0), sides 6|12": {
        "trivial": {"dfs": (11798, 918, 918, 0), "lb": (11798, 918, 918, 0), "gap": (11798, 918, 918, 0)},
        "rebalance": {"dfs": (11798, 419, 419, 0), "lb": (11798, 419, 419, 0), "gap": (11798, 419, 419, 0)},
        "highdegree": {"dfs": (11798, 367, 367, 0), "lb": (11798, 367, 367, 0), "gap": (11798, 367, 367, 0)},
        "component": {"dfs": (11798, 356, 356, 0), "lb": (11798, 356, 356, 0), "gap": (11798, 356, 356, 0)},
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS_IRREGULAR))
def test_pinned_node_counts_irregular(name):
    g, s0, s1 = IRREGULAR_INSTANCES[name]()
    assert search_counts(g, s0, s1) == PINNED_COUNTS_IRREGULAR[name]


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
                search = start_search(g, s0, s1, cfg, strategy, None, None)
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


@given(irregular_instances())
@settings(max_examples=300, deadline=None)
def test_irregular_inputs_match_oracle(instance):
    g, s0, s1 = instance
    expected = brute_force_optimum(g, s0, s1).optimum
    for cfg in CONFIG_PRESETS.values():
        for strategy in SearchStrategy:
            r = solve_sequential(g, s0, s1, cfg, strategy)
            assert r.optimum == r.best.value == expected
            assert solve_parallel(
                g, s0, s1, cfg, strategy, threads=2
            ).optimum == expected


@pytest.mark.parametrize("preset", ["highdegree", "component"])
def test_search_keeps_only_fully_maintained_children(preset):
    """A DFS through expand: every kept child matches the from-scratch
    oracle, and the search reaches the brute-force optimum."""
    cfg = CONFIG_PRESETS[preset]
    rng = random.Random(727)
    kept = 0
    for _ in range(25):
        n = rng.randint(4, 16)
        g = generate_er(n, rng.choice([0.2, 0.5, 1.0]), 1,
                        rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
        s0 = rng.randint(1, n - 1)
        best = max_adjacency_split(g, s0, n - s0).value
        root = root_subproblem(g, s0, n - s0)
        root.lb = lower_bound(root, cfg)
        stack = [root]
        while stack:
            sp = stack.pop()
            if sp.lb >= best:
                continue
            sol, children = expand(sp, cfg, best)
            if sol is not None:
                best = min(best, sol.value)
                continue
            for child in reversed(children):
                if child.lb >= best:
                    continue
                assert_equivalent(child, oracle_of(child))
                kept += 1
                stack.append(child)
        assert best == brute_force_optimum(g, s0, n - s0).optimum
    assert kept > 0

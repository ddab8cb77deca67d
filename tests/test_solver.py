import random

import pytest
from hypothesis import given, settings, strategies as st

from checks import assert_equivalent

from bipart.bounds import CONFIG_PRESETS, lower_bound
from bipart.completion import greedy_initial_solution, make_solution
from bipart.graph import build_graph, generate_er
from bipart.oracle import brute_force_optimum
from bipart.parallel import solve_parallel
from bipart.solver import (
    SearchStrategy,
    branch_vertex,
    expand,
    priority,
    solve_sequential,
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
        child = sp.assign(1, 1)
        assert priority(child, SearchStrategy.DFS) == child.depth == 1

    def test_best_first_prefers_smaller_bound(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        a = sp.assign(1, 0)
        b = sp.assign(1, 1)
        a.lb, b.lb = 9, 5
        assert priority(b, SearchStrategy.BEST_FIRST_LB) > priority(
            a, SearchStrategy.BEST_FIRST_LB
        )

    def test_gap_tight_subproblem_is_maximal(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        sp.lb = 4
        sp.ub_est = 4
        assert priority(sp, SearchStrategy.GAP) == 0
        loose = sp.assign(1, 0)
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
        # Greedy puts {0,1} on side 0 here (cut 9); the optimum is 2.
        g = build_graph(4, [(0, 1, 1), (1, 2, 9), (2, 3, 1)])
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
# change to a bound, a pruning test or the exploration order moves these.
PINNED_COUNTS = {
    (18, 0.5, 0): {
        "trivial": {"dfs": (13889, 911, 911, 0), "lb": (13889, 909, 909, 0), "gap": (13889, 1435, 1436, 1)},
        "rebalance": {"dfs": (13889, 425, 426, 1), "lb": (13889, 422, 552, 130), "gap": (13889, 549, 551, 2)},
        "highdegree": {"dfs": (13889, 346, 347, 1), "lb": (13889, 343, 437, 94), "gap": (13889, 713, 718, 5)},
        "component": {"dfs": (13889, 341, 342, 1), "lb": (13889, 338, 435, 97), "gap": (13889, 697, 699, 2)},
    },
    (18, 0.5, 1): {
        "trivial": {"dfs": (11442, 850, 850, 0), "lb": (11442, 829, 829, 0), "gap": (11442, 1024, 1027, 3)},
        "rebalance": {"dfs": (11442, 468, 468, 0), "lb": (11442, 460, 489, 29), "gap": (11442, 477, 477, 0)},
        "highdegree": {"dfs": (11442, 403, 403, 0), "lb": (11442, 396, 417, 21), "gap": (11442, 412, 412, 0)},
        "component": {"dfs": (11442, 393, 393, 0), "lb": (11442, 385, 410, 25), "gap": (11442, 401, 401, 0)},
    },
    (18, 0.5, 2): {
        "trivial": {"dfs": (12629, 754, 754, 0), "lb": (12629, 743, 743, 0), "gap": (12629, 1157, 1158, 1)},
        "rebalance": {"dfs": (12629, 397, 397, 0), "lb": (12629, 385, 458, 73), "gap": (12629, 562, 562, 0)},
        "highdegree": {"dfs": (12629, 331, 331, 0), "lb": (12629, 316, 387, 71), "gap": (12629, 438, 439, 1)},
        "component": {"dfs": (12629, 327, 327, 0), "lb": (12629, 316, 388, 72), "gap": (12629, 437, 438, 1)},
    },
    (22, 0.2, 0): {
        "trivial": {"dfs": (4041, 560, 561, 1), "lb": (4041, 515, 519, 4), "gap": (4041, 646, 652, 6)},
        "rebalance": {"dfs": (4041, 334, 335, 1), "lb": (4041, 305, 327, 22), "gap": (4041, 410, 416, 6)},
        "highdegree": {"dfs": (4041, 334, 335, 1), "lb": (4041, 305, 327, 22), "gap": (4041, 408, 414, 6)},
        "component": {"dfs": (4041, 309, 309, 0), "lb": (4041, 284, 339, 55), "gap": (4041, 381, 385, 4)},
    },
    (22, 0.2, 1): {
        "trivial": {"dfs": (5667, 637, 637, 0), "lb": (5667, 637, 637, 0), "gap": (5667, 637, 637, 0)},
        "rebalance": {"dfs": (5667, 268, 268, 0), "lb": (5667, 268, 268, 0), "gap": (5667, 268, 268, 0)},
        "highdegree": {"dfs": (5667, 267, 267, 0), "lb": (5667, 267, 267, 0), "gap": (5667, 267, 267, 0)},
        "component": {"dfs": (5667, 245, 245, 0), "lb": (5667, 245, 245, 0), "gap": (5667, 245, 245, 0)},
    },
    (22, 0.2, 2): {
        "trivial": {"dfs": (3932, 1364, 1364, 0), "lb": (3932, 1096, 1096, 0), "gap": (3932, 1367, 1371, 4)},
        "rebalance": {"dfs": (3932, 786, 787, 1), "lb": (3932, 590, 666, 76), "gap": (3932, 757, 762, 5)},
        "highdegree": {"dfs": (3932, 783, 784, 1), "lb": (3932, 589, 665, 76), "gap": (3932, 756, 761, 5)},
        "component": {"dfs": (3932, 706, 707, 1), "lb": (3932, 546, 626, 80), "gap": (3932, 672, 675, 3)},
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
        "trivial": {"dfs": (1234, 88, 90, 2), "lb": (1234, 59, 69, 10), "gap": (1234, 75, 88, 13)},
        "rebalance": {"dfs": (1234, 74, 75, 1), "lb": (1234, 47, 63, 16), "gap": (1234, 69, 80, 11)},
        "highdegree": {"dfs": (1234, 58, 59, 1), "lb": (1234, 35, 69, 34), "gap": (1234, 64, 74, 10)},
        "component": {"dfs": (1234, 59, 60, 1), "lb": (1234, 36, 71, 35), "gap": (1234, 64, 74, 10)},
    },
    "components 9+6+4+1, sides 6|14": {
        "trivial": {"dfs": (0, 124, 126, 2), "lb": (0, 24, 43, 19), "gap": (0, 34, 49, 15)},
        "rebalance": {"dfs": (0, 100, 102, 2), "lb": (0, 16, 31, 15), "gap": (0, 30, 43, 13)},
        "highdegree": {"dfs": (0, 100, 102, 2), "lb": (0, 16, 31, 15), "gap": (0, 30, 43, 13)},
        "component": {"dfs": (0, 100, 102, 2), "lb": (0, 16, 31, 15), "gap": (0, 30, 43, 13)},
    },
    "G(18, 0.5, 0), sides 6|12": {
        "trivial": {"dfs": (11798, 1112, 1112, 0), "lb": (11798, 918, 943, 25), "gap": (11798, 997, 997, 0)},
        "rebalance": {"dfs": (11798, 540, 541, 1), "lb": (11798, 421, 617, 196), "gap": (11798, 421, 422, 1)},
        "highdegree": {"dfs": (11798, 480, 481, 1), "lb": (11798, 369, 555, 186), "gap": (11798, 369, 370, 1)},
        "component": {"dfs": (11798, 466, 466, 0), "lb": (11798, 359, 543, 184), "gap": (11798, 359, 360, 1)},
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS_IRREGULAR))
def test_pinned_node_counts_irregular(name):
    g, s0, s1 = IRREGULAR_INSTANCES[name]()
    assert search_counts(g, s0, s1) == PINNED_COUNTS_IRREGULAR[name]


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
    """A DFS through expand: every kept child has its upkeep done and
    matches the from-scratch oracle."""
    cfg = CONFIG_PRESETS[preset]
    rng = random.Random(727)
    for _ in range(25):
        n = rng.randint(4, 16)
        g = generate_er(n, rng.choice([0.2, 0.5, 1.0]), 1,
                        rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
        s0 = rng.randint(1, n - 1)
        best = greedy_initial_solution(g, s0, n - s0).value
        root = root_subproblem(g, s0, n - s0, maintain_hd=True)
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
                assert child.deferred_upkeep is None
                rc = recompute_from_scratch(
                    g,
                    [v for v in range(n) if (child.a0 >> v) & 1],
                    [v for v in range(n) if (child.a1 >> v) & 1],
                    s0,
                    n - s0,
                )
                assert_equivalent(child, rc)
                stack.append(child)
        assert best == brute_force_optimum(g, s0, n - s0).optimum

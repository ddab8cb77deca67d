import random

import pytest

from bipart.bounds import (
    CONFIG_PRESETS,
    BoundConfig,
    basic_bound,
    component_bound,
    high_degree_bound,
    high_degree_rebalance,
    lower_bound,
    rebalance_bound,
    rebalance_value,
)
from bipart.graph import build_graph, generate_er
from bipart.oracle import brute_force_fixed_free_min, brute_force_free_free_min
from bipart.subproblem import recompute_from_scratch, root_subproblem


def k3_weighted():
    return build_graph(3, [(0, 1, 3), (1, 2, 5), (0, 2, 2)])


def complete_unweighted(n):
    return build_graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


def random_subproblem(rng, n_max=12, maintain_hd=True):
    n = rng.randint(3, n_max)
    p = rng.choice([0.2, 0.5, 1.0])
    wmax = rng.choice([1, 1000])
    g = generate_er(n, p, 1, wmax, seed=rng.randint(0, 10**9))
    s0 = rng.randint(1, n - 1)
    s1 = n - s0
    k = rng.randint(0, n - 1)
    u0, u1 = [], []
    for v in rng.sample(range(n), k):
        if len(u0) < s0 and (len(u1) >= s1 or rng.random() < 0.5):
            u0.append(v)
        elif len(u1) < s1:
            u1.append(v)
    return recompute_from_scratch(g, u0, u1, s0, s1, maintain_hd=maintain_hd)


class TestBasic:
    def test_root_after_symmetry_fix_is_zero(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        assert basic_bound(sp) == 0  # d1 is zero for every free vertex

    def test_k3_subproblem(self):
        sp = recompute_from_scratch(k3_weighted(), [0], [2], 2, 1)
        assert basic_bound(sp) == 3

    def test_empty_free_set(self):
        g = build_graph(2, [(0, 1, 7)])
        sp = recompute_from_scratch(g, [0], [1], 1, 1)
        assert basic_bound(sp) == 0


class TestRebalance:
    def test_k3_subproblem(self):
        sp = recompute_from_scratch(k3_weighted(), [0], [2], 2, 1)
        assert rebalance_value(sp) == 2
        assert rebalance_bound(sp) == [1]
        assert basic_bound(sp) + rebalance_value(sp) == 5
        assert brute_force_fixed_free_min(sp) == 5

    def test_all_deltas_zero(self):
        sp = recompute_from_scratch(complete_unweighted(6), [], [], 3, 3)
        assert rebalance_value(sp) == 0

    def test_f0_zero_forces_side_one(self):
        g = build_graph(3, [(0, 1, 4), (0, 2, 6)])
        sp = recompute_from_scratch(g, [0], [], 1, 2)
        assert sp.f0 == 0
        # both free vertices forced to side 1, penalty max(0, -delta) each
        assert rebalance_value(sp) == 4 + 6

    def test_tightness_on_random_subproblems(self):
        rng = random.Random(4242)
        for _ in range(300):
            sp = random_subproblem(rng)
            assert basic_bound(sp) + rebalance_value(sp) == brute_force_fixed_free_min(sp)

    def test_value_matches_keyed_variant(self):
        rng = random.Random(7)
        for _ in range(50):
            sp = random_subproblem(rng)
            order = rebalance_bound(sp)
            assert sorted(order) == sp.free_list
            # The order pays exactly the value: side 0 takes the first f0.
            deltas = [sp.d1[v] - sp.d0[v] for v in order]
            paid = (sum(d for d in deltas[:sp.f0] if d > 0)
                    - sum(d for d in deltas[sp.f0:] if d < 0))
            assert rebalance_value(sp) == paid


class TestHighDegree:
    def test_complete_k20_empty_assignment(self):
        g = complete_unweighted(20)
        sp = recompute_from_scratch(g, [], [], 10, 10)
        # every vertex sees deg' - f0 + 1 = 10 unit edges
        assert high_degree_bound(sp) == 200
        assert high_degree_rebalance(sp) == 0  # f0 == f1, penalties all zero
        assert lower_bound(sp, CONFIG_PRESETS["highdegree"]) == 100

    def test_k3_unweighted_unbalanced(self):
        g = complete_unweighted(3)
        sp = recompute_from_scratch(g, [], [], 2, 1)
        assert high_degree_bound(sp) == 3
        assert high_degree_rebalance(sp) == 1
        cfg = BoundConfig(enable_high_degree=True)
        assert lower_bound(sp, cfg) == 2  # ceil(4/2)
        assert brute_force_free_free_min(sp) == 2

    def test_sparse_graph_no_high_degree_vertices(self):
        g = build_graph(6, [(0, 1, 5), (2, 3, 5), (4, 5, 5)])
        sp = recompute_from_scratch(g, [], [], 3, 3)
        assert high_degree_bound(sp) == 0

    def test_soundness_on_random_subproblems(self):
        rng = random.Random(515)
        for _ in range(300):
            sp = random_subproblem(rng)
            half = high_degree_bound(sp) + high_degree_rebalance(sp)
            assert (half + 1) // 2 <= brute_force_free_free_min(sp)

    def test_doubling_stays_sound(self):
        rng = random.Random(516)
        for _ in range(300):
            sp = random_subproblem(rng)
            half = high_degree_bound(sp, doubling=True) + high_degree_rebalance(sp)
            assert (half + 1) // 2 <= brute_force_free_free_min(sp)

    def test_counters_vs_recomputation_after_branching(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(4, 14)
            g = generate_er(n, 0.7, 1, 50, seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            sp = root_subproblem(g, s0, n - s0)
            steps = rng.randint(0, sp.f - 1) if sp.f else 0
            for _ in range(steps):
                side = rng.choice([s for s in (0, 1) if (sp.f0, sp.f1)[s] > 0])
                sp = sp.assign(rng.choice(sp.free_list), side)
            rc = recompute_from_scratch(
                g,
                [v for v in range(n) if (sp.a0 >> v) & 1],
                [v for v in range(n) if (sp.a1 >> v) & 1],
                s0,
                n - s0,
            )
            # Equalize the computation triggers (the inherited estimate may
            # be staler than the recomputed one); the counter sums must agree.
            sp.approx_max_free_degree = g.n
            rc.approx_max_free_degree = g.n
            assert high_degree_bound(sp) == high_degree_bound(rc)
            assert high_degree_rebalance(sp) == high_degree_rebalance(rc)

    def test_requires_maintained_state(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2, maintain_hd=False)
        sp = sp.assign(1, 1)
        with pytest.raises(ValueError):
            high_degree_bound(sp)


class TestComponent:
    def test_path_p4_balanced_root(self):
        g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        sp = recompute_from_scratch(g, [], [], 2, 2)
        assert component_bound(sp) == 1
        assert brute_force_free_free_min(sp) == 1

    def test_small_components_contribute_nothing(self):
        g = build_graph(6, [(0, 1, 3), (2, 3, 4)])
        sp = recompute_from_scratch(g, [], [], 3, 3)
        assert component_bound(sp) == 0

    def test_weighted_component_returns_lightest_edge(self):
        g = build_graph(4, [(0, 1, 9), (1, 2, 4), (2, 3, 7)])
        sp = recompute_from_scratch(g, [], [], 2, 2)
        assert component_bound(sp) == 4

    def test_refreshes_estimates(self):
        g = build_graph(5, [(0, 1, 2), (1, 2, 2), (2, 3, 2)])  # vertex 4 isolated
        sp = recompute_from_scratch(g, [], [], 3, 2)
        sp.approx_max_component = 5
        sp.approx_max_free_degree = 4
        component_bound(sp)
        assert sp.approx_max_component == 4
        assert sp.approx_max_free_degree == 2

    def test_soundness_on_random_subproblems(self):
        rng = random.Random(616)
        for _ in range(300):
            sp = random_subproblem(rng)
            assert component_bound(sp) <= brute_force_free_free_min(sp)

    def test_dominance_high_degree_implies_large_component(self):
        rng = random.Random(717)
        for _ in range(200):
            sp = random_subproblem(rng)
            if high_degree_bound(sp) > 0:
                f_big = max(sp.f0, sp.f1)
                sp.approx_max_component = sp.f  # force the traversal
                component_bound(sp)
                assert sp.approx_max_component >= f_big + 1


class TestLowerBound:
    def test_empty_graph_all_configs(self):
        g = build_graph(6, [])
        sp = root_subproblem(g, 3, 3)
        for cfg in CONFIG_PRESETS.values():
            assert lower_bound(sp, cfg) == 0

    def test_k3_example_reaches_completion_value(self):
        sp = recompute_from_scratch(k3_weighted(), [0], [2], 2, 1)
        assert lower_bound(sp, CONFIG_PRESETS["rebalance"]) == 2 + 3 + 2

    def test_config_monotonicity(self):
        rng = random.Random(818)
        names = ["trivial", "rebalance", "highdegree", "component"]
        for _ in range(200):
            sp = random_subproblem(rng)
            values = [lower_bound(sp, CONFIG_PRESETS[c]) for c in names]
            assert values == sorted(values)

    def test_soundness_against_full_completions(self):
        from itertools import combinations

        from bipart.graph import cut_value

        rng = random.Random(919)
        for _ in range(150):
            sp = random_subproblem(rng, n_max=10)
            g = sp.graph
            best = None
            for chosen in combinations(sp.free_list, sp.f0):
                sides = [
                    0 if ((sp.a0 >> v) & 1 or v in chosen) else 1
                    for v in range(g.n)
                ]
                value = cut_value(g, sides)
                best = value if best is None else min(best, value)
            for cfg in CONFIG_PRESETS.values():
                assert lower_bound(sp, cfg) <= best

    def test_cutoff_contract(self):
        # Bounds refresh the subproblem's estimates, so each call gets a
        # fresh copy of the same partial assignment.
        rng = random.Random(1121)
        for _ in range(300):
            sp = random_subproblem(rng)
            u0 = [v for v in range(sp.graph.n) if sp.side_of(v) == 0]
            u1 = [v for v in range(sp.graph.n) if sp.side_of(v) == 1]

            def fresh():
                return recompute_from_scratch(sp.graph, u0, u1, sp.s0, sp.s1)

            for cfg in CONFIG_PRESETS.values():
                full = lower_bound(fresh(), cfg)
                for cutoff in (full - 1, full, full + 1, rng.randint(0, 2 * full + 1)):
                    got = lower_bound(fresh(), cfg, cutoff)
                    if full < cutoff:
                        assert got == full
                    else:
                        assert cutoff <= got <= full

    def test_integer_bounds(self):
        rng = random.Random(1020)
        for _ in range(50):
            sp = random_subproblem(rng)
            for cfg in CONFIG_PRESETS.values():
                assert isinstance(lower_bound(sp, cfg), int)

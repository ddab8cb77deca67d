import math
import random

from checks import (
    assign_walk, brute_force_fixed_free_min, brute_force_free_free_min,
    complete_unweighted, free_degrees, high_degree_pairs, irregular_graph,
    k3_weighted, random_er, random_partial_assignment, recompute_from_scratch,
    reference_component_bound, reference_high_degree_bound,
    reference_high_degree_rebalance, reference_lower_bound, side1_mask,
    subproblem_optimum)

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
from bipart.subproblem import root_subproblem


def random_subproblem(rng, n_max=12):
    n = rng.randint(3, n_max)
    g = random_er(rng, n)
    s0 = rng.randint(1, n - 1)
    s1 = n - s0
    k = rng.randint(0, n - 1)
    u0, u1 = [], []
    for v in rng.sample(range(n), k):
        if len(u0) < s0 and (len(u1) >= s1 or rng.random() < 0.5):
            u0.append(v)
        elif len(u1) < s1:
            u1.append(v)
    return recompute_from_scratch(g, u0, u1, s0, s1)


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


def reference_basic(sp):
    """The basic term as its defining O(f) loop."""
    return sum(min(sp.d0[v], sp.d1[v]) for v in sp.free_list)


def reference_rebalance(sp):
    """The rebalancing term as the two loops over the sorted deltas: the
    first f0 pay their positive deltas, the rest their negative ones."""
    deltas = sorted(sp.d1[v] - sp.d0[v] for v in sp.free_list)
    total = 0
    for d in deltas[:sp.f0]:
        if d > 0:
            total += d
    for d in deltas[sp.f0:]:
        if d < 0:
            total -= d
    return total


class TestMaintainedTerms:
    """basic_bound reads the sum assign maintains and rebalance_value the D
    arrays; they must equal the loop forms on every state of random assign
    chains."""

    def check_walks(self, rng, graphs):
        seen = {"f0 = 0": 0, "f1 = 0": 0}
        for g, s0 in graphs:
            for sp in assign_walk(rng, g, s0):
                assert basic_bound(sp) == reference_basic(sp)
                assert rebalance_value(sp) == reference_rebalance(sp)
                seen["f0 = 0"] += sp.f0 == 0 and sp.f1 > 0
                seen["f1 = 0"] += sp.f1 == 0 and sp.f0 > 0
        assert all(seen.values()), seen

    def test_random_states(self):
        rng = random.Random(31)
        graphs = []
        for _ in range(150):
            n = rng.randint(2, 14)
            g = random_er(rng, n)
            graphs.append((g, rng.randint(1, n - 1)))
        self.check_walks(rng, graphs)

    def test_irregular_states(self):
        rng = random.Random(32)
        graphs = []
        for _ in range(150):
            n = rng.randint(2, 14)
            graphs.append((irregular_graph(rng, n), rng.randint(1, n - 1)))
        assert any(0 in g.adj_w[v] for g, _ in graphs for v in range(g.n))
        assert any(() in g.adj_nbr for g, _ in graphs)
        self.check_walks(rng, graphs)


class TestDeltaSplit:
    """rebalance_value records the split that expand's forcing reads: with
    0 < f0 < f, delta_lo and delta_hi are the f0-th and (f0+1)-th smallest
    delta = d1 - d0 over the f free vertices; otherwise both stay 0."""

    def test_random_partial_assignments(self):
        rng = random.Random(3131)
        seen = {"f0 = 0": 0, "f0 = 1": 0, "f0 = f - 1": 0, "f0 = f": 0,
                "0 < f0 < f": 0}
        graphs = []
        for i in range(1200):
            n = rng.randint(2, 14)
            g = irregular_graph(rng, n) if i % 2 else random_er(rng, n)
            graphs.append(g)
            s0 = rng.randint(1, n - 1)
            sp = random_partial_assignment(rng, g, s0, n - s0)
            rebalance_value(sp)
            f, f0 = len(sp.free_list), sp.f0
            deltas = sorted(sp.d1[v] - sp.d0[v] for v in sp.free_list)
            if 0 < f0 < f:
                assert sp.delta_lo == deltas[f0 - 1]
                assert sp.delta_hi == deltas[f0]
            else:
                assert sp.delta_lo == 0 and sp.delta_hi == 0
            seen["f0 = 0"] += f0 == 0 < f
            seen["f0 = 1"] += f0 == 1 < f
            seen["f0 = f - 1"] += 1 < f0 == f - 1
            seen["f0 = f"] += f0 == f > 0
            seen["0 < f0 < f"] += 0 < f0 < f
        assert any(0 in g.adj_w[v] for g in graphs for v in range(g.n))
        assert all(seen.values()), seen


class TestHighDegree:
    def test_complete_k20_empty_assignment(self):
        g = complete_unweighted(20)
        sp = recompute_from_scratch(g, [], [], 10, 10)
        # every vertex sees deg' - f0 + 1 = 10 unit edges
        high = high_degree_pairs(sp)
        assert high_degree_bound(sp, high) == 200
        assert high_degree_rebalance(sp, high) == 0  # f0 == f1: no penalty
        assert lower_bound(sp, CONFIG_PRESETS["highdegree"]) == 100

    def test_k3_unweighted_unbalanced(self):
        g = complete_unweighted(3)
        sp = recompute_from_scratch(g, [], [], 2, 1)
        high = high_degree_pairs(sp)
        assert high_degree_bound(sp, high) == 3
        assert high_degree_rebalance(sp, high) == 1
        cfg = BoundConfig(enable_high_degree=True)
        assert lower_bound(sp, cfg) == 2  # ceil(4/2)
        assert brute_force_free_free_min(sp) == 2

    def test_sparse_graph_no_high_degree_vertices(self):
        g = build_graph(6, [(0, 1, 5), (2, 3, 5), (4, 5, 5)])
        sp = recompute_from_scratch(g, [], [], 3, 3)
        assert high_degree_bound(sp, high_degree_pairs(sp)) == 0

    def test_soundness_on_random_subproblems(self):
        rng = random.Random(515)
        for _ in range(300):
            sp = random_subproblem(rng)
            high = high_degree_pairs(sp)
            half = (high_degree_bound(sp, high)
                    + high_degree_rebalance(sp, high))
            assert (half + 1) // 2 <= brute_force_free_free_min(sp)

    def test_ungated_terms_stay_sound(self):
        # Neither term has a gate of its own (lower_bound's exact free-degree
        # check is the only one), so every sampled state reaches the sums.
        # The sample must include states where the sums are nonzero with
        # f0 == f1 and the largest free degree exactly f_big, which a gate
        # skipping the terms at a largest free degree <= f_small would zero.
        rng = random.Random(516)
        at_gate = 0
        for _ in range(300):
            sp = random_subproblem(rng)
            high = high_degree_pairs(sp)
            half = (high_degree_bound(sp, high)
                    + high_degree_rebalance(sp, high))
            assert (half + 1) // 2 <= brute_force_free_free_min(sp)
            top = max(free_degrees(sp).values(), default=0)
            at_gate += sp.f0 == sp.f1 and top == sp.f0 and half > 0
        assert at_gate > 0

    def test_terms_match_recomputation_after_branching(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(4, 14)
            g = generate_er(n, 0.7, 1, 50, seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            sp = root_subproblem(g, s0, n - s0)
            steps = rng.randint(0, len(sp.free_list) - 1) if sp.free_list else 0
            for _ in range(steps):
                side = rng.choice([s for s in (0, 1) if (sp.f0, sp.f1)[s] > 0])
                sp = sp.assign(rng.choice(sp.free_list))[side]
            rc = recompute_from_scratch(
                g,
                [v for v in range(n) if (sp.a0 >> v) & 1],
                [v for v in range(n) if (side1_mask(sp) >> v) & 1],
                s0,
                n - s0,
            )
            high, high_rc = high_degree_pairs(sp), high_degree_pairs(rc)
            assert (high_degree_bound(sp, high)
                    == high_degree_bound(rc, high_rc))
            assert (high_degree_rebalance(sp, high)
                    == high_degree_rebalance(rc, high_rc))


def reference_high_degree(sp):
    """Both high-degree terms from their definition: for each free v of
    free degree d >= f_big, sort its free-edge weights; the bound sums the
    cheapest d - f_big + 1, the penalty is the cheapest d - max(f_small, 1)
    + 1 less that, and the rebalancing term sums the smallest penalties of
    the vertices beyond f_big."""
    f_big, f_small = max(sp.f0, sp.f1), min(sp.f0, sp.f1)
    bound, penalties = 0, []
    for v in sp.free_list:
        ws = sorted(w for u, w in zip(sp.graph.adj_nbr[v], sp.graph.adj_w[v])
                    if sp.is_free(u))
        if len(ws) < f_big:
            continue
        big = sum(ws[:len(ws) - f_big + 1])
        bound += big
        penalties.append(sum(ws[:len(ws) - max(f_small, 1) + 1]) - big)
    surplus = len(penalties) - f_big
    return bound, sum(sorted(penalties)[:surplus]) if surplus > 0 else 0


class TestHighDegreeOracle:
    """Both terms, summed on demand from the weight-sorted adjacency, equal
    the sort-and-sum definition on every state of random assign chains.
    The walks must reach states with f0 == f1 whose largest free degree is
    exactly f_big and whose bound is nonzero: a gate that skipped the terms
    when the largest free degree is <= f_small would return 0 there."""

    def check_walks(self, rng, graphs):
        seen = {"f0 == f1, top == f_big": 0, "f_small == 1": 0,
                "f_small == 0": 0}
        for g, s0 in graphs:
            for sp in assign_walk(rng, g, s0):
                high = high_degree_pairs(sp)
                terms = (high_degree_bound(sp, high),
                         high_degree_rebalance(sp, high))
                assert terms == reference_high_degree(sp)
                f_big, f_small = max(sp.f0, sp.f1), min(sp.f0, sp.f1)
                degrees = free_degrees(sp).values()
                high = sum(d >= f_big for d in degrees)
                top = max(degrees, default=0)
                seen["f0 == f1, top == f_big"] += (
                    sp.f0 == sp.f1 and top == f_big and terms[0] > 0)
                seen["f_small == 1"] += f_small == 1 and high > f_big
                seen["f_small == 0"] += f_small == 0 and len(sp.free_list) > 0
        assert all(seen.values()), seen

    def test_random_states(self):
        rng = random.Random(41)
        graphs = []
        for _ in range(150):
            n = rng.randint(2, 14)
            g = random_er(rng, n)
            graphs.append((g, rng.randint(1, n - 1)))
        self.check_walks(rng, graphs)

    def test_irregular_states(self):
        rng = random.Random(42)
        graphs = []
        for _ in range(150):
            n = rng.randint(2, 14)
            graphs.append((irregular_graph(rng, n), rng.randint(1, n - 1)))
        assert any(0 in g.adj_w[v] for g, _ in graphs for v in range(g.n))
        assert any(() in g.adj_nbr for g, _ in graphs)
        self.check_walks(rng, graphs)


def largest_free_component(sp):
    """Vertex count of the largest free component, by a plain search."""
    free, seen, best = set(sp.free_list), set(), 0
    for start in sp.free_list:
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            x = stack.pop()
            size += 1
            for u in sp.graph.adj_nbr[x]:
                if u in free and u not in seen:
                    seen.add(u)
                    stack.append(u)
        best = max(best, size)
    return best


class TestFreeFreeTermsMatchReference:
    """The high-degree terms, fed by lower_bound's one free-degree pass, and
    the bitmask component search return exactly what the per-term passes
    and the BFS in tests/checks.py return, and so does lower_bound under
    every preset, with and without a cutoff.  The states, on irregular and
    ER graphs, span n up to 70, so that the masks take several machine
    words, and include free components of exactly f_big and f_big + 1
    vertices."""

    def test_random_partial_assignments(self):
        rng = random.Random(2424)
        seen = {"largest == f_big": 0, "largest == f_big + 1": 0,
                "n > 64": 0, "high-degree rebalance > 0": 0,
                "component > 0": 0, "cutoff below full": 0}
        for i in range(2400):
            n = rng.randint(2, 14) if i % 2 else rng.randint(15, 70)
            g = irregular_graph(rng, n) if i % 4 < 2 else random_er(rng, n)
            s0 = rng.randint(1, n - 1)
            sp = random_partial_assignment(rng, g, s0, n - s0)
            high = high_degree_pairs(sp)
            bound = high_degree_bound(sp, high)
            assert bound == reference_high_degree_bound(sp)
            rebalance = high_degree_rebalance(sp, high)
            assert rebalance == reference_high_degree_rebalance(sp)
            component = component_bound(sp)
            assert component == reference_component_bound(sp)
            for cfg in CONFIG_PRESETS.values():
                full = reference_lower_bound(sp, cfg)
                assert lower_bound(sp, cfg) == full
                for cutoff in (full - 1, full, full + 1,
                               rng.randint(0, full + g.max_weight + 1)):
                    assert (lower_bound(sp, cfg, cutoff)
                            == reference_lower_bound(sp, cfg, cutoff))
                    seen["cutoff below full"] += cutoff < full
            f_big = max(sp.f0, sp.f1)
            largest = largest_free_component(sp)
            seen["largest == f_big"] += largest == f_big > 0
            seen["largest == f_big + 1"] += largest == f_big + 1
            seen["n > 64"] += n > 64
            seen["high-degree rebalance > 0"] += rebalance > 0
            seen["component > 0"] += component > 0
        assert all(seen.values()), seen


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

    def test_soundness_on_random_subproblems(self):
        rng = random.Random(616)
        for _ in range(300):
            sp = random_subproblem(rng)
            assert component_bound(sp) <= brute_force_free_free_min(sp)

    def test_dominance_high_degree_implies_large_component(self):
        """A free vertex of free degree >= f_big lies in a free component of
        more than f_big vertices, and every weight here is at least 1, so
        the component term fires wherever the high-degree term does."""
        rng = random.Random(717)
        fired = 0
        for _ in range(200):
            sp = random_subproblem(rng)
            if high_degree_bound(sp, high_degree_pairs(sp)) > 0:
                fired += 1
                assert component_bound(sp) > 0
        assert fired


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
        rng = random.Random(919)
        for _ in range(150):
            sp = random_subproblem(rng, n_max=10)
            best = subproblem_optimum(sp)
            for cfg in CONFIG_PRESETS.values():
                assert lower_bound(sp, cfg) <= best

    def test_cutoff_contract(self):
        # At or above the cutoff the result certifies full >= cutoff.  Below
        # it, the result lies between the cheap partial sum (fixed + basic,
        # + rebalance) and the full bound, and equals the full bound
        # whenever the partial sum plus the heaviest edge weight reaches
        # the cutoff, since the component search is skipped only otherwise.
        rng = random.Random(1121)
        skipped = 0
        for _ in range(300):
            sp = random_subproblem(rng)
            w_max = sp.graph.max_weight
            for cfg in CONFIG_PRESETS.values():
                full = lower_bound(sp, cfg)
                partial = sp.fixed_cut + basic_bound(sp)
                if cfg.enable_rebalance:
                    partial += rebalance_value(sp)
                for cutoff in (full - 1, full, full + 1, partial + w_max + 1,
                               rng.randint(0, 2 * full + w_max + 1)):
                    got = lower_bound(sp, cfg, cutoff)
                    if full < cutoff:
                        assert partial <= got <= full
                        if partial + w_max >= cutoff:
                            assert got == full
                        elif got < full:
                            skipped += 1
                    else:
                        assert cutoff <= got <= full
        assert skipped > 0

    def test_an_infinite_cutoff_is_the_default(self):
        """Passing infinity as the cutoff gives the full bound, as the
        default does, on a corpus where the component term decides."""
        rng = random.Random(1222)
        cfg = CONFIG_PRESETS["component"]
        decisive = 0
        for _ in range(300):
            sp = random_subproblem(rng)
            full = lower_bound(sp, cfg)
            assert lower_bound(sp, cfg, math.inf) == full
            decisive += full > lower_bound(sp, CONFIG_PRESETS["highdegree"])
        assert decisive >= 20, decisive

    def test_integer_bounds(self):
        rng = random.Random(1020)
        for _ in range(50):
            sp = random_subproblem(rng)
            for cfg in CONFIG_PRESETS.values():
                assert isinstance(lower_bound(sp, cfg), int)

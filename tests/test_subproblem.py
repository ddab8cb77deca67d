import math
import random

import pytest

from checks import (
    assert_equivalent, assign_walk, complete_unweighted, free_degrees,
    high_degree_pairs, irregular_graph, k3_weighted, oracle_of, random_er,
    random_partial_assignment, recompute_from_scratch, side1_mask, side_of)

from bipart.bounds import (
    CONFIG_PRESETS,
    component_bound,
    high_degree_bound,
    high_degree_rebalance,
    lower_bound,
    rebalance_bound,
)
from bipart.completion import (Solution, rebalancing_completion_value,
                               try_complete)
from bipart.graph import build_graph, cut_value, generate_er
from bipart.solver import branch_vertex, expand
from bipart.subproblem import Subproblem, root_subproblem


class TestRoot:
    def test_symmetry_fix_on_equal_sizes(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        assert side_of(sp, 0) == 0
        assert side1_mask(sp) == 0
        assert sp.free_list == [1, 2, 3]
        assert (sp.f0, sp.f1) == (1, 2)
        assert all(sp.d0[v] == 1 for v in (1, 2, 3))
        assert all(sp.d1[v] == 0 for v in (1, 2, 3))

    def test_pre_assigns_the_first_branching_vertex(self):
        # The empty state's branching vertex is the heaviest one, smallest
        # id on a tie; K4 above ties everywhere and gives vertex 0.
        rng = random.Random(32)
        for i in range(60):
            n = 2 * rng.randint(1, 7)
            g = (irregular_graph(rng, n) if i % 2 else
                 random_er(rng, n))
            first = branch_vertex(recompute_from_scratch(g, [], [], n // 2, n // 2))
            assert root_subproblem(g, n // 2, n // 2).a0 == 1 << first
        g = build_graph(4, [(0, 1, 1), (2, 3, 5), (1, 3, 1)])
        assert root_subproblem(g, 2, 2).a0 == 1 << 3

    def test_no_fix_on_unequal_sizes(self):
        g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
        sp = root_subproblem(g, 2, 1)
        assert sp.a0 == 0 and side1_mask(sp) == 0
        assert sp.fixed_cut == 0
        assert sp.free_list == [0, 1, 2]

    @pytest.mark.parametrize("s0,s1", [(0, 4), (4, 0), (1, 1), (3, 2),
                                       (2.0, 2.0), (True, 3), (2, 2.0)])
    def test_bad_sizes_rejected(self, s0, s1):
        with pytest.raises(ValueError):
            root_subproblem(complete_unweighted(4), s0, s1)

    def test_every_root_matches_the_oracle(self):
        # Equal and unequal sides, 1 | n - 1 and n - 1 | 1, n = 2, and the
        # irregular graphs' zero weights, isolated vertices and components.
        # On equal sides the heaviest vertex, smallest id on a tie, is fixed.
        rng = random.Random(34)
        ties = 0
        for i in range(120):
            n = rng.randint(2, 14)
            g = irregular_graph(rng, n) if i % 2 else random_er(rng, n)
            tw = g.total_weight
            for s0 in {1, n // 2, n - 1, rng.randint(1, n - 1)}:
                u0 = []
                if 2 * s0 == n:
                    u0 = [max(range(n), key=lambda v: (tw[v], -v))]
                    ties += tw.count(max(tw)) > 1
                sp = root_subproblem(g, s0, n - s0)
                assert_equivalent(sp, recompute_from_scratch(g, u0, [], s0,
                                                             n - s0))
                assert (sp.lb, sp.delta_lo, sp.delta_hi) == (None, 0, 0)
        assert ties > 0


class TestAssign:
    def test_k3_worked_example(self):
        g = k3_weighted()
        sp = recompute_from_scratch(g, [0], [], 2, 1)
        child = sp.assign(2)[1]
        assert child.fixed_cut == 2
        assert child.d0[1] == 3 and child.d1[1] == 5
        assert child.free_list == [1]
        assert_equivalent(child, recompute_from_scratch(g, [0], [2], 2, 1))

    def test_parent_not_modified(self):
        g = complete_unweighted(4)
        sp = root_subproblem(g, 2, 2)
        def state():
            return (sp.a0, sp.free_mask, list(sp.free_list), list(sp.d0),
                    list(sp.d1), sp.free_edges, sp.fixed_cut)
        before = state()
        sp.assign(2)
        assert before == state()

    def test_assign_to_full_side_rejected(self):
        g = complete_unweighted(4)
        sp = root_subproblem(g, 1, 3)
        sp = sp.assign(0)[0]
        child0, child1 = sp.assign(1)
        assert child0 is None
        assert side1_mask(child1) == 1 << 1

    def test_assign_non_free_rejected(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)
        with pytest.raises(ValueError, match="not free"):
            sp.assign(0)

    def test_full_assignment_fixed_cut_is_the_cut(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 12)
            g = generate_er(n, 0.6, 1, 100, seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            sp = root_subproblem(g, s0, n - s0)
            while sp.free_list:
                side = rng.choice([s for s in (0, 1) if (sp.f0, sp.f1)[s] > 0])
                sp = sp.assign(rng.choice(sp.free_list))[side]
            sides = [side_of(sp, v) for v in range(n)]
            assert sp.fixed_cut == cut_value(g, sides)


class TestFix:
    """fix(pairs) against the from-scratch oracle on random states and
    random batches, edges inside the batch included; fix(pairs, cutoff)
    is None exactly when the whole batch's fixed cut + basic reaches the
    cutoff, and the oracle's state otherwise."""

    @staticmethod
    def random_batch(rng, sp):
        room = [sp.f0, sp.f1]
        pairs = []
        for v in rng.sample(sp.free_list, rng.randint(1, len(sp.free_list))):
            sides = [s for s in (0, 1) if room[s]]
            if not sides:
                break
            side = rng.choice(sides)
            room[side] -= 1
            pairs.append((v, side))
        return pairs

    def check_states(self, rng, graphs):
        checked = inner = 0
        for g, s0 in graphs:
            for _ in range(10):
                sp = random_partial_assignment(rng, g, s0, g.n - s0)
                if not sp.free_list:
                    continue
                pairs = self.random_batch(rng, sp)
                batch = {v for v, _ in pairs}
                inner += any(u in batch for v in batch
                             for u in g.adj_nbr[v])
                fixed = sp.fix(pairs)
                sizes = s0, g.n - s0
                rc = oracle_of(fixed, *sizes)
                assert_equivalent(fixed, rc)
                assert all(side_of(fixed, v) == side for v, side in pairs)
                total = rc.fixed_cut + rc.basic
                for cutoff in (total - 1, total, total + 1):
                    stopped = sp.fix(pairs, cutoff)
                    if total >= cutoff:
                        assert stopped is None
                    else:
                        assert_equivalent(stopped, rc)
                # The parent is untouched.
                assert_equivalent(sp, oracle_of(sp, *sizes))
                checked += 1
        assert checked > 1000 and inner > 100, (checked, inner)

    def test_random_states(self):
        rng = random.Random(64)
        graphs = []
        for _ in range(120):
            n = rng.randint(2, 14)
            g = random_er(rng, n)
            graphs.append((g, rng.randint(1, n - 1)))
        self.check_states(rng, graphs)

    def test_irregular_states(self):
        rng = random.Random(65)
        graphs = []
        for _ in range(120):
            n = rng.randint(2, 14)
            graphs.append((irregular_graph(rng, n), rng.randint(1, n - 1)))
        assert any(0 in g.adj_w[v] for g, _ in graphs for v in range(g.n))
        assert any(() in g.adj_nbr for g, _ in graphs)
        self.check_states(rng, graphs)

    def test_a_fixed_vertex_or_an_overfilled_side_is_rejected(self):
        sp = root_subproblem(complete_unweighted(4), 2, 2)  # vertex 0 on side 0
        with pytest.raises(ValueError, match="not free"):
            sp.fix([(1, 1), (0, 1)])
        with pytest.raises(ValueError, match="overfills"):
            sp.fix([(1, 0), (2, 0)])

    def test_the_pairs_after_the_cutoff_are_not_examined(self):
        # Vertex 1 on side 1 gives fixed cut 1 and basic 2 (vertices 2, 3).
        sp = root_subproblem(complete_unweighted(4), 2, 2)  # vertex 0 on side 0
        assert sp.fix([(1, 1), (0, 1)], cutoff=3) is None
        assert sp.fix([(1, 1), (2, 1), (3, 1)], cutoff=3) is None
        with pytest.raises(ValueError, match="not free"):
            sp.fix([(1, 1), (0, 1)], cutoff=4)


class TestRecompute:
    def test_empty_assignment(self):
        g = complete_unweighted(4)
        sp = recompute_from_scratch(g, [], [], 2, 2)
        assert sp.d0 == [0, 0, 0, 0] and sp.d1 == [0, 0, 0, 0]
        assert sp.fixed_cut == 0
        assert free_degrees(sp) == {0: 3, 1: 3, 2: 3, 3: 3}
        assert sp.free_edges == 6

    def test_overlapping_bitmaps_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            recompute_from_scratch(complete_unweighted(4), [1], [1], 2, 2)

    def test_oversized_assignment_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            recompute_from_scratch(complete_unweighted(4), [0, 1, 2], [], 2, 2)

    def test_free_edges_counts_edges_with_both_ends_free(self):
        # Zero-weight edges count like any other; isolated vertices add none.
        rng = random.Random(23)
        zero_weight_free = 0
        for _ in range(60):
            n = rng.randint(2, 14)
            g = irregular_graph(rng, n)
            s0 = rng.randint(1, n - 1)
            sp = random_partial_assignment(rng, g, s0, n - s0)
            free_free = [w for u, v, w in g.edges()
                         if sp.is_free(u) and sp.is_free(v)]
            assert sp.free_edges == len(free_free)
            zero_weight_free += free_free.count(0)
            assert sp.zero_free_degree_count == sum(
                d == 0 for d in free_degrees(sp).values())
        assert zero_weight_free > 0

    def test_random_trajectories_match(self):
        rng = random.Random(97)
        for _ in range(120):
            n = rng.randint(2, 16)
            p = rng.choice([0.15, 0.5, 1.0])
            wmax = rng.choice([1, 1000])
            g = generate_er(n, p, 1, wmax, seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            s1 = n - s0
            sp = root_subproblem(g, s0, s1)
            while sp.free_list:
                side = rng.choice([s for s in (0, 1) if (sp.f0, sp.f1)[s] > 0])
                sp = sp.assign(rng.choice(sp.free_list))[side]
                rc = recompute_from_scratch(
                    g,
                    [v for v in range(n) if (sp.a0 >> v) & 1],
                    [v for v in range(n) if (side1_mask(sp) >> v) & 1],
                    s0,
                    s1,
                )
                assert_equivalent(sp, rc)


def child_oracles(sp, v, s0):
    """From-scratch states of sp, with sides s0 | n - s0, with v fixed to
    side 0 and to side 1, None for a side that is full."""
    n = sp.graph.n
    out = []
    for side, f in ((0, sp.f0), (1, sp.f1)):
        if not f:
            out.append(None)
            continue
        u0 = [x for x in range(n) if (sp.a0 >> x) & 1]
        u1 = [x for x in range(n) if (side1_mask(sp) >> x) & 1]
        (u0 if side == 0 else u1).append(v)
        out.append(recompute_from_scratch(sp.graph, u0, u1, s0, n - s0))
    return out


def component_count(g):
    """Connected components of g that have an edge."""
    seen, count = set(), 0
    for start in range(g.n):
        if start in seen or not g.adj_nbr[start]:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for u in g.adj_nbr[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def walk_inputs(rng, irregular):
    """(graph, s0) pairs: each graph with a side of size 1 on either side
    and one random split."""
    out = []
    for _ in range(60):
        n = rng.randint(2, 11)
        if irregular:
            g = irregular_graph(rng, n)
        else:
            g = random_er(rng, n)
        out += [(g, s0) for s0 in {1, n - 1, rng.randint(1, n - 1)}]
    return out


class TestAssignKernel:
    """assign(v, cutoff) against the from-scratch oracle for every free v on
    every state of random assign chains: each child matches it, a full side
    gives None, and with a cutoff a child is None exactly when its oracle
    fixed cut + basic reaches the cutoff."""

    def check_walks(self, rng, graphs):
        seen = {"full side": 0, "one child pruned": 0, "both pruned": 0,
                "unequal sides": 0, "side of size 1": 0}
        for g, s0 in graphs:
            seen["unequal sides"] += 2 * s0 != g.n
            seen["side of size 1"] += s0 == 1 or s0 == g.n - 1
            for sp in assign_walk(rng, g, s0):
                for v in sp.free_list:
                    oracles = child_oracles(sp, v, s0)
                    seen["full side"] += None in oracles
                    for child, rc in zip(sp.assign(v), oracles):
                        if rc is None:
                            assert child is None
                        else:
                            assert_equivalent(child, rc)
                    bases = [rc.fixed_cut + rc.basic
                             for rc in oracles if rc is not None]
                    for cutoff in bases + [t + 1 for t in bases]:
                        kids = sp.assign(v, cutoff)
                        for kid, rc in zip(kids, oracles):
                            if rc is None or rc.fixed_cut + rc.basic >= cutoff:
                                assert kid is None
                            else:
                                assert_equivalent(kid, rc)
                        pruned = kids.count(None) - oracles.count(None)
                        seen["one child pruned"] += pruned == 1
                        seen["both pruned"] += pruned == 2
        assert all(seen.values()), seen

    def test_random_states(self):
        rng = random.Random(61)
        self.check_walks(rng, walk_inputs(rng, irregular=False))

    def test_irregular_states(self):
        rng = random.Random(62)
        graphs = walk_inputs(rng, irregular=True)
        assert any(0 in g.adj_w[v] for g, _ in graphs for v in range(g.n))
        assert any(() in g.adj_nbr for g, _ in graphs)
        assert any(component_count(g) > 1 for g, _ in graphs)
        self.check_walks(rng, graphs)


def read_everything(sp):
    """Every reader of a subproblem the search runs, with both high-degree
    terms and the component search called directly."""
    lower_bound(sp, CONFIG_PRESETS["component"])
    high_degree_bound(sp, high_degree_pairs(sp))
    high_degree_rebalance(sp, high_degree_pairs(sp))
    component_bound(sp)
    try_complete(sp)
    rebalancing_completion_value(sp)
    branch_vertex(sp)


class TestSiblingSharing:
    """Siblings share their free set, and each child shares its parent's
    other-side D array.  Every reader run on one child must leave its
    sibling and the parent equal to their from-scratch oracles."""

    def test_each_child_holds_its_parents_other_side_array(self):
        # v's entry in that array is nonzero when v has a fixed neighbour
        # on that side across an edge of positive weight; the child shares
        # the array all the same, since nothing reads a fixed entry.
        rng = random.Random(66)
        children = nonzero = 0
        for irregular in (False, True):
            for g, s0 in walk_inputs(rng, irregular):
                for sp in assign_walk(rng, g, s0):
                    for v in sp.free_list:
                        child0, child1 = sp.assign(v)
                        if child0 is not None:
                            assert child0.d1 is sp.d1
                            children += 1
                            nonzero += sp.d1[v] != 0
                        if child1 is not None:
                            assert child1.d0 is sp.d0
                            children += 1
                            nonzero += sp.d0[v] != 0
        assert children > 2000 and nonzero > 500, (children, nonzero)

    def test_readers_leave_sibling_and_parent_intact(self):
        rng = random.Random(63)
        checked = 0
        for irregular in (False, True):
            for g, s0 in walk_inputs(rng, irregular):
                for sp in assign_walk(rng, g, s0):
                    if not (sp.f0 and sp.f1):
                        continue
                    v = rng.choice(sp.free_list)
                    for side in (0, 1):
                        pair = sp.assign(v)
                        read_everything(pair[side])
                        sibling = pair[1 - side]
                        sizes = s0, g.n - s0
                        assert_equivalent(sibling, oracle_of(sibling, *sizes))
                        assert_equivalent(sp, oracle_of(sp, *sizes))
                        checked += 1
        assert checked > 500


def with_entries(sp, d0, d1):
    """A fresh state with sp's slots but the D arrays d0 and d1, and no
    stored bound or split."""
    return Subproblem(sp.graph, sp.a0, sp.free_mask, sp.free_list.copy(),
                      sp.f0, sp.f1, d0, d1, sp.fixed_cut, sp.basic,
                      sp.free_edges)


def assert_same_state(a, b):
    """Two states built from the clean and the poisoned copy: both None, or
    equal on every maintained slot and on the stored bound and split."""
    assert (a is None) == (b is None)
    if a is not None:
        assert_equivalent(a, b)
        assert (a.lb, a.delta_lo, a.delta_hi) == (b.lb, b.delta_lo, b.delta_hi)


class TestFixedEntries:
    """D entries are defined on free vertices only, so no reader may read a
    fixed vertex's entries: a copy of a state whose fixed entries hold random
    integers, negative ones included, gives every reader's answer, under
    every preset, at infinity and at a finite cutoff."""

    def test_fixed_entries_are_never_read(self):
        rng = random.Random(67)
        seen = {"states": 0, "finite cutoff pruned": 0, "expand solution": 0,
                "expand children": 0, "expand closed": 0}
        while seen["states"] < 320:
            n = rng.randint(3, 12)
            irregular = seen["states"] % 2
            g = irregular_graph(rng, n) if irregular else random_er(rng, n)
            s0 = rng.randint(1, n - 1)
            sp = random_partial_assignment(rng, g, s0, n - s0)
            if not sp.free_list or len(sp.free_list) == n:
                continue
            seen["states"] += 1
            p0, p1 = sp.d0.copy(), sp.d1.copy()
            for v in range(n):
                if not sp.is_free(v):
                    p0[v] = rng.randint(-1000, 1000)
                    p1[v] = rng.randint(-1000, 1000)

            def pair():
                return with_entries(sp, sp.d0, sp.d1), with_entries(sp, p0, p1)

            clean, dirty = pair()
            assert rebalance_bound(clean) == rebalance_bound(dirty)
            upper = rebalancing_completion_value(clean)
            assert upper == rebalancing_completion_value(dirty)
            assert branch_vertex(clean) == branch_vertex(dirty)
            finite = rng.randint(sp.fixed_cut + sp.basic, upper + 1)
            for cutoff in (math.inf, finite):
                assert try_complete(clean, cutoff) == try_complete(dirty, cutoff)
                for v in sp.free_list:
                    kids = clean.assign(v, cutoff), dirty.assign(v, cutoff)
                    for a, b in zip(*kids):
                        assert_same_state(a, b)
                for cfg in CONFIG_PRESETS.values():
                    clean, dirty = pair()
                    for state in clean, dirty:
                        state.lb = lower_bound(state, cfg, cutoff)
                    assert_same_state(clean, dirty)
                    if clean.lb >= cutoff:
                        seen["finite cutoff pruned"] += 1
                        continue
                    step = expand(clean, cfg, cutoff)
                    other = expand(dirty, cfg, cutoff)
                    if isinstance(step, Solution):
                        seen["expand solution"] += 1
                        assert step == other
                    else:
                        seen["expand children" if step else
                             "expand closed"] += 1
                        assert len(step) == len(other)
                        for a, b in zip(step, other):
                            assert_same_state(a, b)
        assert all(seen.values()), seen

import random

import pytest

from checks import (
    assert_equivalent, assign_walk, irregular_graph, oracle_of,
    random_partial_assignment)

from bipart.bounds import (
    CONFIG_PRESETS,
    component_bound,
    high_degree_bound,
    high_degree_rebalance,
    lower_bound,
)
from bipart.completion import rebalancing_completion_value, try_complete
from bipart.graph import build_graph, cut_value, generate_er
from bipart.solver import branch_vertex
from bipart.subproblem import recompute_from_scratch, root_subproblem


def k4():
    return build_graph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])


def k3_weighted():
    return build_graph(3, [(0, 1, 3), (1, 2, 5), (0, 2, 2)])


class TestRoot:
    def test_symmetry_fix_on_equal_sizes(self):
        sp = root_subproblem(k4(), 2, 2)
        assert sp.side_of(0) == 0
        assert sp.a1 == 0
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
                 generate_er(n, rng.choice([0.2, 0.5, 1.0]), 1,
                             rng.choice([1, 1000]), seed=rng.randint(0, 10**9)))
            first = branch_vertex(recompute_from_scratch(g, [], [], n // 2, n // 2))
            assert root_subproblem(g, n // 2, n // 2).a0 == 1 << first
        g = build_graph(4, [(0, 1, 1), (2, 3, 5), (1, 3, 1)])
        assert root_subproblem(g, 2, 2).a0 == 1 << 3

    def test_no_fix_on_unequal_sizes(self):
        g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
        sp = root_subproblem(g, 2, 1)
        assert sp.a0 == 0 and sp.a1 == 0
        assert sp.fixed_cut == 0
        assert sp.free_list == [0, 1, 2]

    @pytest.mark.parametrize("s0,s1", [(0, 4), (4, 0), (1, 1), (3, 2)])
    def test_bad_sizes_rejected(self, s0, s1):
        with pytest.raises(ValueError):
            root_subproblem(k4(), s0, s1)


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
        g = k4()
        sp = root_subproblem(g, 2, 2)
        def state():
            return (sp.a0, sp.a1, list(sp.free_list), list(sp.d0),
                    list(sp.d1), list(sp.free_degree), sp.fixed_cut)
        before = state()
        sp.assign(2)
        assert before == state()

    def test_assign_to_full_side_rejected(self):
        g = k4()
        sp = root_subproblem(g, 1, 3)
        sp = sp.assign(0)[0]
        child0, child1 = sp.assign(1)
        assert child0 is None
        assert child1.a1 == 1 << 1

    def test_assign_non_free_rejected(self):
        sp = root_subproblem(k4(), 2, 2)
        with pytest.raises(ValueError, match="not free"):
            sp.assign(0)

    def test_full_assignment_fixed_cut_is_the_cut(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 12)
            g = generate_er(n, 0.6, 1, 100, seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            sp = root_subproblem(g, s0, n - s0)
            while sp.f:
                side = rng.choice([s for s in (0, 1) if (sp.f0, sp.f1)[s] > 0])
                sp = sp.assign(rng.choice(sp.free_list))[side]
            sides = [sp.side_of(v) for v in range(n)]
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
        for v in rng.sample(sp.free_list, rng.randint(1, sp.f)):
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
                rc = oracle_of(fixed)
                assert_equivalent(fixed, rc)
                assert fixed.depth == sp.depth
                assert all(fixed.side_of(v) == side for v, side in pairs)
                total = rc.fixed_cut + rc.basic
                for cutoff in (total - 1, total, total + 1):
                    stopped = sp.fix(pairs, cutoff)
                    if total >= cutoff:
                        assert stopped is None
                    else:
                        assert_equivalent(stopped, rc)
                        assert stopped.depth == sp.depth
                assert_equivalent(sp, oracle_of(sp))  # parent untouched
                checked += 1
        assert checked > 1000 and inner > 100, (checked, inner)

    def test_random_states(self):
        rng = random.Random(64)
        graphs = []
        for _ in range(120):
            n = rng.randint(2, 14)
            g = generate_er(n, rng.choice([0.2, 0.5, 1.0]), 1,
                            rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
            graphs.append((g, rng.randint(1, n - 1)))
        self.check_states(rng, graphs)

    def test_irregular_states(self):
        rng = random.Random(65)
        graphs = []
        for _ in range(120):
            n = rng.randint(2, 14)
            graphs.append((irregular_graph(rng, n), rng.randint(1, n - 1)))
        assert any(0 in g.adj_w[v] for g, _ in graphs for v in range(g.n))
        assert any(0 in g.degrees for g, _ in graphs)
        self.check_states(rng, graphs)

    def test_a_fixed_vertex_or_an_overfilled_side_is_rejected(self):
        sp = root_subproblem(k4(), 2, 2)  # vertex 0 on side 0
        with pytest.raises(ValueError, match="not free"):
            sp.fix([(1, 1), (0, 1)])
        with pytest.raises(ValueError, match="overfills"):
            sp.fix([(1, 0), (2, 0)])

    def test_the_pairs_after_the_cutoff_are_not_examined(self):
        # Vertex 1 on side 1 gives fixed cut 1 and basic 2 (vertices 2, 3).
        sp = root_subproblem(k4(), 2, 2)  # vertex 0 on side 0
        assert sp.fix([(1, 1), (0, 1)], cutoff=3) is None
        assert sp.fix([(1, 1), (2, 1), (3, 1)], cutoff=3) is None
        with pytest.raises(ValueError, match="not free"):
            sp.fix([(1, 1), (0, 1)], cutoff=4)


class TestRecompute:
    def test_empty_assignment(self):
        g = k4()
        sp = recompute_from_scratch(g, [], [], 2, 2)
        assert sp.d0 == [0, 0, 0, 0] and sp.d1 == [0, 0, 0, 0]
        assert sp.fixed_cut == 0
        assert sp.free_degree == [3, 3, 3, 3]

    def test_overlapping_bitmaps_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            recompute_from_scratch(k4(), [1], [1], 2, 2)

    def test_oversized_assignment_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            recompute_from_scratch(k4(), [0, 1, 2], [], 2, 2)

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
            while sp.f:
                side = rng.choice([s for s in (0, 1) if (sp.f0, sp.f1)[s] > 0])
                sp = sp.assign(rng.choice(sp.free_list))[side]
                rc = recompute_from_scratch(
                    g,
                    [v for v in range(n) if (sp.a0 >> v) & 1],
                    [v for v in range(n) if (sp.a1 >> v) & 1],
                    s0,
                    s1,
                )
                assert_equivalent(sp, rc)


def child_oracles(sp, v):
    """From-scratch states of sp with v fixed to side 0 and to side 1, None
    for a side that is full."""
    n = sp.graph.n
    out = []
    for side, f in ((0, sp.f0), (1, sp.f1)):
        if not f:
            out.append(None)
            continue
        u0 = [x for x in range(n) if (sp.a0 >> x) & 1]
        u1 = [x for x in range(n) if (sp.a1 >> x) & 1]
        (u0 if side == 0 else u1).append(v)
        out.append(recompute_from_scratch(sp.graph, u0, u1, sp.s0, sp.s1))
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
            g = generate_er(n, rng.choice([0.2, 0.5, 1.0]), 1,
                            rng.choice([1, 1000]), seed=rng.randint(0, 10**9))
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
                    oracles = child_oracles(sp, v)
                    seen["full side"] += None in oracles
                    for child, rc in zip(sp.assign(v), oracles):
                        if rc is None:
                            assert child is None
                        else:
                            assert_equivalent(child, rc)
                            assert child.depth == sp.depth + 1
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
        assert any(0 in g.degrees for g, _ in graphs)
        assert any(component_count(g) > 1 for g, _ in graphs)
        self.check_walks(rng, graphs)


def read_everything(sp):
    """Every reader of a subproblem the search runs, with both high-degree
    terms and the component BFS called directly."""
    lower_bound(sp, CONFIG_PRESETS["component"])
    high_degree_bound(sp)
    high_degree_rebalance(sp)
    component_bound(sp)
    try_complete(sp)
    rebalancing_completion_value(sp)
    branch_vertex(sp)


class TestSiblingSharing:
    """Siblings share their free set, and a child may share a D array with
    its parent.  Every reader run on one child must leave its sibling and
    the parent equal to their from-scratch oracles."""

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
                        assert_equivalent(sibling, oracle_of(sibling))
                        assert_equivalent(sp, oracle_of(sp))
                        checked += 1
        assert checked > 500

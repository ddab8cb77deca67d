import random

import pytest

from checks import assert_equivalent

from bipart.graph import build_graph, cut_value, generate_er
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
        child = sp.assign(2, 1)
        assert child.fixed_cut == 2
        assert child.d0[1] == 3 and child.d1[1] == 5
        assert child.free_list == [1]
        assert_equivalent(child, recompute_from_scratch(g, [0], [2], 2, 1))

    def test_parent_not_modified(self):
        g = k4()
        sp = root_subproblem(g, 2, 2)
        before = (sp.a0, sp.a1, list(sp.free_list), list(sp.d0), sp.fixed_cut)
        sp.assign(2, 1)
        assert before == (sp.a0, sp.a1, list(sp.free_list), list(sp.d0), sp.fixed_cut)

    def test_assign_to_full_side_rejected(self):
        g = k4()
        sp = root_subproblem(g, 1, 3)
        sp = sp.assign(0, 0)
        with pytest.raises(ValueError, match="full"):
            sp.assign(1, 0)

    def test_assign_non_free_rejected(self):
        sp = root_subproblem(k4(), 2, 2)
        with pytest.raises(ValueError, match="not free"):
            sp.assign(0, 1)

    def test_full_assignment_fixed_cut_is_the_cut(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 12)
            g = generate_er(n, 0.6, 1, 100, seed=rng.randint(0, 10**9))
            s0 = rng.randint(1, n - 1)
            sp = root_subproblem(g, s0, n - s0)
            while sp.f:
                side = rng.choice([s for s in (0, 1) if (sp.f0, sp.f1)[s] > 0])
                sp = sp.assign(rng.choice(sp.free_list), side)
            sides = [sp.side_of(v) for v in range(n)]
            assert sp.fixed_cut == cut_value(g, sides)


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
                sp = sp.assign(rng.choice(sp.free_list), side)
                rc = recompute_from_scratch(
                    g,
                    [v for v in range(n) if (sp.a0 >> v) & 1],
                    [v for v in range(n) if (sp.a1 >> v) & 1],
                    s0,
                    s1,
                )
                assert_equivalent(sp, rc)

import itertools

import pytest

from checks import (brute_force_fixed_free_min, brute_force_free_free_min,
                    complete_unweighted, example_graph, k3_weighted,
                    recompute_from_scratch, subproblem_optimum)

import bipart.oracle
from bipart.graph import build_graph, generate_er
from bipart.oracle import brute_force_optimum


class TestBruteForceOptimum:
    def test_example_graph(self):
        r = brute_force_optimum(example_graph(), 2, 2)
        assert r.optimum == 7
        assert r.witness.value == 7
        assert r.witness.assignment[0] == 0  # equal sides: vertex 0 pinned

    def test_complete_k8(self):
        r = brute_force_optimum(complete_unweighted(8), 4, 4)
        assert r.optimum == 16
        assert r.witness.assignment[0] == 0

    def test_empty_graph(self):
        g = build_graph(6, [])
        assert brute_force_optimum(g, 2, 4).optimum == 0

    def test_unequal_sizes_enumerate_fully(self):
        # Unequal sides have no mirror symmetry, so no vertex may be pinned.
        for seed in range(6):
            g = generate_er(7, 0.5, 1, 10, seed=seed)
            for s0 in (2, 3, 4):
                sp = recompute_from_scratch(g, [], [], s0, 7 - s0)
                assert brute_force_optimum(g, s0, 7 - s0).optimum == (
                    subproblem_optimum(sp))

    @pytest.mark.parametrize("n,s0,subsets", [
        (10, 5, 126),  # C(9, 4): vertex 0 pinned, half the C(10, 5)
        (7, 3, 35),  # C(7, 3): unequal sides, every subset
    ])
    def test_subsets_enumerated(self, monkeypatch, n, s0, subsets):
        yielded = []

        def counting(items, k):
            for subset in itertools.combinations(items, k):
                yielded.append(subset)
                yield subset

        monkeypatch.setattr(bipart.oracle, "combinations", counting)
        brute_force_optimum(generate_er(n, 0.5, 1, 10, seed=0), s0, n - s0)
        assert len(yielded) == subsets

    def test_size_guard(self):
        g = build_graph(25, [])
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimum(g, 12, 13)

    @pytest.mark.parametrize("s0,s1,name", [(True, 5, "s0"), (3.0, 3.0, "s0"),
                                            ("3", "3", "s0"), (3, 3.0, "s1")])
    def test_non_integer_sizes_rejected(self, s0, s1, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            brute_force_optimum(complete_unweighted(6), s0, s1)


class TestFixedFreeMin:
    def test_k3_example(self):
        sp = recompute_from_scratch(k3_weighted(), [0], [2], 2, 1)
        assert brute_force_fixed_free_min(sp) == 5

    def test_forced_completion_when_f0_zero(self):
        g = build_graph(4, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
        sp = recompute_from_scratch(g, [0], [], 1, 3)
        assert brute_force_fixed_free_min(sp) == 2 + 3 + 4

    def test_guard(self):
        g = build_graph(24, [])
        sp = recompute_from_scratch(g, [], [], 12, 12)
        with pytest.raises(ValueError, match="free"):
            brute_force_fixed_free_min(sp)


class TestFreeFreeMin:
    def test_no_free_free_edges(self):
        g = build_graph(4, [(0, 1, 5), (0, 2, 5)])
        sp = recompute_from_scratch(g, [0], [1], 2, 2)
        assert brute_force_free_free_min(sp) == 0

    def test_unweighted_k3_unbalanced_root(self):
        g = build_graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        sp = recompute_from_scratch(g, [], [], 2, 1)
        assert brute_force_free_free_min(sp) == 2

    def test_path_p4_balanced_root(self):
        g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        sp = recompute_from_scratch(g, [], [], 2, 2)
        assert brute_force_free_free_min(sp) == 1

"""Shared helpers for the test suite."""

import multiprocessing

from bipart.graph import build_graph
from bipart.parallel import solve_parallel
from bipart.subproblem import Subproblem, recompute_from_scratch


def assert_equivalent(inc: Subproblem, rc: Subproblem):
    """Incrementally maintained state must match the from-scratch oracle:
    every maintained field, the sums basic and sum_d0 included, exactly."""
    assert inc.a0 == rc.a0 and inc.a1 == rc.a1
    assert inc.free_mask == rc.free_mask
    assert inc.free_list == rc.free_list
    assert inc.d0 == rc.d0 and inc.d1 == rc.d1
    assert inc.fixed_cut == rc.fixed_cut
    assert inc.basic == rc.basic
    assert inc.sum_d0 == rc.sum_d0
    assert (inc.f0, inc.f1) == (rc.f0, rc.f1)
    assert inc.free_degree == rc.free_degree
    assert inc.zero_free_degree_count == rc.zero_free_degree_count


def oracle_of(sp: Subproblem) -> Subproblem:
    """The from-scratch state of sp's partial assignment."""
    n = sp.graph.n
    return recompute_from_scratch(
        sp.graph,
        [v for v in range(n) if (sp.a0 >> v) & 1],
        [v for v in range(n) if (sp.a1 >> v) & 1],
        sp.s0,
        sp.s1,
    )


def random_partial_assignment(rng, graph, s0, s1):
    """A uniform-ish random valid partial assignment as a Subproblem."""
    n = graph.n
    u0, u1 = [], []
    for v in rng.sample(range(n), rng.randint(0, n)):
        if len(u0) < s0 and (len(u1) >= s1 or rng.random() < 0.5):
            u0.append(v)
        elif len(u1) < s1:
            u1.append(v)
    return recompute_from_scratch(graph, u0, u1, s0, s1)


def irregular_graph(rng, n):
    """A random graph with what generate_er never emits: zero-weight edges,
    isolated vertices and several components."""
    labels = [rng.randrange(3) for _ in range(n)]
    isolated = set(rng.sample(range(n), rng.randint(0, n // 3)))
    edges = [(u, v, rng.choice([0, 0, 1, 3, 1000]))
             for u in range(n) for v in range(u + 1, n)
             if labels[u] == labels[v] and not {u, v} & isolated
             and rng.random() < 0.6]
    return build_graph(n, edges)


def assign_walk(rng, graph, s0):
    """Every state of one random assign chain from the empty assignment with
    sides s0 | n - s0 down to the full one: one side runs full on the way."""
    sp = recompute_from_scratch(graph, [], [], s0, graph.n - s0)
    states = [sp]
    while sp.free_list:
        v = rng.choice(sp.free_list)
        side = rng.choice([s for s, f in ((0, sp.f0), (1, sp.f1)) if f])
        sp = sp.assign(v)[side]
        states.append(sp)
    return states


def solve_parallel_checked(*args, **kwargs):
    """solve_parallel, then check, whether it returned or raised, that no
    worker process outlived it."""
    try:
        return solve_parallel(*args, **kwargs)
    finally:
        assert multiprocessing.active_children() == []

"""Shared helpers for the test suite.

The subproblem oracles (completions and the three minima over them) read
only a subproblem's graph (its size and edges()), a0, free_list and f0.
They must never read d0, d1, basic, sum_d0 or free_edges: the bounds they
check are computed from those maintained quantities.
"""

import multiprocessing
from itertools import combinations

from bipart.completion import Solution, make_solution
from bipart.graph import WeightedGraph, build_graph, generate_er
from bipart.parallel import solve_parallel
from bipart.subproblem import Subproblem, recompute_from_scratch

MAX_ORACLE_FREE = 22


def k3_weighted():
    return build_graph(3, [(0, 1, 3), (1, 2, 5), (0, 2, 2)])


def example_graph():
    return build_graph(4, [(0, 1, 3), (1, 2, 5), (0, 2, 2), (2, 3, 4)])


def complete_unweighted(n):
    return build_graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


def random_er(rng, n):
    """G(n, p) with p from {0.2, 0.5, 1.0} and weights 1..1 or 1..1000,
    drawing p, the top weight and the seed from rng in that order."""
    return generate_er(n, rng.choice([0.2, 0.5, 1.0]), 1,
                       rng.choice([1, 1000]), seed=rng.randint(0, 10**9))


def validate_graph(g: WeightedGraph) -> None:
    """Check all structural invariants in O(n + m); raises on violation."""
    unpaired = set()  # (v, u, w) entries whose reverse is not yet seen
    for v in range(g.n):
        nbrs, ws = g.adj_nbr[v], g.adj_w[v]
        if not (len(nbrs) == len(ws) == g.degrees[v]):
            raise AssertionError(f"inconsistent array lengths at vertex {v}")
        for i, u in enumerate(nbrs):
            if u == v:
                raise AssertionError(f"self-loop at vertex {v}")
            if ws[i] < 0:
                raise AssertionError(f"negative weight at vertex {v}")
            if i > 0 and (ws[i - 1], nbrs[i - 1]) > (ws[i], u):
                raise AssertionError(f"adjacency of {v} not weight-sorted")
            if (u, v, ws[i]) in unpaired:
                unpaired.remove((u, v, ws[i]))
            else:
                unpaired.add((v, u, ws[i]))
        if g.nbr_mask[v] != sum(1 << u for u in nbrs):
            raise AssertionError(f"nbr_mask of {v} does not match adj_nbr")
    if unpaired:
        v, u, _ = min(unpaired)
        raise AssertionError(f"edge ({v},{u}) has no matching reverse entry")
    if g.max_weight != max((w for ws in g.adj_w for w in ws), default=0):
        raise AssertionError("max_weight is not the heaviest edge weight")


def side_of(sp: Subproblem, v: int):
    """0 or 1 for a fixed vertex of sp, None for a free one."""
    if (sp.a0 >> v) & 1:
        return 0
    if (sp.a1 >> v) & 1:
        return 1
    return None


def completions(sp: Subproblem):
    """Yield the sides list (0 or 1 per vertex) of every completion of sp:
    one for each way of putting sp.f0 of its free vertices on side 0."""
    free = sp.free_list
    if len(free) > MAX_ORACLE_FREE:
        raise ValueError(f"too many free vertices ({len(free)})")
    rest = [0 if (sp.a0 >> v) & 1 else 1 for v in range(sp.graph.n)]
    for chosen in combinations(free, sp.f0):
        sides = rest.copy()
        for v in chosen:
            sides[v] = 0
        yield sides


def _completion_min(sp: Subproblem, counted) -> int:
    """The least crossing weight over the completions of sp, summed over
    the edges (u, v) with counted(u is free, v is free)."""
    free = set(sp.free_list)
    edges = [(u, v, w) for u, v, w in sp.graph.edges()
             if counted(u in free, v in free)]
    return min(sum(w for u, v, w in edges if sides[u] != sides[v])
               for sides in completions(sp))


def brute_force_fixed_free_min(sp: Subproblem) -> int:
    """Minimum crossing weight of the edges with one end free."""
    return _completion_min(sp, lambda u_free, v_free: u_free != v_free)


def brute_force_free_free_min(sp: Subproblem) -> int:
    """Minimum crossing weight of the edges with both ends free."""
    return _completion_min(sp, lambda u_free, v_free: u_free and v_free)


def subproblem_optimum(sp: Subproblem) -> int:
    """Minimum cut over all completions of sp."""
    return _completion_min(sp, lambda u_free, v_free: True)


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
    assert inc.free_edges == rc.free_edges


def free_degrees(sp: Subproblem) -> dict[int, int]:
    """Each free vertex's number of free neighbours, counted from adj_nbr."""
    return {v: sum(1 for u in sp.graph.adj_nbr[v] if sp.is_free(u))
            for v in sp.free_list}


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


# The incumbent heuristic as it was before D was carried across passes,
# kept verbatim but for the names and the neighbour lists, read from the
# adjacency tuples, so that the rewrite can be checked to return exactly
# the same Solution.

def reference_kernighan_lin(graph: WeightedGraph, sol: Solution) -> Solution:
    """Kernighan-Lin (1970) local optimum reached from `sol`, same sides.

    A pass swaps pairs (a on side 0, b on side 1) tentatively: each time
    the unlocked pair of largest gain D[a] + D[b] - 2 w(a, b), where D[v]
    is v's crossing minus non-crossing weight, and locks both; ties go to
    the pair found first with each side in descending D order (a stable
    sort, so the result is deterministic).  The pass keeps its shortest
    prefix of largest total gain and undoes the rest.  Passes repeat until
    one gains nothing.  Since w >= 0, no pair beats D[a] + D[b], so each
    side is scanned in D order and a scan stops once that sum cannot beat
    the best gain found.  Returns `sol` itself when the first pass gains
    nothing, else a new Solution.
    """
    n = graph.n
    weight = [dict(zip(graph.adj_nbr[v], graph.adj_w[v])) for v in range(n)]
    side = list(sol.assignment)
    improved = False
    while True:
        d = [sum(w if side[u] != side[v] else -w for u, w in weight[v].items())
             for v in range(n)]
        unlocked0 = [v for v in range(n) if side[v] == 0]
        unlocked1 = [v for v in range(n) if side[v] == 1]
        swaps = []
        total = best_total = best_len = 0
        key = d.__getitem__
        while unlocked0 and unlocked1:
            unlocked0.sort(key=key, reverse=True)
            unlocked1.sort(key=key, reverse=True)
            a, b = unlocked0[0], unlocked1[0]
            best, pair = d[a] + d[b] - 2 * weight[a].get(b, 0), (a, b)
            for a in unlocked0:
                da = d[a]
                if da + d[unlocked1[0]] <= best:
                    break
                wa = weight[a]
                for b in unlocked1:
                    gain = da + d[b]
                    if gain <= best:
                        break
                    gain -= 2 * wa.get(b, 0)
                    if gain > best:
                        best, pair = gain, (a, b)
            a, b = pair
            unlocked0.remove(a)
            unlocked1.remove(b)
            for v in pair:  # move v to the other side; update its neighbours
                sv = side[v]
                for u, w in weight[v].items():
                    d[u] += 2 * w if side[u] == sv else -2 * w
                side[v] = 1 - sv
            swaps.append(pair)
            total += best
            if total > best_total:
                best_total, best_len = total, len(swaps)
        for a, b in swaps[best_len:]:
            side[a], side[b] = 0, 1
        if best_total <= 0:
            break
        improved = True
    if not improved:
        return sol
    s0 = side.count(0)
    return make_solution(graph, side, s0, n - s0)


def reference_max_adjacency_split(graph: WeightedGraph, s0: int, s1: int) -> Solution:
    """Feasible solution from a maximum-adjacency ordering.

    Starting at vertex 0, repeatedly append the unordered vertex with the
    largest total edge weight into the ordered set (ties by vertex id);
    the first s0 ordered vertices form side 0.
    """
    n = graph.n
    if s0 <= 0 or s1 <= 0 or s0 + s1 != n:
        raise ValueError(f"invalid sizes ({s0},{s1}) for n={n}")
    conn = [0] * n
    ordered = [0]
    in_order = [False] * n
    in_order[0] = True
    for u, w in zip(graph.adj_nbr[0], graph.adj_w[0]):
        conn[u] += w
    for _ in range(n - 1):
        best, best_c = -1, -1
        for v in range(n):
            if not in_order[v] and conn[v] > best_c:
                best, best_c = v, conn[v]
        ordered.append(best)
        in_order[best] = True
        for u, w in zip(graph.adj_nbr[best], graph.adj_w[best]):
            if not in_order[u]:
                conn[u] += w
    sides = [1] * n
    for v in ordered[:s0]:
        sides[v] = 0
    return make_solution(graph, sides, s0, s1)


def solve_parallel_checked(*args, **kwargs):
    """solve_parallel, then check, whether it returned or raised, that no
    worker process outlived it."""
    try:
        return solve_parallel(*args, **kwargs)
    finally:
        assert multiprocessing.active_children() == []

"""Shared helpers for the test suite.

The subproblem oracles (completions and the three minima over them) read
only a subproblem's graph (its size and edges()), a0, free_list and f0.
They must never read d0, d1, basic or free_edges: the bounds they check
are computed from those maintained quantities.
"""

import importlib.util
import math
import multiprocessing
from itertools import combinations
from pathlib import Path

from bipart.bounds import BoundConfig, basic_bound, rebalance_value
from bipart.completion import Solution, make_solution
from bipart.graph import WeightedGraph, build_graph, generate_er
from bipart.parallel import solve_parallel
from bipart.subproblem import Subproblem

MAX_ORACLE_FREE = 22


def load_tool(name):
    """The script tools/<name>.py as a module (tools/ is not a package)."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


_MASK64 = (1 << 64) - 1


def reference_splitmix64(state: int):
    """The SplitMix64 stream one output at a time: the reference for the
    package's block-at-a-time stream."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def reference_generate_er(n, p, wmin, wmax, seed) -> WeightedGraph:
    """generate_er's G(n, p) from the reference stream, its edges checked
    by build_graph: the definition of the instances generate_er makes."""
    rng = reference_splitmix64(seed & _MASK64)
    threshold = int(p * 2.0**64)
    span = wmax - wmin + 1
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if next(rng) < threshold:
                w = wmin if span == 1 else wmin + next(rng) % span
                edges.append((u, v, w))
    return build_graph(n, edges)


def validate_graph(g: WeightedGraph) -> None:
    """Check all structural invariants in O(n + m); raises on violation."""
    unpaired = set()  # (v, u, w) entries whose reverse is not yet seen
    for v in range(g.n):
        nbrs, ws = g.adj_nbr[v], g.adj_w[v]
        if len(nbrs) != len(ws):
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


def side1_mask(sp: Subproblem) -> int:
    """The bitmask of U1: every vertex neither in a0 nor free."""
    return ((1 << sp.graph.n) - 1) & ~(sp.a0 | sp.free_mask)


def side_of(sp: Subproblem, v: int):
    """0 or 1 for a fixed vertex of sp, None for a free one."""
    if (sp.a0 >> v) & 1:
        return 0
    if (side1_mask(sp) >> v) & 1:
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


# The Subproblem slots assert_equivalent does not compare, and why.
NOT_MAINTAINED = {
    "graph": "the instance itself, shared by both states, not derived",
    "lb": "stored by the search, which the oracle does not run",
    "delta_lo": "0 until rebalance_value records it when the bound is read",
    "delta_hi": "0 until rebalance_value records it when the bound is read",
}


# The D arrays are defined on the free vertices only.  assign and fix leave
# a newly fixed vertex's entries as they were, and a child shares its
# parent's other-side array, since no reader visits a fixed vertex's entry;
# the oracle's zeros there are compared to nothing.
FREE_ENTRIES_ONLY = ("d0", "d1")


def assert_equivalent(inc: Subproblem, rc: Subproblem):
    """Incrementally maintained state must match the from-scratch oracle:
    d0 and d1 on the free vertices, every other slot of Subproblem but those
    in NOT_MAINTAINED exactly."""
    for name in Subproblem.__slots__:
        if name in FREE_ENTRIES_ONLY:
            mine, theirs = getattr(inc, name), getattr(rc, name)
            assert len(mine) == len(theirs), name
            assert ([mine[v] for v in rc.free_list]
                    == [theirs[v] for v in rc.free_list]), name
        elif name not in NOT_MAINTAINED:
            assert getattr(inc, name) == getattr(rc, name), name


def free_degrees(sp: Subproblem) -> dict[int, int]:
    """Each free vertex's number of free neighbours, counted from adj_nbr."""
    return {v: sum(1 for u in sp.graph.adj_nbr[v] if sp.is_free(u))
            for v in sp.free_list}


def high_degree_pairs(sp: Subproblem) -> list[tuple[int, int]]:
    """The (v, free degree) pairs with free degree >= f_big, in free_list
    order: the high-degree terms' second argument, as lower_bound builds it."""
    f_big = max(sp.f0, sp.f1)
    return [(v, d) for v, d in free_degrees(sp).items() if d >= f_big]


def recompute_from_scratch(
    graph: WeightedGraph,
    u0,
    u1,
    s0: int,
    s1: int,
) -> Subproblem:
    """Build the Subproblem for assignment (u0, u1) directly from definitions.

    u0 and u1 are iterables of vertex ids.  This is the oracle for the
    incremental maintenance in root_subproblem, assign and fix: every
    derived quantity is computed by a fresh O(n + m) pass.
    """
    n = graph.n
    if s0 <= 0 or s1 <= 0 or s0 + s1 != n:
        raise ValueError(f"invalid sizes ({s0},{s1}) for n={n}")
    set0, set1 = set(u0), set(u1)
    for v in set0 | set1:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    if set0 & set1:
        raise ValueError(f"vertices assigned to both sides: {sorted(set0 & set1)}")
    if len(set0) > s0 or len(set1) > s1:
        raise ValueError("assignment exceeds a target size")

    a0 = sum(1 << v for v in set0)
    free_mask = ((1 << n) - 1) & ~(a0 | sum(1 << v for v in set1))
    free_list = [v for v in range(n) if (free_mask >> v) & 1]
    d0 = [0] * n
    d1 = [0] * n
    fixed_cut = 0
    free_edges = 0
    for u, v, w in graph.edges():
        su = 0 if u in set0 else 1 if u in set1 else None
        sv = 0 if v in set0 else 1 if v in set1 else None
        if su is None and sv is None:
            free_edges += 1
        elif su is None:
            (d0 if sv == 0 else d1)[u] += w
        elif sv is None:
            (d0 if su == 0 else d1)[v] += w
        elif su != sv:
            fixed_cut += w
    basic = sum(min(d0[v], d1[v]) for v in free_list)
    return Subproblem(graph, a0, free_mask, free_list, s0 - len(set0),
                      s1 - len(set1), d0, d1, fixed_cut, basic, free_edges)


def oracle_of(sp: Subproblem, s0: int, s1: int) -> Subproblem:
    """The from-scratch state of sp's partial assignment, sides s0 | s1."""
    n = sp.graph.n
    return recompute_from_scratch(
        sp.graph,
        [v for v in range(n) if (sp.a0 >> v) & 1],
        [v for v in range(n) if (side1_mask(sp) >> v) & 1],
        s0,
        s1,
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


# The free-free bound terms as they were when each term found its own free
# degrees and the component term was a BFS, kept verbatim but for the
# names, so that the rewrite can be checked to return exactly the same
# values and combined bound.

def reference_high_degree_bound(sp: Subproblem) -> int:
    """High-degree contribution in half-units (twice the weight bound).

    A free v of free degree d >= f_big keeps at most f_big - 1 free
    neighbours on the big side, so placed there it cuts at least its
    d - f_big + 1 cheapest free edges; their weights are summed from the
    front of its weight-sorted adjacency.  d is read as
    (nbr_mask[v] & free_mask).bit_count().  O(f) when no free degree
    reaches f_big; lower_bound skips the call then.
    """
    f_big = sp.f0 if sp.f0 >= sp.f1 else sp.f1
    g = sp.graph
    adj_nbr, adj_w, nbr_mask = g.adj_nbr, g.adj_w, g.nbr_mask
    free_mask = sp.free_mask
    total = 0
    for v in sp.free_list:
        k = (nbr_mask[v] & free_mask).bit_count() - f_big + 1
        if k <= 0:
            continue
        for u, w in zip(adj_nbr[v], adj_w[v]):
            if (free_mask >> u) & 1:
                total += w
                k -= 1
                if not k:
                    break
    return total


def reference_high_degree_rebalance(sp: Subproblem) -> int:
    """Rebalancing of the high-degree contribution, in half-units.

    Nonzero only when the number of high-degree free vertices exceeds the
    larger side's remaining count: the surplus must go to the small side,
    where v cuts its d - f_small + 1 cheapest free edges.  Its penalty is
    what that costs above the big side's d - f_big + 1, the next
    f_big - f_small free entries of its adjacency, and the cheapest
    penalties are counted.  (f_small >= 1 whenever some v qualifies: with
    f_small = 0, f_big is the free count, which no free degree reaches.)
    """
    f_big, f_small = (sp.f0, sp.f1) if sp.f0 >= sp.f1 else (sp.f1, sp.f0)
    g = sp.graph
    adj_nbr, adj_w, nbr_mask = g.adj_nbr, g.adj_w, g.nbr_mask
    free_mask = sp.free_mask
    high = [v for v in sp.free_list
            if (nbr_mask[v] & free_mask).bit_count() >= f_big]
    surplus = len(high) - f_big
    extra = f_big - f_small
    if surplus <= 0 or extra <= 0:
        return 0
    penalties = []
    for v in high:
        skip = (nbr_mask[v] & free_mask).bit_count() - f_big + 1
        last = skip + extra
        seen = penalty = 0
        for u, w in zip(adj_nbr[v], adj_w[v]):
            if (free_mask >> u) & 1:
                seen += 1
                if seen > skip:
                    penalty += w
                    if seen == last:
                        break
        penalties.append(penalty)
    penalties.sort()
    return sum(penalties[:surplus])


def reference_component_bound(sp: Subproblem) -> int:
    """Lightest edge of a free component larger than the bigger side.

    A BFS over the free-induced subgraph; sp is not modified.  Skipped (0)
    when a side is full, since then no free component can be larger than
    f_big.  The result is at most the graph's heaviest edge weight.
    """
    f_big = sp.f0 if sp.f0 >= sp.f1 else sp.f1
    if len(sp.free_list) <= f_big:
        return 0
    g = sp.graph
    free_mask = sp.free_mask
    visited = 0
    result = 0
    for start in sp.free_list:
        if (visited >> start) & 1:
            continue
        visited |= 1 << start
        queue = [start]
        size = 0
        min_w = -1
        i = 0
        while i < len(queue):
            x = queue[i]
            i += 1
            size += 1
            a_n = g.adj_nbr[x]
            a_w = g.adj_w[x]
            for j in range(len(a_n)):
                u = a_n[j]
                if (free_mask >> u) & 1:
                    w = a_w[j]
                    if min_w < 0 or w < min_w:
                        min_w = w
                    if not (visited >> u) & 1:
                        visited |= 1 << u
                        queue.append(u)
        if size > f_big:
            result = min_w if min_w > 0 else 0
    return result


def reference_lower_bound(
    sp: Subproblem, cfg: BoundConfig, cutoff: float | None = None
) -> int:
    """Combined lower bound on any completion of the subproblem.

    Terms are added cheapest first: fixed cut and basic, rebalancing,
    high-degree (skipped when no free vertex can make it nonzero),
    component.  Without a cutoff the result is the full bound.  With one,
    the partial sum is returned as soon as it reaches the cutoff, as a
    certificate that the full bound is >= cutoff.  Below the cutoff the
    result is sound and at most the full bound: the component BFS, a term
    never above the heaviest edge weight, runs only if that weight could
    lift the sum to the cutoff.
    """
    full = cutoff is None
    if full:
        cutoff = math.inf
    lb = sp.fixed_cut + basic_bound(sp)
    if cfg.enable_rebalance and lb < cutoff:
        lb += rebalance_value(sp)
    if lb >= cutoff:
        return lb
    extra = 0
    if cfg.enable_high_degree and reference_has_high_degree_vertex(sp):
        half = reference_high_degree_bound(sp)
        if lb + (half + 1) // 2 < cutoff:
            half += reference_high_degree_rebalance(sp)
        extra = (half + 1) // 2
        if lb + extra >= cutoff:
            return lb + extra
    if cfg.enable_component and (full or lb + sp.graph.max_weight >= cutoff):
        c = reference_component_bound(sp)
        if c > extra:
            extra = c
    return lb + extra


def reference_has_high_degree_vertex(sp: Subproblem) -> bool:
    """Whether some free vertex has free degree >= f_big, without which both
    high-degree terms are 0; one O(f) pass, stopping at the first."""
    f_big = sp.f0 if sp.f0 >= sp.f1 else sp.f1
    nbr_mask, free_mask = sp.graph.nbr_mask, sp.free_mask
    for v in sp.free_list:
        if (nbr_mask[v] & free_mask).bit_count() >= f_big:
            return True
    return False


def solve_parallel_checked(*args, **kwargs):
    """solve_parallel, then check, whether it returned or raised, that no
    worker process outlived it."""
    try:
        return solve_parallel(*args, **kwargs)
    finally:
        assert multiprocessing.active_children() == []

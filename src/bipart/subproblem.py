"""Partial-assignment state for the branch-and-bound search.

A Subproblem is a pair of disjoint vertex sets (U0, U1) plus all the
incrementally maintained quantities the lower bounds read:

* D arrays: d0[v]/d1[v] = total edge weight from free v into U0/U1.
* fixed_cut: crossing weight between U0 and U1.
* basic and sum_d0: the sums over free v of min(d0[v], d1[v]) and of
  d0[v], which the basic and rebalancing bound terms read.
* free_degree[v]: degree of free v in the subgraph induced by free vertices.

The high-degree terms keep no state here.  The paper maintains per-vertex
seen counters for them; measured here, that upkeep cost more than the term
saved, so the terms now sum the cheapest free edges of each high-degree
vertex from the weight-sorted adjacency when they are read (figures in the
bounds module docstring).

Children are fresh O(n) copies of the parent; a subproblem is owned by one
worker at a time and never mutated concurrently.
"""

from __future__ import annotations

from .graph import WeightedGraph


class Subproblem:
    __slots__ = (
        "graph", "s0", "s1", "a0", "a1", "free_mask", "free_list",
        "d0", "d1", "fixed_cut", "basic", "sum_d0", "f0", "f1",
        "free_degree", "zero_free_degree_count",
        "approx_max_free_degree", "approx_max_component",
        "depth", "lb", "ub_est",
    )

    # Instances are made in two places: recompute_from_scratch, which
    # root_subproblem calls, and assign, for every child.  Direct
    # construction is not part of the API.

    # -- basic queries ---------------------------------------------------

    @property
    def f(self) -> int:
        return len(self.free_list)

    def side_of(self, v: int) -> int | None:
        if (self.a0 >> v) & 1:
            return 0
        if (self.a1 >> v) & 1:
            return 1
        return None

    def is_free(self, v: int) -> bool:
        return (self.free_mask >> v) & 1 == 1

    # -- branching -------------------------------------------------------

    def assign(self, v: int, side: int) -> "Subproblem":
        """Child subproblem with free vertex v fixed to the given side.

        The parent is not modified.  The free-set state (D arrays, fixed
        cut, basic and sum_d0, free degrees, free list, masks) is repaired
        here in O(deg(v)) plus the O(n) copies.
        """
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side}")
        if not self.is_free(v):
            raise ValueError(f"vertex {v} is not free")
        f_side = self.f0 if side == 0 else self.f1
        if f_side == 0:
            raise ValueError(f"side {side} is already full")

        g = self.graph
        child = Subproblem.__new__(Subproblem)
        child.lb = None
        child.ub_est = None
        child.graph = g
        child.s0, child.s1 = self.s0, self.s1
        child.a0, child.a1 = self.a0, self.a1
        child.free_list = self.free_list.copy()
        d0 = child.d0 = self.d0.copy()
        d1 = child.d1 = self.d1.copy()
        child.approx_max_free_degree = self.approx_max_free_degree
        child.approx_max_component = self.approx_max_component
        child.depth = self.depth + 1

        d_own = d1 if side == 1 else d0
        d_other = d0 if side == 1 else d1
        v_own, v_other = d_own[v], d_other[v]
        child.fixed_cut = self.fixed_cut + v_other
        # v leaves both sums; its free edges, of weight total - d0 - d1,
        # all land on d_own of its free neighbours.
        basic = self.basic - (v_own if v_own < v_other else v_other)
        sum_d0 = self.sum_d0 - d0[v]
        if side == 0:
            sum_d0 += g.total_weight[v] - v_own - v_other

        # D arrays, basic, free degrees, zero-degree count.
        free_mask = self.free_mask
        deg = child.free_degree = self.free_degree.copy()
        zero_cnt = self.zero_free_degree_count
        if deg[v] == 0:
            zero_cnt -= 1
        for u, w in zip(g.adj_nbr[v], g.adj_w[v]):
            if (free_mask >> u) & 1:
                own = d_own[u]
                d_own[u] = own + w
                other = d_other[u]
                if own < other:
                    basic += w if own + w <= other else other - own
                deg[u] -= 1
                if deg[u] == 0:
                    zero_cnt += 1
        child.basic = basic
        child.sum_d0 = sum_d0
        child.zero_free_degree_count = zero_cnt

        # Finally move v out of the free set.
        bit = 1 << v
        child.free_mask = free_mask & ~bit
        child.f0, child.f1 = self.f0, self.f1
        if side == 0:
            child.a0 |= bit
            child.f0 -= 1
        else:
            child.a1 |= bit
            child.f1 -= 1
        child.free_list.remove(v)
        d0[v] = 0
        d1[v] = 0
        deg[v] = 0
        return child


def root_subproblem(
    graph: WeightedGraph, s0: int, s1: int, *, maintain_hd: bool = True
) -> Subproblem:
    """Root of the search tree for target sizes (s0, s1).

    When s0 == s1 the two sides are interchangeable, so vertex 0 is
    pre-assigned to side 0 to avoid enumerating mirrored solutions.  Built
    by recompute_from_scratch, so its estimates are exact.  maintain_hd is
    ignored: no state depends on it any more, and the benchmark still
    passes it.
    """
    sp = recompute_from_scratch(graph, [0] if s0 == s1 else [], [], s0, s1)
    sp.depth = 0
    return sp


def recompute_from_scratch(
    graph: WeightedGraph,
    u0,
    u1,
    s0: int,
    s1: int,
) -> Subproblem:
    """Build the Subproblem for assignment (u0, u1) directly from definitions.

    u0 and u1 are iterables of vertex ids.  This builds the root, and it is
    the oracle for the incremental maintenance in assign(): every derived
    quantity is computed by a fresh O(n + m) pass, and the estimate fields
    are set to their exact current values.
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

    sp = Subproblem.__new__(Subproblem)
    sp.lb = None
    sp.ub_est = None
    sp.graph = graph
    sp.s0, sp.s1 = s0, s1
    sp.a0 = sum(1 << v for v in set0)
    sp.a1 = sum(1 << v for v in set1)
    sp.free_mask = ((1 << n) - 1) & ~(sp.a0 | sp.a1)
    sp.free_list = [v for v in range(n) if (sp.free_mask >> v) & 1]
    sp.f0 = s0 - len(set0)
    sp.f1 = s1 - len(set1)
    sp.depth = len(set0) + len(set1)

    d0 = [0] * n
    d1 = [0] * n
    fixed_cut = 0
    free_degree = [0] * n
    for u, v, w in graph.edges():
        su = 0 if u in set0 else 1 if u in set1 else None
        sv = 0 if v in set0 else 1 if v in set1 else None
        if su is None and sv is None:
            free_degree[u] += 1
            free_degree[v] += 1
        elif su is None:
            (d0 if sv == 0 else d1)[u] += w
        elif sv is None:
            (d0 if su == 0 else d1)[v] += w
        elif su != sv:
            fixed_cut += w
    sp.d0, sp.d1 = d0, d1
    sp.fixed_cut = fixed_cut
    sp.basic = sum(min(d0[v], d1[v]) for v in sp.free_list)
    sp.sum_d0 = sum(d0[v] for v in sp.free_list)
    sp.free_degree = free_degree
    sp.zero_free_degree_count = sum(
        1 for v in sp.free_list if free_degree[v] == 0
    )

    sp.approx_max_free_degree = max(
        (free_degree[v] for v in sp.free_list), default=0
    )
    sp.approx_max_component = _largest_free_component(sp)
    return sp


def _largest_free_component(sp: Subproblem) -> int:
    g = sp.graph
    seen = 0
    best = 0
    for start in sp.free_list:
        if (seen >> start) & 1:
            continue
        seen |= 1 << start
        stack = [start]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for u in g.adj_nbr[x]:
                if (sp.free_mask >> u) & 1 and not (seen >> u) & 1:
                    seen |= 1 << u
                    stack.append(u)
        if size > best:
            best = size
    return best

"""Partial-assignment state for the branch-and-bound search.

A Subproblem is a pair of disjoint vertex sets (U0, U1) plus all the
incrementally maintained quantities the lower bounds read:

* D arrays: d0[v]/d1[v] = total edge weight from free v into U0/U1.
* fixed_cut: crossing weight between U0 and U1.
* basic and sum_d0: the sums over free v of min(d0[v], d1[v]) and of
  d0[v], which the basic and rebalancing bound terms read.
* free_degree[v]: degree of free v in the subgraph induced by free vertices.
* delta_lo and delta_hi: the f0-th and (f0+1)-th smallest delta = d1 - d0
  over the free vertices, recorded by the rebalancing sort when the lower
  bound is computed; the search reads them to find forced vertices.

The high-degree terms keep no state here.  The paper maintains per-vertex
seen counters for them; measured here, that upkeep cost more than the term
saved, so the terms now sum the cheapest free edges of each high-degree
vertex from the weight-sorted adjacency when they are read (figures in the
bounds module docstring).

Subproblem.assign is the branching kernel: one call builds both children
of a branching in one loop over v's adjacency, and skips a child whose
side is full or whose fixed cut + basic already reaches the caller's
cutoff.  The two siblings share one copy of the free set (free_list,
free_mask, free_degree and the zero-degree count).  Each child gets a
fresh copy of its own side's D array, which holds v's free edges, and
shares the parent's other-side D array when v's entry there is already 0.
Subproblem.fix builds the state with a whole batch of forced vertices
fixed, in one copy of each array, keeping the sums up to date after each
vertex; given a cutoff, it stops and returns None as soon as fixed cut +
basic reaches it, which then holds for the whole batch.  Sharing is safe
because no array of a subproblem is written after assign, fix or
recompute_from_scratch builds it; only lb, delta_lo and delta_hi are set
later, by the bound, on the subproblem's own slots.
A subproblem is owned by one worker at a time: the process pool hands open
subproblems to its forked workers as they are, each in its own copy of the
memory, with their stored bounds.
"""

from __future__ import annotations

from .graph import WeightedGraph


class Subproblem:
    __slots__ = (
        "graph", "s0", "s1", "a0", "a1", "free_mask", "free_list",
        "d0", "d1", "fixed_cut", "basic", "sum_d0", "f0", "f1",
        "free_degree", "zero_free_degree_count", "depth", "lb", "delta_lo",
        "delta_hi",
    )

    # Instances are made in three places: recompute_from_scratch, which
    # root_subproblem and the tests' oracle call, assign, for the children
    # of a branching, and fix, for a batch of forced vertices.
    # Direct construction is not part of the API.

    # -- basic queries ---------------------------------------------------

    @property
    def f(self) -> int:
        return len(self.free_list)

    @property
    def approx_max_component(self) -> int:
        """An upper bound on the size of any free component: the free count.

        Only perfbench's per-layer trace reads it, to count the component
        BFS runs; it goes with the next change to the benchmark.
        """
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

    def assign(
        self, v: int, cutoff: float | None = None
    ) -> tuple["Subproblem | None", "Subproblem | None"]:
        """The two children of branching on free vertex v: (child0, child1).

        child_s has v fixed to side s.  It is None, and never built, when
        side s is full or when its fixed cut + basic reaches `cutoff`.  One
        loop over v's adjacency does all the per-neighbour work: it tests
        the free bit, adds the neighbour's basic increment to the child it
        belongs to, writes the edge weight into both children's own-side D
        copies, and lowers the free degree, counting the neighbours it
        leaves at zero.  Both own-side copies are made before the cutoff
        test, since a copy costs far less than a loop.  The children share
        one copy of the free set (free list, mask, free degrees,
        zero-degree count), so a branching costs O(deg v) plus at most six
        O(n) copies.  No array of a subproblem is written after it is
        built, which makes the sharing safe; the parent is not modified.
        """
        if not self.is_free(v):
            raise ValueError(f"vertex {v} is not free")
        g = self.graph
        free_mask = self.free_mask
        d0, d1, deg = self.d0, self.d1, self.free_degree
        dv0, dv1 = d0[v], d1[v]
        # v leaves the basic sum.  Each free neighbour u gains w on the
        # child's own side, which raises min(d0[u], d1[u]) in at most one
        # of the two children.
        basic0 = basic1 = self.basic - (dv0 if dv0 < dv1 else dv1)
        zero_cnt = self.zero_free_degree_count
        own0, own1 = d0.copy(), d1.copy()
        own0[v] = own1[v] = 0
        if deg[v]:
            deg = deg.copy()
            deg[v] = 0
            for u, w in zip(g.adj_nbr[v], g.adj_w[v]):
                if (free_mask >> u) & 1:
                    x, y = d0[u], d1[u]
                    if x < y:
                        basic0 += w if x + w <= y else y - x
                    elif y < x:
                        basic1 += w if y + w <= x else x - y
                    own0[u] = x + w
                    own1[u] = y + w
                    k = deg[u] - 1
                    deg[u] = k
                    if not k:
                        zero_cnt += 1
        else:
            zero_cnt -= 1  # v itself had free degree 0
        cut0 = self.fixed_cut + dv1
        cut1 = self.fixed_cut + dv0
        keep0 = self.f0 > 0 and (cutoff is None or cut0 + basic0 < cutoff)
        keep1 = self.f1 > 0 and (cutoff is None or cut1 + basic1 < cutoff)
        if not (keep0 or keep1):
            return None, None

        # The free set without v, shared by both children.
        bit = 1 << v
        free_mask &= ~bit
        free_list = self.free_list.copy()
        free_list.remove(v)

        # Each child takes the D array of its own side, where v's free
        # edges landed, and clears v's entry in the other one, which it
        # shares with the parent when that entry is already 0.
        child0 = child1 = None
        depth = self.depth + 1
        if keep0:
            child0 = c = Subproblem.__new__(Subproblem)
            c.graph = g
            c.s0, c.s1 = self.s0, self.s1
            c.a0, c.a1 = self.a0 | bit, self.a1
            c.f0, c.f1 = self.f0 - 1, self.f1
            c.free_mask = free_mask
            c.free_list = free_list
            c.free_degree = deg
            c.zero_free_degree_count = zero_cnt
            c.depth = depth
            c.lb = c.delta_lo = c.delta_hi = None
            c.fixed_cut = cut0
            c.basic = basic0
            # v's free edges all land on d0 of its free neighbours.
            c.sum_d0 = self.sum_d0 - dv0 + g.total_weight[v] - dv0 - dv1
            c.d0 = own0
            if dv1:
                c.d1 = other = d1.copy()
                other[v] = 0
            else:
                c.d1 = d1
        if keep1:
            child1 = c = Subproblem.__new__(Subproblem)
            c.graph = g
            c.s0, c.s1 = self.s0, self.s1
            c.a0, c.a1 = self.a0, self.a1 | bit
            c.f0, c.f1 = self.f0, self.f1 - 1
            c.free_mask = free_mask
            c.free_list = free_list
            c.free_degree = deg
            c.zero_free_degree_count = zero_cnt
            c.depth = depth
            c.lb = c.delta_lo = c.delta_hi = None
            c.fixed_cut = cut1
            c.basic = basic1
            c.sum_d0 = self.sum_d0 - dv0
            c.d1 = own1
            if dv0:
                c.d0 = other = d0.copy()
                other[v] = 0
            else:
                c.d0 = d0
        return child0, child1

    def fix(self, pairs, cutoff: float | None = None) -> "Subproblem | None":
        """The subproblem with every (v, side) of `pairs` fixed at once, or
        None once its fixed cut + basic reaches `cutoff`.

        One copy of d0, d1 and the free degrees, then one pass over the
        free neighbours of each v in batch order, which moves v's free
        edges into its side's D entries and lowers free degrees, keeping
        fixed_cut, basic, sum_d0 and the zero-degree count up to date after
        each fixed vertex, as assign does.  An edge between two batch
        vertices first lands on the later one's D entry, and counts toward
        the fixed cut when that one is fixed.  O(n + the batch's degrees).

        During a batch fixed cut + basic never falls: fixing v adds v's
        other-side weight to the cut and takes at most that much out of
        basic, and a neighbour's min(d0, d1) can only grow.  So with a
        `cutoff`, fix returns None as soon as a fixed vertex lifts the sum
        to it, and the pairs after that vertex are not examined.  Each v
        that is examined must be free, else ValueError; a batch that runs
        to its end must not give a side more vertices than it has room
        for, else ValueError.  Without a cutoff every pair is examined.
        The parent is not modified.  A fix is not a branching, so depth
        stays the parent's.
        """
        g = self.graph
        adj_nbr, adj_w = g.adj_nbr, g.adj_w
        d0, d1, deg = self.d0.copy(), self.d1.copy(), self.free_degree.copy()
        free_mask, a0, a1 = self.free_mask, self.a0, self.a1
        fixed_cut, basic = self.fixed_cut, self.basic
        sum_d0, zero_cnt = self.sum_d0, self.zero_free_degree_count
        for v, side in pairs:
            bit = 1 << v
            if not free_mask & bit:
                raise ValueError(f"vertex {v} is not free")
            free_mask ^= bit
            x, y = d0[v], d1[v]
            d0[v] = d1[v] = 0
            basic -= x if x < y else y
            sum_d0 -= x
            if side:
                a1 |= bit
                fixed_cut += x
            else:
                a0 |= bit
                fixed_cut += y
            if not deg[v]:
                zero_cnt -= 1
            else:
                deg[v] = 0
                for u, w in zip(adj_nbr[v], adj_w[v]):
                    if (free_mask >> u) & 1:
                        x, y = d0[u], d1[u]
                        if side:
                            d1[u] = y + w
                            if y < x:
                                basic += w if y + w <= x else x - y
                        else:
                            d0[u] = x + w
                            sum_d0 += w
                            if x < y:
                                basic += w if x + w <= y else y - x
                        k = deg[u] - 1
                        deg[u] = k
                        if not k:
                            zero_cnt += 1
            if cutoff is not None and fixed_cut + basic >= cutoff:
                return None
        c = Subproblem.__new__(Subproblem)
        c.graph = g
        c.s0, c.s1 = self.s0, self.s1
        c.a0, c.a1 = a0, a1
        c.f0 = self.f0 - (a0 ^ self.a0).bit_count()
        c.f1 = self.f1 - (a1 ^ self.a1).bit_count()
        if c.f0 < 0 or c.f1 < 0:
            raise ValueError("the batch overfills a side")
        c.free_mask = free_mask
        c.free_list = [u for u in self.free_list if (free_mask >> u) & 1]
        c.d0, c.d1 = d0, d1
        c.fixed_cut, c.basic, c.sum_d0 = fixed_cut, basic, sum_d0
        c.free_degree = deg
        c.zero_free_degree_count = zero_cnt
        c.depth = self.depth
        c.lb = c.delta_lo = c.delta_hi = None
        return c


def root_subproblem(
    graph: WeightedGraph, s0: int, s1: int, *, maintain_hd: bool = True
) -> Subproblem:
    """Root of the search tree for target sizes (s0, s1).

    When s0 == s1 the two sides are interchangeable, so one vertex is
    pre-assigned to side 0 to avoid enumerating mirrored solutions: the
    heaviest one, ties going to the smallest id, which is the vertex
    solver.branch_vertex would branch on first in the empty state.
    maintain_hd is ignored: no state depends on it any more, and the
    benchmark still passes it.
    """
    tw = graph.total_weight
    first = [tw.index(max(tw))] if s0 == s1 else []
    sp = recompute_from_scratch(graph, first, [], s0, s1)
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
    quantity is computed by a fresh O(n + m) pass.
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
    sp.lb = sp.delta_lo = sp.delta_hi = None
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
    return sp

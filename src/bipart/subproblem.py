"""Partial-assignment state for the branch-and-bound search.

A Subproblem is the set U0 of vertices fixed to side 0 (a0) and the free
set (free_mask, free_list), U1 being the rest, plus all the incrementally
maintained quantities the lower bounds read:

* D arrays: d0[v]/d1[v] = total edge weight from free v into U0/U1.
  They are defined for free v only: a fixed vertex's entries hold
  whatever they held when it was fixed, and nothing reads them.
* fixed_cut: crossing weight between U0 and U1.
* basic: the sum over free v of min(d0[v], d1[v]), which the basic bound
  term reads and the rebalancing term corrects.
* free_edges: the number of edges with both ends free.  Free degrees are
  not kept; a bound reads them from graph.nbr_mask and free_mask.
* delta_lo and delta_hi: the bound's split of the free deltas d1 - d0,
  which the search reads to find forced vertices.  Both are 0, basic's
  split at the sign change, until the rebalancing sort records the f0-th
  and (f0+1)-th smallest delta.

The high-degree terms keep no state here.  The paper maintains per-vertex
seen counters for them; measured here, that upkeep cost more than the term
saved, so the terms now sum the cheapest free edges of each high-degree
vertex from the weight-sorted adjacency when they are read (figures in the
bounds module docstring).

Subproblem.assign is the branching kernel: one call builds both children
of a branching in one loop over v's adjacency, and skips a child whose
side is full or whose fixed cut + basic already reaches the caller's
cutoff.  The two siblings share one copy of the free set (free_list and
free_mask) and the free-edge count.  Each child gets a fresh copy of its
own side's D array, which holds v's free edges, and shares the parent's
other-side D array, whose free entries v's fixing leaves as they are.
Subproblem.fix builds the state with a whole batch of forced vertices
fixed, in one copy of each array, keeping the sums up to date after each
vertex; it stops and returns None as soon as fixed cut + basic reaches
the caller's cutoff, which then holds for the whole batch.  Sharing is safe
because no array of a subproblem is written after the constructor stores
it; only lb, delta_lo and delta_hi are set later, by the bound, on the
subproblem's own slots.
A subproblem is owned by one worker at a time: the process pool hands open
subproblems to its forked workers as they are, each in its own copy of the
memory, with their stored bounds.
"""

from __future__ import annotations

import math

from .graph import WeightedGraph, side_sizes


class Subproblem:
    __slots__ = (
        "graph", "a0", "free_mask", "free_list",
        "d0", "d1", "fixed_cut", "basic", "f0", "f1",
        "free_edges", "lb", "delta_lo", "delta_hi",
    )

    # Every state is built by this constructor, in three places:
    # root_subproblem, for the all-free state, assign, for the children of
    # a branching, and fix, for a batch of forced vertices.  The arguments
    # are positional, as a keyword call costs several times more per state.
    # Direct construction is not part of the API.

    def __init__(self, graph, a0, free_mask, free_list, f0, f1, d0, d1,
                 fixed_cut, basic, free_edges):
        self.graph = graph
        self.a0 = a0
        self.free_mask = free_mask
        self.free_list = free_list
        self.f0 = f0
        self.f1 = f1
        self.d0 = d0
        self.d1 = d1
        self.fixed_cut = fixed_cut
        self.basic = basic
        self.free_edges = free_edges
        self.lb = None
        self.delta_lo = self.delta_hi = 0

    # -- basic queries ---------------------------------------------------

    @property
    def approx_max_component(self) -> int:
        """An upper bound on the size of any free component: the free count.

        Only perfbench's trace reads it, to count the component searches
        (``bfs_runs``); it goes with the next change to the benchmark.
        """
        return len(self.free_list)

    @property
    def zero_free_degree_count(self) -> int:
        """Free vertices with no free neighbour, counted when read.  Only
        perfbench's trace reads it; it goes with the next benchmark change."""
        nbr_mask, free_mask = self.graph.nbr_mask, self.free_mask
        return sum(1 for v in self.free_list if not nbr_mask[v] & free_mask)

    def is_free(self, v: int) -> bool:
        return (self.free_mask >> v) & 1 == 1

    # -- branching -------------------------------------------------------

    def assign(
        self, v: int, cutoff: float = math.inf
    ) -> tuple["Subproblem | None", "Subproblem | None"]:
        """The two children of branching on free vertex v: (child0, child1).

        child_s has v fixed to side s.  It is None, and never built, when
        side s is full or when its fixed cut + basic reaches `cutoff`, a
        number (the default, infinity, keeps every child with room).  One
        loop over v's adjacency does all the per-neighbour work: it tests
        the free bit, adds the neighbour's basic increment to the child it
        belongs to, and writes the edge weight into both children's
        own-side D copies; it is skipped when v has no free neighbour.  Both
        own-side copies are made before the cutoff test, since a copy costs
        far less than a loop.  Each child shares the parent's other-side D
        array, and the children share one copy of the free set (free list
        and mask) and the free-edge count, which falls by v's free degree.
        So a branching costs O(deg v) plus three O(n) copies, the free
        list's skipped when neither child is built.  No array of a
        subproblem is written after it is built, which makes the sharing
        safe; the parent is not modified.
        """
        if not self.is_free(v):
            raise ValueError(f"vertex {v} is not free")
        g = self.graph
        free_mask = self.free_mask
        d0, d1 = self.d0, self.d1
        dv0, dv1 = d0[v], d1[v]
        # v leaves the basic sum.  Each free neighbour u gains w on the
        # child's own side, which raises min(d0[u], d1[u]) in at most one
        # of the two children.
        basic0 = basic1 = self.basic - (dv0 if dv0 < dv1 else dv1)
        own0, own1 = d0.copy(), d1.copy()
        free_nbrs = g.nbr_mask[v] & free_mask
        if free_nbrs:
            for u, w in zip(g.adj_nbr[v], g.adj_w[v]):
                if (free_mask >> u) & 1:
                    x, y = d0[u], d1[u]
                    if x < y:
                        basic0 += w if x + w <= y else y - x
                    elif y < x:
                        basic1 += w if y + w <= x else x - y
                    own0[u] = x + w
                    own1[u] = y + w
        cut0 = self.fixed_cut + dv1
        cut1 = self.fixed_cut + dv0
        keep0 = self.f0 > 0 and cut0 + basic0 < cutoff
        keep1 = self.f1 > 0 and cut1 + basic1 < cutoff
        if not (keep0 or keep1):
            return None, None

        # The free set without v, shared by both children.
        bit = 1 << v
        free_mask &= ~bit
        free_list = self.free_list.copy()
        free_list.remove(v)
        free_edges = self.free_edges - free_nbrs.bit_count()

        # Each child takes the D array of its own side, where v's free
        # edges landed, and shares the parent's other one, which v's edges
        # leave unchanged on every free vertex.
        child0 = child1 = None
        if keep0:
            child0 = Subproblem(g, self.a0 | bit, free_mask, free_list,
                                self.f0 - 1, self.f1, own0, d1, cut0,
                                basic0, free_edges)
        if keep1:
            child1 = Subproblem(g, self.a0, free_mask, free_list, self.f0,
                                self.f1 - 1, d0, own1, cut1, basic1,
                                free_edges)
        return child0, child1

    def fix(self, pairs, cutoff: float = math.inf) -> "Subproblem | None":
        """The subproblem with every (v, side) of `pairs` fixed at once, or
        None once its fixed cut + basic reaches `cutoff`.

        One copy of d0 and d1, then one pass over the free neighbours of
        each v in batch order, which moves v's free edges into its side's D
        entries, keeping fixed_cut, basic and free_edges up to date
        after each fixed vertex, as assign does.  An edge between two batch
        vertices first lands on the later one's D entry, and counts toward
        the fixed cut when that one is fixed.  O(n + the batch's degrees).

        During a batch fixed cut + basic never falls: fixing v adds v's
        other-side weight to the cut and takes at most that much out of
        basic, and a neighbour's min(d0, d1) can only grow.  So fix
        returns None as soon as a fixed vertex lifts the sum to `cutoff`, a
        number, and the pairs after that vertex are not examined; with the
        default, infinity, every pair is.  Each v that is examined must be
        free, else ValueError; a batch that runs to its end must not give a
        side more vertices than it has room for, else ValueError.  The
        parent is not modified.
        """
        g = self.graph
        adj_nbr, adj_w, nbr_mask = g.adj_nbr, g.adj_w, g.nbr_mask
        d0, d1 = self.d0.copy(), self.d1.copy()
        free_mask, a0 = self.free_mask, self.a0
        fixed_cut, basic, free_edges = self.fixed_cut, self.basic, self.free_edges
        for v, side in pairs:
            bit = 1 << v
            if not free_mask & bit:
                raise ValueError(f"vertex {v} is not free")
            free_mask ^= bit
            free_nbrs = nbr_mask[v] & free_mask
            free_edges -= free_nbrs.bit_count()
            x, y = d0[v], d1[v]
            basic -= x if x < y else y
            if side:
                fixed_cut += x
            else:
                a0 |= bit
                fixed_cut += y
            if free_nbrs:
                for u, w in zip(adj_nbr[v], adj_w[v]):
                    if (free_mask >> u) & 1:
                        x, y = d0[u], d1[u]
                        if side:
                            d1[u] = y + w
                            if y < x:
                                basic += w if y + w <= x else x - y
                        else:
                            d0[u] = x + w
                            if x < y:
                                basic += w if x + w <= y else y - x
            if fixed_cut + basic >= cutoff:
                return None
        moved0 = (a0 ^ self.a0).bit_count()
        f0 = self.f0 - moved0
        f1 = self.f1 - (free_mask ^ self.free_mask).bit_count() + moved0
        if f0 < 0 or f1 < 0:
            raise ValueError("the batch overfills a side")
        free_list = [u for u in self.free_list if (free_mask >> u) & 1]
        return Subproblem(g, a0, free_mask, free_list, f0, f1, d0, d1,
                          fixed_cut, basic, free_edges)


def root_subproblem(
    graph: WeightedGraph, s0: int, s1: int, *, maintain_hd: bool = True
) -> Subproblem:
    """Root of the search tree for target sizes (s0, s1): every vertex free.

    s0 and s1 must be positive integers that sum to n, else ValueError.
    When s0 == s1 the two sides are interchangeable, so one vertex is
    pre-assigned to side 0 to avoid enumerating mirrored solutions: the
    heaviest one, ties going to the smallest id, which is the vertex
    solver.branch_vertex would branch on first in the empty state.
    maintain_hd is ignored: no state depends on it any more, and the
    benchmark still passes it.
    """
    n = graph.n
    s0, s1 = side_sizes(s0, s1, n)
    root = Subproblem(graph, 0, (1 << n) - 1, list(range(n)), s0, s1,
                      [0] * n, [0] * n, 0, 0, graph.m)
    if s0 == s1:
        tw = graph.total_weight
        root = root.fix([(tw.index(max(tw)), 0)])
    return root

"""Partial-assignment state for the branch-and-bound search.

A Subproblem is a pair of disjoint vertex sets (U0, U1) plus all the
incrementally maintained quantities the lower bounds read:

* D arrays: d0[v]/d1[v] = total edge weight from free v into U0/U1.
* fixed_cut: crossing weight between U0 and U1.
* basic and sum_d0: the sums over free v of min(d0[v], d1[v]) and of
  d0[v], which the basic and rebalancing bound terms read.
* free_degree[v]: degree of free v in the subgraph induced by free vertices.
* per-side scan cursors and seen counters over each free vertex's
  weight-sorted adjacency, so that seen_cnt_i[v] free edges (the cheapest
  ones) are accounted with total weight seen_w_i[v].

The seen-count target is max(0, free_degree(v) - max(f_i, 1) + 1), where
f_i is the number of vertices side i still needs.  Clamping f_i at 1 keeps
the counters well-defined when a side becomes full; they are never read in
that situation because no vertex can then be high-degree for the bound.

Children are fresh O(n) copies of the parent; a subproblem is owned by one
worker at a time and never mutated concurrently, except by its deferred
seen-counter upkeep, which runs when first needed (see Subproblem.assign and
finish_assign): a child discarded on its cheap bound terms, or whose
high-degree terms are 0, never pays for it.
"""

from __future__ import annotations

from .graph import WeightedGraph


class Subproblem:
    __slots__ = (
        "graph", "s0", "s1", "a0", "a1", "free_mask", "free_list",
        "d0", "d1", "fixed_cut", "basic", "sum_d0", "f0", "f1",
        "free_degree", "zero_free_degree_count",
        "_scan", "_seen_cnt", "_seen_w",
        "approx_max_free_degree", "approx_max_component",
        "maintain_hd", "deferred_upkeep", "depth", "lb", "ub_est",
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
        here in O(deg(v)) plus the O(n) copies.  The high-degree counter
        upkeep is deferred to finish_assign(), which the first read of a
        counter array runs if nothing called it before, so the child is
        fully maintained to every reader.  The search calls it only for
        children whose cheap bound terms stay below the incumbent and whose
        high-degree terms can be nonzero.
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
        child.maintain_hd = self.maintain_hd
        child.depth = self.depth + 1
        if self.maintain_hd:
            child.deferred_upkeep = (self, v, side)
        else:
            # Stale but never read while maintenance is off; sharing the
            # parent's arrays keeps assign cheap.
            child.deferred_upkeep = None
            child._scan = self._scan
            child._seen_cnt = self._seen_cnt
            child._seen_w = self._seen_w

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

    def finish_assign(self) -> None:
        """Run the high-degree counter upkeep that assign() deferred, if any.

        Pending ancestors are finished first, oldest first, in a loop: the
        chain can be as long as the search depth.  Each step reads only its
        parent's state, which nothing modifies once it has children, and
        publishes fresh arrays before clearing deferred_upkeep (read once
        per subproblem), so threads finishing one subproblem at once agree.
        """
        chain = []
        sp, step = self, self.deferred_upkeep
        while step is not None:
            chain.append((sp, step))
            sp, step = step[0], step[0].deferred_upkeep
        while chain:
            sp, step = chain.pop()
            sp._upkeep(*step)

    def _upkeep(self, parent: "Subproblem", v: int, side: int) -> None:
        """Seen counters after fixing v to `side`, from the parent's: one
        forward and at most one backward scan per touched adjacency."""
        g = self.graph
        scan = (parent._scan[0].copy(), parent._scan[1].copy())
        seen_cnt = (parent._seen_cnt[0].copy(), parent._seen_cnt[1].copy())
        seen_w = (parent._seen_w[0].copy(), parent._seen_w[1].copy())
        free_mask = parent.free_mask  # v's bit still set during the scans
        deg = parent.free_degree

        # Forward phase: side `side` now needs one vertex fewer, so every
        # free vertex may have to see one more free edge.  v is still
        # flagged free here so the scans below stay consistent with the
        # removal fix-up that follows.
        fs_new = self.f0 if side == 0 else self.f1
        if fs_new >= 1:
            scan_s = scan[side]
            cnt_s = seen_cnt[side]
            w_s = seen_w[side]
            limit = fs_new - 1
            for u in parent.free_list:
                if u == v or deg[u] <= limit:
                    continue
                a_n = g.adj_nbr[u]
                a_w = g.adj_w[u]
                t = scan_s[u]
                while not (free_mask >> a_n[t]) & 1:
                    t += 1
                w_s[u] += a_w[t]
                cnt_s[u] += 1
                scan_s[u] = t + 1

        # Removal phase: each free neighbor u loses the free edge (u, v);
        # on every side with a positive seen count, un-see one edge (either
        # (u, v) itself if already scanned, or the heaviest seen edge via a
        # backward scan).
        f_new = (self.f0, self.f1)
        nbrs = g.adj_nbr[v]
        wts = g.adj_w[v]
        crosses = g.adj_cross[v]
        for i in range(len(nbrs)):
            u = nbrs[i]
            if not (free_mask >> u) & 1:
                continue
            pos = crosses[i]
            w_uv = wts[i]
            du = deg[u]
            for t in (0, 1):
                ft = f_new[t]
                if ft < 1:
                    ft = 1
                if du - ft + 1 <= 0:
                    continue
                scan_t = scan[t]
                if pos < scan_t[u]:
                    seen_w[t][u] -= w_uv
                else:
                    a_n = g.adj_nbr[u]
                    a_w = g.adj_w[u]
                    q = scan_t[u] - 1
                    while not (free_mask >> a_n[q]) & 1:
                        q -= 1
                    seen_w[t][u] -= a_w[q]
                    scan_t[u] = q
                seen_cnt[t][u] -= 1

        for t in (0, 1):
            scan[t][v] = 0
            seen_cnt[t][v] = 0
            seen_w[t][v] = 0
        self._scan, self._seen_cnt, self._seen_w = scan, seen_cnt, seen_w
        self.deferred_upkeep = None

    # The counter arrays run the deferred upkeep on first read.

    @property
    def scan(self) -> tuple[list[int], list[int]]:
        if self.deferred_upkeep is not None:
            self.finish_assign()
        return self._scan

    @property
    def seen_cnt(self) -> tuple[list[int], list[int]]:
        if self.deferred_upkeep is not None:
            self.finish_assign()
        return self._seen_cnt

    @property
    def seen_w(self) -> tuple[list[int], list[int]]:
        if self.deferred_upkeep is not None:
            self.finish_assign()
        return self._seen_w


def root_subproblem(
    graph: WeightedGraph, s0: int, s1: int, maintain_hd: bool = True
) -> Subproblem:
    """Root of the search tree for target sizes (s0, s1).

    When s0 == s1 the two sides are interchangeable, so vertex 0 is
    pre-assigned to side 0 to avoid enumerating mirrored solutions.  Built
    by recompute_from_scratch, so its estimates are exact.
    """
    sp = recompute_from_scratch(
        graph, [0] if s0 == s1 else [], [], s0, s1, maintain_hd
    )
    sp.depth = 0
    return sp


def recompute_from_scratch(
    graph: WeightedGraph,
    u0,
    u1,
    s0: int,
    s1: int,
    maintain_hd: bool = True,
) -> Subproblem:
    """Build the Subproblem for assignment (u0, u1) directly from definitions.

    u0 and u1 are iterables of vertex ids.  This builds the root, and it is
    the oracle for the incremental maintenance in assign(): every derived
    quantity is computed by a fresh O(n + m) pass.  Scan cursors are set to
    the canonical minimal positions; the estimate fields are set to their
    exact current values.
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
    sp.maintain_hd = maintain_hd
    sp.deferred_upkeep = None
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

    scan0, scan1 = [0] * n, [0] * n
    cnt0, cnt1 = [0] * n, [0] * n
    w0, w1 = [0] * n, [0] * n
    free_mask = sp.free_mask
    for v in sp.free_list:
        a_n = graph.adj_nbr[v]
        a_w = graph.adj_w[v]
        for ft, scan, cnt, wsum in ((sp.f0, scan0, cnt0, w0),
                                    (sp.f1, scan1, cnt1, w1)):
            k = free_degree[v] - max(ft, 1) + 1
            if k <= 0:
                continue
            total = 0
            found = 0
            t = 0
            while found < k:
                if (free_mask >> a_n[t]) & 1:
                    total += a_w[t]
                    found += 1
                t += 1
            scan[v] = t
            cnt[v] = k
            wsum[v] = total
    sp._scan = (scan0, scan1)
    sp._seen_cnt = (cnt0, cnt1)
    sp._seen_w = (w0, w1)

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

"""Lower-bound contributions for a subproblem and their combination.

Four contributions on top of the fixed cut:

* basic: every free vertex pays at least min(d0, d1) no matter where it
  lands.  Subproblem.assign maintains the sum, so the term is a field read
  and the trivial bound is O(1).
* rebalancing: corrects the basic bound for the subset-size constraints by
  sorting the per-vertex preference gap delta = d1 - d0; tight for the
  fixed-free term.  Basic puts each free vertex on its cheaper side: side 0
  when delta < 0.  With k such vertices and f0 places left on side 0, the
  completion must move |k - f0| of them across the sign change of delta,
  the cheapest first, so one sort and one slice sum give the term:

      rebalancing = sum(deltas[k:f0])   if k < f0
                    -sum(deltas[f0:k])  otherwise.
* high-degree: a free vertex with more free neighbors than the larger side
  can absorb must cut some free edges; cheapest ones counted in half-units
  (each edge may be claimed by both endpoints), with its own rebalancing
  term.  Both are summed when read, from the front of each high-degree
  vertex's weight-sorted adjacency, with the free degrees taken in one
  pass.  The paper keeps per-vertex counters up to date instead.  Measured
  here, their upkeep cost more than the term saved: on 165 G(18, 0.5)
  instances (2-core host, DFS) highdegree took 1.6-2.3 times the time of
  rebalance with the counters, and takes 1.13-1.15 times now, with the
  same node counts.
* component: a connected free component larger than the bigger side must be
  split, paying at least its lightest internal edge; a bitmask search.

High-degree (+ its rebalancing) and component both bound the free-free
term, so the combined bound takes their maximum.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum

from .subproblem import Subproblem


class BoundConfig(Enum):
    """The bound terms the solver applies: four levels, each adding one
    term to the level before."""

    TRIVIAL, REBALANCE, HIGHDEGREE, COMPONENT = range(4)

    def __init__(self, level: int) -> None:
        # Plain attributes, as lower_bound reads them at every subproblem:
        # a read costs what a dataclass field's did, and a property or a
        # comparison of levels many times as much.
        self.enable_rebalance = level >= 1
        self.enable_high_degree = level >= 2
        self.enable_component = level >= 3


# The levels by the names the CLI, campaigns and perfbench use, in order.
CONFIG_PRESETS: dict[str, BoundConfig] = {c.name.lower(): c
                                          for c in BoundConfig}


def basic_bound(sp: Subproblem) -> int:
    """Sum over free v of min(d0[v], d1[v]); O(1), maintained by assign."""
    return sp.basic


def rebalance_value(sp: Subproblem) -> int:
    """Rebalancing contribution; O(f log f).

    With the free deltas sorted and k of them negative, basic puts the k
    on side 0, and the completion of least fixed-free weight puts the f0
    smallest there (rebalance_bound's order).  If k < f0, deltas k..f0-1
    move to side 0 and each pays its delta; else deltas f0..k-1 move to
    side 1 and each pays -delta.  basic + this value is tight for the
    fixed-free term.  When both sides have room, the f0-th and (f0+1)-th
    smallest deltas, the last on side 0 and the first on side 1, are
    recorded on sp as delta_lo and delta_hi, over basic's split at 0:
    moving a free v across it costs the difference between its delta and
    one of them, which the search reads to find forced vertices.
    """
    d0, d1 = sp.d0, sp.d1
    deltas = [d1[v] - d0[v] for v in sp.free_list]
    deltas.sort()
    f0 = sp.f0
    if 0 < f0 < len(deltas):
        sp.delta_lo = deltas[f0 - 1]
        sp.delta_hi = deltas[f0]
    k = bisect_left(deltas, 0)
    return sum(deltas[k:f0]) if k < f0 else -sum(deltas[f0:k])


def rebalance_bound(sp: Subproblem) -> list[int]:
    """The completion that realizes rebalance_value.

    Free vertices sorted by ascending delta; the first f0 belong to side 0
    in the implied completion, the rest to side 1.  Ties go to the smaller
    vertex id: free_list is ascending and the sort is stable.
    """
    d0, d1 = sp.d0, sp.d1
    return sorted(sp.free_list, key=lambda v: d1[v] - d0[v])


def high_degree_bound(sp: Subproblem, high: list[tuple[int, int]]) -> int:
    """High-degree contribution in half-units (twice the weight bound).

    A free v of free degree d >= f_big keeps at most f_big - 1 free
    neighbours on the big side, so placed there it cuts at least its
    d - f_big + 1 cheapest free edges; their weights are summed from the
    front of its weight-sorted adjacency.  `high` holds the (v, d) pairs
    of the free vertices with d >= f_big, from lower_bound's one pass.
    """
    f_big = sp.f0 if sp.f0 >= sp.f1 else sp.f1
    adj_nbr, adj_w, free_mask = sp.graph.adj_nbr, sp.graph.adj_w, sp.free_mask
    total = 0
    for v, d in high:
        k = d - f_big + 1  # 1 <= k <= d: the scan ends inside the adjacency
        nbrs, ws = adj_nbr[v], adj_w[v]
        i = 0
        while k:
            if (free_mask >> nbrs[i]) & 1:
                total += ws[i]
                k -= 1
            i += 1
    return total


def high_degree_rebalance(sp: Subproblem, high: list[tuple[int, int]]) -> int:
    """Rebalancing of the high-degree contribution, in half-units.

    Nonzero only when the number of high-degree free vertices (the pairs
    in `high`) exceeds the larger side's remaining count: the surplus must
    go to the small side, where v cuts its d - f_small + 1 cheapest free
    edges.  Its penalty is what that costs above the big side's
    d - f_big + 1, the next f_big - f_small free entries of its adjacency,
    and the cheapest penalties are counted; both zero cases are tested
    before any scan.  (f_small >= 1 whenever some v qualifies: with
    f_small = 0, f_big is the free count, which no free degree reaches.)
    """
    f_big, f_small = (sp.f0, sp.f1) if sp.f0 >= sp.f1 else (sp.f1, sp.f0)
    surplus = len(high) - f_big
    extra = f_big - f_small
    if surplus <= 0 or extra <= 0:
        return 0
    adj_nbr, adj_w, free_mask = sp.graph.adj_nbr, sp.graph.adj_w, sp.free_mask
    penalties = []
    for v, d in high:
        skip = d - f_big + 1
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


def component_bound(sp: Subproblem) -> int:
    """Lightest edge of a free component larger than the bigger side.

    As f0 + f1 <= 2 f_big, at most one free component has more than f_big
    vertices.  Each component is grown as a bitmask from the lowest unseen
    free vertex, OR-ing nbr_mask over its newest vertices, until at most
    f_big free vertices are unseen.  All free neighbours of a component
    vertex lie in it, so the first free entry of each vertex's
    weight-sorted adjacency is its lightest internal edge.  sp is not
    modified; 0 when a side is full; at most the heaviest edge weight.
    """
    f_big = sp.f0 if sp.f0 >= sp.f1 else sp.f1
    free_mask = unseen = sp.free_mask
    g = sp.graph
    nbr_mask = g.nbr_mask
    while unseen.bit_count() > f_big:
        comp = new = unseen & -unseen
        unseen ^= new
        while new:
            grown = 0
            while new:
                low = new & -new
                grown |= nbr_mask[low.bit_length() - 1]
                new ^= low
            new = grown & unseen
            unseen ^= new
            comp |= new
        if comp.bit_count() > f_big:
            adj_nbr, adj_w = g.adj_nbr, g.adj_w
            best = g.max_weight
            while comp:
                low = comp & -comp
                x = low.bit_length() - 1
                comp ^= low
                nbrs, ws = adj_nbr[x], adj_w[x]
                i = 0
                while ws[i] < best:  # x has a free neighbour: no overrun
                    if (free_mask >> nbrs[i]) & 1:
                        best = ws[i]
                        break
                    i += 1
            return best
    return 0


def lower_bound(
    sp: Subproblem, cfg: BoundConfig, cutoff: float = math.inf
) -> int:
    """Combined lower bound on any completion of the subproblem.

    Terms are added cheapest first: fixed cut and basic, rebalancing,
    high-degree (skipped when no free vertex can make it nonzero),
    component.  With the default cutoff, infinity, the result is the full
    bound.  With a number, the partial sum is returned as soon as it
    reaches the cutoff, as a certificate that the full bound is >= cutoff.
    Below the cutoff the result is sound and at most the full bound: the
    component search, a term never above the heaviest edge weight, runs
    only if that weight could lift the sum to the cutoff.
    """
    lb = sp.fixed_cut + basic_bound(sp)
    if cfg.enable_rebalance and lb < cutoff:
        lb += rebalance_value(sp)
    if lb >= cutoff:
        return lb
    extra = 0
    if cfg.enable_high_degree:
        f_big = sp.f0 if sp.f0 >= sp.f1 else sp.f1
        nbr_mask, free_mask = sp.graph.nbr_mask, sp.free_mask
        high = []
        for v in sp.free_list:
            d = (nbr_mask[v] & free_mask).bit_count()
            if d >= f_big:
                high.append((v, d))
        if high:
            half = high_degree_bound(sp, high)
            if lb + (half + 1) // 2 < cutoff:
                half += high_degree_rebalance(sp, high)
            extra = (half + 1) // 2
            if lb + extra >= cutoff:
                return lb + extra
    if cfg.enable_component and (cutoff == math.inf
                                 or lb + sp.graph.max_weight >= cutoff):
        c = component_bound(sp)
        if c > extra:
            extra = c
    return lb + extra


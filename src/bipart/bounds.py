"""Lower-bound contributions for a subproblem and their combination.

Four contributions on top of the fixed cut:

* basic: every free vertex pays at least min(d0, d1) no matter where it
  lands.  Subproblem.assign maintains the sum, so the term is a field read
  and the trivial bound is O(1).
* rebalancing: corrects the basic bound for the subset-size constraints by
  sorting the per-vertex preference gap delta = d1 - d0; tight for the
  fixed-free term.  It rests on the identity

      basic + rebalancing = sum over free v of d0[v]
                            + the sum of the f0 smallest deltas,

  with the first sum maintained beside basic, so one sort and one slice
  sum compute it.
* high-degree: a free vertex with more free neighbors than the larger side
  can absorb must cut some free edges; cheapest ones counted in half-units
  (each edge may be claimed by both endpoints), with its own rebalancing
  term.  Both are summed when read, from the front of each high-degree
  vertex's weight-sorted adjacency.  The paper keeps per-vertex counters
  up to date instead.  Measured here, their upkeep cost more than the term
  saved: on 165 G(18, 0.5) instances (2-core host, DFS) highdegree took
  1.6-2.3 times the time of rebalance with the counters, and takes
  1.3-1.5 times summed on demand, with the same node counts.
* component: a connected free component larger than the bigger side must be
  split, paying at least its lightest internal edge.

High-degree (+ its rebalancing) and component both bound the free-free
term, so the combined bound takes their maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .subproblem import Subproblem


@dataclass(frozen=True)
class BoundConfig:
    """Which optional contributions the solver applies."""

    enable_rebalance: bool = False
    enable_high_degree: bool = False
    enable_component: bool = False


# Cumulative presets matching the usual benchmark progression.
CONFIG_PRESETS: dict[str, BoundConfig] = {
    "trivial": BoundConfig(),
    "rebalance": BoundConfig(enable_rebalance=True),
    "highdegree": BoundConfig(enable_rebalance=True, enable_high_degree=True),
    "component": BoundConfig(
        enable_rebalance=True, enable_high_degree=True, enable_component=True
    ),
}
FULL_CONFIG = CONFIG_PRESETS["component"]


def basic_bound(sp: Subproblem) -> int:
    """Sum over free v of min(d0[v], d1[v]); O(1), maintained by assign."""
    return sp.basic


def fixed_free_minimum(sp: Subproblem) -> int:
    """Least fixed-free weight of any completion, basic + rebalancing.

    Placing the f0 free vertices of smallest delta = d1 - d0 on side 0 and
    the rest on side 1 costs sum_d0 plus those f0 deltas; O(f log f).
    When both sides have room, the f0-th and (f0+1)-th smallest deltas,
    the last on side 0 and the first on side 1, are recorded on sp as
    delta_lo and delta_hi: moving a free v across that split costs the
    difference between its delta and one of them, which the search reads
    to find forced vertices.
    """
    d0, d1 = sp.d0, sp.d1
    deltas = [d1[v] - d0[v] for v in sp.free_list]
    deltas.sort()
    f0 = sp.f0
    if 0 < f0 < len(deltas):
        sp.delta_lo = deltas[f0 - 1]
        sp.delta_hi = deltas[f0]
    return sp.sum_d0 + sum(deltas[:f0])


def rebalance_value(sp: Subproblem) -> int:
    """Rebalancing contribution; O(f log f).

    With the free vertices in rebalance_bound's order (ascending delta,
    the first f0 on side 0), each pays what its side costs above
    min(d0, d1): on side 0 max(delta, 0), on side 1 max(-delta, 0).
    Adding basic = sum_d0 + sum of min(delta, 0) gives sum_d0 plus the f0
    smallest deltas, so this is fixed_free_minimum - basic, and basic +
    this value is tight for the fixed-free term.
    """
    return fixed_free_minimum(sp) - sp.basic


def rebalance_bound(sp: Subproblem) -> list[int]:
    """The completion that realizes rebalance_value.

    Free vertices sorted by ascending delta (ties by vertex id); the first
    f0 belong to side 0 in the implied completion, the rest to side 1.
    """
    d0, d1 = sp.d0, sp.d1
    return sorted(sp.free_list, key=lambda v: (d1[v] - d0[v], v))


def high_degree_bound(sp: Subproblem) -> int:
    """High-degree contribution in half-units (twice the weight bound).

    A free v of free degree d >= f_big keeps at most f_big - 1 free
    neighbours on the big side, so placed there it cuts at least its
    d - f_big + 1 cheapest free edges; their weights are summed from the
    front of its weight-sorted adjacency.  O(f) when no free degree
    reaches f_big; lower_bound skips the call then.
    """
    f_big = sp.f0 if sp.f0 >= sp.f1 else sp.f1
    adj_nbr, adj_w = sp.graph.adj_nbr, sp.graph.adj_w
    free_mask = sp.free_mask
    deg = sp.free_degree
    total = 0
    for v in sp.free_list:
        k = deg[v] - f_big + 1
        if k <= 0:
            continue
        for u, w in zip(adj_nbr[v], adj_w[v]):
            if (free_mask >> u) & 1:
                total += w
                k -= 1
                if not k:
                    break
    return total


def high_degree_rebalance(sp: Subproblem) -> int:
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
    deg = sp.free_degree
    high = [v for v in sp.free_list if deg[v] >= f_big]
    surplus = len(high) - f_big
    extra = f_big - f_small
    if surplus <= 0 or extra <= 0:
        return 0
    adj_nbr, adj_w = sp.graph.adj_nbr, sp.graph.adj_w
    free_mask = sp.free_mask
    penalties = []
    for v in high:
        skip = deg[v] - f_big + 1
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


def lower_bound(
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
    if cfg.enable_high_degree and _has_high_degree_vertex(sp):
        half = high_degree_bound(sp)
        if lb + (half + 1) // 2 < cutoff:
            half += high_degree_rebalance(sp)
        extra = (half + 1) // 2
        if lb + extra >= cutoff:
            return lb + extra
    if cfg.enable_component and (full or lb + sp.graph.max_weight >= cutoff):
        c = component_bound(sp)
        if c > extra:
            extra = c
    return lb + extra


def _has_high_degree_vertex(sp: Subproblem) -> bool:
    """Whether some free vertex has free degree >= f_big, without which both
    high-degree terms are 0; one O(f) pass over the exact free degrees."""
    f_big = sp.f0 if sp.f0 >= sp.f1 else sp.f1
    return max(map(sp.free_degree.__getitem__, sp.free_list),
               default=-1) >= f_big

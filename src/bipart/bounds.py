"""Lower-bound contributions for a subproblem and their combination.

Four contributions on top of the fixed cut:

* basic: every free vertex pays at least min(d0, d1) no matter where it
  lands.
* rebalancing: corrects the basic bound for the subset-size constraints by
  sorting the per-vertex preference gap delta = d1 - d0; tight for the
  fixed-free term.
* high-degree: a free vertex with more free neighbors than the larger side
  can absorb must cut some free edges; cheapest ones counted in half-units
  (each edge may be claimed by both endpoints), with its own rebalancing
  term and an optional doubling rule for vertices whose neighborhood is
  provably low-degree.
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
    enable_hd_doubling: bool = False
    enable_component: bool = False


# Cumulative presets matching the usual benchmark progression.
CONFIG_PRESETS: dict[str, BoundConfig] = {
    "trivial": BoundConfig(),
    "rebalance": BoundConfig(enable_rebalance=True),
    "highdegree": BoundConfig(
        enable_rebalance=True, enable_high_degree=True, enable_hd_doubling=True
    ),
    "component": BoundConfig(
        enable_rebalance=True,
        enable_high_degree=True,
        enable_hd_doubling=True,
        enable_component=True,
    ),
}
FULL_CONFIG = CONFIG_PRESETS["component"]


def basic_bound(sp: Subproblem) -> int:
    """Sum over free v of min(d0[v], d1[v]); O(f)."""
    d0, d1 = sp.d0, sp.d1
    total = 0
    for v in sp.free_list:
        a, b = d0[v], d1[v]
        total += a if a < b else b
    return total


def rebalance_value(sp: Subproblem) -> int:
    """Rebalancing contribution; O(f log f).

    With the free vertices in rebalance_bound's order (ascending delta =
    d1 - d0, the first f0 on side 0), each pays what its side costs above
    min(d0, d1).  basic + this value is tight for the fixed-free term.
    """
    d0, d1 = sp.d0, sp.d1
    deltas = [d1[v] - d0[v] for v in sp.free_list]
    deltas.sort()
    f0 = sp.f0
    total = 0
    for d in deltas[:f0]:
        if d > 0:
            total += d
    for d in deltas[f0:]:
        if d < 0:
            total -= d
    return total


def rebalance_bound(sp: Subproblem) -> list[int]:
    """The completion that realizes rebalance_value.

    Free vertices sorted by ascending delta (ties by vertex id); the first
    f0 belong to side 0 in the implied completion, the rest to side 1.
    """
    d0, d1 = sp.d0, sp.d1
    return sorted(sp.free_list, key=lambda v: (d1[v] - d0[v], v))


def _sides_by_remaining(sp: Subproblem) -> tuple[int, int, int]:
    """(big side index, f_big, f_small); side 0 wins ties."""
    if sp.f0 >= sp.f1:
        return 0, sp.f0, sp.f1
    return 1, sp.f1, sp.f0


def high_degree_bound(sp: Subproblem, doubling: bool = False) -> int:
    """High-degree contribution in half-units (twice the weight bound).

    Reads the maintained seen-weight counters of the side with more
    vertices still to place.  Skipped (0) unless the inherited maximum
    free-degree estimate exceeds the smaller side's remaining count.
    """
    if not sp.maintain_hd:
        raise ValueError("high-degree state is not maintained for this subproblem")
    big, f_big, f_small = _sides_by_remaining(sp)
    if sp.approx_max_free_degree <= f_small:
        return 0
    w_big = sp.seen_w[big]
    total = 0
    if doubling:
        est = sp.max_adj_degree
        for v in sp.free_list:
            w = w_big[v]
            if w:
                total += 2 * w if est[v] < f_small else w
    else:
        for v in sp.free_list:
            total += w_big[v]
    return total


def high_degree_rebalance(sp: Subproblem) -> int:
    """Rebalancing of the high-degree contribution, in half-units.

    Nonzero only when the number of high-degree free vertices exceeds the
    larger side's remaining count: the surplus must take the small-side
    penalty, and the cheapest penalties are counted.
    """
    if not sp.maintain_hd:
        raise ValueError("high-degree state is not maintained for this subproblem")
    big, f_big, f_small = _sides_by_remaining(sp)
    if sp.approx_max_free_degree <= f_small:
        return 0
    deg = sp.free_degree
    threshold = f_big - 1
    w_big = sp.seen_w[big]
    w_small = sp.seen_w[1 - big]
    penalties = [
        w_small[v] - w_big[v] for v in sp.free_list if deg[v] > threshold
    ]
    surplus = len(penalties) - f_big
    if surplus <= 0:
        return 0
    penalties.sort()
    return sum(penalties[:surplus])


def component_bound(sp: Subproblem) -> int:
    """Lightest edge of a free component larger than the bigger side.

    Runs a BFS over the free-induced subgraph, refreshing the owner's
    cached largest-component size, maximum free-degree and per-vertex
    max-adjacent-degree estimates as a side effect.  Skipped (0) unless
    the inherited component-size estimate exceeds f_big.
    """
    big, f_big, f_small = _sides_by_remaining(sp)
    if sp.approx_max_component <= f_big:
        return 0
    g = sp.graph
    free_mask = sp.free_mask
    deg = sp.free_degree
    refresh_est = sp.maintain_hd
    est = sp.max_adj_degree
    visited = 0
    largest = 0
    max_deg = 0
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
            if deg[x] > max_deg:
                max_deg = deg[x]
            a_n = g.adj_nbr[x]
            a_w = g.adj_w[x]
            best_adj = 0
            for j in range(len(a_n)):
                u = a_n[j]
                if (free_mask >> u) & 1:
                    w = a_w[j]
                    if min_w < 0 or w < min_w:
                        min_w = w
                    if deg[u] > best_adj:
                        best_adj = deg[u]
                    if not (visited >> u) & 1:
                        visited |= 1 << u
                        queue.append(u)
            if refresh_est:
                est[x] = best_adj
        if size > largest:
            largest = size
        if size > f_big:
            result = min_w if min_w > 0 else 0
    sp.approx_max_component = largest
    sp.approx_max_free_degree = max_deg
    return result


def lower_bound(
    sp: Subproblem, cfg: BoundConfig, cutoff: float | None = None
) -> int:
    """Combined lower bound on any completion of the subproblem.

    Terms are added cheapest first: fixed cut and basic, rebalancing,
    high-degree, component.  With a cutoff, the partial sum is returned as
    soon as it reaches the cutoff; it is then only a certificate that the
    full bound is >= cutoff, and the deferred high-degree upkeep and the
    later terms are skipped.  Below the cutoff, or without one, the result
    is the full bound.
    """
    if cutoff is None:
        cutoff = math.inf
    lb = sp.fixed_cut + basic_bound(sp)
    if cfg.enable_rebalance and lb < cutoff:
        lb += rebalance_value(sp)
    if lb >= cutoff:
        return lb
    extra = 0
    if cfg.enable_high_degree:
        sp.finish_assign()
        half = high_degree_bound(sp, cfg.enable_hd_doubling)
        if lb + (half + 1) // 2 < cutoff:
            half += high_degree_rebalance(sp)
        extra = (half + 1) // 2
        if lb + extra >= cutoff:
            return lb + extra
    if cfg.enable_component:
        c = component_bound(sp)
        if c > extra:
            extra = c
    return lb + extra

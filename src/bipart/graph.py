"""Immutable weighted-graph representation, generation, and serialization.

Graphs are simple (no self-loops, no parallel edges), undirected, with
non-negative integer edge weights.  Each adjacency array is kept in
non-decreasing weight order (ties broken by neighbor id), which the
high-degree bound relies on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Raised for malformed edge-list text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class WeightedGraph:
    """Adjacency-array graph.

    adj_nbr[v] and adj_w[v] are parallel tuples: neighbor id and edge
    weight.
    max_weight is the heaviest edge weight (0 without edges).
    """

    n: int
    adj_nbr: tuple[tuple[int, ...], ...]
    adj_w: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    total_weight: tuple[int, ...]  # per-vertex sum of incident edge weights
    max_weight: int

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    def edges(self):
        """Yield each undirected edge once as (u, v, w) with u < v."""
        for u in range(self.n):
            nbrs = self.adj_nbr[u]
            ws = self.adj_w[u]
            for i in range(len(nbrs)):
                v = nbrs[i]
                if u < v:
                    yield u, v, ws[i]

    def neighbors(self, v: int):
        return zip(self.adj_nbr[v], self.adj_w[v])


def build_graph(n: int, edges: list[tuple[int, int, int]]) -> WeightedGraph:
    """Build a WeightedGraph from an edge list, validating the contract.

    Rejects endpoints and weights that are not integers (the bounds round
    half-units up, which is sound only for integer cuts), self-loops,
    duplicate edges (as unordered pairs), negative weights and out-of-range
    endpoints.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, int]] = set()
    raw: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        try:
            u, v, w = operator.index(u), operator.index(v), operator.index(w)
        except TypeError:
            raise ValueError(
                f"edge ({u},{v}) with weight {w!r}: endpoints and weight "
                "must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u},{u}) not allowed")
        if w < 0:
            raise ValueError(f"negative weight {w} on edge ({u},{v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        raw[u].append((w, v))
        raw[v].append((w, u))

    adj_nbr: list[tuple[int, ...]] = []
    adj_w: list[tuple[int, ...]] = []
    for v in range(n):
        raw[v].sort()  # (weight, neighbor id): ties broken by id
        adj_nbr.append(tuple(x[1] for x in raw[v]))
        adj_w.append(tuple(x[0] for x in raw[v]))

    degrees = tuple(len(a) for a in adj_nbr)
    total_weight = tuple(sum(a) for a in adj_w)
    return WeightedGraph(
        n=n,
        adj_nbr=tuple(adj_nbr),
        adj_w=tuple(adj_w),
        degrees=degrees,
        total_weight=total_weight,
        max_weight=max((a[-1] for a in adj_w if a), default=0),
    )


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
    if unpaired:
        v, u, _ = min(unpaired)
        raise AssertionError(f"edge ({v},{u}) has no matching reverse entry")
    if g.max_weight != max((w for ws in g.adj_w for w in ws), default=0):
        raise AssertionError("max_weight is not the heaviest edge weight")


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    """SplitMix64 stream: tiny, portable, deterministic 64-bit generator."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def generate_er(n: int, p: float, wmin: int, wmax: int, seed: int) -> WeightedGraph:
    """Erdős–Rényi G(n, p) with weights uniform in [wmin, wmax].

    Each unordered pair is included independently with probability p.
    Deterministic for fixed (n, p, wmin, wmax, seed): the edge decision and
    weight draws come from a single SplitMix64 stream over pairs (u, v),
    u < v, in lexicographic order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    if not 1 <= wmin <= wmax:
        raise ValueError(f"need 1 <= wmin <= wmax, got [{wmin},{wmax}]")
    rng = _splitmix64(seed & _MASK64)
    threshold = int(p * 2.0**64)
    span = wmax - wmin + 1
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if next(rng) < threshold:
                w = wmin if span == 1 else wmin + next(rng) % span
                edges.append((u, v, w))
    return build_graph(n, edges)


def cut_value(g: WeightedGraph, sides) -> int:
    """Weight of the bipartition cut induced by sides[v] in {0,1}."""
    total = 0
    for u, v, w in g.edges():
        if sides[u] != sides[v]:
            total += w
    return total


def serialize_graph(g: WeightedGraph) -> str:
    """Edge-list text: header 'n m', then 'u v w' sorted by (u, v), u < v."""
    lines = [f"{g.n} {g.m}"]
    for u, v, w in sorted(g.edges()):
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format; '#' begins a comment line.

    Raises GraphFormatError with the offending line number.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError("expected header 'n m'", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise GraphFormatError("non-integer header", lineno) from None
            if header[0] < 0 or header[1] < 0:
                raise GraphFormatError("negative header values", lineno)
            continue
        if len(parts) != 3:
            raise GraphFormatError("expected edge 'u v w'", lineno)
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError("non-integer edge fields", lineno) from None
        if len(edges) >= header[1]:
            raise GraphFormatError("more edges than declared in header", lineno)
        try:
            # Validate incrementally so errors carry the line number.
            if not (0 <= u < header[0] and 0 <= v < header[0]):
                raise ValueError(f"edge ({u},{v}) out of range for n={header[0]}")
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            if w < 0:
                raise ValueError(f"negative weight {w}")
        except ValueError as exc:
            raise GraphFormatError(str(exc), lineno) from None
        edges.append((u, v, w))
    if header is None:
        raise GraphFormatError("empty input, missing header", 1)
    if len(edges) != header[1]:
        raise GraphFormatError(
            f"header declares {header[1]} edges, found {len(edges)}"
        )
    try:
        return build_graph(header[0], edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None

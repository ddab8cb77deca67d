"""Immutable weighted-graph representation, generation, and serialization.

Graphs are simple (no self-loops, no parallel edges), undirected, with
non-negative integer edge weights.  Each adjacency array is kept in
non-decreasing weight order (ties broken by neighbor id), which the
high-degree bound relies on.

generate_er draws its SplitMix64 stream a block of outputs at a time, each
output in its own 128-bit lane of one Python int, so that one int operation
takes a step of the mix for every lane.  A lane is 128 bits wide because a
64-bit value times the mix's 64-bit multipliers needs 128 bits: in a
narrower lane the product would carry into the lane above.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, count, repeat


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
    nbr_mask[v] is the bitmask of v's neighbors (bit u set for neighbor u).
    max_weight is the heaviest edge weight (0 without edges).
    """

    n: int
    adj_nbr: tuple[tuple[int, ...], ...]
    adj_w: tuple[tuple[int, ...], ...]
    nbr_mask: tuple[int, ...]
    total_weight: tuple[int, ...]  # per-vertex sum of incident edge weights
    max_weight: int

    @property
    def m(self) -> int:
        return sum(map(len, self.adj_nbr)) // 2

    def edges(self):
        """Yield each undirected edge once as (u, v, w) with u < v."""
        for u in range(self.n):
            nbrs = self.adj_nbr[u]
            ws = self.adj_w[u]
            for i in range(len(nbrs)):
                v = nbrs[i]
                if u < v:
                    yield u, v, ws[i]


def _check_edge(n: int, u: int, v: int, w: int, seen: set) -> None:
    """Reject an out-of-range endpoint, a self-loop, a negative weight or a
    repeat of an unordered pair already in `seen`; else add the pair."""
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


def integer(value, name: str) -> int:
    """`value` through operator.index; ValueError naming `name` when it is
    not an integer or is a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def side_sizes(s0, s1, n: int) -> tuple[int, int]:
    """(s0, s1) as ints; ValueError naming them unless both are integers
    (not bools) of at least 1 that sum to n."""
    s0, s1 = integer(s0, "s0"), integer(s1, "s1")
    if s0 < 1 or s1 < 1 or s0 + s1 != n:
        raise ValueError(f"s0 and s1 must be at least 1 and sum to n = {n}, "
                         f"got s0 = {s0}, s1 = {s1}")
    return s0, s1


def _vertex_count(n) -> int:
    n = integer(n, "n")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    return n


def build_graph(n: int, edges: list[tuple[int, int, int]]) -> WeightedGraph:
    """Build a WeightedGraph from an edge list, validating the contract.

    Rejects a vertex count and endpoints and weights that are not integers
    (the bounds round half-units up, which is sound only for integer cuts),
    self-loops, duplicate edges (as unordered pairs), negative weights and
    out-of-range endpoints.
    """
    n = _vertex_count(n)
    seen: set[tuple[int, int]] = set()
    checked: list[tuple[int, int, int]] = []
    for u, v, w in edges:
        try:
            u, v, w = operator.index(u), operator.index(v), operator.index(w)
        except TypeError:
            raise ValueError(
                f"edge ({u},{v}) with weight {w!r}: endpoints and weight "
                "must be integers") from None
        _check_edge(n, u, v, w, seen)
        checked.append((u, v, w))
    return _assemble(n, checked)


def _assemble(n: int, edges: list[tuple[int, int, int]]) -> WeightedGraph:
    """The WeightedGraph of edges that are already known to be valid."""
    raw: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        raw[u].append((w, v))
        raw[v].append((w, u))

    adj_nbr: list[tuple[int, ...]] = []
    adj_w: list[tuple[int, ...]] = []
    for pairs in raw:
        pairs.sort()  # (weight, neighbor id): ties broken by id
        ws, nbrs = zip(*pairs) if pairs else ((), ())
        adj_w.append(ws)
        adj_nbr.append(nbrs)

    bit = (1).__lshift__
    return WeightedGraph(
        n=n,
        adj_nbr=tuple(adj_nbr),
        adj_w=tuple(adj_w),
        nbr_mask=tuple([sum(map(bit, a)) for a in adj_nbr]),
        total_weight=tuple(map(sum, adj_w)),
        max_weight=max((a[-1] for a in adj_w if a), default=0),
    )


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# SplitMix64 outputs are computed _BLOCK at a time, one per 128-bit lane of
# a single int: lane i holds bits 128*i .. 128*i + 127.
_BLOCK = 64
_LANE_ONES = sum(1 << 128 * i for i in range(_BLOCK))
_LANE_STEPS = sum((i + 1) * _GAMMA << 128 * i for i in range(_BLOCK))
_LANE_MASK = _LANE_ONES * _MASK64


def _splitmix64_block(seed: int, start: int) -> array:
    """SplitMix64 outputs start+1 .. start+_BLOCK of the stream from `seed`.

    Each output is mixed in its own 128-bit lane of one int, so each step
    of the mix is one int operation over every lane at once.  128 bits is
    the least room that keeps the lanes apart: a 64-bit lane value times a
    64-bit constant stays below 2**128, and so does not carry into the lane
    above.  Masking each lane back to 64 bits then reduces it mod 2**64,
    and also clears the bits that a right shift moved down from the lane
    above into this lane's upper half.
    """
    base = (seed + start * _GAMMA) & _MASK64
    z = (base * _LANE_ONES + _LANE_STEPS) & _LANE_MASK
    z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    z ^= z >> 31  # each lane's low 64 bits are its output
    out = array("Q", z.to_bytes(16 * _BLOCK, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out[::2]


def _splitmix64(seed: int):
    """SplitMix64 stream: tiny, portable, deterministic 64-bit generator."""
    return chain.from_iterable(
        map(_splitmix64_block, repeat(seed), count(0, _BLOCK)))


def generate_er(n: int, p: float, wmin: int, wmax: int, seed: int) -> WeightedGraph:
    """Erdős–Rényi G(n, p) with weights uniform in [wmin, wmax].

    Each unordered pair is included independently with probability p.
    Deterministic for fixed (n, p, wmin, wmax, seed): the edge decision and
    weight draws come from a single SplitMix64 stream over pairs (u, v),
    u < v, in lexicographic order.  A vertex count, weights or seed that
    are not integers raise ValueError, as do a p that is not an int or
    float in [0, 1] (a bool is neither), a negative vertex count and
    weights outside 1 <= wmin <= wmax.
    """
    n = _vertex_count(n)
    if (isinstance(p, bool) or not isinstance(p, (int, float))
            or not 0.0 <= p <= 1.0):
        raise ValueError(f"edge probability p must be an int or float in "
                         f"[0,1], got {p!r}")
    wmin, wmax = integer(wmin, "wmin"), integer(wmax, "wmax")
    if not 1 <= wmin <= wmax:
        raise ValueError(f"need 1 <= wmin <= wmax, got [{wmin},{wmax}]")
    rng = _splitmix64(integer(seed, "seed") & _MASK64)
    threshold = int(p * 2.0**64)
    span = wmax - wmin + 1
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if next(rng) < threshold:
                w = wmin if span == 1 else wmin + next(rng) % span
                edges.append((u, v, w))
    # Every pair is drawn once, in range, with an integer weight >= 1.
    return _assemble(n, edges)


def cut_value(g: WeightedGraph, sides) -> int:
    """Weight of the bipartition cut induced by sides[v] in {0,1}.

    Each crossing edge is counted once, from its side-0 end.
    """
    total = 0
    for u in range(g.n):
        if sides[u] == 0:
            for v, w in zip(g.adj_nbr[u], g.adj_w[u]):
                if sides[v] != 0:
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
    seen: set[tuple[int, int]] = set()
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
            _check_edge(header[0], u, v, w, seen)
        except ValueError as exc:
            raise GraphFormatError(str(exc), lineno) from None
        edges.append((u, v, w))
    if header is None:
        raise GraphFormatError("empty input, missing header", 1)
    if len(edges) != header[1]:
        raise GraphFormatError(
            f"header declares {header[1]} edges, found {len(edges)}"
        )
    return _assemble(header[0], edges)

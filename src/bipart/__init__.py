"""Exact branch-and-bound solver for size-constrained weighted graph
bipartitioning, with combinatorial lower bounds, sequential and parallel
search, a brute-force oracle and a benchmark CLI.

The names below are the library surface; the bound terms, the search
state and the other internals are imported from their submodules.
"""

from .graph import (
    GraphFormatError,
    WeightedGraph,
    build_graph,
    cut_value,
    generate_er,
    parse_graph,
    serialize_graph,
)
from .bounds import CONFIG_PRESETS, BoundConfig
from .completion import Solution
from .solver import SearchStrategy, SolveResult, solve_sequential
from .parallel import solve_parallel
from .oracle import brute_force_optimum

__version__ = "0.1.0"

__all__ = [
    "BoundConfig",
    "CONFIG_PRESETS",
    "GraphFormatError",
    "SearchStrategy",
    "Solution",
    "SolveResult",
    "WeightedGraph",
    "brute_force_optimum",
    "build_graph",
    "cut_value",
    "generate_er",
    "parse_graph",
    "serialize_graph",
    "solve_parallel",
    "solve_sequential",
]

"""Output checks run on every solve of every benchmark run.

Each check takes plain values and returns a list of error messages, empty
when the output is right.  None of them reads a figure recorded from an
earlier run: optima come from the independent reference solver, cuts from
the benchmark's own loop over the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    """What one solve returned, as the checks and the metrics read it."""

    wall: float
    optimum: int
    assignment: tuple[int, ...] | None
    nodes: int
    popped: int
    irrelevant: int
    time_to_best: float


def edge_cut(edges, assignment) -> int:
    return sum(w for u, v, w in edges if assignment[u] != assignment[v])


def check_solve(label: str, out: Outcome, n: int, edges, s0: int, reference: int) -> list[str]:
    """Optimum equals the reference; the witness has s0 vertices on side 0
    and its recomputed cut is exactly the optimum."""
    errors = []
    if out.optimum != reference:
        errors.append(f"{label}: optimum {out.optimum} != reference {reference}")
    a = out.assignment
    if a is None or len(a) != n or any(x not in (0, 1) for x in a):
        errors.append(f"{label}: no 0/1 witness over {n} vertices")
        return errors
    if a.count(0) != s0:
        errors.append(f"{label}: witness puts {a.count(0)} vertices on side 0, not {s0}")
    cut = edge_cut(edges, a)
    if cut != out.optimum:
        errors.append(f"{label}: witness cuts {cut}, reported optimum {out.optimum}")
    return errors


def check_agreement(instance: int, optima: dict[str, int]) -> list[str]:
    """Every preset, strategy and thread count finds the same optimum."""
    if len(set(optima.values())) <= 1:
        return []
    return [f"instance #{instance}: configurations disagree: {optima}"]


def check_bound_order(label: str, root_lb: int, optimum: int, greedy: int) -> list[str]:
    """lower_bound(root) <= optimum <= greedy value."""
    if root_lb <= optimum <= greedy:
        return []
    return [f"{label}: root bound {root_lb} <= optimum {optimum} <= greedy {greedy} fails"]


def check_repeats(label: str, outcomes: list[Outcome]) -> list[str]:
    """A sequential solve repeats its optimum and node counts exactly."""
    seen = {(o.optimum, o.nodes, o.popped, o.irrelevant) for o in outcomes}
    if len(seen) <= 1:
        return []
    return [f"{label}: repetitions differ (optimum, nodes, popped, irrelevant): {sorted(seen)}"]

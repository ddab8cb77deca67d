"""Where a traced run wraps the solver, and the per-layer metrics it yields.

Each wrapper sits at the name the caller looks up: ``bounds.lower_bound``
calls the bound terms through the ``bipart.bounds`` globals, the search
loop calls ``lower_bound``, ``try_complete`` and ``branch_vertex`` through
the ``bipart.solver`` globals, the worker threads call ``expand`` through
``bipart.parallel``, and ``Subproblem.assign`` and ``Incumbent.update`` are
class attributes.  ``bipart.solver.solve_sequential`` is wrapped where the
benchmark itself looks it up; its self time is the search loop's own work:
stack or heap push and pop, priorities and prune checks.
"""

from __future__ import annotations

import statistics

from bipart import bounds, completion, graph, parallel, solver, subproblem

from .tracer import Target

GENERATE = Target(graph, "generate_er", "graph.generate_er")


def _lower_bound_enter(st, args):
    st.hd_half = 0  # high-degree half-units seen inside this lower_bound call


def _high_degree_exit(st, args, result, pre):
    if result > 0:
        st.count("bounds.high_degree_bound.nonzero")
    st.hd_half = getattr(st, "hd_half", 0) + result


def _high_degree_rebalance_exit(st, args, result, pre):
    st.hd_half = getattr(st, "hd_half", 0) + result


def _component_enter(st, args):
    """Whether the inherited component-size estimate lets the BFS run."""
    sp = args[0]
    return sp.approx_max_component > max(sp.f0, sp.f1)


def _component_exit(st, args, result, bfs_ran):
    if bfs_ran:
        st.count("bounds.component_bound.bfs_runs")
    if result > (getattr(st, "hd_half", 0) + 1) // 2:
        st.count("bounds.component_bound.decisive")


def _completion_rule(st, args):
    """The rule try_complete applies first to this subproblem, if any."""
    sp = args[0]
    if sp.f0 == 0 or sp.f1 == 0:
        return "side_full"
    if sp.f0 == 1 or sp.f1 == 1:
        return "one_missing"
    if sp.zero_free_degree_count == len(sp.free_list):
        return "degree_zero"
    return None


def _completion_exit(st, args, result, rule):
    if result is not None and rule is not None:
        st.count(f"completion.try_complete.hits.{rule}")


def _incumbent_exit(st, args, accepted, pre):
    if accepted:
        st.count("parallel.incumbent.accepted")


def solve_targets() -> list[Target]:
    Sub, Inc = subproblem.Subproblem, parallel.Incumbent
    return [
        Target(completion, "cut_value", "graph.cut_value"),
        Target(Sub, "assign", "subproblem.assign"),
        Target(solver, "root_subproblem", "subproblem.root_subproblem"),
        Target(parallel, "root_subproblem", "subproblem.root_subproblem"),
        Target(solver, "lower_bound", "bounds.lower_bound", _lower_bound_enter),
        Target(parallel, "lower_bound", "bounds.lower_bound", _lower_bound_enter),
        Target(bounds, "basic_bound", "bounds.basic_bound"),
        Target(bounds, "rebalance_value", "bounds.rebalance_value"),
        Target(bounds, "high_degree_bound", "bounds.high_degree_bound",
               after=_high_degree_exit),
        Target(bounds, "high_degree_rebalance", "bounds.high_degree_rebalance",
               after=_high_degree_rebalance_exit),
        Target(bounds, "component_bound", "bounds.component_bound",
               _component_enter, _component_exit),
        Target(completion, "rebalance_bound", "bounds.rebalance_bound"),
        Target(solver, "try_complete", "completion.try_complete",
               _completion_rule, _completion_exit),
        Target(solver, "rebalancing_completion_value",
               "completion.rebalancing_completion_value"),
        Target(solver, "greedy_initial_solution", "completion.greedy_initial_solution"),
        Target(parallel, "greedy_initial_solution", "completion.greedy_initial_solution"),
        Target(solver, "branch_vertex", "solver.branch_vertex"),
        Target(solver, "expand", "solver.expand"),
        Target(parallel, "expand", "parallel.expand"),
        Target(solver, "solve_sequential", "solver.loop"),
        Target(Inc, "update", "parallel.incumbent.update", after=_incumbent_exit),
    ]


# Per-layer metric names and units, in the order they are reported.
CALLS = ("graph.cut_value", "subproblem.assign", "bounds.lower_bound",
         "completion.try_complete", "completion.rebalancing_completion_value")
SELF = ("graph.cut_value", "subproblem.assign", "bounds.lower_bound",
        "bounds.basic_bound", "bounds.rebalance_value",
        "bounds.high_degree_bound", "bounds.high_degree_rebalance",
        "bounds.component_bound", "bounds.rebalance_bound",
        "completion.try_complete", "completion.rebalancing_completion_value",
        "completion.greedy_initial_solution", "solver.branch_vertex",
        "solver.loop")
COUNTS = ("bounds.high_degree_bound.nonzero", "bounds.component_bound.bfs_runs",
          "bounds.component_bound.decisive", "completion.try_complete.hits.side_full",
          "completion.try_complete.hits.one_missing",
          "completion.try_complete.hits.degree_zero", "parallel.incumbent.accepted")


def _median(values):
    return statistics.median(values) if values else 0


def _ratio(a, b):
    return a / b if b else 0.0


def per_op_median(records, field: str) -> list:
    """Median of one Outcome field per operation, over its rounds."""
    return [_median([getattr(o, field) for o in rs if o is not None]) for rs in records]


def per_layer_metrics(tracer, ops, plain, traced) -> dict:
    """Per-layer metrics of one traced run, each as (value, unit).

    `plain` and `traced` hold, per operation, its Outcome in each untraced
    and traced round (None where it raised).  Call counts and times are per
    traced round, except set-up's instance generation; node counts and
    speed-ups come from the untraced rounds.
    """
    rounds = len(traced[0]) if traced else 1
    m: dict[str, tuple[float, str]] = {
        "graph.generate_er.s": (tracer.total("graph.generate_er"), "s")}
    for name in CALLS:
        m[f"{name}.calls"] = (tracer.calls(name) / rounds, "count")
    for name in SELF:
        m[f"{name}.self_s"] = (tracer.self_time(name) / rounds, "s")
    for name in COUNTS:
        m[name] = (tracer.count(name) / rounds, "count")
    m["subproblem.assign.us_per_call"] = (
        1e6 * _ratio(tracer.self_time("subproblem.assign"),
                     tracer.calls("subproblem.assign")), "us")
    m["bounds.component_bound.useful_ratio"] = (_ratio(
        tracer.count("bounds.component_bound.decisive"),
        tracer.count("bounds.component_bound.bfs_runs")), "ratio")
    m["parallel.incumbent.updates"] = (
        tracer.calls("parallel.incumbent.update") / rounds, "count")

    plain_wall = per_op_median(plain, "wall")
    nodes = per_op_median(plain, "nodes")
    popped = sum(per_op_median(plain, "popped"))
    irrelevant = sum(per_op_median(plain, "irrelevant"))
    m["solver.nodes"] = (sum(nodes), "count")
    m["solver.popped"] = (popped, "count")
    m["solver.irrelevant"] = (irrelevant, "count")
    m["solver.irrelevant_ratio"] = (_ratio(irrelevant, popped), "ratio")
    m["solver.us_per_node"] = (1e6 * _ratio(sum(plain_wall), popped), "us")

    by_key = {(op.instance, op.preset, op.strategy, op.threads): i
              for i, op in enumerate(ops)}
    ratios = []
    for (inst, preset, strategy, threads), i in by_key.items():
        j = by_key.get((inst, "rebalance", "dfs", 1))
        if (preset, strategy, threads) == ("trivial", "dfs", 1) and j is not None:
            ratios.append(_ratio(nodes[i], nodes[j]))
    m["bounds.rebalance.node_ratio"] = (_median(ratios), "ratio")

    one_t = two_t = nodes_one = nodes_two = 0
    for (inst, preset, strategy, threads), i in by_key.items():
        j = by_key.get((inst, preset, strategy, 1))
        if threads > 1 and j is not None:
            one_t += plain_wall[j]
            two_t += plain_wall[i]
            nodes_one += nodes[j]
            nodes_two += nodes[i]
    m["parallel.speedup"] = (_ratio(one_t, two_t), "ratio")
    m["parallel.node_ratio"] = (_ratio(nodes_two, nodes_one), "ratio")
    worker_s = sum(o.wall * op.threads for op, rs in zip(ops, traced)
                   if op.threads > 1 for o in rs if o is not None)
    m["parallel.expand.busy_ratio"] = (
        _ratio(tracer.total("parallel.expand"), worker_s), "ratio")
    m["trace.overhead_ratio"] = (
        _ratio(sum(per_op_median(traced, "wall")), sum(plain_wall)), "ratio")
    return m

"""Tests of the benchmark's own code: reference solver, checks, tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import threading

import pytest

from perfbench import ROOT, layers, reference, run, verify
from perfbench.tracer import Target, Tracer
from perfbench.workloads import Workload

from bipart import bounds, completion, graph, parallel, solver, subproblem
from bipart.graph import generate_er
from bipart.oracle import brute_force_optimum


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("p", (0.1, 0.5, 1.0))
def test_reference_matches_brute_force(n, p):
    for seed in range(3):
        g = generate_er(n, p, 1, 1000, seed)
        for s0 in sorted({n // 2, max(1, n // 3)}):
            expected = brute_force_optimum(g, s0, n - s0).optimum
            assert reference.exact_optimum(n, list(g.edges()), s0, n - s0) == expected


def test_reference_rejects_bad_sizes():
    with pytest.raises(ValueError):
        reference.exact_optimum(4, [], 0, 4)


def _solved(n=10, p=0.5, seed=1):
    g = generate_er(n, p, 1, 1000, seed)
    oracle = brute_force_optimum(g, n // 2, n - n // 2)
    out = verify.Outcome(wall=0.1, optimum=oracle.optimum,
                         assignment=oracle.witness.assignment, nodes=7,
                         popped=9, irrelevant=2, time_to_best=0.01)
    return g, list(g.edges()), out


def test_check_solve_accepts_a_true_optimum():
    g, edges, out = _solved()
    assert verify.check_solve("x", out, g.n, edges, g.n // 2, out.optimum) == []


def test_check_solve_rejects_a_corrupted_optimum():
    g, edges, out = _solved()
    worse = verify.Outcome(**{**out.__dict__, "optimum": out.optimum + 1})
    errors = verify.check_solve("x", worse, g.n, edges, g.n // 2, out.optimum)
    assert any("reference" in e for e in errors)
    assert any("witness cuts" in e for e in errors)


def test_check_solve_rejects_a_corrupted_witness():
    g, edges, out = _solved()
    a = list(out.assignment)
    i, j = a.index(0), a.index(1)
    a[i], a[j] = 1, 0  # same sizes, another cut
    swapped = verify.Outcome(**{**out.__dict__, "assignment": tuple(a)})
    if verify.edge_cut(edges, a) != out.optimum:
        assert verify.check_solve("x", swapped, g.n, edges, g.n // 2, out.optimum)
    a = list(out.assignment)
    a[a.index(1)] = 0  # one vertex too many on side 0
    unbalanced = verify.Outcome(**{**out.__dict__, "assignment": tuple(a)})
    assert verify.check_solve("x", unbalanced, g.n, edges, g.n // 2, out.optimum)
    missing = verify.Outcome(**{**out.__dict__, "assignment": None})
    assert verify.check_solve("x", missing, g.n, edges, g.n // 2, out.optimum)
    short = verify.Outcome(**{**out.__dict__, "assignment": out.assignment[:-1]})
    assert verify.check_solve("x", short, g.n, edges, g.n // 2, out.optimum)


def test_check_agreement_rejects_a_disagreeing_configuration():
    assert verify.check_agreement(0, {"a": 5, "b": 5}) == []
    assert verify.check_agreement(0, {"a": 5, "b": 6})


def test_check_bound_order_rejects_an_optimum_outside_the_bounds():
    assert verify.check_bound_order("x", 3, 5, 8) == []
    assert verify.check_bound_order("x", 3, 2, 8)  # below the root bound
    assert verify.check_bound_order("x", 3, 9, 8)  # above the greedy value


def test_check_repeats_rejects_a_changed_count():
    _, _, out = _solved()
    assert verify.check_repeats("x", [out, out]) == []
    other = verify.Outcome(**{**out.__dict__, "nodes": out.nodes + 1})
    assert verify.check_repeats("x", [out, other])
    other = verify.Outcome(**{**out.__dict__, "optimum": out.optimum - 1})
    assert verify.check_repeats("x", [out, other])


def test_wrappers_restore_the_original_functions():
    targets = layers.solve_targets() + [layers.GENERATE]
    before = [vars(t.owner)[t.attr] for t in targets]
    tracer = Tracer()
    tracer.install(targets)
    try:
        assert all(vars(t.owner)[t.attr] is not f for t, f in zip(targets, before))
        g = generate_er(10, 0.5, 1, 1000, 3)
        solver.solve_sequential(g, 5, 5, bounds.CONFIG_PRESETS["component"])
    finally:
        tracer.restore()
    assert all(vars(t.owner)[t.attr] is f for t, f in zip(targets, before))
    assert tracer.calls("subproblem.assign") > 0
    assert tracer.calls("solver.loop") == 1
    for module in (bounds, completion, graph, parallel, solver):
        for name, value in vars(module).items():
            assert not hasattr(value, "__wrapped__"), f"{module.__name__}.{name}"
    assert not hasattr(subproblem.Subproblem.assign, "__wrapped__")


class _Toy:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Toy.inner(x) * 2


def test_self_time_excludes_wrapped_callees():
    tracer = Tracer()
    tracer.install([
        Target(_Toy, "inner", "inner"),
        Target(_Toy, "outer", "outer",
               after=lambda st, args, result, pre: st.count("outer.even", result % 2 == 0)),
    ])
    try:
        threads = [threading.Thread(target=lambda: [_Toy.outer(i) for i in range(500)])
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        tracer.restore()
    assert tracer.calls("outer") == tracer.calls("inner") == 1000
    assert tracer.count("outer.even") == 1000
    outer_self = tracer.self_time("outer")
    assert 0 < outer_self < tracer.total("outer")
    assert outer_self + tracer.total("inner") == pytest.approx(tracer.total("outer"))


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny = Workload("tiny", 12, 0.3, 2,
                    (("trivial", "dfs", 1), ("rebalance", "dfs", 1),
                     ("component", "gap", 1), ("rebalance", "dfs", 2)))
    graphs = [generate_er(12, 0.3, 1, 1000, s) for s in range(2)]
    ops = tiny.ops()
    plain, traced, raised = [[] for _ in ops], [[] for _ in ops], []
    run.run_rounds(ops, graphs, tiny, 1, plain, raised)
    tracer = Tracer()
    tracer.install(layers.solve_targets())
    try:
        run.run_rounds(ops, graphs, tiny, 1, traced, raised)
    finally:
        tracer.restore()
    assert raised == []
    refs = [reference.exact_optimum(12, list(g.edges()), 6, 6) for g in graphs]
    assert run.check_all(tiny, ops, graphs, refs, [p + t for p, t in zip(plain, traced)]) == []
    metrics = layers.per_layer_metrics(tracer, ops, plain, traced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in metrics.items()}
    assert metrics["parallel.speedup"][0] > 0
    assert metrics["bounds.rebalance.node_ratio"][0] >= 1

"""Run one workload and print its metrics as the last line of output.

    python3 -m perfbench --workload sparse-dfs --seed 0 --seconds 30 --trace 0

A run solves whole rounds, each round every operation of the workload once:
max(2, seconds / 15) rounds untraced.  ``--trace 0`` prints the end-to-end
metrics:

* ``solve_s``: wall time of one round, summing each solve's median over
  the rounds;
* ``time_to_best_s``: the same sum of ``SolveResult.time_to_optimum``
  over the sequential solves;
* ``peak_rss_mb``: peak resident memory of this process;
* ``setup_s``: median over fresh processes of the time from process start
  to the first solve (import and instance generation).

The three times are scaled to a reference host speed measured between
solves (see ``calibrate.py``); the measured times and the scale go to
standard error.

``--trace 1`` solves untraced rounds, then as many traced rounds with
wrappers installed, and prints the per-layer metrics (also written to
``perfbench/out/``).  Every solve of every round is checked; any failed
check makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

from . import OUT_DIR, ROOT, solver_present
from .calibrate import HostSpeed
from .verify import (Outcome, check_agreement, check_bound_order, check_repeats,
                     check_solve)
from .workloads import WORKLOADS, Op, Workload, generate_graphs

# Set-up probes per batch; one batch runs before the first round and one
# after each round, so that a burst of load on the machine meets few of them.
SETUP_BATCH = 3
# Each workload's round takes about 12 s at the reference host speed, so a
# run makes one round per ROUND_SECONDS of --seconds: a fixed number, never
# one that follows the host's speed, since it sets which median is taken.
ROUND_SECONDS = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def solve(op: Op, graph, workload: Workload):
    """One timed solve.  The entry points are looked up on their modules at
    call time, so a traced run goes through the wrappers."""
    from bipart import parallel, solver
    from bipart.bounds import CONFIG_PRESETS

    s0, s1 = workload.sides
    cfg = CONFIG_PRESETS[op.preset]
    strategy = solver.SearchStrategy(op.strategy)
    t0 = time.perf_counter()
    if op.sequential:
        r = solver.solve_sequential(graph, s0, s1, cfg, strategy)
    else:
        r = parallel.solve_parallel(graph, s0, s1, cfg, strategy, threads=op.threads)
    wall = time.perf_counter() - t0
    return Outcome(
        wall=wall,
        optimum=r.optimum,
        assignment=r.best.assignment if r.best is not None else None,
        nodes=r.subproblems_explored,
        popped=r.popped,
        irrelevant=r.irrelevant_tasks,
        time_to_best=r.time_to_optimum,
    )


def run_rounds(ops, graphs, workload, rounds, records, raised, host=None,
               after_round=None):
    """Run `rounds` whole rounds, each solving every operation once.

    Appends each operation's Outcome (None when it raised) to its list in
    `records`, and a message per raised solve to `raised`.  `host.tick()`
    runs between solves and `after_round()` after each round, if given;
    neither is inside a solve's timing.
    """
    for _ in range(rounds):
        for op, out in zip(ops, records):
            try:
                out.append(solve(op, graphs[op.instance], workload))
            except Exception as exc:  # counted as failed, and reported
                out.append(None)
                raised.append(f"{op.label}: raised {exc!r}")
            if host is not None:
                host.tick()
        if after_round is not None:
            after_round()


def probe_setup(workload: Workload, seed: int, samples: list[float]) -> None:
    """Time SETUP_BATCH fresh processes from their start to the first solve."""
    cmd = [sys.executable, "-m", "perfbench.setup_probe", workload.name, str(seed)]
    for _ in range(SETUP_BATCH):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        samples.append(elapsed)


def check_all(workload, ops, graphs, refs, records) -> list[str]:
    from bipart.bounds import CONFIG_PRESETS, lower_bound
    from bipart.completion import greedy_initial_solution
    from bipart.subproblem import root_subproblem

    s0, s1 = workload.sides
    errors = []
    root_lb = {}
    greedy = [greedy_initial_solution(g, s0, s1).value for g in graphs]
    edges = [list(g.edges()) for g in graphs]
    optima: dict[int, dict[str, int]] = {}
    for op, outs in zip(ops, records):
        done = [o for o in outs if o is not None]
        g = graphs[op.instance]
        for o in done:
            errors += check_solve(op.label, o, g.n, edges[op.instance], s0,
                                  refs[op.instance])
        if op.sequential:
            errors += check_repeats(op.label, done)
        if not done:
            continue
        opt = done[0].optimum
        optima.setdefault(op.instance, {})[op.label] = opt
        key = (op.instance, op.preset)
        if key not in root_lb:
            cfg = CONFIG_PRESETS[op.preset]
            root = root_subproblem(g, s0, s1, maintain_hd=cfg.enable_high_degree)
            root_lb[key] = lower_bound(root, cfg)
        errors += check_bound_order(op.label, root_lb[key], opt, greedy[op.instance])
    for inst, by_label in sorted(optima.items()):
        errors += check_agreement(inst, by_label)
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not solver_present():
        print(f"perfbench: no solver sources under {ROOT / 'src' / 'bipart'}",
              file=sys.stderr)
        return 2
    from . import layers, reference
    from .layers import per_layer_metrics, per_op_median
    from .tracer import Tracer

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install([layers.GENERATE])
    graphs = generate_graphs(workload, args.seed)
    if tracer is not None:
        tracer.restore()
    refs = reference.optima(workload, args.seed, graphs, reference.load())

    ops = workload.ops()
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]
    raised: list[str] = []
    if tracer is None:
        setup: list[float] = []
        host = HostSpeed()
        probe_setup(workload, args.seed, setup)
        run_rounds(ops, graphs, workload, max(2, round(args.seconds / ROUND_SECONDS)),
                   plain, raised, host, lambda: probe_setup(workload, args.seed, setup))
    else:
        rounds = max(1, round(args.seconds / (2 * ROUND_SECONDS)))
        run_rounds(ops, graphs, workload, rounds, plain, raised)
        tracer.install(layers.solve_targets())
        try:
            run_rounds(ops, graphs, workload, rounds, traced, raised)
        finally:
            tracer.restore()
    errors = check_all(workload, ops, graphs, refs,
                        [p + t for p, t in zip(plain, traced)])
    attempted = sum(len(p) + len(t) for p, t in zip(plain, traced))

    if tracer is None:
        ttb = per_op_median(plain, "time_to_best")
        measured = {
            "solve_s": sum(per_op_median(plain, "wall")),
            "time_to_best_s": sum(t for op, t in zip(ops, ttb) if op.sequential),
            "setup_s": statistics.median(setup),
        }
        scale = host.scale()
        print(f"measured {measured}, host scale {scale:.4f}", file=sys.stderr)
        metrics = {k: (v * scale, "s") for k, v in measured.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        metrics = per_layer_metrics(tracer, ops, plain, traced)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(raised),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for e in raised[:20]:
        print(f"failed: {e}", file=sys.stderr)
    for e in errors[:50]:
        print(f"check failed: {e}", file=sys.stderr)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0

"""Speed-up of solve_parallel's process pool over solve_sequential.

    python3 tools/pool_speedup.py                  # pool forced
    python3 tools/pool_speedup.py --budget 5000

Solves G(52, 0.1, 1..1000, seeds 0..2) with sides 26|26 under `rebalance`
and `component`, DFS, with solve_sequential and solve_parallel(threads=2),
alternating the two in each of --rounds rounds.  The instances are sized so
that every solve explores well past the default NODE_BUDGET, and so reaches
the pool with ``--budget 5000`` too.  ``--budget`` sets
``bipart.parallel.NODE_BUDGET`` (default 0, so every solve goes to the
pool).  Prints each solve's best time on both sides, its node counts and
how many processes the pooled solve searched in (its SolveResult.threads),
then the ratio of the summed best times and every process count seen.  A
host where the pool cannot start (one CPU, no fork) shows 1 process, so
its ratio of about 1x reads as no pool, not as no speed-up.  Exits
nonzero if an optimum differs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402,F401  (puts src/ on the path)
import bipart.parallel  # noqa: E402
from bipart import CONFIG_PRESETS, generate_er, solve_sequential  # noqa: E402


def timed(solve):
    t0 = time.perf_counter()
    result = solve()
    return time.perf_counter() - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/pool_speedup.py")
    parser.add_argument("--budget", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    if args.budget < 0:
        parser.error(f"--budget must be at least 0, got {args.budget}")
    bipart.parallel.NODE_BUDGET = args.budget
    total_seq = total_par = 0.0
    same = True
    processes = set()
    for seed in range(3):
        g = generate_er(52, 0.1, 1, 1000, seed)
        for preset in ("rebalance", "component"):
            cfg = CONFIG_PRESETS[preset]
            seq, par = [], []
            for _ in range(args.rounds):
                seq.append(timed(lambda: solve_sequential(g, 26, 26, cfg)))
                par.append(timed(lambda: bipart.parallel.solve_parallel(
                    g, 26, 26, cfg, threads=2)))
            same &= len({r.optimum for _, r in seq + par}) == 1
            processes |= {r.threads for _, r in par}
            t_seq, r_seq = min(seq, key=lambda x: x[0])
            t_par, r_par = min(par, key=lambda x: x[0])
            total_seq += t_seq
            total_par += t_par
            print(f"seed {seed} {preset:9s} optimum {r_seq.optimum} nodes "
                  f"{r_seq.subproblems_explored} -> {r_par.subproblems_explored}"
                  f"  {t_seq:.3f} s -> {t_par:.3f} s  {t_seq / t_par:.2f}x"
                  f"  processes {r_par.threads}")
    print(f"total {total_seq:.2f} s -> {total_par:.2f} s, speed-up "
          f"{total_seq / total_par:.2f}x, processes "
          f"{'/'.join(map(str, sorted(processes)))}, "
          f"optima {'identical' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change pairs of the benchmark, and their summary.

    python3 tools/bench_pairs.py --label gate --workload sparse-dfs --pairs 10
    python3 tools/bench_pairs.py --label gate --workload dense-dfs --pairs 5 \
        --seed 11

Compares a clean checkout of the parent commit (``--parent``, default
``HEAD``, extracted with ``git archive``) with the working tree.  Pair i
reads benchmark seed ``--seed + i`` twice:

* process runs: ``python3 -m perfbench --workload W --seed S --seconds T
  --trace 0`` on each side, the parent first in even pairs, for the four
  end-to-end metrics as the benchmark measures them;
* one interleaved round: a fresh worker process per side imports its own
  checkout's ``perfbench``, and so its ``src/bipart`` (one process holds
  one solver).  Each operation goes to both sides back to back through
  perfbench's ``run_rounds``, the first side alternating per operation and
  per pair, so a change in the host's speed lands on both alike.  Each
  worker ends with perfbench's ``check_all``.  A round reads ``solve_s``
  and ``time_to_best_s``, unscaled, and the operations whose explored
  count or optimum differs between the sides.

For each metric of each reading it prints the sides' medians and quartiles,
the change's wins (ties count for neither side), whether the gain rule
holds (wins in at least nine tenths of the pairs, medians further apart
than the parent's quartile distance) and a no-regression verdict (see
``verdict``).  The exit status is nonzero when a run or round is incorrect
or failed, or a process-run metric regressed.  Both readings replace the
workload's entry in ``BENCH_<label>.json`` at the repository root.

It refuses to run, with exit status 2, when ``perfbench/`` or
``BENCHMARK.json`` differ from the parent commit, untracked files included:
a gain measured over a changed benchmark compares two different programs.
The record names the change by a hash of ``src/``'s diff against the
parent, taken at the start and again after each pair; if it moves, the run
stops with exit status 2 and writes no record, since the working tree it
timed is no longer the one it would name.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
# What must match between the parent and the working tree: the benchmark
# itself, as opposed to the program it measures.
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")
SIDES = ("parent", "change")
_SCALE = re.compile(r"host scale ([0-9.]+)")
# A worker's working directory is its checkout, which leads the import path.
_WORKER = ("import sys; sys.path.insert(1, {tools!r}); "
           "import bench_pairs; bench_pairs.serve(sys.argv[1])")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def untracked(*paths: str) -> list[str]:
    return git("ls-files", "--others", "--exclude-standard", "--",
               *paths).splitlines()


def src_identity(parent: str) -> str:
    """Hash of src/'s diff against `parent`, then of each untracked file."""
    h = hashlib.sha256(git("diff", parent, "--", "src").encode())
    for name in untracked("src"):
        h.update(name.encode() + b"\0" + (ROOT / name).read_bytes())
    return h.hexdigest()


def extract(rev: str, into: Path) -> None:
    """The committed files of `rev`, without touching the repository."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "-m", "perfbench", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    scale = _SCALE.search(proc.stderr)
    return {"host_scale": float(scale.group(1)) if scale else None,
            **{k: result[k] for k in ("correct", "attempted", "failed")},
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def serve(spec: str) -> None:
    """An interleaved round's worker, for the workload and seed in `spec`:
    one JSON line when ready, one per operation index read from standard
    input, and on an empty line the round's checks, failures and metrics."""
    def reply(message):
        print(json.dumps(message), flush=True)

    import perfbench
    if not perfbench.solver_present():
        sys.exit(f"{perfbench.ROOT} holds no src/bipart package")
    from perfbench import reference
    from perfbench.run import check_all, run_rounds
    from perfbench.workloads import Workload, generate_graphs

    spec = json.loads(spec)
    fields = spec["workload"]
    workload = Workload(**{**fields, "configs": tuple(map(tuple, fields["configs"]))})
    graphs = generate_graphs(workload, spec["seed"])
    refs = reference.optima(workload, spec["seed"], graphs, reference.load())
    ops = workload.ops()
    records, raised = [[] for _ in ops], []
    reply({})
    for line in iter(sys.stdin.readline, "\n"):
        i = int(line)
        run_rounds([ops[i]], graphs, workload, 1, [records[i]], raised)
        o = records[i][-1]
        reply({"outcome": o and f"explored {o.nodes}, optimum {o.optimum}"})
    errors = check_all(workload, ops, graphs, refs, records)
    done = [(op, r[0]) for op, r in zip(ops, records) if r and r[0]]
    reply({"correct": not errors, "failed": len(raised),
           "errors": (raised + errors)[:20],
           "metrics": {"solve_s": sum(o.wall for _, o in done),
                       "time_to_best_s": sum(o.time_to_best for op, o in done
                                             if op.sequential)}})


def interleave(workload, seed: int, checkouts: dict, first: int) -> dict:
    """One interleaved round of a perfbench Workload on benchmark `seed`:
    operation i goes first to SIDES[(i + first) % 2].  Each side's last
    answer, and the operations that differ; no worker outlives it."""
    ops = workload.ops()
    cmd = [sys.executable, "-c", _WORKER.format(tools=str(Path(__file__).parent)),
           json.dumps({"workload": dataclasses.asdict(workload), "seed": seed})]
    procs, outs = {}, {side: [] for side in SIDES}

    def ask(side, line=None):
        if line is not None:
            procs[side].stdin.write(line + "\n")
            procs[side].stdin.flush()
        answer = procs[side].stdout.readline()
        if not answer:
            raise RuntimeError(f"the worker in {checkouts[side]} exited")
        return json.loads(answer)

    try:
        for side in SIDES:
            procs[side] = subprocess.Popen(cmd, cwd=checkouts[side], text=True,
                                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for side in SIDES:
            ask(side)  # ready: its instances and reference optima are built
        for i in range(len(ops)):
            for side in SIDES if (i + first) % 2 == 0 else SIDES[::-1]:
                outs[side].append(ask(side, str(i))["outcome"])
        result = {side: ask(side, "") for side in SIDES}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.communicate()
    result["differing"] = [f"seed {seed} {op.label}: {p} | {c}" for op, p, c
                           in zip(ops, outs["parent"], outs["change"]) if p != c]
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {s: {r["pair"]: r["metrics"][name] for r in runs if r["side"] == s}
                for s in SIDES}
        wins = sum(1 for i in pairs
                   if (side["change"][i] < side["parent"][i]) == lower
                   and side["change"][i] != side["parent"][i])
        parent = spread(list(side["parent"].values()))
        change = spread(list(side["change"].values()))
        iqr = parent["q3"] - parent["q1"]
        gain = change["median"] - parent["median"]
        out[name] = {
            "parent": parent, "change": change, "pairs": len(pairs),
            "wins": wins, "parent_iqr": iqr,
            "relative": gain / parent["median"] if parent["median"] else 0.0,
            "gain_rule": (wins * 10 >= 9 * len(pairs) and abs(gain) > iqr
                          and (gain < 0) == lower),
            "bound": metric["bound"],
            "verdict": verdict(side["parent"].values(), side["change"].values(),
                               metric["bound"], lower),
        }
    return out


def verdict(parent, change, bound: float, lower: bool) -> str:
    """No-regression verdict of one metric, with `bound` a share of the
    parent's median: "regressed" when the change's median is worse by more
    than the bound; else "unresolved" when the parent's quartile distance
    is wider than the bound and not every change run beats every parent
    run; else "held"."""
    sign = 1 if lower else -1
    p = sorted(sign * x for x in parent)  # lower is better after the sign
    c = sorted(sign * x for x in change)
    p_med, c_med = statistics.median(p), statistics.median(c)
    scale = abs(p_med)
    if c_med - p_med > bound * scale:
        return "regressed"
    q1, _, q3 = statistics.quantiles(p, n=4)
    if q3 - q1 > bound * scale and c[-1] >= p[0]:
        return "unresolved"
    return "held"


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 tools/bench_pairs.py")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    changed = git("diff", "--stat", args.parent, "--", *BENCHMARK_FILES)
    changed += "".join(f"\n {n} (untracked)" for n in untracked(*BENCHMARK_FILES))
    if changed:
        parser.error(f"the benchmark differs from {args.parent}, so the pairs "
                     f"would compare two different programs:\n{changed}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    commits = {"parent": git("rev-parse", args.parent), "change": {
        "base": git("rev-parse", "HEAD"),
        "src_diff_vs_parent_sha256": src_identity(args.parent)}}

    def same_sources(pair: int) -> None:
        if src_identity(args.parent) != commits["change"]["src_diff_vs_parent_sha256"]:
            parser.error(f"src/ changed during pair {pair}, so no record can "
                         "name the tree that was timed; rerun on a tree left "
                         "alone")

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    runs, rounds, differing = [], [], []
    try:
        extract(args.parent, tmp)
        checkouts = {"parent": tmp, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            for position, side in enumerate(SIDES if i % 2 == 0 else SIDES[::-1]):
                run = run_once(checkouts[side], args.workload, seed, args.seconds)
                run.update(side=side, pair=i, seed=seed, first=position == 0)
                runs.append(run)
            result = interleave(WORKLOADS[args.workload], seed, checkouts, i % 2)
            differing += result.pop("differing")
            for side in SIDES:
                rounds.append({"side": side, "pair": i, "seed": seed,
                               **result[side]})
            for r in runs[-2:] + rounds[-2:]:
                print(f"pair {i} seed {seed} {r['side']} "
                      f"{'round' if 'errors' in r else 'run'}: solve_s "
                      f"{r['metrics']['solve_s']:.3f} correct {r['correct']} "
                      f"failed {r['failed']}", flush=True)
            same_sources(i)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(runs, bench["end_to_end"])
    interleaved = summarize(rounds, [m for m in bench["end_to_end"]
                                     if m["name"] in rounds[0]["metrics"]])
    for reading, metrics in (("process", summary), ("interleaved", interleaved)):
        for name, s in metrics.items():
            p, c = s["parent"], s["change"]
            print(f"{args.workload} {reading} {name}: parent {p['median']:.3f} "
                  f"[{p['q1']:.3f}, {p['q3']:.3f}] -> change {c['median']:.3f} "
                  f"[{c['q1']:.3f}, {c['q3']:.3f}] ({100 * s['relative']:+.1f}%), "
                  f"wins {s['wins']}/{s['pairs']}, parent IQR {s['parent_iqr']:.3f}, "
                  f"gain rule {'met' if s['gain_rule'] else 'not met'}, "
                  f"{s['verdict']} within {s['bound']:.0%}")
    print(*differing[:20], f"{len(differing)} operations differ", sep="\n")

    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault("label", args.label)
    record.setdefault("workloads", {})[args.workload] = {
        "commits": commits, "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "runs": runs, "summary": summary,
        "interleaved": {"rounds": rounds, "summary": interleaved,
                        "differing": differing},
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    ok = all(r["correct"] and not r["failed"] for r in runs + rounds)
    return 0 if ok and all(s["verdict"] != "regressed"
                           for s in summary.values()) else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))  # this checkout's perfbench, for main
    sys.exit(main())

"""Alternating parent/change pairs of the benchmark, and their summary.

    python3 tools/bench_pairs.py --label gate --workload sparse-dfs --pairs 10
    python3 tools/bench_pairs.py --label gate --workload dense-dfs --pairs 5 \
        --seed 11

Runs ``python3 -m perfbench --workload W --seed S --seconds T --trace 0`` on
a clean checkout of the parent commit (``--parent``, default ``HEAD``,
extracted with ``git archive`` into a temporary directory) and on the
working tree.  Pair i uses benchmark seed ``--seed + i`` on both sides; the
parent runs first in even pairs and the change first in odd ones.  For each
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles, the change's wins (ties count for neither side) and whether the
gain rule holds: wins in at least nine tenths of the pairs, and medians
further apart than the parent's quartile distance.  It also gives each
metric a no-regression verdict against the metric's ``bound`` in
``BENCHMARK.json``, a share of the parent's median: "regressed" when the
change's median is worse by more than the bound, "unresolved" when the
parent's quartile distance is wider than the bound and not every change
run beats every parent run, else "held".  The exit status is nonzero when
a run is incorrect or failed, or a metric regressed.

The runs are merged into ``BENCH_<label>.json`` at the repository root,
one entry per workload: the two commits, every run's seed, order, host
scale, correctness and metrics, and the summary.  Running a workload again
replaces its entry.

It refuses to run, with exit status 2, when ``perfbench/`` or
``BENCHMARK.json`` differ from the parent commit: a gain measured over a
changed benchmark compares two different programs.
"""

from __future__ import annotations

import argparse
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
_SCALE = re.compile(r"host scale ([0-9.]+)")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


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
    return {
        "host_scale": float(scale.group(1)) if scale else None,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {s: {r["pair"]: r["metrics"][name] for r in runs if r["side"] == s}
                for s in ("parent", "change")}
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
    parser = argparse.ArgumentParser(prog="python3 tools/bench_pairs.py")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    changed = git("diff", "--stat", args.parent, "--", *BENCHMARK_FILES)
    if changed:
        parser.error(f"the benchmark differs from {args.parent}, so the pairs "
                     f"would compare two different programs:\n{changed}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    diff = git("diff", args.parent, "--", "src")
    commits = {
        "parent": git("rev-parse", args.parent),
        "change": {"base": git("rev-parse", "HEAD"),
                   "src_diff_vs_parent_sha256":
                       hashlib.sha256(diff.encode()).hexdigest()},
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    runs = []
    try:
        extract(args.parent, tmp)
        checkouts = {"parent": tmp, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                run = run_once(checkouts[side], args.workload, seed, args.seconds)
                run.update(side=side, pair=i, seed=seed, first=position == 0)
                runs.append(run)
                print(f"pair {i} seed {seed} {side}: solve_s "
                      f"{run['metrics']['solve_s']:.3f} correct {run['correct']} "
                      f"failed {run['failed']}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(runs, bench["end_to_end"])
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{args.workload} {name}: parent {p['median']:.3f} "
              f"[{p['q1']:.3f}, {p['q3']:.3f}] -> change {c['median']:.3f} "
              f"[{c['q1']:.3f}, {c['q3']:.3f}] ({100 * s['relative']:+.1f}%), "
              f"wins {s['wins']}/{s['pairs']}, parent IQR {s['parent_iqr']:.3f}, "
              f"gain rule {'met' if s['gain_rule'] else 'not met'}, "
              f"{s['verdict']} within {s['bound']:.0%}")

    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault("label", args.label)
    record.setdefault("workloads", {})[args.workload] = {
        "commits": commits, "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "runs": runs, "summary": summary,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    ok = all(r["correct"] and not r["failed"] for r in runs)
    return 0 if ok and all(s["verdict"] != "regressed"
                           for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

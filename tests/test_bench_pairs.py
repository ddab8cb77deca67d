"""The summary and no-regression verdicts of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("parent, change, lower, expected", [
    ([10, 10.5, 11, 9.5], [13, 13, 13, 13], True, "regressed"),
    ([10, 10.5, 11, 9.5], [12, 12, 12, 12], True, "held"),
    ([5, 10, 15, 20], [9, 9, 9, 9], True, "unresolved"),
    ([5, 10, 15, 20], [4, 4, 4, 4], True, "held"),
    ([10, 10, 10, 10], [7, 7, 7, 7], False, "regressed"),
    ([10, 10, 10, 10], [13, 13, 13, 13], False, "held"),
])
def test_verdict(parent, change, lower, expected):
    assert bench_pairs.verdict(parent, change, 0.25, lower) == expected


def test_summary_stores_a_verdict_per_metric():
    runs = [{"pair": i, "side": side, "metrics": {"solve_s": value}}
            for i in range(4)
            for side, value in (("parent", 10.0 + i), ("change", 6.0 + i))]
    summary = bench_pairs.summarize(
        runs, [{"name": "solve_s", "better": "lower", "bound": 0.25}])
    s = summary["solve_s"]
    assert s["wins"] == 4 and s["bound"] == 0.25
    assert s["parent_iqr"] == 2.5 and s["gain_rule"]  # 11.5 -> 7.5
    assert s["verdict"] == "held"  # the IQR is inside 25% of 11.5


def test_refuses_a_changed_benchmark(monkeypatch):
    """A diff against the parent under the benchmark's files stops the tool
    before it extracts the parent or runs anything."""
    asked = []

    def fake_git(*args):
        asked.append(args)
        return " perfbench/run.py | 2 +-" if args[0] == "diff" else "0" * 40

    monkeypatch.setattr(bench_pairs, "git", fake_git)
    monkeypatch.setattr(bench_pairs, "extract",
                        lambda *a: pytest.fail("extracted"))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--label", "t", "--workload", "sparse-dfs",
                          "--parent", "abc123"])
    assert exc.value.code == 2
    assert asked == [("diff", "--stat", "abc123", "--", "perfbench",
                      "BENCHMARK.json")]

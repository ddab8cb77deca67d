"""tools/bench_pairs.py: summary, verdicts, refusals, and interleaved rounds
of this tree against itself and against copies with other trees or optima."""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # perfbench, which the tool's main imports
from checks import load_tool  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

bench_pairs = load_tool("bench_pairs")

TINY = Workload("tiny", 14, 0.4, 2,
                (("trivial", "dfs", 1), ("rebalance", "dfs", 1),
                 ("component", "gap", 1), ("rebalance", "dfs", 2)))
METRICS = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def checkout(into, edit=None):
    """This tree's src/ and perfbench/ in `into`; `edit` replaces in solver.py."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    if edit is not None:
        solver = into / "src" / "bipart" / "solver.py"
        text = solver.read_text()
        assert text.count(edit[0]) == 1
        solver.write_text(text.replace(*edit))
    return into


@pytest.fixture
def workers(monkeypatch):
    """Every process the tool starts; each must be gone when it returns."""
    started, real = [], subprocess.Popen
    monkeypatch.setattr(bench_pairs.subprocess, "Popen", lambda *a, **k:
                        started.append(real(*a, **k)) or started[-1])
    yield started
    assert started and all(p.poll() is not None for p in started)


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


@pytest.mark.parametrize("argv, message", [
    (["--seconds", "0"], "--seconds"), (["--seconds", "-1.5"], "--seconds"),
    (["--seed", "-1"], "--seed"), (["--pairs", "1"], "--pairs")])
def test_values_perfbench_rejects_are_usage_errors(monkeypatch, capsys, argv,
                                                   message):
    """Nothing is asked of git, extracted or run before the check."""
    for name in ("git", "extract", "run_once", "interleave"):
        monkeypatch.setattr(bench_pairs, name, lambda *a: pytest.fail())
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--label", "t", "--workload", "sparse-dfs", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_refuses_a_changed_benchmark(monkeypatch, capsys):
    """A tracked difference from the parent, or an untracked file, under the
    benchmark's files stops the tool before it extracts the parent."""
    monkeypatch.setattr(bench_pairs, "extract", lambda *a: pytest.fail())
    for out in ({"diff": " perfbench/run.py | 2 +-"},
                {"ls-files": "perfbench/extra_module.py"}):
        asked = []
        monkeypatch.setattr(bench_pairs, "git", lambda *args: asked.append(
            args) or out.get(args[0], ""))
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--label", "t", "--workload", "sparse-dfs"])
        assert exc.value.code == 2
        assert [*out.values()][0] in capsys.readouterr().err
        assert {args[0] for args in asked} == {"diff", "ls-files"}
        assert {args[-2:] for args in asked} == {bench_pairs.BENCHMARK_FILES}


def test_the_change_identity_covers_untracked_sources(tmp_path, monkeypatch):
    others = []
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "\n".join(others)
                        if args[0] == "ls-files" else "")
    ids = {bench_pairs.src_identity("p")}  # that of an empty diff
    (tmp_path / "src").mkdir()
    others.append("src/new.py")
    for text in ("x = 1\n", "x = 2\n"):
        (tmp_path / "src" / "new.py").write_text(text)
        ids.add(bench_pairs.src_identity("p"))
    assert len(ids) == 3 and hashlib.sha256(b"").hexdigest() in ids


@pytest.mark.parametrize("edit", [
    None, ("    return best\n", "    return sp.free_list[0]\n")],
    ids=["itself", "branching"])
def test_only_another_tree_is_reported(tmp_path, workers, edit):
    """The tree against itself differs nowhere; against a copy that branches
    on another vertex, it differs in explored counts, not in optima."""
    change = ROOT if edit is None else checkout(tmp_path, edit)
    r = bench_pairs.interleave(TINY, 0, {"parent": ROOT, "change": change}, 1)
    for side in bench_pairs.SIDES:
        assert r[side]["correct"] and not r[side]["failed"]
        assert r[side]["metrics"]["solve_s"] > r[side]["metrics"]["time_to_best_s"] > 0
    assert bool(r["differing"]) == (edit is not None)
    for line in r["differing"]:
        optima = re.findall(r"optimum (\d+)", line)
        assert optima[0] == optima[1], line


def test_a_wrong_optimum_fails_the_checks_and_the_exit_status(
        tmp_path, monkeypatch, workers):
    change = checkout(tmp_path / "change", ("optimum=self.best_value,",
                                            "optimum=self.best_value + 1,"))
    shutil.copy(ROOT / "BENCHMARK.json", change)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40
                        if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: checkout(into))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: {
        "host_scale": 1.0, "correct": True, "attempted": 1, "failed": 0,
        "metrics": dict.fromkeys(METRICS, 1.0)})
    monkeypatch.setitem(WORKLOADS, "tiny", TINY)
    assert bench_pairs.main(["--label", "t", "--workload", "tiny",
                             "--pairs", "2"]) == 1
    entry = json.loads((change / "BENCH_t.json").read_text())["workloads"]["tiny"]
    assert [(r["side"], r["correct"]) for r in entry["interleaved"]["rounds"]
            ] == [("parent", True), ("change", False)] * 2
    assert len(entry["interleaved"]["differing"]) == 2 * len(TINY.ops())


def test_a_directory_without_sources_is_rejected(tmp_path, capfd, workers):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    with pytest.raises(RuntimeError, match=f"worker in {tmp_path} exited"):
        bench_pairs.interleave(TINY, 0, {"parent": ROOT, "change": tmp_path}, 0)
    assert "holds no src/bipart package" in capfd.readouterr().err


@pytest.mark.parametrize("moved_at", [2, 3, None],
                         ids=["after-pair-0", "after-last-pair", "never"])
def test_a_source_edit_during_the_run_writes_no_record(tmp_path, monkeypatch,
                                                       capsys, moved_at):
    """src/'s identity is taken at the start and after each pair; when a
    later hash differs, the run stops with status 2 and writes nothing."""
    hashes = []

    def identity(parent):
        hashes.append(parent)
        return "edited" if moved_at and len(hashes) >= moved_at else "start"

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40
                        if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "src_identity", identity)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: {
        "host_scale": 1.0, "correct": True, "attempted": 1, "failed": 0,
        "metrics": dict.fromkeys(METRICS, 1.0)})
    round_ = {"correct": True, "failed": 0, "errors": [],
              "metrics": {"solve_s": 1.0, "time_to_best_s": 0.5}}
    monkeypatch.setattr(bench_pairs, "interleave", lambda *a: {
        "parent": round_, "change": round_, "differing": []})
    argv = ["--label", "t", "--workload", "sparse-dfs", "--pairs", "2"]
    record = tmp_path / "BENCH_t.json"
    if moved_at is None:
        assert bench_pairs.main(argv) == 0 and record.exists()
    else:
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2
        assert f"changed during pair {moved_at - 2}" in capsys.readouterr().err
        assert not record.exists()
    assert len(hashes) == (moved_at or 3)

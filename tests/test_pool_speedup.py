"""The argument checks and the report of tools/pool_speedup.py."""

import itertools

import pytest

import bipart.parallel
from bipart.solver import SolveResult
from checks import load_tool

pool_speedup = load_tool("pool_speedup")


@pytest.mark.parametrize("argv, message", [
    (["--rounds", "0"], "--rounds"),
    (["--rounds", "-1"], "--rounds"),
    (["--budget", "-1"], "--budget"),
])
def test_out_of_range_arguments_are_rejected_before_any_solve(
    monkeypatch, capsys, argv, message
):
    budget = bipart.parallel.NODE_BUDGET
    monkeypatch.setattr(pool_speedup, "timed",
                        lambda solve: pytest.fail("solved"))
    with pytest.raises(SystemExit) as exc:
        pool_speedup.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert bipart.parallel.NODE_BUDGET == budget


@pytest.mark.parametrize("workers", [1, 2])
def test_each_pooled_solve_reports_its_process_count(
    monkeypatch, capsys, workers
):
    """A pool that could not start reads as 1 process, not as a speed-up."""
    sides = itertools.cycle([1, workers])  # sequential, then pooled

    def timed(solve):
        return 0.5, SolveResult(None, 7, 10, 0, 1, 0.5, 0.5, next(sides))

    monkeypatch.setattr(pool_speedup, "timed", timed)
    # main sets NODE_BUDGET; this restores it after the test.
    monkeypatch.setattr(bipart.parallel, "NODE_BUDGET",
                        bipart.parallel.NODE_BUDGET)
    monkeypatch.setattr(pool_speedup, "generate_er", lambda *args: None)
    assert pool_speedup.main(["--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith(f"processes {workers}") for line in lines[:-1])
    assert f"processes {workers}, optima identical" in lines[-1]

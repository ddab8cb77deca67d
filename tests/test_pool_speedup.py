"""The argument checks of tools/pool_speedup.py."""

import pytest

import bipart.parallel
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

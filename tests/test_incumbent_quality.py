"""The report of tools/incumbent_quality.py on the committed reference."""

import re

from checks import load_tool

incumbent_quality = load_tool("incumbent_quality")

_LINE = re.compile(r"dense-dfs seed 0 (split|seed) *: optimal on (\d+) of 165, "
                   r"mean excess ([0-9.]+)%")


def test_reports_the_split_and_the_refined_seed(capsys):
    assert incumbent_quality.main(
        ["--workload", "dense-dfs", "--seed", "0", "--seed", "999"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {m[1]: (int(m[2]), float(m[3])) for m in map(_LINE.fullmatch, lines[:2])}
    # Pinned, so that any change in either heuristic's output shows here.
    assert rows == {"split": (7, 17.9), "seed": (133, 0.7)}
    assert lines[2:] == ["dense-dfs seed 999: skipped, not in reference.json"]


def test_excess():
    assert incumbent_quality.excess(15, 10) == 0.5
    assert incumbent_quality.excess(0, 0) == 0.0
    assert incumbent_quality.excess(3, 0) == float("inf")

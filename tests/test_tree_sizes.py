"""The report of tools/tree_sizes.py on the benchmark's dense-dfs instances."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "tree_sizes.py"
_SPEC = importlib.util.spec_from_file_location("tree_sizes", _PATH)
tree_sizes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tree_sizes)

from perfbench import reference  # noqa: E402  (on the path through the tool)

_ROW = re.compile(r"dense-dfs seed 0 (\w+)/dfs/1t: ([0-9,]+) subproblems, "
                  r"optima sum ([0-9,]+)")


def number(text):
    return int(text.replace(",", ""))


def test_reports_each_configuration_and_the_total(capsys):
    """The seed-0 counts README quotes; every preset reaches the reference
    optima of the benchmark."""
    keys = tree_sizes.WORKLOADS["dense-dfs"].instance_keys(0)
    table = reference.load()
    assert sum(table[key] for key in keys) == 2118194
    assert tree_sizes.main(["--workload", "dense-dfs"]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    matches = [_ROW.fullmatch(row) for row in rows]
    assert all(matches), rows
    counts = {m[1]: number(m[2]) for m in matches}
    assert counts == {"rebalance": 17260, "highdegree": 16999,
                      "component": 16877}
    assert {number(m[3]) for m in matches} == {2118194}
    assert total == "dense-dfs seed 0 total: 51,136 subproblems"

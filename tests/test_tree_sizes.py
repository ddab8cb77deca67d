"""The report of tools/tree_sizes.py on each benchmark workload's instances."""

import re

import pytest

from checks import load_tool

tree_sizes = load_tool("tree_sizes")

from perfbench import reference  # noqa: E402  (on the path through the tool)

# The seed-0 rows: subproblems explored per operation, their total, and the
# sum of the reference optima that every operation must reach.
SEED_0 = {
    "sparse-dfs": ({"trivial/dfs/1t": 36030, "rebalance/dfs/1t": 10192,
                    "component/dfs/1t": 10053}, "56,275", 1015625),
    "dense-dfs": ({"rebalance/dfs/1t": 17260, "highdegree/dfs/1t": 16999,
                   "component/dfs/1t": 16877}, "51,136", 2118194),
    "frontier-2t": ({"rebalance/dfs/1t": 5890, "rebalance/lb/1t": 5984,
                     "rebalance/gap/1t": 5940, "rebalance/dfs/2t": 5890,
                     "rebalance/lb/2t": 5984}, "29,688", 776678),
}


def number(text):
    return int(text.replace(",", ""))


@pytest.mark.parametrize("workload", sorted(SEED_0))
def test_reports_each_configuration_and_the_total(workload, capsys):
    """The seed-0 counts README quotes; every operation reaches the
    reference optima of the benchmark."""
    counts, total, optima = SEED_0[workload]
    keys = tree_sizes.WORKLOADS[workload].instance_keys(0)
    table = reference.load()
    assert sum(table[key] for key in keys) == optima
    assert tree_sizes.main(["--workload", workload]) == 0
    *rows, last = capsys.readouterr().out.splitlines()
    row = re.compile(rf"{workload} seed 0 (\S+): ([0-9,]+) subproblems, "
                     r"optima sum ([0-9,]+)")
    matches = [row.fullmatch(line) for line in rows]
    assert all(matches), rows
    assert {m[1]: number(m[2]) for m in matches} == counts
    assert {number(m[3]) for m in matches} == {optima}
    assert last == f"{workload} seed 0 total: {total} subproblems"

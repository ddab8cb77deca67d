"""The report of tools/tree_sizes.py on each benchmark workload's instances."""

import re
from pathlib import Path

import pytest

from checks import load_tool

tree_sizes = load_tool("tree_sizes")

from perfbench import reference  # noqa: E402  (on the path through the tool)

# The seed-0 rows: subproblems explored per operation, their total, and the
# sum of the reference optima that every operation must reach.
SEED_0 = {
    "sparse-dfs": ({"trivial/dfs/1t": 36400, "rebalance/dfs/1t": 10301,
                    "component/dfs/1t": 10163}, "56,864", 1015625),
    "dense-dfs": ({"rebalance/dfs/1t": 17294, "highdegree/dfs/1t": 17034,
                   "component/dfs/1t": 16910}, "51,238", 2118194),
    "frontier-2t": ({"rebalance/dfs/1t": 5945, "rebalance/lb/1t": 5986,
                     "rebalance/gap/1t": 6026, "rebalance/dfs/2t": 5945,
                     "rebalance/lb/2t": 5986}, "29,888", 776678),
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


def test_readme_quotes_the_pinned_totals():
    """README's "Branching" section quotes the seed-0 totals pinned above."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Branching", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(
        r"`python3 tools/tree_sizes.py` counts ([0-9,]+) explored subproblems"
        r" on `sparse-dfs`, ([0-9,]+) on `dense-dfs` and ([0-9,]+) on"
        r" `frontier-2t`", " ".join(section.split()))
    assert sentence, "README no longer quotes the tree sizes"
    assert list(sentence.groups()) == [
        SEED_0[w][1] for w in ("sparse-dfs", "dense-dfs", "frontier-2t")]

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bipart.graph import (
    GraphFormatError,
    build_graph,
    cut_value,
    generate_er,
    parse_graph,
    serialize_graph,
    validate_graph,
)


def test_single_edge():
    g = build_graph(2, [(0, 1, 5)])
    assert g.n == 2 and g.m == 1
    assert g.adj_nbr[0] == (1,) and g.adj_w[0] == (5,)
    assert g.adj_nbr[1] == (0,) and g.adj_w[1] == (5,)


def test_adjacency_sorted_by_weight():
    g = build_graph(3, [(0, 1, 3), (1, 2, 5), (0, 2, 2)])
    assert g.adj_nbr[0] == (2, 1)
    assert g.adj_w[0] == (2, 3)
    validate_graph(g)


def test_weight_ties_sorted_by_neighbor_id():
    g = build_graph(4, [(0, 3, 7), (0, 1, 7), (0, 2, 7)])
    assert g.adj_nbr[0] == (1, 2, 3)


@pytest.mark.parametrize(
    "n,edges,msg",
    [
        (3, [(0, 0, 1)], "self-loop"),
        (3, [(0, 1, 1), (1, 0, 2)], "duplicate"),
        (3, [(0, 1, -4)], "negative"),
        (3, [(0, 5, 1)], "out of range"),
        (3, [(0, 1, 1.5)], r"edge \(0,1\) .* must be integers"),
        (3, [(0, 1.0, 1)], r"edge \(0,1.0\) .* must be integers"),
    ],
)
def test_build_rejects_bad_edges(n, edges, msg):
    with pytest.raises(ValueError, match=msg):
        build_graph(n, edges)


def test_generate_complete_unweighted():
    g = generate_er(30, 1.0, 1, 1, seed=0)
    assert g.m == 435
    assert all(w == 1 for v in range(30) for w in g.adj_w[v])
    validate_graph(g)


def test_generate_empty():
    g = generate_er(50, 0.0, 1, 1000, seed=3)
    assert g.m == 0


def test_generate_deterministic_and_seed_sensitive():
    a = generate_er(40, 0.1, 1, 1000, seed=0)
    b = generate_er(40, 0.1, 1, 1000, seed=0)
    c = generate_er(40, 0.1, 1, 1000, seed=1)
    assert list(a.edges()) == list(b.edges())
    assert list(a.edges()) != list(c.edges())


def test_generate_weights_in_range():
    g = generate_er(25, 0.4, 10, 20, seed=7)
    weights = [w for v in range(25) for w in g.adj_w[v]]
    assert weights and all(10 <= w <= 20 for w in weights)


def test_generate_edge_count_is_binomial_ish():
    # p=0.5 on 45 pairs: m outside [5, 40] has probability ~1e-7
    g = generate_er(10, 0.5, 1, 1, seed=11)
    assert 5 <= g.m <= 40


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_er(10, 1.5, 1, 1, seed=0)
    with pytest.raises(ValueError):
        generate_er(10, 0.5, 5, 2, seed=0)
    with pytest.raises(ValueError):
        generate_er(10, 0.5, 0, 2, seed=0)
    with pytest.raises(ValueError):
        generate_er(10, 0.5, 1.5, 3.5, seed=0)


def test_validate_rejects_an_unpaired_adjacency_entry():
    g = build_graph(3, [(0, 1, 5), (1, 2, 4)])
    bad = dataclasses.replace(g, adj_w=((6,),) + g.adj_w[1:])
    with pytest.raises(AssertionError, match="reverse"):
        validate_graph(bad)


def test_adjacency_entries_sum_to_2m():
    for seed in range(4):
        g = generate_er(30, 0.3, 1, 50, seed=seed)
        assert sum(g.degrees) == 2 * g.m
        validate_graph(g)


def test_parse_basic():
    g = parse_graph("2 1\n0 1 5\n")
    assert g.n == 2 and g.m == 1 and g.adj_w[0] == (5,)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\n3 2\n0 1 4\n# another\n1 2 6\n"
    g = parse_graph(text)
    assert g.m == 2


def test_roundtrip_canonical():
    g = build_graph(4, [(2, 0, 9), (3, 1, 2), (0, 1, 7)])
    text = serialize_graph(g)
    again = parse_graph(text)
    assert serialize_graph(again) == text
    assert list(again.edges()) == list(g.edges())


@pytest.mark.parametrize(
    "text,line",
    [
        ("2 1\n0 0 5\n", 2),
        ("2 2\n0 1 5\n", None),
        ("2 1\n0 1\n", 2),
        ("x y\n", 1),
        ("", 1),
        ("2 1\n0 1 5\n1 0 2\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == line


def test_cut_value_direct():
    g = build_graph(4, [(0, 1, 3), (1, 2, 5), (0, 2, 2), (2, 3, 4)])
    assert cut_value(g, [0, 0, 1, 1]) == 5 + 2
    assert cut_value(g, [0, 1, 0, 1]) == 3 + 5 + 4


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_graphs(data):
    n = data.draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [
        (u, v, data.draw(st.integers(min_value=0, max_value=1000)))
        for u, v in chosen
    ]
    g = build_graph(n, edges)
    validate_graph(g)
    assert list(parse_graph(serialize_graph(g)).edges()) == list(g.edges())


def test_generate_validates_for_many_seeds():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 25)
        p = rng.random()
        g = generate_er(n, p, 1, 1000, seed=rng.randint(0, 2**63))
        validate_graph(g)
        assert g.m <= math.comb(n, 2)

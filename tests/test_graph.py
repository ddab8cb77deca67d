import dataclasses
import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from checks import (irregular_graph, reference_generate_er,
                    reference_splitmix64, validate_graph)

import bipart.graph
from bipart.graph import (
    GraphFormatError,
    WeightedGraph,
    build_graph,
    cut_value,
    generate_er,
    parse_graph,
    serialize_graph,
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


@pytest.mark.parametrize("call, name", [
    (lambda: generate_er(True, 0.5, 1, 1, 0), "n"),
    (lambda: generate_er(2.5, 0.5, 1, 1, 0), "n"),
    (lambda: build_graph(2.5, []), "n"),
    (lambda: build_graph(True, []), "n"),
    (lambda: generate_er(4, 0.5, 1, 1, 1.5), "seed"),
    (lambda: generate_er(4, 0.5, 1, 1, True), "seed"),
    (lambda: generate_er(4, 0.5, True, 2, 0), "wmin"),
], ids=["generate-n-bool", "generate-n-float", "build-n-float",
        "build-n-bool", "seed-float", "seed-bool", "wmin-bool"])
def test_non_integer_count_seed_or_weight_rejected(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got"):
        call()


@pytest.mark.parametrize("p", ["0.5", None, True])
def test_edge_probability_that_is_not_a_number_rejected(p):
    """p must be an int or float, not a bool, as every other parameter is
    checked: a string or None raises ValueError, and True is not 1."""
    with pytest.raises(ValueError, match=r"^edge probability p must be"):
        generate_er(5, p, 1, 1, 0)


GRID_SEEDS = (0, 1, 2**64 - 1, 2**70 + 3, -5)


@pytest.mark.parametrize("p", [0, 0.2, 0.5, 0.9, 1])
@pytest.mark.parametrize("n", [0, 1, 2, 22, 80])
def test_generate_equals_the_reference_generator(n, p):
    """Every field, for every weight range and seed; n = 80 at p = 0.9
    draws about 90 blocks of the stream."""
    for wmin, wmax in ((1, 1), (1, 1000), (1, 2**40)):
        for seed in GRID_SEEDS:
            g = generate_er(n, p, wmin, wmax, seed)
            ref = reference_generate_er(n, p, wmin, wmax, seed)
            for field in dataclasses.fields(WeightedGraph):
                assert getattr(g, field.name) == getattr(ref, field.name), (
                    field.name, wmin, wmax, seed)


@pytest.mark.parametrize("seed", GRID_SEEDS)
def test_block_stream_equals_the_scalar_stream(seed):
    seed &= (1 << 64) - 1
    assert (list(islice(bipart.graph._splitmix64(seed), 1000))
            == list(islice(reference_splitmix64(seed), 1000)))


@pytest.mark.parametrize("start", [0, 1, 63, 64, 1000, 2**64 - 1, 2**64 + 7])
def test_a_block_starts_anywhere_in_the_stream(start):
    """Outputs start+1 .. start+B: the scalar stream from the state that
    start steps reach."""
    seed = 0x1234_5678_9ABC_DEF0
    state = (seed + start * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    block = bipart.graph._splitmix64_block(seed, start)
    assert list(block) == list(islice(reference_splitmix64(state), len(block)))
    assert len(block) == bipart.graph._BLOCK


def test_assembly_with_tied_weights_and_isolated_vertices():
    """Every field, from an edge list and from its text: ties at vertices
    0, 1 and 4 fall back to neighbor id; 2 and 5 have no edge."""
    edges = [(0, 4, 7), (0, 1, 7), (0, 3, 2), (4, 1, 7), (3, 4, 0)]
    expected = WeightedGraph(
        n=6,
        adj_nbr=((3, 1, 4), (0, 4), (), (4, 0), (3, 0, 1), ()),
        adj_w=((2, 7, 7), (7, 7), (), (0, 2), (0, 7, 7), ()),
        nbr_mask=(0b11010, 0b10001, 0, 0b10001, 0b01011, 0),
        total_weight=(16, 14, 0, 2, 14, 0),
        max_weight=7)
    text = "6 5\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges)
    assert build_graph(6, edges) == expected == parse_graph(text)
    assert build_graph(3, []) == WeightedGraph(
        3, ((),) * 3, ((),) * 3, (0,) * 3, (0,) * 3, 0) == parse_graph("3 0\n")
    assert build_graph(0, []) == WeightedGraph(0, (), (), (), (), 0)


def test_validate_rejects_an_unpaired_adjacency_entry():
    g = build_graph(3, [(0, 1, 5), (1, 2, 4)])
    bad = dataclasses.replace(g, adj_w=((6,),) + g.adj_w[1:])
    with pytest.raises(AssertionError, match="reverse"):
        validate_graph(bad)


def test_adjacency_entries_sum_to_2m():
    for seed in range(4):
        g = generate_er(30, 0.3, 1, 50, seed=seed)
        assert sum(map(len, g.adj_nbr)) == 2 * g.m == 2 * len(list(g.edges()))
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
        ("3 2\n0 1 5\n1 0 7\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == line


def test_parse_checks_each_edge_once(monkeypatch):
    calls = []
    check = bipart.graph._check_edge

    def counting_check(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(bipart.graph, "_check_edge", counting_check)
    g = parse_graph("4 3\n0 1 5\n1 2 4\n2 3 1\n")
    assert g.m == 3 and len(calls) == 3


def test_cut_value_direct():
    g = build_graph(4, [(0, 1, 3), (1, 2, 5), (0, 2, 2), (2, 3, 4)])
    assert cut_value(g, [0, 0, 1, 1]) == 5 + 2
    assert cut_value(g, [0, 1, 0, 1]) == 3 + 5 + 4


def test_cut_value_matches_a_sum_over_the_edges():
    """On graphs with zero weights and isolated vertices, and on a weighted
    path beyond 64 vertices, under random sides."""
    rng = random.Random(164)
    graphs = [irregular_graph(rng, rng.randint(1, 30)) for _ in range(200)]
    graphs.append(build_graph(
        90, [(v, v + 1, rng.randint(1, 1000)) for v in range(89)]))
    for g in graphs:
        for _ in range(3):
            sides = [rng.randint(0, 1) for _ in range(g.n)]
            assert cut_value(g, sides) == sum(
                w for u, v, w in g.edges() if sides[u] != sides[v])
    assert any(() in g.adj_nbr for g in graphs)
    assert any(w == 0 for g in graphs for _, _, w in g.edges())


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

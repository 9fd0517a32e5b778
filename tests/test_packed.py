"""Packed edge colorings checked against a plain edge -> color dict."""

import random
from itertools import combinations

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    DerivedColor,
    ParameterError,
    coloring_from_map,
    decode_derived,
    derive_coloring,
    extract_induced,
    make_graph,
    majority_positions,
    set_bipartite,
    verify_witness,
)
from bipartite_ramsey.formats import coloring_from_text, coloring_to_text


def plain_random_colors(graph, rng):
    return {edge: (RED if rng.random() < 0.5 else BLUE) for edge in graph.sorted_edges()}


@pytest.mark.parametrize("n, b", [(9, 2), (10, 3)])
def test_derived_values_match_the_vote_per_subset(n, b):
    host = set_bipartite(n, 2 * b - 1)
    rng = random.Random(100 * n + b)
    for _ in range(3):
        colors = plain_random_colors(host, rng)
        derived = derive_coloring(coloring_from_map(host, colors), b)
        for X, value in derived.items():
            vote = majority_positions([colors[(z, X)] for z in X], b)
            assert decode_derived(value, b) == vote


def test_extract_refuses_exactly_when_a_subset_of_the_used_members_disagrees():
    # A homogeneous 8-set H planted in B_{11,3}, then one edge flipped at a
    # time; a = 3, b = 2 uses only the s = 7 smallest members of H.
    a, b, s = 3, 2, 7
    host = set_bipartite(11, 3)
    rng = random.Random(9)
    H = sorted(rng.sample(range(1, 12), 8))
    derived = DerivedColor(RED, (1, 3))
    planted = {}
    for X in host.right_labels:
        for p, z in enumerate(X, 1):
            if set(X) <= set(H):
                planted[(z, X)] = RED if p in derived.positions else BLUE
            else:
                planted[(z, X)] = RED if rng.random() < 0.5 else BLUE
    outcomes = set()
    for edge in sorted(planted):
        colors = dict(planted)
        colors[edge] = BLUE if colors[edge] is RED else RED
        coloring = coloring_from_map(host, colors)
        disagrees = any(
            majority_positions([colors[(z, X)] for z in X], b) != derived
            for X in combinations(H[:s], 3)
        )
        if disagrees:
            with pytest.raises(ParameterError):
                extract_induced(H, derived, a, b, host, coloring)
        else:
            witness = extract_induced(H, derived, a, b, host, coloring)
            assert verify_witness(host, witness, coloring) is True
        outcomes.add(disagrees)
    assert outcomes == {True, False}


def assert_round_trip(graph, colors):
    coloring = coloring_from_map(graph, colors)
    text = coloring_to_text(coloring)
    index = {label: i for i, label in enumerate(graph.right_labels, 1)}
    expected = "".join(
        f"c {left} {index[label]} {colors[(left, label)].letter}\n"
        for left, label in graph.sorted_edges()
    )
    assert text == expected
    again = coloring_from_text(text, graph)
    assert again == coloring
    assert all(again.color_of(left, label) is color for (left, label), color in colors.items())
    return coloring


def test_coloring_text_round_trip_with_a_right_of_degree_above_8():
    rng = random.Random(21)
    for _ in range(6):
        lefts = rng.randint(9, 16)
        labels = tuple(range(1, rng.randint(2, 6)))
        edges = {(x, y) for x in range(1, lefts + 1) for y in labels if rng.random() < 0.6}
        edges |= {(x, 1) for x in range(1, 10)}  # right 1 has degree >= 9
        graph = make_graph(lefts, labels, edges)
        coloring = assert_round_trip(graph, plain_random_colors(graph, rng))
        assert type(coloring.masks) is tuple


@pytest.mark.parametrize("n, k", [(6, 2), (8, 5), (10, 8)])
def test_coloring_text_round_trip_on_set_graphs(n, k):
    graph = set_bipartite(n, k)
    coloring = assert_round_trip(graph, plain_random_colors(graph, random.Random(n + k)))
    assert type(coloring.masks) is bytes

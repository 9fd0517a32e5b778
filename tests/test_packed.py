"""Packed edge colorings checked against a plain edge -> color dict."""

import random
import tracemalloc
from itertools import combinations

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    DerivedColor,
    ParameterError,
    coloring_from_map,
    constant_coloring,
    decode_derived,
    derive_coloring,
    extract_induced,
    make_graph,
    majority_positions,
    set_bipartite,
    verify_witness,
)
from bipartite_ramsey.formats import (
    coloring_from_text,
    coloring_to_text,
    subset_coloring_from_text,
    subset_coloring_to_text,
)


def plain_random_colors(graph, rng):
    return {edge: (RED if rng.random() < 0.5 else BLUE) for edge in graph.sorted_edges()}


# Every storage pair: bytes masks are translated (b <= 4); tuple masks are
# mapped into bytes values (b = 5, palette 252) or tuple values (b = 6,
# palette 924).
@pytest.mark.parametrize(
    "n, b, masks_type, values_type",
    [
        (9, 2, bytes, bytes),
        (10, 3, bytes, bytes),
        (9, 4, bytes, bytes),
        (10, 5, tuple, bytes),
        (12, 6, tuple, tuple),
    ],
    ids=["9-2", "10-3", "9-4", "10-5", "12-6"],
)
def test_derived_values_match_the_vote_per_subset(n, b, masks_type, values_type):
    host = set_bipartite(n, 2 * b - 1)
    rng = random.Random(100 * n + b)
    for _ in range(3):
        colors = plain_random_colors(host, rng)
        coloring = coloring_from_map(host, colors)
        derived = derive_coloring(coloring, b)
        assert type(coloring.masks) is masks_type
        assert type(derived.values) is values_type
        for X, value in derived.items():
            vote = majority_positions([colors[(z, X)] for z in X], b)
            assert decode_derived(value, b) == vote


def test_derived_coloring_text_round_trip():
    host = set_bipartite(9, 5)
    colors = plain_random_colors(host, random.Random(5))
    text = subset_coloring_to_text(derive_coloring(coloring_from_map(host, colors), 3))
    assert subset_coloring_to_text(subset_coloring_from_text(text)) == text


def test_derive_coloring_stores_at_most_three_bytes_per_subset():
    # One byte per subset plus the range check's scratch copy; a tuple of
    # ints costs 8 bytes a slot.
    coloring = constant_coloring(set_bipartite(24, 7), RED)
    tracemalloc.start()
    try:
        derived = derive_coloring(coloring, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(derived.values) == 346_104
    assert peak <= 3 * len(derived.values)


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

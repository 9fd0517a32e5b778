"""Graph builders and the induced embedding into set-membership graphs."""

import random
from math import comb

import pytest

from bipartite_ramsey import (
    ParameterError,
    complete_bipartite,
    embed_into_set_bipartite,
    make_graph,
    set_bipartite,
    verify_witness,
)


def test_complete_bipartite_shapes():
    g = complete_bipartite(3, 3)
    assert g.edge_count == 9
    assert g.right_labels == (1, 2, 3)
    single = complete_bipartite(1, 1)
    assert single.sorted_edges() == [(1, 1)]
    g46 = complete_bipartite(4, 6)
    assert g46.edge_count == 24
    assert all(
        sum(x in lefts for lefts in g46.neighborhoods) == 6 for x in range(1, 5)
    )
    with pytest.raises(ParameterError):
        complete_bipartite(0, 3)
    with pytest.raises(ParameterError):
        complete_bipartite(3, -1)


def test_set_bipartite_four_two():
    g = set_bipartite(4, 2)
    assert g.right_labels == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert g.edge_count == 12
    # Left degree counts the k-subsets containing a fixed element.
    for x in range(1, 5):
        degree = sum(x in lefts for lefts in g.neighborhoods)
        assert degree == comb(3, 1) == 3


def test_set_bipartite_matching_and_counts():
    g = set_bipartite(5, 1)
    assert g.edge_count == 5
    assert g.sorted_edges() == [(x, (x,)) for x in range(1, 6)]
    for n, k in [(4, 2), (5, 3), (6, 2)]:
        g = set_bipartite(n, k)
        assert g.edge_count == k * comb(n, k)
    with pytest.raises(ParameterError):
        set_bipartite(3, 4)
    with pytest.raises(ParameterError):
        set_bipartite(0, 0)


# -- embedding -------------------------------------------------------------


def test_embed_small_pattern(small_pattern):
    result = embed_into_set_bipartite(small_pattern)
    assert (result.a, result.b) == (8, 4)
    # Right 1 keeps its full neighborhood plus its own distinguisher 2c+1;
    # right 2 gets one spare filler to reach size b.
    assert result.right_map[1] == (1, 2, 3, 7)
    assert result.right_map[2] == (1, 3, 4, 8)
    assert result.left_map == {1: 1, 2: 2, 3: 3}
    host = set_bipartite(result.a, result.b)
    assert verify_witness(host, result.witness) is True


def test_embed_small_pattern_alternative_witness(small_pattern):
    # A hand-picked placement with different distinguisher/filler choices
    # is also a valid induced copy; validity, not set equality, is the contract.
    from bipartite_ramsey import InducedCopyWitness

    host = set_bipartite(8, 4)
    alternative = InducedCopyWitness(
        small_pattern, (1, 2, 3), ((1, 2, 3, 4), (1, 3, 5, 7))
    )
    assert verify_witness(host, alternative) is True


def test_embed_single_edge():
    pattern = make_graph(1, (1,), {(1, 1)})
    result = embed_into_set_bipartite(pattern)
    assert (result.a, result.b) == (3, 2)
    assert result.right_map[1] == (1, 3)


def test_embed_isolated_right():
    pattern = make_graph(1, (1,), set())
    result = embed_into_set_bipartite(pattern)
    assert (result.a, result.b) == (3, 2)
    assert result.right_map[1] == (2, 3)
    assert verify_witness(set_bipartite(3, 2), result.witness) is True


def test_embed_rejects_empty_sides():
    with pytest.raises(ParameterError):
        embed_into_set_bipartite(make_graph(0, (1,), set()))
    with pytest.raises(ParameterError):
        embed_into_set_bipartite(make_graph(1, (), set()))


def _random_pattern(rng):
    c = rng.randint(1, 5)
    d = rng.randint(1, 5)
    labels = tuple(range(1, d + 1))
    edges = {
        (x, y) for x in range(1, c + 1) for y in labels if rng.random() < 0.5
    }
    return make_graph(c, labels, edges)


def _crafted_patterns():
    # Degree-0 and degree-c rights are the recipe's boundary cases.
    yield make_graph(3, (1, 2), {(1, 1), (2, 1), (3, 1)})  # right 2 isolated
    yield make_graph(2, (1, 2, 3), {(x, y) for x in (1, 2) for y in (1, 2, 3)})
    yield make_graph(5, (1,), set())
    yield make_graph(1, tuple(range(1, 6)), {(1, 3)})


def test_embed_property_suite():
    rng = random.Random(20260811)
    patterns = list(_crafted_patterns())
    while len(patterns) < 200:
        patterns.append(_random_pattern(rng))
    for pattern in patterns:
        c = pattern.left_count
        d = len(pattern.right_labels)
        result = embed_into_set_bipartite(pattern)
        assert result.a == 2 * c + d
        assert result.b == c + 1
        images = [result.right_map[j] for j in range(1, d + 1)]
        assert all(len(img) == result.b for img in images)
        assert len(set(images)) == d  # distinguishers keep rights distinct
        host = set_bipartite(result.a, result.b)
        assert verify_witness(host, result.witness) is True
        # The image of pattern left i is adjacent exactly to the images of
        # the pattern rights adjacent to i.
        for i in range(1, c + 1):
            adjacent = {j for j in range(1, d + 1) if pattern.has_edge(i, pattern.label_at(j))}
            hit = {j for j in range(1, d + 1) if result.left_map[i] in result.right_map[j]}
            assert hit == adjacent

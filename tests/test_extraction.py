"""Right-vertex construction and induced monochromatic extraction."""

import random
from itertools import combinations

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    DerivedColor,
    ParameterError,
    ValidationError,
    build_right_vertex,
    constant_coloring,
    coloring_from_map,
    decode_derived,
    derive_coloring,
    extract_induced,
    find_induced_monochromatic,
    set_bipartite,
    verify_witness,
)
from conftest import position_rule_coloring
from test_hypergraph import reference_common_value


def test_build_right_vertex_reference_cases():
    assert build_right_vertex((2, 4), (1, 3), 4, 2) == (2, 3, 4)
    assert build_right_vertex((2, 8), (1, 2), 4, 2) == (2, 8, 9)
    assert build_right_vertex((6, 8), (2, 3), 4, 2) == (5, 6, 8)
    assert build_right_vertex((2, 6), (1, 3), 4, 2) == (2, 3, 6)


def test_build_right_vertex_rejects_bad_input():
    with pytest.raises(ParameterError):
        build_right_vertex((2, 3), (1, 2), 4, 2)  # 3 is not a multiple of b
    with pytest.raises(ValueError):
        build_right_vertex((2, 4), (1, 4), 4, 2)  # position beyond 2b-1
    with pytest.raises(ValueError):
        build_right_vertex((2, 4, 6), (1, 2), 4, 2)  # |S| != b


def test_build_right_vertex_exhaustive():
    for b in range(1, 5):
        for a in range(1, 6):
            chosen_ranks = [t * b for t in range(1, a + 1)]
            for S in combinations(chosen_ranks, b):
                for I in combinations(range(1, 2 * b), b):
                    X = build_right_vertex(S, I, a, b)
                    assert len(X) == 2 * b - 1
                    assert len(set(X)) == 2 * b - 1
                    assert all(X[i - 1] == s for i, s in zip(I, S))
                    assert set(X) & set(chosen_ranks) == set(S)
                    assert 1 <= X[0] and X[-1] <= a * b + b - 1


def test_extract_checks_parameters_first(b93):
    # a and b, then the derived positions, are checked before the set is.
    coloring = constant_coloring(b93, RED)
    with pytest.raises(ParameterError):
        extract_induced(range(1, 10), DerivedColor(RED, (1, 3)), 0, 2, b93, coloring)
    with pytest.raises(ValidationError):
        extract_induced([], DerivedColor(RED, (1, 2, 3)), 4, 2, b93, coloring)


FIGURE_CASES = {
    (1, 3): ((2, 3, 4), (2, 3, 6), (2, 3, 8), (4, 5, 6), (4, 5, 8), (6, 7, 8)),
    (1, 2): ((2, 4, 5), (2, 6, 7), (2, 8, 9), (4, 6, 7), (4, 8, 9), (6, 8, 9)),
    (2, 3): ((1, 2, 4), (1, 2, 6), (1, 2, 8), (3, 4, 6), (3, 4, 8), (5, 6, 8)),
}


@pytest.mark.parametrize("positions", sorted(FIGURE_CASES))
def test_extract_reference_cases(b93, positions):
    coloring = position_rule_coloring(b93, RED, positions)
    witness = extract_induced(range(1, 10), DerivedColor(RED, positions), 4, 2, b93, coloring)
    assert witness.host_left == (2, 4, 6, 8)
    assert witness.host_right == FIGURE_CASES[positions]
    assert witness.claimed_color is RED
    assert verify_witness(b93, witness, coloring) is True


def test_extract_all_red_is_the_1_2_case(b93):
    coloring = constant_coloring(b93, RED)
    witness = extract_induced(range(1, 10), DerivedColor(RED, (1, 2)), 4, 2, b93, coloring)
    assert witness.host_right == FIGURE_CASES[(1, 2)]


def test_extract_rank_mapped_homogeneous_set():
    # The even numbers 2..18 are order-isomorphic to 1..9; the extraction
    # addresses them by rank, so the reference structure doubles.
    host = set_bipartite(18, 3)
    H = set(range(2, 19, 2))
    colors = {}
    for X in host.right_labels:
        inside = set(X) <= H
        for p, z in enumerate(X, 1):
            colors[(z, X)] = RED if (inside and p in (2, 3)) else BLUE
    coloring = coloring_from_map(host, colors)
    witness = extract_induced(sorted(H), DerivedColor(RED, (2, 3)), 4, 2, host, coloring)
    assert witness.host_left == (4, 8, 12, 16)
    expected = tuple(tuple(2 * x for x in right) for right in FIGURE_CASES[(2, 3)])
    assert witness.host_right == expected
    assert verify_witness(host, witness, coloring) is True


def test_extract_uses_smallest_members_of_larger_set(b93):
    coloring = constant_coloring(b93, RED)
    # |H| = 9 > s = 7 for a = 3: only the 7 smallest members matter.
    witness = extract_induced(range(1, 10), DerivedColor(RED, (1, 2)), 3, 2, b93, coloring)
    assert witness.host_left == (2, 4, 6)
    assert max(x for right in witness.host_right for x in right) <= 7


def test_extract_rejects_short_or_inhomogeneous_sets(b93):
    coloring = position_rule_coloring(b93, RED, (1, 3))
    with pytest.raises(ParameterError):
        extract_induced(range(1, 9), DerivedColor(RED, (1, 3)), 4, 2, b93, coloring)
    with pytest.raises(ParameterError):
        extract_induced(range(1, 10), DerivedColor(RED, (1, 2)), 4, 2, b93, coloring)
    with pytest.raises(ParameterError):
        extract_induced(range(1, 10), DerivedColor(BLUE, (1, 3)), 4, 2, b93, coloring)


@pytest.mark.parametrize("members", [[1.0, *range(2, 9)], ["1", *range(2, 9)], range(0, 8),
                                     range(3, 11)])
def test_extract_refuses_members_that_are_not_integers_in_range(members):
    host = set_bipartite(9, 3)
    with pytest.raises(ParameterError):
        extract_induced(members, DerivedColor(RED, (1, 2)), 3, 2, host, constant_coloring(host, RED))


def test_extract_accepts_exactly_the_value_of_the_reference_walk():
    # A position rule with a few edges flipped, on B_{n,3} (b = 2): the
    # check passes for the one value all 3-subsets of the members share.
    rng = random.Random(5)
    accepted = rejected_homogeneous = rejected_mixed = 0
    for _ in range(60):
        n, a = rng.randint(5, 8), rng.randint(2, 3)
        s = 2 * a + 1
        if s > n:
            continue
        host = set_bipartite(n, 3)
        rule = position_rule_coloring(host, rng.choice([RED, BLUE]), rng.choice(sorted(FIGURE_CASES)))
        flip = rng.choice([0, 0.01, 0.05])
        coloring = coloring_from_map(host, {
            (z, X): RED if (rule.color_of(z, X) is RED) != (rng.random() < flip) else BLUE
            for X in host.right_labels for z in X
        })
        members = sorted(rng.sample(range(1, n + 1), rng.randint(s, n)))
        values = derive_coloring(coloring, 2).values
        expected = reference_common_value(values, n, 3, members[:s])
        for value in range(1, 7):
            derived = decode_derived(value, 2)
            if expected == (value, True):
                witness = extract_induced(members, derived, a, 2, host, coloring)
                assert verify_witness(host, witness, coloring) is True
                accepted += 1
            else:
                with pytest.raises(ParameterError):
                    extract_induced(members, derived, a, 2, host, coloring)
                if expected[1]:
                    rejected_homogeneous += 1
                else:
                    rejected_mixed += 1
    assert accepted and rejected_homogeneous and rejected_mixed


def test_extract_rejects_wrong_host_shape():
    from bipartite_ramsey import complete_bipartite

    host = complete_bipartite(9, 3)
    coloring = constant_coloring(host, RED)
    with pytest.raises(ParameterError):
        extract_induced(range(1, 10), DerivedColor(RED, (1, 2)), 4, 2, host, coloring)


def test_extract_distinct_rights_distinct_images(b93):
    for positions in sorted(FIGURE_CASES):
        for color in (RED, BLUE):
            coloring = position_rule_coloring(b93, color, positions)
            witness = extract_induced(
                range(1, 10), DerivedColor(color, positions), 4, 2, b93, coloring
            )
            assert len(set(witness.host_right)) == len(witness.host_right)
            assert verify_witness(b93, witness, coloring) is True


def test_extract_agrees_with_oracle(b93):
    # Whenever the ground set is homogeneous the oracle also finds an
    # induced monochromatic copy by exhaustive search.
    pattern = set_bipartite(4, 2)
    for positions in sorted(FIGURE_CASES):
        for color in (RED, BLUE):
            coloring = position_rule_coloring(b93, color, positions)
            found = find_induced_monochromatic(b93, coloring, pattern)
            assert found is not None
            assert verify_witness(b93, found, coloring) is True


def test_extract_larger_parameters():
    # a = b = 3: host arity 5, s = 11.
    host = set_bipartite(11, 5)
    positions = (1, 3, 4)
    coloring = position_rule_coloring(host, BLUE, positions)
    witness = extract_induced(
        range(1, 12), DerivedColor(BLUE, positions), 3, 3, host, coloring
    )
    assert witness.host_left == (3, 6, 9)
    assert verify_witness(host, witness, coloring) is True

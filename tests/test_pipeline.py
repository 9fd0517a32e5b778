"""Parameter reports, the end-to-end pipeline, and DOT export."""

import random
from itertools import combinations
from math import comb

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    DerivedColor,
    ParameterError,
    ValidationError,
    complete_bipartite,
    constant_coloring,
    export_dot,
    extract_induced,
    find_induced_mono_pattern,
    make_graph,
    random_coloring,
    required_parameters,
    set_bipartite,
    verify_witness,
)
from conftest import position_rule_coloring


def test_required_parameters_small_pattern(small_pattern):
    report = required_parameters(small_pattern)
    assert (report.c, report.d) == (3, 2)
    assert (report.a, report.b, report.k) == (8, 4, 7)
    assert report.s == 35
    assert report.palette == 2 * comb(7, 4) == 70
    assert report.n_formula == "R_{7,70}(35)"
    assert report.palette_text == "70"
    assert report.n_value is None


def test_required_parameters_single_edge():
    report = required_parameters(make_graph(1, (1,), {(1, 1)}))
    assert (report.a, report.b, report.k, report.s, report.palette) == (3, 2, 3, 7, 6)


def test_required_parameters_rejects_empty_side():
    with pytest.raises(ParameterError):
        required_parameters(make_graph(2, (), set()))


def test_required_parameters_identities():
    for c in range(1, 21):
        for d in range(1, 21):
            labels = tuple(range(1, d + 1))
            pattern = make_graph(c, labels, {(1, 1)})
            report = required_parameters(pattern)
            assert report.a == 2 * c + d
            assert report.b == c + 1
            assert report.k == 2 * report.b - 1
            assert report.s == report.a * report.b + report.b - 1
            assert report.palette == 2 * comb(report.k, report.b)


# -- the pipeline -----------------------------------------------------------


def test_pipeline_single_edge_all_red():
    pattern = make_graph(1, (1,), {(1, 1)})
    host = set_bipartite(7, 3)
    coloring = constant_coloring(host, RED)
    witness = find_induced_mono_pattern(pattern, coloring)
    assert witness is not None
    assert witness.claimed_color is RED
    assert witness.host_left == (2,)
    assert witness.host_right == ((2, 6, 7),)
    assert verify_witness(host, witness, coloring) is True


def test_pipeline_absent_below_required_size():
    pattern = make_graph(1, (1,), {(1, 1)})  # needs s = 7
    host = set_bipartite(6, 3)
    rng = random.Random(4)
    assert find_induced_mono_pattern(pattern, random_coloring(host, rng)) is None


def test_pipeline_rejects_wrong_host_arity():
    pattern = make_graph(1, (1,), {(1, 1)})
    host = set_bipartite(7, 2)
    with pytest.raises(ParameterError):
        find_induced_mono_pattern(pattern, constant_coloring(host, RED))
    with pytest.raises(ParameterError):
        find_induced_mono_pattern(pattern, constant_coloring(complete_bipartite(7, 3), RED))


def test_pipeline_positional_colorings_verified():
    # Position-rule colorings guarantee a homogeneous ground set, so the
    # pipeline must succeed and its witness must check out, both colors.
    pattern = make_graph(1, (1,), {(1, 1)})
    host = set_bipartite(7, 3)
    for color in (RED, BLUE):
        for positions in combinations(range(1, 4), 2):
            coloring = position_rule_coloring(host, color, positions)
            witness = find_induced_mono_pattern(pattern, coloring)
            assert witness is not None
            assert witness.claimed_color is color
            assert verify_witness(host, witness, coloring) is True


def test_pipeline_composition_consistency():
    # Inducedness restated at the pipeline level: each mapped right meets
    # the mapped lefts exactly at the images of its pattern neighbors.
    pattern = make_graph(2, (1, 2), {(1, 1), (2, 1), (2, 2)})
    report = required_parameters(pattern)
    host = set_bipartite(report.s, report.k)
    coloring = position_rule_coloring(host, BLUE, tuple(range(2, report.b + 2)))
    witness = find_induced_mono_pattern(pattern, coloring)
    assert witness is not None
    lefts = witness.host_left
    for j, label in enumerate(pattern.right_labels, 1):
        expected = {lefts[i - 1] for i in range(1, 3) if pattern.has_edge(i, label)}
        assert set(witness.host_right[j - 1]) & set(lefts) == expected
    assert verify_witness(host, witness, coloring) is True


def test_pipeline_random_spot_checks():
    # Random colorings rarely admit a homogeneous 7-set of [7]; whatever
    # the outcome, a returned witness must verify.
    pattern = make_graph(1, (1,), {(1, 1)})
    host = set_bipartite(7, 3)
    outcomes = {"absent": 0, "found": 0}
    for seed in range(30):
        coloring = random_coloring(host, random.Random(seed))
        witness = find_induced_mono_pattern(pattern, coloring)
        if witness is None:
            outcomes["absent"] += 1
        else:
            outcomes["found"] += 1
            assert verify_witness(host, witness, coloring) is True
    assert outcomes["absent"] > 0


def test_pipeline_small_pattern_full_scale(small_pattern):
    # c = 3, d = 2: host B_{35,7} with about 6.7 million right vertices.
    host = set_bipartite(35, 7)
    coloring = constant_coloring(host, RED)
    witness = find_induced_mono_pattern(pattern=small_pattern, coloring=coloring)
    assert witness is not None
    assert witness.claimed_color is RED
    assert verify_witness(host, witness, coloring) is True


# -- DOT export -------------------------------------------------------------


def test_dot_plain_set_graph():
    dot = export_dot(set_bipartite(4, 2))
    assert dot.count("L") >= 4 and dot.count('label="1,2"') == 1
    assert dot.count(" -- ") == 12
    assert dot.count("color=black") == 12
    assert "color=red" not in dot and "color=blue" not in dot


def test_dot_with_coloring_and_witness(b93):
    coloring = position_rule_coloring(b93, RED, (1, 3))
    witness = extract_induced(
        range(1, 10), DerivedColor(RED, (1, 3)), 4, 2, b93, coloring
    )
    dot = export_dot(b93, coloring, witness)
    highlighted = [line for line in dot.splitlines() if "penwidth=2" in line and "--" in line]
    assert len(highlighted) == 12
    assert all("color=red" in line for line in highlighted)
    bold_nodes = [line for line in dot.splitlines() if "penwidth=2" in line and "--" not in line]
    assert len(bold_nodes) == 4 + 6


def test_dot_empty_graph():
    dot = export_dot(make_graph(0, (), set()))
    assert dot.startswith("graph") and dot.rstrip().endswith("}")


def test_dot_rejects_dangling_witness(three_by_three_host, blue_pattern):
    from bipartite_ramsey import InducedCopyWitness

    other = InducedCopyWitness(blue_pattern, (1, 2, 9), (1, 2))
    with pytest.raises(ValidationError):
        export_dot(three_by_three_host, None, other)

"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

The headline thresholds of the underlying theory (Ramsey numbers like
R_{3,6}(9)) are far beyond computation, so acceptance combines the small
exact reference structures with property suites at desk scale.
"""

import random
import time
from itertools import combinations

from bipartite_ramsey import (
    BLUE,
    RED,
    DerivedColor,
    build_right_vertex,
    complete_bipartite,
    constant_coloring,
    decode_derived,
    derive_coloring,
    embed_into_set_bipartite,
    extract_induced,
    extract_monochromatic_complete,
    find_homogeneous_set,
    find_induced_mono_pattern,
    find_induced_monochromatic,
    lower_bound_coloring,
    make_graph,
    ramsey_number_exact,
    random_coloring,
    set_bipartite,
    verify_witness,
)
from conftest import position_rule_coloring


def report(number, started, limit, message):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit}s): {message}")
    assert elapsed < limit


FIGURE_RIGHTS = {
    (1, 3): ((2, 3, 4), (2, 3, 6), (2, 3, 8), (4, 5, 6), (4, 5, 8), (6, 7, 8)),
    (1, 2): ((2, 4, 5), (2, 6, 7), (2, 8, 9), (4, 6, 7), (4, 8, 9), (6, 8, 9)),
    (2, 3): ((1, 2, 4), (1, 2, 6), (1, 2, 8), (3, 4, 6), (3, 4, 8), (5, 6, 8)),
}


def test_criterion_1_reference_extractions_exact():
    started = time.perf_counter()
    host = set_bipartite(9, 3)
    for positions, rights in FIGURE_RIGHTS.items():
        coloring = position_rule_coloring(host, RED, positions)
        witness = extract_induced(
            range(1, 10), DerivedColor(RED, positions), 4, 2, host, coloring
        )
        assert witness.host_left == (2, 4, 6, 8)
        assert witness.host_right == rights
        assert witness.claimed_color is RED
    report(1, started, 1, "extractions on [9] reproduce all three reference cases exactly")


def test_criterion_2_pigeonhole_at_stated_constants():
    started = time.perf_counter()
    for a, n, seed_base in ((2, 32, 0), (3, 48, 100_000)):
        host = complete_bipartite(n, 4)
        for i in range(1000):
            coloring = random_coloring(host, random.Random(seed_base + i))
            witness = extract_monochromatic_complete(coloring, a, 2)
            assert witness.claimed_color in (RED, BLUE)
            assert verify_witness(host, witness, coloring) is True
    report(2, started, 5, "2000 random colorings of K_{32,4} and K_{48,4} all extract valid witnesses")


def test_criterion_3_exact_micro_ramsey_number():
    started = time.perf_counter()
    assert ramsey_number_exact(2, 2, 3, 6) == 6
    counterexample = lower_bound_coloring(2, 2, 3, 5)
    assert counterexample is not None
    assert find_homogeneous_set(counterexample, 3) is None
    report(3, started, 60, "exhaustive search gives 6, with a verified size-5 counterexample")


def test_criterion_4_embedding_property_suite():
    started = time.perf_counter()
    rng = random.Random(41)
    patterns = [
        make_graph(3, (1, 2), {(1, 1), (2, 1), (3, 1)}),  # isolated right
        make_graph(2, (1, 2), {(x, y) for x in (1, 2) for y in (1, 2)}),  # full rights
    ]
    while len(patterns) < 200:
        c = rng.randint(1, 5)
        d = rng.randint(1, 5)
        labels = tuple(range(1, d + 1))
        edges = {(x, y) for x in range(1, c + 1) for y in labels if rng.random() < 0.5}
        patterns.append(make_graph(c, labels, edges))
    for pattern in patterns:
        result = embed_into_set_bipartite(pattern)
        assert result.a == 2 * pattern.left_count + len(pattern.right_labels)
        assert result.b == pattern.left_count + 1
        host = set_bipartite(result.a, result.b)
        assert verify_witness(host, result.witness) is True
    report(4, started, 5, "200 random patterns all embed induced with a=2c+d, b=c+1")


def test_criterion_5_right_vertex_exhaustive():
    started = time.perf_counter()
    cases = 0
    for b in range(1, 5):
        for a in range(1, 6):
            chosen_ranks = [t * b for t in range(1, a + 1)]
            for S in combinations(chosen_ranks, b):
                for I in combinations(range(1, 2 * b), b):
                    X = build_right_vertex(S, I, a, b)
                    assert all(X[i - 1] == s for i, s in zip(I, S))
                    assert set(X) & set(chosen_ranks) == set(S)
                    assert 1 <= X[0] and X[-1] <= a * b + b - 1
                    cases += 1
    assert cases > 0
    report(5, started, 10, f"all {cases} (b<=4, a<=5, S, I) right vertices well placed")


def test_criterion_6_no_induced_b42_in_complete_hosts():
    started = time.perf_counter()
    pattern = set_bipartite(4, 2)
    searched = 0
    for n in range(1, 7):
        for k in range(1, 7):
            host = complete_bipartite(n, k)
            for i in range(100):
                coloring = random_coloring(host, random.Random(1_000_000 + searched))
                searched += 1
                assert find_induced_monochromatic(host, coloring, pattern) is None
    report(6, started, 30, f"{searched} colorings of complete hosts, no induced copy ever found")


def test_criterion_7_end_to_end_single_edge():
    started = time.perf_counter()
    pattern = make_graph(1, (1,), {(1, 1)})
    host = set_bipartite(7, 3)
    coloring = constant_coloring(host, RED)
    witness = find_induced_mono_pattern(pattern, coloring)
    assert witness is not None
    assert witness.claimed_color is RED
    assert verify_witness(host, witness, coloring) is True
    report(7, started, 1, "pipeline finds a verified RED single edge in B_{7,3}")


def test_criterion_7_end_to_end_full_scale():
    # The c=3, d=2 pattern against B_{35,7}: ~6.7M right vertices.
    started = time.perf_counter()
    pattern = make_graph(3, (1, 2), {(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)})
    host = set_bipartite(35, 7)
    coloring = constant_coloring(host, RED)
    witness = find_induced_mono_pattern(pattern, coloring)
    assert witness is not None
    assert verify_witness(host, witness, coloring) is True
    print(f"\nACCEPTANCE 7 (full scale) PASS ({time.perf_counter() - started:.1f}s)")


def test_criterion_8_constructive_and_oracle_agree():
    started = time.perf_counter()
    host = set_bipartite(9, 3)
    coloring = constant_coloring(host, RED)
    found = find_homogeneous_set(derive_coloring(coloring, 2), 9)
    assert found is not None
    vertices, value = found
    constructive = extract_induced(
        vertices, decode_derived(value, 2), 4, 2, host, coloring
    )
    assert verify_witness(host, constructive, coloring) is True
    oracle = find_induced_monochromatic(host, coloring, set_bipartite(4, 2))
    assert oracle is not None
    assert verify_witness(host, oracle, coloring) is True
    report(8, started, 10, "constructive pipeline and brute-force oracle both find B_{4,2}")

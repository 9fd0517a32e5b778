"""Signature classes and pigeonhole extraction from complete hosts."""

import random
from math import ceil

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    ParameterError,
    coloring_from_map,
    complete_bipartite,
    constant_coloring,
    find_induced_monochromatic,
    extract_monochromatic_complete,
    random_coloring,
    set_bipartite,
    signature_of,
    verify_witness,
)


def test_signature_reads_row():
    g = complete_bipartite(3, 2)
    assert signature_of(constant_coloring(g, RED), 1) == (RED, RED)
    g22 = complete_bipartite(2, 2)
    col = coloring_from_map(g22, {(1, 1): RED, (1, 2): BLUE, (2, 1): RED, (2, 2): RED})
    assert signature_of(col, 1) == (RED, BLUE)


def test_signature_count_bound():
    g = complete_bipartite(8, 3)
    rng = random.Random(5)
    for _ in range(20):
        col = random_coloring(g, rng)
        signatures = {signature_of(col, x) for x in range(1, 9)}
        assert len(signatures) <= min(8, 2**3)


def test_signature_requires_complete_host():
    g = set_bipartite(3, 2)
    with pytest.raises(ParameterError):
        signature_of(constant_coloring(g, RED), 1)


def test_extract_all_red():
    g = complete_bipartite(32, 4)
    w = extract_monochromatic_complete(constant_coloring(g, RED), 2, 2)
    assert w.host_left == (1, 2)
    assert w.host_right == (1, 2)
    assert w.claimed_color is RED


def test_extract_tie_break_toward_red_rows():
    # Half all-RED rows, half all-BLUE rows: equal class sizes, and the
    # RED signature is lexicographically smaller, so it wins the tie.
    g = complete_bipartite(32, 4)
    colors = {
        (x, y): RED if x <= 16 else BLUE
        for x in range(1, 33)
        for y in range(1, 5)
    }
    w = extract_monochromatic_complete(coloring_from_map(g, colors), 2, 2)
    assert w.host_left == (1, 2)
    assert w.host_right == (1, 2)
    assert w.claimed_color is RED


def test_extract_precondition_errors():
    g = complete_bipartite(8, 4)
    col = constant_coloring(g, RED)
    with pytest.raises(ParameterError):
        extract_monochromatic_complete(col, 3, 2)  # n < a * 2^k
    g2 = complete_bipartite(32, 3)
    with pytest.raises(ParameterError):
        extract_monochromatic_complete(constant_coloring(g2, RED), 2, 2)  # k < 2b


def test_extract_never_fails_on_random_colorings():
    g = complete_bipartite(32, 4)
    n, k = 32, 4
    for seed in range(200):
        col = random_coloring(g, random.Random(seed))
        w = extract_monochromatic_complete(col, 2, 2)
        assert verify_witness(g, w, col) is True
        # The chosen class is at least the pigeonhole bound.
        sig = tuple(col.color_of(w.host_left[0], y) for y in range(1, 5))
        members = [x for x in range(1, 33) if signature_of(col, x) == sig]
        assert len(members) >= ceil(n / 2**k) >= 2
        chosen = [c for c in sig if c is w.claimed_color]
        assert len(chosen) >= ceil(k / 2) >= 2
        # The color is RED when RED reaches b = 2, else BLUE; its b smallest positions.
        reds = [p for p in range(1, k + 1) if sig[p - 1] is RED]
        blues = [p for p in range(1, k + 1) if sig[p - 1] is BLUE]
        expected = (RED, reds[:2]) if len(reds) >= 2 else (BLUE, blues[:2])
        assert (w.claimed_color, list(w.host_right)) == expected


def test_extract_agrees_with_oracle():
    # Wherever extraction applies and the host is small enough to search,
    # the brute-force oracle also finds a monochromatic complete copy.
    g = complete_bipartite(8, 2)
    pattern = complete_bipartite(2, 1)
    for seed in range(50):
        col = random_coloring(g, random.Random(1000 + seed))
        w = extract_monochromatic_complete(col, 2, 1)
        assert verify_witness(g, w, col) is True
        found = find_induced_monochromatic(g, col, pattern)
        assert found is not None
        assert verify_witness(g, found, col) is True


def test_extract_valid_under_left_relabeling():
    g = complete_bipartite(32, 4)
    rng = random.Random(99)
    col = random_coloring(g, rng)
    perm = list(range(1, 33))
    rng.shuffle(perm)
    relabeled = coloring_from_map(
        g, {(perm[x - 1], y): col.color_of(x, y) for x in range(1, 33) for y in range(1, 5)}
    )
    w = extract_monochromatic_complete(relabeled, 2, 2)
    assert verify_witness(g, w, relabeled) is True

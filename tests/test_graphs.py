"""Core data model, witness checking, and the brute-force oracle."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    BipartiteGraph,
    BudgetExceededError,
    Color,
    InducedCopyWitness,
    ValidationError,
    coloring_from_map,
    complete_bipartite,
    constant_coloring,
    find_induced_monochromatic,
    induced_subgraph,
    make_graph,
    random_coloring,
    set_bipartite,
    verify_witness,
)
from bipartite_ramsey.errors import BudgetMeter
from bipartite_ramsey.graphs import _bit, _resolve
from conftest import position_rule_coloring


def test_graph_validation_rejects_bad_edges():
    with pytest.raises(ValidationError):
        make_graph(2, (1, 2), {(3, 1)})
    with pytest.raises(ValidationError):
        make_graph(2, (1, 2), {(1, 5)})
    with pytest.raises(ValidationError):
        make_graph(2, (1, 1), set())


def test_graph_constructor_validates_neighbourhoods():
    assert BipartiteGraph(3, (1, (1, 2)), [(1, 3), ()]).sorted_edges() == [(1, 1), (3, 1)]
    for labels, neighborhoods in [
        ((1,), [(1, 1)]),  # repeated neighbour
        ((1,), [(2, 1)]),  # not increasing
        ((1,), [(0,)]),  # outside 1..left_count
        ((1,), [(4,)]),
        ((1,), [("1",)]),  # not an int
        ((1, 2), [(1,)]),  # one neighbourhood for two rights
        ((1, 1), [(1,), (2,)]),  # repeated label
        (((2, 1),), [(1,)]),  # unsorted subset label
    ]:
        with pytest.raises(ValidationError):
            BipartiteGraph(3, labels, neighborhoods)


def test_graph_labels_normalized_and_queries():
    g = make_graph(2, [[1, 2], 3], {(1, (1, 2)), (2, 3)})
    assert g.right_labels == ((1, 2), 3)
    assert g.right_index((1, 2)) == 1
    assert g.label_at(2) == 3
    assert g.has_edge(1, (1, 2)) and not g.has_edge(1, 3)
    assert g.edge_count == 2


def test_color_ordering_and_letters():
    assert RED < BLUE
    assert Color.from_letter("R") is RED and Color.from_letter("B") is BLUE
    assert RED.letter == "R" and BLUE.letter == "B"
    with pytest.raises(ValidationError):
        Color.from_letter("G")


def test_coloring_totality_enforced():
    g = complete_bipartite(2, 2)
    with pytest.raises(ValidationError):
        coloring_from_map(g, {(1, 1): RED})
    with pytest.raises(ValidationError):
        coloring_from_map(g, {**{e: RED for e in g.sorted_edges()}, (9, 9): BLUE})
    col = constant_coloring(g, RED)
    assert col.color_of(2, 2) is RED
    with pytest.raises(ValidationError):
        col.color_of(3, 1)


# -- verify_witness ------------------------------------------------------


def test_witness_blue_subgraph_is_induced(three_by_three_host, blue_pattern):
    w = InducedCopyWitness(blue_pattern, (1, 2, 3), (1, 2))
    assert verify_witness(three_by_three_host, w) is True


def test_witness_identity_copy(three_by_three_host):
    w = InducedCopyWitness(three_by_three_host, (1, 2, 3), (1, 2, 3))
    assert verify_witness(three_by_three_host, w) is True


def test_witness_red_subgraph_not_induced(three_by_three_host, red_pattern):
    # Host has the edge (1, 2) but the pattern omits it.
    w = InducedCopyWitness(red_pattern, (1, 2, 3), (1, 2))
    assert verify_witness(three_by_three_host, w) is False


def test_witness_shape_errors_are_not_false(three_by_three_host, blue_pattern):
    with pytest.raises(ValidationError):
        InducedCopyWitness(blue_pattern, (1, 2), (1, 2))  # wrong length
    with pytest.raises(ValidationError):
        InducedCopyWitness(blue_pattern, (1, 2, 2), (1, 2))  # repeat
    dangling = InducedCopyWitness(blue_pattern, (1, 2, 9), (1, 2))
    with pytest.raises(ValidationError):
        verify_witness(three_by_three_host, dangling)


def test_witness_color_claim_checked(three_by_three_host, blue_pattern):
    colors = {e: RED for e in three_by_three_host.sorted_edges()}
    col = coloring_from_map(three_by_three_host, colors)
    w = InducedCopyWitness(blue_pattern, (1, 2, 3), (1, 2), claimed_color=RED)
    assert verify_witness(three_by_three_host, w, col) is True
    w_blue = InducedCopyWitness(blue_pattern, (1, 2, 3), (1, 2), claimed_color=BLUE)
    assert verify_witness(three_by_three_host, w_blue, col) is False
    # Without a coloring the claim is not checkable and is skipped.
    assert verify_witness(three_by_three_host, w_blue) is True


# -- induced_subgraph ----------------------------------------------------


def test_induced_subgraph_blue_part(three_by_three_host, blue_pattern):
    sub = induced_subgraph(three_by_three_host, {1, 2, 3}, {1, 2})
    assert sub == blue_pattern
    assert sub.edge_count == 5


def test_induced_subgraph_empty():
    g = complete_bipartite(3, 3)
    sub = induced_subgraph(g, set(), set())
    assert sub.left_count == 0 and sub.right_labels == () and sub.edge_count == 0


def test_induced_subgraph_membership():
    g = set_bipartite(4, 2)
    sub = induced_subgraph(g, {1, 2}, {(1, 2)})
    assert sub.right_labels == ((1, 2),)
    assert sub.sorted_edges() == [(1, (1, 2)), (2, (1, 2))]


def test_induced_subgraph_idempotent(three_by_three_host):
    sub = induced_subgraph(three_by_three_host, {1, 3}, {1, 3})
    again = induced_subgraph(sub, set(sub.lefts), set(sub.right_labels))
    assert sub == again


def test_induced_subgraph_of_complete_is_complete():
    for n in range(1, 7):
        for k in range(1, 7):
            g = complete_bipartite(n, k)
            sub = induced_subgraph(g, set(range(1, min(n, 3) + 1)), set(range(1, min(k, 2) + 1)))
            assert sub.is_complete()


def test_induced_subgraph_unknown_vertex(three_by_three_host):
    with pytest.raises(ValidationError):
        induced_subgraph(three_by_three_host, {9}, set())
    with pytest.raises(ValidationError):
        induced_subgraph(three_by_three_host, set(), {9})


def test_an_unknown_left_has_one_message_for_both_checks(three_by_three_host):
    """induced_subgraph and verify_witness refuse a left the host lacks
    through the same check, with the same message."""
    witness = InducedCopyWitness(complete_bipartite(1, 1), (9,), (1,))
    for check in (
        lambda: induced_subgraph(three_by_three_host, {1, 9}, {1}),
        lambda: verify_witness(three_by_three_host, witness),
    ):
        with pytest.raises(ValidationError) as info:
            check()
        assert str(info.value) == "unknown left 9"
    for left in (0, 4, "1"):
        with pytest.raises(ValidationError, match=f"unknown left {left!r}"):
            induced_subgraph(three_by_three_host, {left}, set())


# -- the brute-force oracle ----------------------------------------------


def test_oracle_single_edge_deterministic():
    g = complete_bipartite(2, 2)
    col = constant_coloring(g, RED)
    w = find_induced_monochromatic(g, col, complete_bipartite(1, 1))
    assert (w.host_left, w.host_right, w.claimed_color) == ((1,), (1,), RED)


def test_oracle_first_witness_traces_search_order():
    g = complete_bipartite(2, 2)
    col = coloring_from_map(g, {(1, 1): BLUE, (1, 2): RED, (2, 1): RED, (2, 2): BLUE})
    w = find_induced_monochromatic(g, col, complete_bipartite(1, 1))
    # Left 1 first, RED before BLUE, rights scanned in host order.
    assert (w.host_left, w.host_right, w.claimed_color) == ((1,), (2,), RED)


def test_oracle_finds_b42_in_all_red_b93(b93):
    col = constant_coloring(b93, RED)
    w = find_induced_monochromatic(b93, col, set_bipartite(4, 2))
    assert w is not None
    assert verify_witness(b93, w, col) is True
    assert w.claimed_color is RED


def test_oracle_absent_on_complete_hosts():
    pattern = set_bipartite(4, 2)  # has non-edges
    rng = random.Random(42)
    for n in range(4, 7):
        g = complete_bipartite(n, 6)
        col = random_coloring(g, rng)
        assert find_induced_monochromatic(g, col, pattern) is None


def test_oracle_absent_for_any_nonedge_pattern_in_complete_hosts():
    # A complete host has no non-edges, so no pattern with one can be induced.
    rng = random.Random(314)
    for _ in range(40):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        host = complete_bipartite(n, k)
        col = random_coloring(host, rng)
        c, d = rng.randint(1, 3), rng.randint(1, 3)
        labels = tuple(range(1, d + 1))
        edges = {(x, y) for x in range(1, c + 1) for y in labels if rng.random() < 0.6}
        if len(edges) == c * d:
            edges.discard(next(iter(edges)))  # force at least one non-edge
        pattern = make_graph(c, labels, edges)
        assert find_induced_monochromatic(host, col, pattern) is None


def test_oracle_requires_nonmonotone_mapping():
    # Right 1 must map to the second host right and vice versa: a
    # searcher that only tries order-preserving assignments misses this.
    host = make_graph(2, (1, 2), {(1, 1), (2, 1), (1, 2)})
    pattern = make_graph(2, (1, 2), {(1, 1), (1, 2), (2, 2)})
    col = constant_coloring(host, RED)
    w = find_induced_monochromatic(host, col, pattern)
    assert w is not None
    assert w.host_right == (2, 1)
    assert verify_witness(host, w, col) is True


def test_oracle_pattern_larger_than_host_absent():
    g = complete_bipartite(2, 2)
    col = constant_coloring(g, RED)
    assert find_induced_monochromatic(g, col, complete_bipartite(3, 1)) is None


def test_oracle_zero_edge_pattern_claims_red():
    host = make_graph(2, (1, 2), {(1, 1)})
    col = constant_coloring(host, BLUE)
    pattern = make_graph(1, (1,), set())
    w = find_induced_monochromatic(host, col, pattern)
    assert w is not None and w.claimed_color is RED
    assert verify_witness(host, w, col) is True


def test_oracle_budget_error_distinct_from_absent():
    g = complete_bipartite(6, 6)
    col = constant_coloring(g, RED)
    with pytest.raises(BudgetExceededError):
        find_induced_monochromatic(g, col, set_bipartite(4, 2), budget=10)


def _random_graph(rng, lefts, labels, p=0.5):
    edges = {
        (x, y) for x in range(1, lefts + 1) for y in labels if rng.random() < p
    }
    return make_graph(lefts, labels, edges)


def test_oracle_round_trip_property():
    # Every witness the oracle returns is accepted by the checker.
    rng = random.Random(2026)
    found = 0
    for _ in range(60):
        host = _random_graph(rng, rng.randint(2, 5), tuple(range(1, rng.randint(3, 6))))
        pattern = _random_graph(rng, rng.randint(1, 2), tuple(range(1, rng.randint(2, 4))))
        col = random_coloring(host, rng)
        w = find_induced_monochromatic(host, col, pattern)
        if w is not None:
            found += 1
            assert verify_witness(host, w, col) is True
    assert found > 0  # the sample is not degenerate


# -- the oracle against the depth-first search it replaced ---------------------


def reference_oracle(host, coloring, pattern, budget=None):
    """find_induced_monochromatic as it was: a depth-first injective
    assignment that rescans every host right at each search node; kept as
    the reference."""
    a = pattern.left_count
    b = len(pattern.right_labels)
    if a > host.left_count or b > len(host.right_labels):
        return None
    _resolve(host, coloring)  # refuses a coloring of another graph

    meter = BudgetMeter(budget)
    neighborhoods = list(host.neighborhoods)
    host_adj = [frozenset(lefts) for lefts in neighborhoods]
    pat_needs = pattern.neighborhoods
    host_labels = host.right_labels
    pattern_has_edges = pattern.edge_count > 0

    for left_combo in combinations(range(1, host.left_count + 1), a):
        for left_perm in permutations(left_combo):
            left_set = frozenset(left_perm)
            # Host lefts that must be the exact neighborhood of each mapped right.
            needs = [frozenset(left_perm[i - 1] for i in need) for need in pat_needs]
            for color in (RED, BLUE):
                if color is BLUE and not pattern_has_edges:
                    break  # vacuous witnesses are RED by convention
                chosen = _assign_rights(
                    neighborhoods, coloring, host_labels, host_adj, needs, left_set, color, meter
                )
                if chosen is not None:
                    return InducedCopyWitness(pattern, left_perm, chosen, color)
    return None


def _assign_rights(neighborhoods, coloring, host_labels, host_adj, needs, left_set, color, meter):
    """Depth-first injective assignment of host rights to pattern rights."""
    b = len(needs)
    chosen = []
    used = set()

    def extend(j):
        for idx, label in enumerate(host_labels):
            if idx in used:
                continue
            meter.charge()
            if host_adj[idx] & left_set != needs[j]:
                continue
            mask, neighbors = coloring.masks[idx], neighborhoods[idx]
            if any(mask >> _bit(neighbors, l) & 1 != color for l in needs[j]):
                continue
            used.add(idx)
            chosen.append(label)
            if j + 1 == b or extend(j + 1):
                return True
            used.discard(idx)
            chosen.pop()
        return False

    if b == 0 or extend(0):
        return tuple(chosen)
    return None


def random_pattern(rng, lefts, rights):
    """A pattern on lefts 1..lefts with 0..rights rights, the last often a
    twin of the first (the same neighbourhood), so that the first tuple of
    fitting host rights repeats one."""
    d = rng.randint(0, rights)
    pattern = _random_graph(rng, rng.randint(0, lefts), tuple(range(1, d + 1)))
    if d > 1 and rng.random() < 0.5:
        twins = pattern.neighborhoods[:-1] + pattern.neighborhoods[:1]
        pattern = BipartiteGraph(pattern.left_count, pattern.right_labels, twins)
    return pattern


def oracle_cases(rng):
    """(host, coloring, pattern) triples: random generic hosts with int or
    subset labels and maybe an empty side, K_{n,k} and B_{n,k}."""
    for _ in range(150):
        lefts = rng.randint(0, 5)
        if lefts and rng.random() < 0.5:
            pool = [X for k in range(lefts + 1) for X in combinations(range(1, lefts + 1), k)]
            labels = sorted(rng.sample(pool, min(len(pool), rng.randint(0, 6))))
        else:
            labels = tuple(range(1, rng.randint(0, 6) + 1))
        host = _random_graph(rng, lefts, labels, rng.choice([0.3, 0.5, 0.8]))
        yield host, random_coloring(host, rng), random_pattern(rng, 2, 3)
    for n, k in [(1, 1), (3, 2), (4, 3), (2, 5), (5, 4)]:
        host = complete_bipartite(n, k)
        for _ in range(8):
            yield host, random_coloring(host, rng), random_pattern(rng, 2, 3)
        yield host, constant_coloring(host, BLUE), complete_bipartite(min(n, 2), min(k, 3))
    for n, k in [(4, 1), (5, 2), (6, 3), (6, 5)]:
        host = set_bipartite(n, k)
        for _ in range(8):
            yield host, random_coloring(host, rng), random_pattern(rng, 2, 3)


def planted_single_left_family():
    """Every 1-left, 3-right pattern on every position-rule coloring of
    B_{11,3}: a dead end at the last pattern right cost the depth-first
    search every pair of earlier choices."""
    host = set_bipartite(11, 3)
    pairs = [(1, 1), (1, 2), (1, 3)]
    for color in (RED, BLUE):
        for positions in combinations((1, 2, 3), 2):
            coloring = position_rule_coloring(host, color, positions)
            for m in range(8):
                edges = [e for bit, e in enumerate(pairs) if m >> bit & 1]
                yield host, coloring, make_graph(1, (1, 2, 3), edges)


def test_oracle_matches_the_depth_first_reference():
    found = Counter()
    for host, coloring, pattern in oracle_cases(random.Random(19)):
        expected = reference_oracle(host, coloring, pattern)
        assert find_induced_monochromatic(host, coloring, pattern) == expected, (host, pattern)
        found[expected is not None] += 1
    assert found[True] > 100 and found[False] > 100


def test_oracle_matches_the_reference_where_it_was_slow(b93):
    cases = list(planted_single_left_family())
    for positions in ((1, 2), (1, 3), (2, 3)):
        for color in (RED, BLUE):
            cases.append((b93, position_rule_coloring(b93, color, positions), set_bipartite(4, 2)))
    for host, coloring, pattern in cases:
        expected = reference_oracle(host, coloring, pattern)
        assert find_induced_monochromatic(host, coloring, pattern) == expected, pattern
        assert expected is None or verify_witness(host, expected, coloring) is True

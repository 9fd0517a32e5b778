"""Subset colorings, the derived coloring, homogeneous sets, and exact
micro-scale Ramsey numbers."""

import random
from itertools import combinations, product
from math import comb

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    BudgetExceededError,
    DerivedColor,
    ParameterError,
    SubsetColoring,
    ValidationError,
    coloring_from_map,
    constant_coloring,
    decode_derived,
    derive_coloring,
    derived_palette_size,
    encode_derived,
    find_homogeneous_set,
    is_homogeneous,
    lower_bound_coloring,
    majority_positions,
    ramsey_number_exact,
    set_bipartite,
    subset_rank,
)
from bipartite_ramsey import hypergraph
from conftest import position_rule_coloring


def test_subset_coloring_validation():
    with pytest.raises(ValidationError):
        SubsetColoring(4, 2, 2, (1,) * 5)  # wrong length
    with pytest.raises(ValidationError):
        SubsetColoring(4, 2, 2, (1,) * 5 + (3,))  # value out of palette
    sc = SubsetColoring(4, 2, 2, (1, 1, 2, 1, 2, 2))
    assert sc.value_of((1, 2)) == 1
    assert sc.value_of((3, 4)) == 2
    with pytest.raises(ValueError):
        sc.value_of((2, 1))
    for n, arity, mapping in ((-1, 2, {}), (4, -1, {}), (4, 2, {(1, 2): 1})):
        with pytest.raises(ValidationError):
            SubsetColoring.from_map(n, arity, 2, mapping)


@pytest.mark.parametrize("palette, storage", [(2, bytes), (255, bytes), (256, tuple), (924, tuple)])
def test_subset_coloring_storage_follows_the_palette(palette, storage):
    top = min(palette, 255)
    values = (1, top, 2, 1, top, 1)
    given = (values, list(values), iter(values), bytes(values))
    built = [SubsetColoring(4, 2, palette, v) for v in given]
    for sc in built:
        assert type(sc.values) is storage
        assert sc == built[0] and hash(sc) == hash(built[0])
        assert list(sc.values) == list(values)
        assert sc.value_of((2, 4)) == top


@pytest.mark.parametrize("palette", [2, 255, 256])
def test_subset_coloring_refuses_a_value_outside_the_palette(palette):
    for bad in (0, palette + 1, -1, 1.0, "a", None):
        values = (1, 1, bad, 1, 1, 1)
        given = [values, list(values)]
        if isinstance(bad, int) and 0 <= bad <= 255:
            given.append(bytes(values))
        for v in given:
            with pytest.raises(ValidationError):
                SubsetColoring(4, 2, palette, v)


def test_subset_coloring_accepts_bools_as_ints():
    for palette in (2, 256):
        sc = SubsetColoring(4, 2, palette, (True, 1, True, 1, 1, 1))
        assert sc == SubsetColoring(4, 2, palette, (1,) * 6)


def test_derived_color_codec_round_trip():
    for b in (1, 2, 3, 4):
        size = derived_palette_size(b)
        assert size == 2 * comb(2 * b - 1, b)
        seen = set()
        for color in (RED, BLUE):
            for positions in combinations(range(1, 2 * b), b):
                value = encode_derived(DerivedColor(color, positions), b)
                assert 1 <= value <= size
                assert decode_derived(value, b) == DerivedColor(color, positions)
                seen.add(value)
        assert len(seen) == size


def test_majority_positions_rule():
    assert majority_positions([BLUE, RED, BLUE], 2) == DerivedColor(BLUE, (1, 3))
    assert majority_positions([RED, RED, RED], 2) == DerivedColor(RED, (1, 2))
    assert majority_positions([RED], 1) == DerivedColor(RED, (1,))
    with pytest.raises(ParameterError):
        majority_positions([RED, BLUE], 2)


def test_derive_all_red():
    host = set_bipartite(9, 3)
    derived = derive_coloring(constant_coloring(host, RED), 2)
    assert derived.palette_size == 6
    expected = encode_derived(DerivedColor(RED, (1, 2)), 2)
    assert set(derived.values) == {expected}


def test_derive_single_subset_rule():
    host = set_bipartite(5, 3)
    target = (1, 2, 3)
    colors = {}
    for X in host.right_labels:
        for p, z in enumerate(X, 1):
            if X == target:
                colors[(z, X)] = BLUE if p in (1, 3) else RED
            else:
                colors[(z, X)] = RED
    derived = derive_coloring(coloring_from_map(host, colors), 2)
    assert decode_derived(derived.value_of(target), 2) == DerivedColor(BLUE, (1, 3))
    assert decode_derived(derived.value_of((1, 2, 4)), 2) == DerivedColor(RED, (1, 2))


def test_derive_reported_positions_carry_reported_color():
    host = set_bipartite(6, 3)
    rng = random.Random(77)
    for _ in range(10):
        colors = {e: (RED if rng.random() < 0.5 else BLUE) for e in host.sorted_edges()}
        coloring = coloring_from_map(host, colors)
        derived = derive_coloring(coloring, 2)
        for X, value in derived.items():
            dc = decode_derived(value, 2)
            assert len(dc.positions) == 2
            for p in dc.positions:
                assert coloring.color_of(X[p - 1], X) is dc.color


def test_derive_rejects_wrong_host():
    from bipartite_ramsey import complete_bipartite

    with pytest.raises(ParameterError):
        derive_coloring(constant_coloring(complete_bipartite(4, 3), RED), 2)
    with pytest.raises(ParameterError):
        derive_coloring(constant_coloring(set_bipartite(5, 2), RED), 2)  # arity 2 != 3


# -- homogeneous sets -------------------------------------------------------


def _block_coloring():
    # {1,2},{1,3},{2,3} -> 1, everything else -> 2, over n=4.
    mapping = {}
    for pair in combinations(range(1, 5), 2):
        mapping[pair] = 1 if set(pair) <= {1, 2, 3} else 2
    return SubsetColoring.from_map(4, 2, 2, mapping)


def test_is_homogeneous_examples():
    sc = _block_coloring()
    assert is_homogeneous(sc, {1, 2, 3}) is True
    assert is_homogeneous(sc, {1, 2, 4}) is False
    assert is_homogeneous(sc, {1}) is True  # below arity: vacuous
    constant = SubsetColoring(5, 2, 3, (2,) * 10)
    assert is_homogeneous(constant, {1, 2, 3, 4, 5}) is True
    with pytest.raises(ParameterError):
        is_homogeneous(sc, {0, 1})


def test_find_homogeneous_whole_ground_set():
    host = set_bipartite(9, 3)
    derived = derive_coloring(constant_coloring(host, RED), 2)
    found = find_homogeneous_set(derived, 9)
    assert found is not None
    vertices, value = found
    assert vertices == tuple(range(1, 10))
    assert decode_derived(value, 2) == DerivedColor(RED, (1, 2))


def five_cycle_coloring():
    """Pairs along the cycle 1-2-3-4-5-1 get value 1, the rest value 2.
    Neither value's graph contains a triangle."""
    cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    mapping = {
        pair: 1 if pair in cycle else 2 for pair in combinations(range(1, 6), 2)
    }
    return SubsetColoring.from_map(5, 2, 2, mapping)


def test_five_cycle_has_no_homogeneous_triple():
    sc = five_cycle_coloring()
    # Independent check: enumerate all 10 triples directly.
    cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    for triple in combinations(range(1, 6), 3):
        pair_values = {
            1 if pair in cycle else 2 for pair in combinations(triple, 2)
        }
        assert len(pair_values) == 2  # every triple mixes both values
    assert find_homogeneous_set(sc, 3) is None


def test_find_homogeneous_at_six_always_present():
    rng = random.Random(3)
    for _ in range(25):
        mapping = {
            pair: rng.randint(1, 2) for pair in combinations(range(1, 7), 2)
        }
        sc = SubsetColoring.from_map(6, 2, 2, mapping)
        found = find_homogeneous_set(sc, 3)
        assert found is not None
        vertices, value = found
        assert len(vertices) == 3
        assert reference_common_value(sc.values, 6, 2, vertices) == (value, True)
        assert all(sc.value_of(pair) == value for pair in combinations(vertices, 2))


def test_find_homogeneous_lexicographically_first():
    sc = _block_coloring()
    assert find_homogeneous_set(sc, 3) == ((1, 2, 3), 1)


def test_find_homogeneous_size_beyond_ground_set():
    sc = _block_coloring()
    assert find_homogeneous_set(sc, 5) is None


def test_find_homogeneous_budget():
    mapping = {
        pair: 1 + (pair[0] + pair[1]) % 2 for pair in combinations(range(1, 13), 2)
    }
    sc = SubsetColoring.from_map(12, 2, 2, mapping)
    with pytest.raises(BudgetExceededError):
        find_homogeneous_set(sc, 6, budget=20)


def reference_common_value(values, n, arity, vertices, meter=None):
    """The single value a value table (indexed by subset rank, see
    SubsetColoring) takes on all arity-subsets of the vertex set, as
    (value, True), or (None, False) if two subsets disagree."""
    if len(vertices) == n and values:
        # Whole ground set: its subsets are the dense value table itself.
        if meter is not None:
            meter.charge(len(values))
        first = values[0]
        ok = values.count(first) == len(values)
        return (first, True) if ok else (None, False)
    first = None
    for subset in combinations(vertices, arity):
        if meter is not None:
            meter.charge()
        value = values[subset_rank(subset, n)]
        if first is None:
            first = value
        elif value != first:
            return None, False
    return first, True


def brute_force_homogeneous(sc, s):
    """Reference: walk every s-subset in combinations order and read each
    arity-subset's value from the coloring's own (subset, value) pairs."""
    if s > sc.n:
        return None
    table = dict(sc.items())
    for candidate in combinations(range(1, sc.n + 1), s):
        if s < sc.arity:
            return candidate, None
        values = {table[subset] for subset in combinations(candidate, sc.arity)}
        if len(values) == 1:
            return candidate, values.pop()
    return None


def random_subset_coloring(rng, n, arity, palette):
    # Half the colorings favour value 1, so large homogeneous sets occur.
    weights = [1] * palette if rng.random() < 0.5 else [4 * palette] + [1] * (palette - 1)
    values = rng.choices(range(1, palette + 1), weights, k=comb(n, arity))
    return SubsetColoring(n, arity, palette, values)


def assert_homogeneous_answer(sc, s, found):
    vertices, value = found
    assert vertices == tuple(sorted(set(vertices))) and len(vertices) == s
    assert reference_common_value(sc.values, sc.n, sc.arity, vertices) == (value, True)
    if s < sc.arity:
        assert value is None
    else:
        assert all(sc.value_of(subset) == value for subset in combinations(vertices, sc.arity))


def test_find_homogeneous_matches_brute_force_on_random_colorings():
    rng = random.Random(2024)
    cases = 0
    for _ in range(400):
        arity, palette = rng.randint(1, 4), rng.randint(1, 3)
        n = rng.randint(0, 9)
        sc = random_subset_coloring(rng, n, arity, palette)
        for s in range(n + 2):
            found = find_homogeneous_set(sc, s)
            assert found == brute_force_homogeneous(sc, s), (n, arity, palette, s)
            if found is not None:
                assert_homogeneous_answer(sc, s, found)
            cases += 1
    assert cases > 2000


def test_find_homogeneous_matches_brute_force_on_planted_derived_colorings():
    # Random 2-colorings of B_{11,3} with a homogeneous 8-set planted on the
    # last vertices: arity 3, palette 6, found only deep in the search.
    host = set_bipartite(11, 3)
    planted = set(range(4, 12))
    for seed in range(3):
        rng = random.Random(seed)
        positions = tuple(sorted(rng.sample((1, 2, 3), 2)))
        colors = {}
        for X in host.right_labels:
            for p, z in enumerate(X, 1):
                if set(X) <= planted:
                    colors[(z, X)] = RED if p in positions else BLUE
                else:
                    colors[(z, X)] = RED if rng.random() < 0.5 else BLUE
        derived = derive_coloring(coloring_from_map(host, colors), 2)
        assert derived.palette_size == 6
        for s in range(3, 10):
            found = find_homogeneous_set(derived, s)
            assert found == brute_force_homogeneous(derived, s)
            if found is not None:
                assert_homogeneous_answer(derived, s, found)
        assert find_homogeneous_set(derived, 8)[0] <= tuple(range(4, 12))


def test_find_homogeneous_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def colorings(draw):
        arity = draw(st.integers(1, 3))
        n = draw(st.integers(arity, 7))
        palette = draw(st.integers(1, 3))
        values = draw(st.lists(st.integers(1, palette), min_size=comb(n, arity),
                               max_size=comb(n, arity)))
        return SubsetColoring(n, arity, palette, values)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(colorings(), st.integers(0, 8))
    def check(sc, s):
        assert find_homogeneous_set(sc, s) == brute_force_homogeneous(sc, s)

    check()


def test_is_homogeneous_agrees_with_the_reference_walk():
    rng = random.Random(21)
    kinds = set()
    for _ in range(300):
        arity, n = rng.randint(0, 4), rng.randint(0, 9)
        palette = rng.choice([1, 2, 3, 300])
        sc = random_subset_coloring(rng, n, arity, palette)
        for size in range(n + 1):
            members = rng.sample(range(1, n + 1), size)
            expected = reference_common_value(sc.values, n, arity, sorted(members))[1]
            assert is_homogeneous(sc, members) is expected, (n, arity, palette, members)
            kinds.update(kind for kind, hit in [
                ("arity 0", arity == 0 and size > 0),
                ("smaller than the arity", 0 < size < arity),
                ("whole set, not homogeneous", size == n and not expected),
                ("tuple values, not homogeneous", palette > 255 and not expected),
                ("tuple values, homogeneous", palette > 255 and expected and size > arity),
            ] if hit)
    assert len(kinds) == 5


# (seed, s): find_homogeneous_set's answer and BudgetMeter.used on a random
# 2-coloring of the pairs of [22], the search-micro bench's shape.
SEARCH_MICRO_PINS = {
    (0, 6): (((4, 7, 8, 12, 15, 16), 1), 2763),
    (0, 8): (None, 3648),
    (1, 6): (((3, 7, 17, 19, 20, 22), 2), 1674),
    (1, 8): (None, 2863),
    (2, 6): (None, 5885),
    (2, 8): (None, 3916),
    (3, 6): (((2, 3, 7, 9, 19, 21), 2), 919),
    (3, 8): (None, 3468),
    (4, 6): (((2, 3, 8, 11, 16, 18), 2), 1166),
    (4, 8): (None, 3934),
}


def test_search_micro_answers_and_lookups_are_pinned(monkeypatch):
    meters = []

    class Meter(hypergraph.BudgetMeter):
        def __init__(self, limit=None):
            super().__init__(limit)
            meters.append(self)

    monkeypatch.setattr(hypergraph, "BudgetMeter", Meter)
    for (seed, s), (answer, used) in SEARCH_MICRO_PINS.items():
        rng = random.Random(seed)
        sc = SubsetColoring(22, 2, 2, tuple(rng.randint(1, 2) for _ in range(comb(22, 2))))
        assert find_homogeneous_set(sc, s) == answer, (seed, s)
        assert meters[-1].used == used, (seed, s)


@pytest.mark.parametrize("s", [2.5, "3", None])
def test_find_homogeneous_rejects_non_integer_size(s):
    with pytest.raises(ParameterError):
        find_homogeneous_set(_block_coloring(), s)


@pytest.mark.parametrize("vertices", [{1, 2.5, 3}, {1, "2", 3}])
def test_is_homogeneous_rejects_non_integer_vertices(vertices):
    with pytest.raises(ParameterError):
        is_homogeneous(_block_coloring(), vertices)


def parity_coloring(n):
    """Pairs of equal parity get value 1, mixed pairs value 2."""
    mapping = {pair: 1 + (pair[0] + pair[1]) % 2 for pair in combinations(range(1, n + 1), 2)}
    return SubsetColoring.from_map(n, 2, 2, mapping)


def test_budget_error_on_the_depth_first_path_reports_its_count():
    sc = parity_coloring(12)
    for budget in (1, 2, 7, 20):
        with pytest.raises(BudgetExceededError) as info:
            find_homogeneous_set(sc, 6, budget=budget)
        assert info.value.limit == budget
        assert info.value.used == budget + 1


def test_budget_threshold_then_same_answer():
    rng = random.Random(11)
    colorings = [parity_coloring(12)] + [random_subset_coloring(rng, 9, 2, 2) for _ in range(3)]
    for sc in colorings:
        s = 6 if sc.n == 12 else 4
        answer = find_homogeneous_set(sc, s)
        outcomes = []
        for budget in range(1, 400):
            try:
                outcomes.append(find_homogeneous_set(sc, s, budget=budget))
            except BudgetExceededError:
                outcomes.append("exceeded")
        threshold = outcomes.index(answer)
        assert set(outcomes[:threshold]) == {"exceeded"}
        assert all(outcome == answer for outcome in outcomes[threshold:])


# -- exact micro Ramsey numbers ---------------------------------------------


def test_ramsey_exact_graph_triangle():
    assert ramsey_number_exact(2, 2, 3, 6) == 6


def test_ramsey_exact_pigeonhole_case():
    # Arity 1 is plain pigeonhole: c*(s-1)+1.
    assert ramsey_number_exact(1, 2, 3, 10) == 2 * 2 + 1 == 5
    assert ramsey_number_exact(1, 3, 2, 10) == 3 * 1 + 1 == 4


def test_ramsey_exact_single_pair():
    assert ramsey_number_exact(2, 2, 2, 5) == 2


def test_ramsey_exact_absent_below_threshold():
    assert ramsey_number_exact(2, 2, 3, 5) is None


def test_ramsey_exact_refuses_big_enumeration():
    # 2^C(4,2) = 64 colorings already exceed a budget of 50, so the very
    # first candidate n is refused up front, estimate attached.
    with pytest.raises(BudgetExceededError) as info:
        ramsey_number_exact(2, 2, 4, 18, budget=50)
    assert info.value.estimate == 2 ** 6
    assert info.value.estimate > 50
    assert "2^C(4,2) = 64 colorings" in str(info.value)


def test_a_refusal_past_str_digits_names_the_estimate_by_formula():
    # 10^C(40,3) has 9,881 digits, past the 4,300 that str() converts: the
    # message names it by formula and the exception still holds the number.
    with pytest.raises(BudgetExceededError) as info:
        ramsey_number_exact(3, 10, 40, 40)
    assert info.value.estimate == 10 ** comb(40, 3)
    assert str(info.value) == (
        "enumerating 10^C(40,3) colorings at n=40 exceeds the budget of 100000000"
    )


def test_a_refusal_decided_by_the_bound_computes_its_estimate_on_access():
    # C(400,2) = 79,800 >= 2^16: refused since 2^C(400,2) >= 2^27 > 10^8.
    with pytest.raises(BudgetExceededError) as info:
        ramsey_number_exact(2, 2, 400, 400)
    assert str(info.value) == (
        "enumerating 2^C(400,2) colorings at n=400 exceeds the budget of 100000000"
    )
    assert info.value.estimate == 2 ** comb(400, 2)
    assert info.value.limit == 100_000_000 and info.value.used == 0


def test_one_color_is_decided_before_any_count(monkeypatch):
    # The one coloring makes [1..s] homogeneous, vacuously when s < arity;
    # C(8000, 2) values would take about 1 GB.
    def no_count(*args):
        raise AssertionError(f"counted {args}")

    monkeypatch.setattr(hypergraph, "comb", no_count)
    monkeypatch.setattr(hypergraph, "capped_comb", no_count)
    assert lower_bound_coloring(2, 1, 3, 8000) is None
    assert lower_bound_coloring(2**31 - 1, 1, 5, 2**31 - 1) is None
    assert ramsey_number_exact(2, 1, 8000, 8000, budget=1) == 8000


def test_a_short_subset_coloring_is_refused_before_comb():
    # C(n, k) >= n for 0 < k < n: fewer than n values is not total, and
    # comb(2**31 - 1, 400000) alone takes seconds.
    for make in (lambda: SubsetColoring(2**31 - 1, 400000, 2, b""),
                 lambda: SubsetColoring.from_map(2**31 - 1, 400000, 2, {})):
        with pytest.raises(ValidationError, match=r"C\(2147483647,400000\) subsets, got 0"):
            make()
    with pytest.raises(ValidationError, match=r"C\(20000,10000\) subsets, got 1$"):
        SubsetColoring(20000, 10000, 2, b"\1")  # C(20000,10000) has 6,019 digits
    assert SubsetColoring(3, 3, 2, b"\2").values == b"\2"  # k = n: C(n, k) = 1 < n
    assert SubsetColoring(3, 0, 2, b"\2").values == b"\2"  # k = 0 likewise


def reference_counterexample(arity, palette, s, n):
    """Reference: walk every coloring in odometer order and check each
    against every s-set's tuple of subset ranks."""
    candidates = [
        tuple(subset_rank(subset, n) for subset in combinations(candidate, arity))
        for candidate in combinations(range(1, n + 1), s)
    ]
    for values in product(range(1, palette + 1), repeat=comb(n, arity)):
        if not any(len({values[r] for r in ranks}) <= 1 for ranks in candidates):
            return SubsetColoring(n, arity, palette, values)
    return None


def test_ramsey_enumeration_matches_the_candidate_walk():
    cases = 0
    for arity, palette, s in product(range(1, 4), repeat=3):
        ns = [n for n in range(s, 7) if palette ** comb(n, arity) <= 2 ** 15]
        expected = [reference_counterexample(arity, palette, s, n) for n in ns]
        for n, counterexample in zip(ns, expected):
            assert lower_bound_coloring(arity, palette, s, n) == counterexample, (arity, palette, s, n)
            cases += 1
        threshold = next((n for n, cx in zip(ns, expected) if cx is None), None)
        assert ramsey_number_exact(arity, palette, s, ns[-1]) == threshold, (arity, palette, s)
    assert cases > 60


def test_lower_bound_coloring_rechecked():
    cx = lower_bound_coloring(2, 2, 3, 5)
    assert cx is not None
    assert find_homogeneous_set(cx, 3) is None
    # At and above the threshold there is no counterexample.
    assert lower_bound_coloring(2, 2, 3, 6) is None
    for s in (-1, 6):
        with pytest.raises(ParameterError):
            lower_bound_coloring(2, 2, s, 5)


def test_monotone_at_pigeonhole_scale():
    # Once n = 5 works for (arity 1, 2 colors, s = 3), n = 6 does too.
    assert ramsey_number_exact(1, 2, 3, 10) == 5
    assert lower_bound_coloring(1, 2, 3, 6) is None


def test_derived_coloring_feeds_homogeneous_search(b93):
    coloring = position_rule_coloring(b93, BLUE, (2, 3))
    derived = derive_coloring(coloring, 2)
    found = find_homogeneous_set(derived, 9)
    assert found is not None
    vertices, value = found
    assert vertices == tuple(range(1, 10))
    assert decode_derived(value, 2) == DerivedColor(BLUE, (2, 3))

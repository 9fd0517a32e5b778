"""The lazy set-membership host B_{n,k} checked against explicit references.

set_bipartite stores no labels and no edges: its right_labels is a
SubsetSequence computed from subset ranks.  These tests hold that
sequence to the semantics of the tuple it stands for, and every fast
path over it (packing colorings, reading certificates) to the same
operation on the explicit graph make_graph builds from the same data.
"""

import hashlib
import random
from array import array
from collections import Counter, defaultdict
from functools import partial
from itertools import combinations
from math import comb
from pathlib import Path
from types import MappingProxyType

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    BipartiteGraph,
    DerivedColor,
    EdgeColoring,
    InducedCopyWitness,
    ValidationError,
    coloring_from_map,
    complete_bipartite,
    constant_coloring,
    extract_induced,
    k_subsets,
    make_graph,
    random_coloring,
    set_bipartite,
    verify_witness,
)
from bipartite_ramsey import formats, subsets
from bipartite_ramsey.formats import (
    certificate_from_text,
    coloring_from_text,
    coloring_to_text,
    export_dot,
    graph_from_text,
    graph_to_text,
)
from bipartite_ramsey.graphs import _bit, pack_coloring
from bipartite_ramsey.subsets import SubsetSequence, subset_unrank
from conftest import position_rule_coloring

GOLDEN_B93 = Path(__file__).parent / "golden" / "position_rule_b93.cert.txt"
SIZES = [(n, k) for n in range(1, 9) for k in range(1, n + 1)]


def non_members(n, k):
    first = tuple(range(1, k + 1))
    out = [
        first + (n + 1,),  # one element too many
        first[:-1],  # one too few (the empty tuple when k == 1)
        (0,) + first[1:],  # below the ground set
        first[:-1] + (n + 1,),  # above it
        ("1",) + first[1:],  # not integers
        (None,) * k,
        1,  # a bare int
        list(first),  # the right elements, not a tuple
    ]
    if k > 1:
        out.append(first[::-1])  # unsorted
        out.append((1,) * k)  # repeated element
    return out


@pytest.mark.parametrize("n, k", SIZES)
def test_sequence_matches_the_tuple(n, k):
    seq, ref = SubsetSequence(n, k), tuple(combinations(range(1, n + 1), k))
    assert len(seq) == len(ref) == comb(n, k)
    assert tuple(iter(seq)) == ref
    for i in range(-len(ref), len(ref)):
        assert seq[i] == ref[i]
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            seq[i]
    with pytest.raises(TypeError):
        seq["1"]
    for s in (slice(None), slice(1, None), slice(None, None, 2), slice(None, None, -1),
              slice(-3, None), slice(2, 5), slice(5, 2), slice(-100, 100, 3)):
        assert seq[s] == ref[s]
    for r, member in enumerate(ref):
        assert member in seq
        assert seq.index(member) == ref.index(member) == r
        assert seq.index(member, r, r + 1) == r
        assert seq.count(member) == 1
        with pytest.raises(ValueError):
            seq.index(member, r + 1)
    for other in non_members(n, k):
        assert (other in seq) == (other in ref) == False  # noqa: E712
        assert seq.count(other) == ref.count(other) == 0
        with pytest.raises(ValueError):
            seq.index(other)
    assert seq == ref and ref == seq and not seq != ref and not ref != seq
    assert seq != ref[:-1] and ref[:-1] != seq
    assert seq != list(ref) and list(ref) != seq
    assert seq == SubsetSequence(n, k) and seq != SubsetSequence(n + 1, k)
    assert repr(seq) == repr(ref) and hash(seq) == hash(ref)


def test_huge_host_builds_without_materializing(monkeypatch):
    def no_iteration(self):
        raise AssertionError("the lazy host was iterated")

    monkeypatch.setattr(SubsetSequence, "__iter__", no_iteration)
    host = set_bipartite(40, 20)  # C(40, 20) is about 1.4 * 10**11 rights
    last = tuple(range(21, 41))
    assert len(host.right_labels) == comb(40, 20)
    assert host.label_at(comb(40, 20)) == last
    assert host.right_index(last) == comb(40, 20)
    assert host.membership_arity == 20
    assert host.edge_count == 20 * comb(40, 20)
    assert host.has_edge(21, last) and not host.has_edge(1, last) and host.has_edge(40, last)
    assert host.neighbors(last) == last
    # Packing a constant coloring reads the degree, not the neighbourhoods.
    assert constant_coloring(set_bipartite(22, 8), RED).masks == bytes(comb(22, 8))


# -- queries on the lazy host vs the explicit one -----------------------------


def outcome(query, *args):
    """A query's answer, or the type and message of the error it raised."""
    try:
        return query(*args)
    except Exception as exc:  # the comparison is of the error itself
        return type(exc).__name__, str(exc)


def query_answers(host, coloring, labels, lefts):
    edges = host.sorted_edges()
    answers = [host.edge_count, edges, host.membership_arity]
    for label in labels:
        answers.append(outcome(host.has_right_label, label))
        answers.append(outcome(host.right_index, label))
        answers.append(outcome(host.neighbors, label))
        for left in lefts:
            answers.append(outcome(host.has_edge, left, label))
            answers.append((left, label) in edges)
            answers.append(outcome(coloring.color_of, left, label))
    return answers


def odd_labels(n, k):
    """Labels that are not rights of B_{n,k}, or are only by equality."""
    first = tuple(range(1, k + 1))
    return [(1, n + 1), [1, 2], list(first), 1, k, (True, 2), (True,) + first[1:],
            first + (n,), first[:-1], (), "1", None, {1: 2}, 1.5,
            (1.0,) + first[1:], first[:-1] + (float(k),)]


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 8) for k in range(1, n + 1)])
def test_equal_hosts_answer_every_query_alike(n, k):
    lazy, explicit = set_bipartite(n, k), explicit_host(n, k)
    assert lazy == explicit and lazy.sorted_edges() == explicit.sorted_edges()
    masks = random_coloring(explicit, random.Random(n * 10 + k)).masks
    labels = list(k_subsets(n, k)) + odd_labels(n, k)
    lefts = [0, 1, n, n + 1, True, "1", None]
    answers = [
        query_answers(host, EdgeColoring(host, masks), labels, lefts) for host in (lazy, explicit)
    ]
    assert answers[0] == answers[1]
    assert answers[0][2] == k  # membership_arity


def test_unknown_labels_are_false_or_validation_errors():
    for host in (set_bipartite(4, 2), explicit_host(4, 2), make_graph(2, (1, 2), {(1, 1)})):
        coloring = constant_coloring(host, RED)
        for label in ((1, 7), [1, 2], {}, 9, (1, 2, 3)):
            assert not host.has_right_label(label) and not host.has_edge(1, label)
            assert (1, label) not in host.sorted_edges()
            for query in (host.right_index, host.neighbors, partial(coloring.color_of, 1)):
                with pytest.raises(ValidationError):
                    query(label)


def plain_reference(left_count, labels, edges):
    """What a graph's queries should return, from a plain set of edges."""
    neighbors = {label: tuple(sorted(x for x, y in edges if y == label)) for label in labels}
    indexed = sorted(
        (x, r, p)
        for r, label in enumerate(labels, 1)
        for p, x in enumerate(neighbors[label])
    )
    arity = None
    for k in range(1, left_count + 1):
        if labels == list(k_subsets(left_count, k)) and all(neighbors[X] == X for X in labels):
            arity = k
    return neighbors, indexed, arity


def test_generic_graphs_match_a_plain_edge_set():
    rng = random.Random(12)

    def random_edges(left_count, labels):
        return {(x, y) for x in range(1, left_count + 1) for y in labels if rng.random() < 0.5}

    cases = []  # (left_count, labels, labels as make_graph is given them, edges)
    for _ in range(40):
        left_count = rng.randint(0, 6)
        rights = rng.sample(range(1, 9), rng.randint(0, 5))  # int labels in any order
        cases.append((left_count, rights, rights, random_edges(left_count, rights)))
        subsets = [X for k in range(1, left_count + 1) for X in k_subsets(left_count, k)]
        subsets = sorted(rng.sample(subsets, min(len(subsets), rng.randint(1, 6))))
        as_lists = [list(X) for X in subsets]
        cases.append((left_count, subsets, as_lists, random_edges(left_count, subsets)))
    for n, k in [(4, 2), (5, 3), (3, 3)]:  # exactly B_{n,k}
        subsets = list(k_subsets(n, k))
        members = {(x, X) for X in subsets for x in X}
        cases.append((n, subsets, [list(X) for X in subsets], members))
    for left_count, labels, given, edges in cases:
        named = [(x, given[labels.index(y)]) for x, y in sorted(edges)]  # list labels in edges too
        graph = make_graph(left_count, given, named)
        neighbors, indexed, arity = plain_reference(left_count, labels, edges)
        assert graph.right_labels == tuple(labels)
        assert set(graph.sorted_edges()) == edges
        assert graph.edge_count == len(graph.sorted_edges()) == len(edges)
        assert all(graph.neighbors(label) == neighbors[label] for label in labels)
        assert [(x, r) for x, row in enumerate(graph.edge_rows()[0]) for r in row] == [
            (x, r) for x, r, _ in indexed
        ]
        assert list(indexed_edges(graph)) == indexed
        assert graph.membership_arity == arity
        assert all(graph.has_edge(x, y) == ((x, y) in edges) for x in range(7) for y in labels)
        assert all(x in graph.neighborhoods[graph.right_index(y) - 1] for x, y in edges)
        # e lines in any order, some repeated, read as the same graph
        text = graph_to_text(graph)
        header, *lines = text.splitlines()
        es = [line for line in lines if line.startswith("e ")]
        shuffled = "\n".join([header, *es[::-1], *lines, *es[:2]])
        assert graph_from_text(shuffled) == graph_from_text(text)


# -- colorings on the lazy host vs the explicit one ---------------------------

PARITY_SIZES = [(4, 3), (6, 3), (9, 3), (5, 5), (7, 5), (9, 5)]


def explicit_host(n, k):
    labels = tuple(k_subsets(n, k))
    return make_graph(n, labels, ((x, X) for X in labels for x in X))


def edge_orders(n, k, rng):
    """The edges (x, X) of B_{n,k} right-major, left-major and shuffled."""
    right_major = [(x, X) for X in k_subsets(n, k) for x in X]
    left_major = sorted(right_major)
    shuffled = right_major[:]
    rng.shuffle(shuffled)
    return {"right-major": right_major, "left-major": left_major, "shuffled": shuffled}


@pytest.mark.parametrize("n, k", PARITY_SIZES)
def test_packers_agree_on_lazy_and_explicit_hosts(n, k):
    lazy, explicit = set_bipartite(n, k), explicit_host(n, k)
    assert lazy == explicit and explicit == lazy
    index = {X: i for i, X in enumerate(k_subsets(n, k), 1)}
    rng = random.Random(1000 * n + k)
    for _ in range(3):
        colors = {(x, X): rng.choice((RED, BLUE)) for X in index for x in X}
        expected = bytes(
            sum(colors[(x, X)] << p for p, x in enumerate(X)) for X in k_subsets(n, k)
        )
        for order, edges in edge_orders(n, k, rng).items():
            mapping = {edge: colors[edge] for edge in edges}
            text = "".join(f"c {x} {index[X]} {colors[(x, X)].letter}\n" for x, X in edges)
            assert coloring_from_map(lazy, mapping).masks == expected, order
            assert coloring_from_map(explicit, mapping).masks == expected, order
            assert coloring_from_text(text, lazy).masks == expected, order
            assert coloring_from_text(text, explicit).masks == expected, order


# -- per-left edge rows against the bucketing they replaced --------------------


def indexed_edges(graph):
    """(left, 1-based right index, p) per edge in the canonical order, where
    left is the right's p-th smallest neighbour: the writers' old bucketing
    of one tuple per edge by left, kept as the reference for edge_rows."""
    rows = [[] for _ in range(graph.left_count + 1)]
    for index, lefts in enumerate(graph.neighborhoods, 1):
        for p, left in enumerate(lefts):
            rows[left].append((index, p))
    for left, row in enumerate(rows):
        for index, p in row:
            yield left, index, p


def bucketed_random_masks(graph, rng):
    """random_coloring as it was: one draw per edge in indexed_edges order."""
    masks = [0] * graph.right_count
    for _, index, p in indexed_edges(graph):
        masks[index - 1] |= (rng.random() >= 0.5) << p
    return masks


def bucketed_texts(graph, masks):
    """graph_to_text, coloring_to_text and export_dot's edge lines as they
    were written from indexed_edges, one line list each."""
    bits = [(x, r, masks[r - 1] >> p & 1) for x, r, p in indexed_edges(graph)]
    graph_lines = [f"bipartite {graph.left_count} {graph.right_count}"]
    graph_lines += [
        f"rlabel {r} {','.join(map(str, label))}"
        for r, label in enumerate(graph.right_labels, 1)
        if isinstance(label, tuple)
    ]
    graph_lines += [f"e {x} {r}" for x, r, _ in bits]
    coloring_lines = [f"c {x} {r} {'RB'[bit]}" for x, r, bit in bits]
    dot_edges = [f"  L{x} -- R{r} [color={('red', 'blue')[bit]}];" for x, r, bit in bits]
    return "\n".join(graph_lines) + "\n", "\n".join(coloring_lines) + "\n", dot_edges


def edge_row_graphs():
    rng = random.Random(16)
    graphs = [complete_bipartite(3, 4), make_graph(0, (), ()), make_graph(3, (5, 1), ())]
    for _ in range(30):
        left_count = rng.randint(1, 7)
        subsets = [X for k in range(1, left_count + 1) for X in k_subsets(left_count, k)]
        for labels in (
            rng.sample(range(1, 12), rng.randint(0, 8)),  # int labels in any order
            sorted(rng.sample(subsets, min(len(subsets), rng.randint(1, 8)))),
        ):
            edges = [(x, y) for x in range(1, left_count + 1) for y in labels if rng.random() < 0.4]
            graphs.append(make_graph(left_count, labels, edges))
    for n, k in PARITY_SIZES:
        graphs += [set_bipartite(n, k), explicit_host(n, k)]
    return graphs


def test_edge_rows_match_the_bucketing_reference():
    for graph in edge_row_graphs():
        reference = list(indexed_edges(graph))
        rows, no_bits = graph.edge_rows()
        assert no_bits is None and len(rows) == graph.left_count + 1 and not rows[0]
        flat = [(x, r) for x, row in enumerate(rows) for r in row]
        assert flat == [(x, r) for x, r, _ in reference]
        assert graph.sorted_edges() == [(x, graph.right_labels[r - 1]) for x, r in flat]
        for seed in range(2):
            coloring = random_coloring(graph, random.Random(seed))
            masks = coloring.masks
            assert list(masks) == bucketed_random_masks(graph, random.Random(seed))
            rows, bits = graph.edge_rows(masks)
            assert [(x, r, bit) for x, row in enumerate(rows) for r, bit in zip(row, bits[x])] == [
                (x, r, masks[r - 1] >> p & 1) for x, r, p in reference
            ]
            graph_text, coloring_text, dot_edges = bucketed_texts(graph, masks)
            assert graph_to_text(graph) == graph_text
            assert coloring_to_text(coloring) == coloring_text
            dot = export_dot(graph, coloring).splitlines()
            assert [line for line in dot if " -- " in line] == dot_edges


@pytest.mark.parametrize("n, k", PARITY_SIZES)
def test_random_coloring_draws_are_unchanged(n, k):
    lazy, explicit = set_bipartite(n, k), explicit_host(n, k)
    for seed in range(3):
        rng = random.Random(seed)
        # The old packer: one draw per edge in canonical edge order.
        reference = {e: RED if rng.random() < 0.5 else BLUE for e in explicit.sorted_edges()}
        expected = coloring_from_map(explicit, reference).masks
        assert random_coloring(lazy, random.Random(seed)).masks == expected
        assert random_coloring(explicit, random.Random(seed)).masks == expected


def test_random_coloring_of_b_24_7_is_pinned():
    # The SHA-1 of the masks the per-left cursor assembler drew from this
    # stream, before random_coloring fed _packed; PARITY_SIZES stop at B_{9,5}.
    masks = random_coloring(set_bipartite(24, 7), random.Random(1)).masks
    assert hashlib.sha1(masks).hexdigest() == "403db6a4306d8500d38603259ee5dc35a067a9a2"


@pytest.mark.parametrize("n, k", PARITY_SIZES)
def test_both_hosts_reject_the_same_bad_colorings(n, k):
    lazy, explicit = set_bipartite(n, k), explicit_host(n, k)
    edges = [(x, X) for X in k_subsets(n, k) for x in X]
    index = {X: i for i, X in enumerate(k_subsets(n, k), 1)}
    mapping = {edge: RED for edge in edges}
    lines = [f"c {x} {index[X]} R" for x, X in edges]
    outsider = next((x for x in range(1, n + 1) if x not in edges[0][1]), n + 1)
    bad_maps = [
        dict(list(mapping.items())[1:]),  # missing edge
        {**mapping, (outsider, edges[0][1]): RED},  # non-edge
        {**mapping, (1, (0,) * k): RED},  # unknown right
        {**mapping, edges[0]: 2},  # not a color
    ]
    bad_texts = [
        lines[1:],  # missing
        lines + lines[:1],  # duplicate
        lines[1:] + [f"c {outsider} 1 R"],  # non-edge in place of an edge
        lines[1:] + [f"c 1 {len(index) + 1} R"],  # right index out of range
        lines[1:] + ["c 1 0 R"],
    ]
    messages = []
    for host in (lazy, explicit):
        for bad in bad_maps:
            with pytest.raises(ValidationError) as exc:
                coloring_from_map(host, bad)
            messages.append(str(exc.value))
        for bad in bad_texts:
            with pytest.raises(ValidationError) as exc:
                coloring_from_text("\n".join(bad), host)
            messages.append(str(exc.value))
    half = len(messages) // 2
    assert messages[:half] == messages[half:]  # the same error on either host


# -- the packers against the mask-per-right packer they replaced --------------


def reference_pack_coloring(graph, colored_edges):
    """pack_coloring as it was, verbatim: one neighbour tuple, one mask and
    one seen mask per right, kept as the reference for the digit packer."""
    neighborhoods = list(graph.neighborhoods)  # B_{n,k} unranks each right once, not per edge
    masks = [0] * len(neighborhoods)
    seen = [0] * len(neighborhoods)
    count = 0
    for left, index, color in colored_edges:
        r = index - 1
        try:
            bit = 1 << _bit(neighborhoods[r], left) if r >= 0 else 0
        except (IndexError, TypeError, ValueError):
            bit = 0  # no such right, or the left is not one of its neighbours
        if not bit:
            raise ValidationError(f"({left!r}, right {index!r}) is not an edge of the graph")
        if seen[r] & bit or color not in (RED, BLUE):
            raise ValidationError(f"edge ({left}, right {index}) colored twice or not by a color")
        seen[r] |= bit
        masks[r] |= bit * color
        count += 1
    if count != graph.edge_count:
        raise ValidationError(
            f"coloring is not total: {graph.edge_count - count} edges are uncolored"
        )
    return EdgeColoring(graph, masks)


def reference_coloring_from_map(graph, mapping):
    """coloring_from_map as it was: a label -> index dict and one
    reference_pack_coloring triple per key of the map."""
    index = {label: i for i, label in enumerate(graph.right_labels, 1)}

    def colored_edges():
        for edge, color in mapping.items():
            if type(edge) is not tuple or len(edge) != 2 or edge[1] not in index:
                raise ValidationError(f"{edge!r} is not an edge of the graph")
            yield edge[0], index[edge[1]], color

    return reference_pack_coloring(graph, colored_edges())


def from_map_graphs():
    """Random generic graphs (int and subset labels, rights of degree 0
    and above 8), K_{n,k}, and lazy and explicit B_{n,k} for k in 1..8."""
    rng = random.Random(17)
    graphs = [complete_bipartite(n, k) for n, k in [(1, 1), (3, 4), (8, 3), (9, 2), (12, 5)]]
    for _ in range(30):
        left_count = rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 0.9))
        subsets = [X for k in range(1, 4) for X in combinations(range(1, left_count + 1), k)]
        for labels in (
            rng.sample(range(1, 20), rng.randint(1, 8)),  # int labels in any order
            sorted(rng.sample(subsets, min(len(subsets), rng.randint(1, 8)))),
        ):
            edges = [(x, y) for x in range(1, left_count + 1) for y in labels
                     if rng.random() < density]
            graphs.append(make_graph(left_count, labels, edges))
    for k in range(1, 9):
        graphs += [set_bipartite(k + 2, k), explicit_host(k + 2, k)]
    return graphs


def key_orders(graph, rng):
    """A graph's edges right-major (mask bit order), left-major and shuffled."""
    right_major = [(x, label) for label, lefts in zip(graph.right_labels, graph.neighborhoods)
                   for x in lefts]
    shuffled = right_major[:]
    rng.shuffle(shuffled)
    return [right_major, graph.sorted_edges(), shuffled]


def bad_maps(graph, colors, rng):
    """Maps that coloring_from_map must refuse, each named for what is wrong."""
    edges = list(colors)
    edge = rng.choice(edges)
    missing = {e: c for e, c in colors.items() if e != edge}
    non_edges = [(x, label) for label in graph.right_labels for x in graph.lefts
                 if not graph.has_edge(x, label)] or [(graph.left_count + 1, edge[1])]
    counter, default = Counter(missing), defaultdict(lambda: RED, missing)
    assert counter[edge] == 0 and default[edge] is RED and edge not in counter  # __missing__
    del default[edge]
    return {
        "missing edge": missing,
        "extra non-edge": {**colors, rng.choice(non_edges): BLUE},
        "unknown right": {**colors, (1, -1): RED},
        "non-tuple key": {**colors, frozenset(edge): RED},
        **{f"value {value!r}": {**colors, edge: value} for value in (2, 1.0, "R", None)},
        "Counter lacking an edge": counter,
        "defaultdict lacking an edge": default,
    }


def test_coloring_from_map_matches_the_reference_packer():
    rng = random.Random(18)
    graphs = from_map_graphs()
    assert any(() in graph.neighborhoods for graph in graphs)  # some right of degree 0
    kinds = set()
    for graph in graphs:
        for _ in range(2):
            colors = {e: rng.choice((RED, BLUE)) for e in graph.sorted_edges()}
            for order in key_orders(graph, rng):
                mapping = {e: colors[e] for e in order}
                coloring = coloring_from_map(graph, mapping)
                assert coloring == reference_coloring_from_map(graph, mapping)  # bytes or tuple
                kinds.add(type(coloring.masks))
            assert coloring_from_map(graph, MappingProxyType(colors)) == coloring
        if not colors:
            continue
        for name, bad in bad_maps(graph, colors, rng).items():
            with pytest.raises(ValidationError):
                coloring_from_map(graph, bad)
                pytest.fail(f"accepted a map with a {name}")
            # The old packer let 1.0 through as BLUE and died on OR-ing it into a mask.
            with pytest.raises(TypeError if name == "value 1.0" else ValidationError):
                reference_coloring_from_map(graph, bad)
    assert kinds == {bytes, tuple}


def bad_triples(graph, triples, rng):
    """Triple lists that pack_coloring must refuse, each named for what is wrong."""
    i = rng.randrange(len(triples))
    left, index, color = triples[i]
    rest = triples[:i] + triples[i + 1:]
    non_edges = [(x, r) for r, lefts in enumerate(graph.neighborhoods, 1)
                 for x in graph.lefts if x not in lefts] or [(graph.left_count + 1, index)]
    x, r = rng.choice(non_edges)
    return {
        "extra non-edge": triples + [(x, r, RED)],
        "non-edge in place of an edge": rest + [(x, r, color)],
        "duplicate": triples + [triples[i]],
        "duplicate in place of an edge": rest[:1] + rest,
        "missing edge": rest,
        "left 0": rest + [(0, index, color)],
        **{f"color {c!r}": rest + [(left, index, c)] for c in (2, -1, 63 - 48, None, "R")},
        **{f"index {j!r}": rest + [(left, j, color)]
           for j in (0, -1, graph.right_count + 1, 1 << 70)},
    }


def columns(triples):
    """pack_coloring's columns for triples: array('i'), array('i') and a
    bytearray, as the text readers give them, where the values fit; lists
    otherwise."""
    lefts, rights, colors = map(list, zip(*triples)) if triples else ([], [], [])
    try:
        return array("i", lefts), array("i", rights), bytearray(colors)
    except (TypeError, ValueError, OverflowError):
        return lefts, rights, colors


def test_pack_coloring_matches_the_reference_packer():
    rng = random.Random(19)
    for graph in from_map_graphs():
        colors = {e: rng.choice((RED, BLUE)) for e in graph.sorted_edges()}
        index = {label: i for i, label in enumerate(graph.right_labels, 1)}
        for order in key_orders(graph, rng):  # right-major, left-major, shuffled
            triples = [(x, index[label], colors[(x, label)]) for x, label in order]
            # EdgeColoring equality also tells bytes masks from tuple ones
            reference = reference_pack_coloring(graph, triples)
            assert pack_coloring(graph, *columns(triples)) == reference
            assert pack_coloring(graph, *map(list, columns(triples))) == reference
        if not triples:
            continue
        for name, bad in bad_triples(graph, triples, rng).items():
            for pack in (lambda graph, bad: pack_coloring(graph, *columns(bad)),
                         reference_pack_coloring):
                with pytest.raises(ValidationError):
                    pack(graph, bad)
                    pytest.fail(f"{pack.__name__} accepted a coloring with {name}")
        lefts, rights, bits = columns(triples)
        for bad in (bits[:-1], bits[:-1] + b"\2"):  # one short, one not a color
            with pytest.raises(ValidationError, match="uncolored|not by a color"):
                pack_coloring(graph, lefts, rights, bad)


# -- the certificate fast path vs the generic parse --------------------------


def generic_parse(m):
    """Switch off the comparison with the writer's text and the B_{n,k} check."""
    m.setattr(formats._Lines, "take", lambda *args, **kwargs: None)
    m.setattr(formats, "set_graph_arity", lambda *args: None)


def parse_both(text, monkeypatch):
    """(fast path result or error, generic path result or error)."""
    results = []
    for generic in (False, True):
        with monkeypatch.context() as m:
            if generic:
                generic_parse(m)
            try:
                results.append(graph_from_text(text))
            except ValidationError as exc:
                results.append(str(exc))
    return results


@pytest.mark.parametrize("n, k", [(5, 2), (7, 3), (8, 5)])
def test_set_graph_text_takes_the_fast_path(n, k, monkeypatch):
    fast, generic = parse_both(graph_to_text(set_bipartite(n, k)), monkeypatch)
    assert isinstance(fast.right_labels, SubsetSequence)
    assert isinstance(generic.right_labels, tuple)
    assert fast == generic and generic == fast == set_bipartite(n, k)


def near_misses(n, k):
    lines = graph_to_text(set_bipartite(n, k)).splitlines()
    rlabels = [i for i, line in enumerate(lines) if line.startswith("rlabel")]
    es = [i for i, line in enumerate(lines) if line.startswith("e ")]
    right_count = comb(n, k)
    swapped = lines[:]
    a, b = rlabels[0], rlabels[1]
    swapped[a] = f"rlabel 1 {lines[b].split()[2]}"
    swapped[b] = f"rlabel 2 {lines[a].split()[2]}"
    outside = lines[:]
    outside[es[0]] = f"e {n + 1} {lines[es[0]].split()[2]}"
    extra = [f"bipartite {n} {right_count + 1}"] + lines[1:]
    reordered = swapped[:]  # the first two rights trade places, edges and all
    trade = {"1": "2", "2": "1"}
    for i in es:
        _, left, idx = lines[i].split()
        reordered[i] = f"e {left} {trade.get(idx, idx)}"
    return {
        "swapped rlabel": swapped,
        "rights in another order": reordered,
        "extra left vertex": [f"bipartite {n + 1} {right_count}"] + lines[1:],
        "dropped e line": lines[: es[3]] + lines[es[3] + 1 :],
        "duplicated e line": lines + [lines[es[-1]]],
        "e line replaced by a copy of another": lines[:-1] + [lines[es[0]]],
        "extra right": extra,
        "extra right with a repeated label": extra + [f"rlabel {right_count + 1} {lines[a].split()[2]}"],
        "extra right with a new label and edge": extra
        + [f"rlabel {right_count + 1} {','.join(map(str, range(1, k + 2)))}", f"e 1 {right_count + 1}"],
        "edge outside the ground set": outside,
        "e line to a non-member": lines[:-1] + [f"e 1 {right_count}"],
    }


@pytest.mark.parametrize("n, k", [(5, 2), (7, 3)])
def test_near_misses_fall_back_to_the_generic_parse(n, k, monkeypatch):
    host = set_bipartite(n, k)
    for name, lines in near_misses(n, k).items():
        fast, generic = parse_both("\n".join(lines), monkeypatch)
        if isinstance(generic, str):
            assert fast == generic, name  # the same ValidationError message
            continue
        assert fast == generic, name
        # A repeated e line adds no edge, so that text is still exactly B_{n,k}.
        assert (fast == host) == (name == "duplicated e line"), name
        assert isinstance(fast.right_labels, SubsetSequence) == (fast == host), name


def test_golden_certificate_reads_the_same_either_way(monkeypatch):
    text = GOLDEN_B93.read_text(encoding="utf-8")
    fast = certificate_from_text(text)
    generic_parse(monkeypatch)
    generic = certificate_from_text(text)
    assert isinstance(fast[0].right_labels, SubsetSequence)
    assert fast[0] == generic[0]
    assert fast[1].masks == generic[1].masks
    assert fast[2] == generic[2]


def test_mask_range_check():
    host = set_bipartite(5, 3)  # ten rights of degree 3
    masks = bytes([7] * 10)
    assert EdgeColoring(host, masks).masks is masks  # bytes are not copied
    assert EdgeColoring(host, [7] * 10).masks == masks
    for bad in (bytes([8]) + bytes(9), [8] + [0] * 9, [-1] + [0] * 9, [256] + [0] * 9,
                bytes(9), bytes(11), [0] * 11, 10):  # bytes(10) would be ten zero masks
        with pytest.raises(ValidationError):
            EdgeColoring(host, bad)
    full = set_bipartite(8, 8)  # one right of degree 8: every byte is in range
    assert EdgeColoring(full, bytes([255])).masks == bytes([255])
    wide = make_graph(9, (1,), {(x, 1) for x in range(1, 10)})  # degree 9: tuple storage
    assert EdgeColoring(wide, bytes([255])).masks == (255,)
    assert EdgeColoring(wide, [511]).masks == (511,)
    for bad in ([512], [-1], bytes(2), 1):
        with pytest.raises(ValidationError):
            EdgeColoring(wide, bad)
    # Rights of unequal degree: a bit past a right's own degree is refused,
    # not dropped by the writer (bytes([2, 0]) once read back as bytes(2)).
    ragged = make_graph(2, (1, 2), [(1, 1), (1, 2), (2, 2)])  # right 1 has one neighbour
    assert EdgeColoring(ragged, bytes([1, 3])).masks == bytes([1, 3])
    text = coloring_to_text(EdgeColoring(ragged, [1, 3]))
    assert coloring_from_text(text, ragged).masks == bytes([1, 3])
    wide_and_narrow = make_graph(9, (1, 2), [(x, 1) for x in range(1, 10)] + [(1, 2)])
    assert EdgeColoring(wide_and_narrow, [511, 1]).masks == (511, 1)
    for graph, bad in ((ragged, bytes([2, 0])), (ragged, [0, 4]), (wide_and_narrow, [511, 2])):
        with pytest.raises(ValidationError):
            EdgeColoring(graph, bad)


@pytest.mark.parametrize("n, storage", [(8, bytes), (9, tuple)])
@pytest.mark.parametrize("bad", ["a", 1.0, None])
def test_non_integer_mask_is_a_validation_error(n, storage, bad):
    host = complete_bipartite(n, 2)  # two rights of degree n
    assert type(EdgeColoring(host, [0, 1]).masks) is storage
    with pytest.raises(ValidationError):
        EdgeColoring(host, [0, bad])


# -- verify_witness against the label-based checker it replaced ---------------


def reference_verify_witness(host, witness, coloring=None):
    """verify_witness as it was: host.has_edge and coloring.color_of, each a
    label lookup, per (left, right) pair; kept as the reference."""
    for left in witness.host_left:
        if not (isinstance(left, int) and 1 <= left <= host.left_count):
            raise ValidationError(f"witness references unknown host left {left!r}")
    for label in witness.host_right:
        if not host.has_right_label(label):
            raise ValidationError(f"witness references unknown host right {label!r}")
    if coloring is not None and coloring.graph is not host and coloring.graph != host:
        raise ValidationError("coloring refers to a different graph than the host")
    pattern = witness.pattern
    check_color = witness.claimed_color is not None and coloring is not None
    for i in range(1, pattern.left_count + 1):
        hl = witness.host_left[i - 1]
        for j, plabel in enumerate(pattern.right_labels, 1):
            hr = witness.host_right[j - 1]
            in_pattern = pattern.has_edge(i, plabel)
            in_host = host.has_edge(hl, hr)
            if in_pattern != in_host:
                return False
            if in_host and check_color:
                if coloring.color_of(hl, hr) != witness.claimed_color:
                    return False
    return True


def copy_witness(host, coloring, lefts, rights, rng):
    """The witness of the pattern the host induces on lefts and rights, in
    the order given, claiming the color of its edges when they share one."""
    d = len(rights)
    labels = rng.choice([list(range(1, d + 1)), [(j,) for j in range(1, d + 1)]])
    edges = [(i, labels[j]) for i, x in enumerate(lefts, 1) for j, y in enumerate(rights)
             if host.has_edge(x, y)]
    colors = {coloring.color_of(x, y) for i, x in enumerate(lefts, 1) for y in rights
              if host.has_edge(x, y)}
    claimed = colors.pop() if len(colors) == 1 else rng.choice([None, RED, BLUE])
    return InducedCopyWitness(make_graph(len(lefts), labels, edges), lefts, rights, claimed)


def tampered(host, witness, rng):
    """Witnesses one change away from the given one, each named for it."""
    pattern, lefts, rights = witness.pattern, list(witness.host_left), list(witness.host_right)
    out = {}
    spare_lefts = [x for x in host.lefts if x not in lefts]
    if spare_lefts:
        out["swapped left"] = (lefts[:-1] + [rng.choice(spare_lefts)], rights)
    if len(lefts) > 1:
        out["exchanged lefts"] = (lefts[1:] + lefts[:1], rights)
    spare_rights = [y for y in host.right_labels if y not in rights]
    if rights and spare_rights:
        out["swapped right"] = (lefts, rights[:-1] + [rng.choice(spare_rights)])
    if len(rights) > 1:
        out["exchanged rights"] = (lefts, rights[1:] + rights[:1])
    out["left 0"] = ([0] + lefts[1:], rights)
    out["left n+1"] = (lefts[:-1] + [host.left_count + 1], rights)
    if rights:
        out["unknown right"] = (lefts, [-1] + rights[1:])
    witnesses = {name: InducedCopyWitness(pattern, *maps, witness.claimed_color)
                 for name, maps in out.items()}
    flipped = BLUE if witness.claimed_color is RED else RED
    witnesses["flipped color"] = InducedCopyWitness(pattern, lefts, rights, flipped)
    return witnesses


def verdict(check, *args):
    try:
        return check(*args)
    except ValidationError as exc:
        return type(exc)


def test_verify_witness_matches_the_label_based_reference():
    rng = random.Random(19)
    graphs = from_map_graphs()
    graphs += [set_bipartite(9, 3), explicit_host(9, 3), set_bipartite(8, 5)]
    verdicts, kinds = Counter(), set()
    for host in graphs:
        coloring = random_coloring(host, rng)
        kinds.add(type(coloring.masks))
        twin = BipartiteGraph(host.left_count, host.right_labels, host.neighborhoods)
        other = complete_bipartite(host.left_count, host.right_count + 1)  # same lefts
        colorings = [None, coloring, EdgeColoring(twin, coloring.masks)]
        colorings.append(constant_coloring(other, RED))
        for _ in range(12):
            lefts = rng.sample(host.lefts, rng.randint(1, min(4, host.left_count)))
            rights = rng.sample(host.right_labels, rng.randint(0, min(4, host.right_count)))
            witness = copy_witness(host, coloring, lefts, rights, rng)
            for name, w in {"copy": witness, **tampered(host, witness, rng)}.items():
                for col in colorings:
                    expected = verdict(reference_verify_witness, host, w, col)
                    assert verdict(verify_witness, host, w, col) == expected, (host, name)
                    verdicts[expected] += 1
    assert verdicts[True] and verdicts[False] and verdicts[ValidationError]
    assert kinds == {bytes, tuple}  # K_{9,2} and K_{12,5} keep their masks in a tuple


def test_verify_witness_looks_up_each_witness_right_once(monkeypatch):
    unranks = Counter()

    def counting_unrank(*args):
        unranks["calls"] += 1
        return subset_unrank(*args)

    lazy = set_bipartite(9, 3)
    coloring = position_rule_coloring(lazy, RED, (1, 3))
    witness = extract_induced(range(1, 10), DerivedColor(RED, (1, 3)), 4, 2, lazy, coloring)
    masks = coloring.masks
    monkeypatch.setattr(subsets, "subset_unrank", counting_unrank)
    for host in (lazy, explicit_host(9, 3)):
        coloring, lookups = EdgeColoring(host, masks), Counter()

        def counting_find(label, find=host._find):
            lookups[label] += 1
            return find(label)

        monkeypatch.setitem(host.__dict__, "_find", counting_find)
        unranks.clear()
        assert verify_witness(host, witness, coloring) is True
        assert lookups == Counter(witness.host_right)  # one per right, none per pair
        if host is lazy:  # and each right's neighbourhood is unranked once
            assert unranks["calls"] == len(witness.host_right) == 6

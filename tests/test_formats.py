"""Round trips and validation for the text file formats."""

import random
import tracemalloc

import pytest

from bipartite_ramsey import (
    BLUE,
    RED,
    DerivedColor,
    InducedCopyWitness,
    ParameterError,
    ValidationError,
    complete_bipartite,
    constant_coloring,
    derive_coloring,
    extract_induced,
    make_graph,
    random_coloring,
    set_bipartite,
    verify_witness,
)
from bipartite_ramsey.formats import (
    certificate_from_text,
    certificate_to_text,
    coloring_from_text,
    coloring_to_text,
    complete_coloring_from_text,
    graph_from_text,
    graph_to_text,
    infer_complete_host,
    infer_set_host,
    subset_coloring_from_text,
    subset_coloring_to_text,
)
from bipartite_ramsey import subsets
from conftest import position_rule_coloring


def test_graph_round_trip_opaque():
    g = make_graph(3, (1, 2), {(1, 1), (3, 2)})
    text = graph_to_text(g)
    assert text.splitlines()[0] == "bipartite 3 2"
    assert graph_from_text(text) == g


def test_graph_round_trip_subset_labels():
    g = set_bipartite(4, 2)
    text = graph_to_text(g)
    assert "rlabel 1 1,2" in text
    assert graph_from_text(text) == g


def test_graph_text_errors():
    with pytest.raises(ValidationError):
        graph_from_text("nonsense 1 2\n")
    with pytest.raises(ValidationError):
        graph_from_text("bipartite 2 2\ne 1 5\n")
    with pytest.raises(ValidationError):
        graph_from_text("bipartite 2 2\nrlabel 7 1,2\n")
    with pytest.raises(ValidationError):
        graph_from_text("bipartite 2 2\nx 1 2\n")


def test_graph_header_counts_are_4_byte_indices():
    # Counts past 2^31 - 1 are refused before anything is allocated for them.
    for header in ("bipartite 0 99999999999", "bipartite 2147483648 0", "bipartite 0 -1"):
        with pytest.raises(ValidationError, match="counts must be 0..2147483647"):
            graph_from_text(header)
    assert graph_from_text("bipartite 2147483647 0").left_count == 2**31 - 1  # no rights


def test_graph_text_ignores_comments_and_blanks():
    g = graph_from_text("# a graph\n\nbipartite 1 1\n\ne 1 1\n")
    assert g.edge_count == 1


def test_coloring_round_trip():
    import random

    g = set_bipartite(4, 2)
    col = random_coloring(g, random.Random(12))
    text = coloring_to_text(col)
    assert coloring_from_text(text, g) == col


def test_coloring_totality_and_duplicates():
    g = complete_bipartite(2, 2)
    with pytest.raises(ValidationError):
        coloring_from_text("c 1 1 R\n", g)  # missing edges
    with pytest.raises(ValidationError):
        coloring_from_text(
            "c 1 1 R\nc 1 1 B\nc 1 2 R\nc 2 1 R\nc 2 2 R\n", g
        )  # duplicate line
    with pytest.raises(ValidationError):
        coloring_from_text("c 1 1 G\nc 1 2 R\nc 2 1 R\nc 2 2 R\n", g)
    for huge in ("c 1 4294967296 R\n", "c -4294967296 1 R\n"):  # past a 4-byte column
        with pytest.raises(ValidationError, match="out of range"):
            coloring_from_text(huge, g)
        with pytest.raises(ValidationError, match="out of range"):
            infer_complete_host(huge)


def test_infer_hosts_from_coloring_files():
    g = complete_bipartite(3, 2)
    text = coloring_to_text(constant_coloring(g, RED))
    assert infer_complete_host(text) == g

    b = set_bipartite(5, 3)
    text = coloring_to_text(constant_coloring(b, BLUE))
    assert infer_set_host(text, 3) == b
    with pytest.raises(ValidationError):
        infer_set_host(text, 5)
    for k in (0, -1):
        with pytest.raises(ParameterError):
            infer_set_host(text, k)
    with pytest.raises(ValidationError):
        infer_complete_host("# empty\n")
    with pytest.raises(ValidationError):  # K_{3,2} one edge short
        infer_complete_host(coloring_to_text(constant_coloring(g, RED)).replace("c 3 2 R\n", ""))
    for text, message in (
        ("c 0 5 R\n", "coloring left 0 is below 1"),
        ("c 1 1 R\nc 2 -3 B\n", "coloring right index -3 is below 1"),
        ("# no lines\n\n", "coloring file contains no coloring lines"),
    ):
        for read in (infer_complete_host, complete_coloring_from_text):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                read(text)


def test_complete_coloring_from_text_reads_host_and_coloring_at_once():
    g = complete_bipartite(9, 3)  # degree 9: masks in a tuple
    coloring = random_coloring(g, random.Random(4))
    text = coloring_to_text(coloring)
    assert complete_coloring_from_text(text) == coloring
    assert complete_coloring_from_text(text).graph == infer_complete_host(text) == g
    with pytest.raises(ValidationError):  # the right count, but an edge colored twice
        complete_coloring_from_text(text.replace("c 9 3 ", "c 9 2 "))


def test_infer_complete_host_counts_lines_before_building_the_host():
    # One line naming right 2,000,000 is no total coloring of K_{1,2000000};
    # it is refused before the host's 2,000,000 rights are allocated.
    for read in (infer_complete_host, complete_coloring_from_text):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                read("c 1 2000000 R\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_subset_coloring_round_trip():
    host = set_bipartite(5, 3)
    sc = derive_coloring(constant_coloring(host, RED), 2)
    text = subset_coloring_to_text(sc)
    assert text.splitlines()[0] == "subsetcoloring 5 3 6"
    assert subset_coloring_from_text(text) == sc


def test_subset_coloring_text_errors():
    with pytest.raises(ValidationError):
        subset_coloring_from_text("subsetcoloring 3 2 2\nsc 1,2 1\n")  # not total
    with pytest.raises(ValidationError):
        subset_coloring_from_text("sc 1,2 1\n")
    with pytest.raises(ValidationError):
        subset_coloring_from_text(
            "subsetcoloring 3 2 2\nsc 1,2 1\nsc 1,2 2\nsc 1,3 1\nsc 2,3 1\n"
        )
    for text in (
        "subsetcoloring 3 2 2\nsc 2,3 1\n",  # too few lines, the last subset among them
        "subsetcoloring 3 2 2\nsc 1,2 1\nsc 1,2 2\nsc 2,3 1\n",  # right count, a duplicate
        "subsetcoloring -1 2 2\n",
        "subsetcoloring 100000 50 2\n",
    ):
        with pytest.raises(ValidationError):
            subset_coloring_from_text(text)


def test_certificate_round_trip_with_coloring(b93):
    coloring = position_rule_coloring(b93, RED, (1, 3))
    witness = extract_induced(
        range(1, 10), DerivedColor(RED, (1, 3)), 4, 2, b93, coloring
    )
    text = certificate_to_text(b93, witness, coloring)
    host2, coloring2, witness2 = certificate_from_text(text)
    assert host2 == b93
    assert coloring2 == coloring
    assert witness2 == witness
    assert verify_witness(host2, witness2, coloring2) is True


def test_certificate_without_coloring(three_by_three_host, blue_pattern):
    witness = InducedCopyWitness(blue_pattern, (1, 2, 3), (1, 2))
    text = certificate_to_text(three_by_three_host, witness)
    host2, coloring2, witness2 = certificate_from_text(text)
    assert coloring2 is None
    assert witness2.claimed_color is None
    assert verify_witness(host2, witness2) is True


def test_certificate_errors():
    with pytest.raises(ValidationError):
        certificate_from_text("pattern\nbipartite 1 1\n")  # no host section
    with pytest.raises(ValidationError):
        certificate_from_text("wleft 1 1\n")  # line outside sections
    good = certificate_to_text(
        complete_bipartite(1, 1),
        InducedCopyWitness(complete_bipartite(1, 1), (1,), (1,)),
    )
    with pytest.raises(ValidationError):
        certificate_from_text(good.replace("wleft 1 1", "wleft 2 1"))


def test_short_files_are_refused_without_comb(monkeypatch):
    # C(n, k) >= n for 0 < k < n, so fewer lines than that bound need no
    # C(n, k), which for n = 2**31 - 1 can take seconds to compute.
    def no_comb(n, k):
        raise AssertionError(f"comb({n}, {k}) called")

    monkeypatch.setattr(subsets, "comb", no_comb)
    with pytest.raises(ValidationError, match=r"needs 3\*C\(2147483647,3\)$"):
        infer_set_host("c 2147483647 1 R\nc 1 1 R\nc 2 1 R\n", 3)  # one subset's worth
    with pytest.raises(ValidationError, match=r"C\(2147483647,2\) subsets, got 0$"):
        subset_coloring_from_text("subsetcoloring 2147483647 2 2\n")

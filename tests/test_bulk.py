"""Bulk conversions against the per-item code they replaced.

graphs._packed builds the masks of a host whose rights all have the same
degree d <= 8 from d bit planes, and formats._subset_names spells each
element once for all the subsets.  The bodies below are the ones they
replaced, verbatim but for their names: every input must give the same
value, or be refused by both.
"""

import os
import random
import resource
import subprocess
import sys
from itertools import accumulate, combinations, pairwise, repeat
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bipartite_ramsey import ValidationError, complete_bipartite, set_bipartite  # noqa: E402
from bipartite_ramsey.formats import _subset_names  # noqa: E402
from bipartite_ramsey.graphs import BipartiteGraph, EdgeColoring, _packed  # noqa: E402

SETTINGS = hypothesis.settings(deadline=None)
SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- the per-item code, as it was ------------------------------------------------


def reference_packed(graph, text):
    ends = pairwise(accumulate(map(len, graph.neighborhoods), initial=0))
    return EdgeColoring(graph, (int(text[o:e][::-1] or b"0", 2) for o, e in ends))


def reference_subset_names(subsets, n):
    """Each subset of [n] as rlabel and sc lines spell it."""
    return map(",".join, map(map, repeat(list(map(str, range(n + 1))).__getitem__), subsets))


# -- bit planes ------------------------------------------------------------------


@st.composite
def hosts(draw):
    """A host of one of the kinds the plane packer tells apart: regular of
    degree 1-9 (B_{n,k} or not), not regular with every degree <= 8,
    K_{n,k} with n on both sides of 8, and edgeless."""
    kind = draw(st.sampled_from(["set", "regular", "irregular", "complete", "edgeless"]))
    if kind == "set":
        k = draw(st.integers(1, 9))
        return set_bipartite(draw(st.integers(k, min(k + 3, 11))), k)
    if kind == "complete":
        return complete_bipartite(draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    lefts = draw(st.integers(0, 11))
    rights = draw(st.integers(0, 6))
    if kind == "regular":
        d = draw(st.integers(1, min(9, lefts))) if lefts else 0
        degrees = [d] * rights
    elif kind == "irregular":
        degrees = draw(st.lists(st.integers(0, min(8, lefts)), min_size=rights, max_size=rights))
    else:
        degrees = [0] * rights
    rng = random.Random(draw(st.integers(0, 99)))
    neighborhoods = [tuple(sorted(rng.sample(range(1, lefts + 1), d))) for d in degrees]
    return BipartiteGraph(lefts, tuple(range(1, rights + 1)), tuple(neighborhoods))


@SETTINGS
@hypothesis.given(hosts(), st.data())
def test_plane_packer_matches_the_per_right_packer(host, data):
    bits = data.draw(st.lists(st.booleans(), min_size=host.edge_count, max_size=host.edge_count))
    digits = bytes(48 + bit for bit in bits)
    for text in (digits, bytearray(digits)):
        packed = _packed(host, text)
        expected = reference_packed(host, text)
        assert packed == expected
        assert type(packed.masks) is type(expected.masks)


@SETTINGS
@hypothesis.given(hosts(), st.data())
def test_plane_packer_refuses_what_the_per_right_packer_refuses(host, data):
    hypothesis.assume(host.edge_count)
    bits = data.draw(st.lists(st.booleans(), min_size=host.edge_count, max_size=host.edge_count))
    digits = bytearray(48 + bit for bit in bits)
    at = data.draw(st.integers(0, host.edge_count - 1))
    digits[at] = data.draw(st.sampled_from(b"29a?\0\xff"))
    for pack in (_packed, reference_packed):
        with pytest.raises(ValueError):
            pack(host, bytes(digits))


def test_plane_packer_error_is_a_validation_error():
    with pytest.raises(ValidationError, match="digits 0 and 1"):
        _packed(set_bipartite(4, 2), b"012101" * 2)


# -- subset names ----------------------------------------------------------------


def test_subset_names_match_one_join_per_subset():
    for n in range(11):
        for k in range(n + 2):
            subsets = combinations(range(1, n + 1), k)
            assert list(_subset_names(n, k)) == list(reference_subset_names(subsets, n)), (n, k)


def test_subset_names_at_a_wide_ground_set_start_at_once():
    names = _subset_names(1 << 16, 20_000)
    assert next(names) == ",".join(map(str, range(1, 20_001)))
    assert next(names) == ",".join(map(str, [*range(1, 20_000), 20_001]))


def test_subset_names_of_fewer_than_two_elements_build_no_list_of_the_ground_set():
    # A list of [2^31 - 1] would pass the child's 1 GiB, or its 10 s.
    code = ("from itertools import islice; from bipartite_ramsey.formats import _subset_names; "
            "print(*islice(_subset_names(2**31 - 1, 1), 3), *_subset_names(2**31 - 1, 0), 'end')")

    def one_gib():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=10, preexec_fn=one_gib)
    assert proc.stdout == "1 2 3  end\n", proc.stderr[-500:]

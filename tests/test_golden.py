"""Byte-exact certificate text for two pinned runs.

The files under tests/golden/ were written by certificate_to_text before
edge colorings were stored as packed masks; any change to the witness
choices, the edge order or the coloring section shows up here as a diff.
"""

import random
from pathlib import Path

import pytest

from bipartite_ramsey import (
    RED,
    DerivedColor,
    complete_bipartite,
    extract_induced,
    extract_monochromatic_complete,
    random_coloring,
    set_bipartite,
)
from bipartite_ramsey.formats import certificate_to_text
from conftest import position_rule_coloring

GOLDEN = Path(__file__).parent / "golden"


def position_rule_b93():
    host = set_bipartite(9, 3)
    coloring = position_rule_coloring(host, RED, (1, 3))
    witness = extract_induced(range(1, 10), DerivedColor(RED, (1, 3)), 4, 2, host, coloring)
    return certificate_to_text(host, witness, coloring)


def pigeonhole_k32_4():
    host = complete_bipartite(32, 4)
    coloring = random_coloring(host, random.Random(2))
    witness = extract_monochromatic_complete(coloring, 2, 2)
    return certificate_to_text(host, witness, coloring)


RUNS = {
    "position_rule_b93": position_rule_b93,
    "pigeonhole_k32_4": pigeonhole_k32_4,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_certificate_text_matches_golden(name):
    expected = (GOLDEN / f"{name}.cert.txt").read_text(encoding="utf-8")
    assert RUNS[name]() == expected

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # pytest --hypothesis-profile=deep: ten times the default examples.  Not
    # named "ci", the profile Hypothesis loads by itself on CI machines.
    settings.register_profile("deep", max_examples=1000, deadline=None)

from bipartite_ramsey import (
    BLUE,
    RED,
    coloring_from_map,
    make_graph,
    set_bipartite,
)


@pytest.fixture
def three_by_three_host():
    """The 7-edge host on lefts {1,2,3} and opaque rights {1,2,3} whose
    restriction to rights {1,2} is induced with 5 edges."""
    edges = {(1, 1), (1, 2), (1, 3), (2, 2), (3, 1), (3, 2), (3, 3)}
    return make_graph(3, (1, 2, 3), edges)


@pytest.fixture
def blue_pattern():
    """Induced restriction of the host above to rights {1,2}: 5 edges."""
    return make_graph(3, (1, 2), {(1, 1), (1, 2), (2, 2), (3, 1), (3, 2)})


@pytest.fixture
def red_pattern():
    """Same vertices but only 3 of the 5 edges, so NOT induced there."""
    return make_graph(3, (1, 2), {(1, 1), (2, 2), (3, 2)})


@pytest.fixture
def small_pattern():
    """Three lefts, two rights, five edges; right 2 misses left 2."""
    return make_graph(3, (1, 2), {(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)})


def position_rule_coloring(host, color, positions):
    """Color edge (z_p, X) with `color` when p (the position of z in
    sorted X) lies in `positions`, the opposite color otherwise.  Makes
    the whole ground set homogeneous with derived value (color, positions)."""
    other = BLUE if color is RED else RED
    colors = {}
    for X in host.right_labels:
        for p, z in enumerate(X, 1):
            colors[(z, X)] = color if p in positions else other
    return coloring_from_map(host, colors)


@pytest.fixture
def b93():
    return set_bipartite(9, 3)

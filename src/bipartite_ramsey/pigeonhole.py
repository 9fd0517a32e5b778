"""Monochromatic complete subgraphs by double pigeonhole.

Any 2-coloring of K_{n,k} assigns each left vertex x a signature: the
k-vector of colors on its edges, read across right positions 1..k.  With
n >= a * 2^k at least a left vertices share one signature, and with
k >= 2b at least b positions of that signature carry one color.  Those
lefts and positions span a monochromatic K_{a,b}, and the extraction is
a direct computation, never a search.

The proof's divisibility conveniences (2^k | n, 2 | k) are dropped: the
ceiling counts ceil(n / 2^k) and ceil(k / 2) already support the same
conclusion, so the preconditions here are just the inequalities.
"""

from .constructions import complete_bipartite
from .errors import ParameterError
from .graphs import BLUE, RED, InducedCopyWitness
from .hypergraph import _majority


def signature_of(coloring, x):
    """The color vector of left vertex x across right positions 1..k."""
    graph = coloring.graph
    if not graph.is_complete():
        raise ParameterError("signatures are defined on complete hosts only")
    if not 1 <= x <= graph.left_count:
        raise ParameterError(f"left vertex {x} out of range 1..{graph.left_count}")
    return _signature(coloring.masks, x)


def _signature(masks, x):
    # Every right of a complete host has neighbours 1..n: bit x-1 of its mask colors x.
    return tuple((RED, BLUE)[mask >> (x - 1) & 1] for mask in masks)


def extract_monochromatic_complete(coloring, a, b):
    """Extract a monochromatic K_{a,b} witness from a 2-colored K_{n,k}.

    Requires n >= a * 2^k and k >= 2b; under those preconditions the
    extraction cannot fail.  Deterministic choices: among the largest
    signature classes take the lexicographically least signature
    (RED < BLUE), its a smallest left vertices, the RED positions if RED
    occurs at least b times in it and the BLUE positions otherwise, and
    the b smallest such positions.
    """
    graph = coloring.graph
    if not graph.is_complete():
        raise ParameterError("extraction needs a complete host")
    n = graph.left_count
    k = len(graph.right_labels)
    if a < 1 or b < 1:
        raise ParameterError(f"need a, b >= 1, got ({a}, {b})")
    if n < a * 2**k:
        raise ParameterError(f"need n >= a * 2^k: {n} < {a} * 2^{k} = {a * 2**k}")
    if k < 2 * b:
        raise ParameterError(f"need k >= 2b: {k} < {2 * b}")

    classes = {}
    for x in range(1, n + 1):
        classes.setdefault(_signature(coloring.masks, x), []).append(x)
    largest = max(len(xs) for xs in classes.values())
    signature = min(sig for sig, xs in classes.items() if len(xs) == largest)
    members = classes[signature]
    # Pigeonhole: the largest class has at least ceil(n / 2^k) >= a members.
    assert largest * 2**k >= n and largest >= a

    # ceil(k / 2) >= b positions carry one color; RED is taken when it has b.
    color, positions = _majority(signature, b)

    return InducedCopyWitness(
        pattern=complete_bipartite(a, b),
        host_left=tuple(sorted(members)[:a]),
        host_right=tuple(graph.label_at(p) for p in positions),
        claimed_color=color,
    )

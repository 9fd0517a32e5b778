"""End-to-end pipeline: any bipartite pattern, induced and monochromatic.

This module is only the chain; each step, and the constants it runs on
(constructions.required_parameters), is defined where it belongs.  Given
a pattern with c lefts and d rights, the chain is:

  1. embed the pattern induced into B_{a,b}, a = 2c + d, b = c + 1;
  2. derive the subset coloring of the 2-colored host B_{n,2b-1};
  3. search for a homogeneous set of size s = a*b + b - 1;
  4. extract an induced monochromatic B_{a,b} from it;
  5. compose: the pattern's placement inside B_{a,b} maps through the
     extracted copy, giving an induced monochromatic copy of the pattern
     itself, since every edge of the extracted copy has one color.

A ground set large enough to guarantee step 3 always exists, but it is
given by a Ramsey number far beyond computation, so at realistic n the
pipeline honestly returns None when no homogeneous set is found; the
guarantee is reported symbolically by required_parameters instead.
"""

from .constructions import embed_into_set_bipartite, required_parameters
from .extraction import construct_induced
from .graphs import InducedCopyWitness, verify_witness
from .hypergraph import decode_derived, derive_coloring, find_homogeneous_set
from .subsets import subset_rank


def find_induced_mono_pattern(pattern, coloring, budget=None):
    """Run the full pipeline against a 2-colored B_{n,2b-1}.

    Returns a verified witness for an induced monochromatic copy of the
    pattern, or None when the ground set admits no homogeneous set of
    the required size (in particular whenever n < s).  A host other than
    B_{n,2b-1} is refused by derive_coloring with ParameterError.
    """
    report = required_parameters(pattern)
    host = coloring.graph
    embedding = embed_into_set_bipartite(pattern)
    derived_coloring = derive_coloring(coloring, report.b)
    found = find_homogeneous_set(derived_coloring, report.s, budget=budget)
    if found is None:
        return None
    homogeneous, value = found
    derived = decode_derived(value, report.b)
    # find_homogeneous_set has just checked every subset of the set, so
    # the construction runs without extract_induced's second check.
    inner = construct_induced(homogeneous, derived, report.a, report.b, host, coloring)

    # Compose the embedding with the extracted copy.  Pattern right j sits
    # at some b-subset of [a]; its final image is the host right vertex the
    # extraction assigned to that b-subset.
    host_left = tuple(
        inner.host_left[embedding.left_map[i] - 1] for i in range(1, report.c + 1)
    )
    host_right = tuple(
        inner.host_right[subset_rank(embedding.right_map[j], report.a)]
        for j in range(1, report.d + 1)
    )
    witness = InducedCopyWitness(pattern, host_left, host_right, derived.color)
    if not verify_witness(host, witness, coloring):
        raise AssertionError("pipeline composed an invalid witness (bug)")
    return witness

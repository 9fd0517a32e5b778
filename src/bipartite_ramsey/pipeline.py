"""End-to-end pipeline: any bipartite pattern, induced and monochromatic.

Given a pattern with c lefts and d rights, the chain is:

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

from dataclasses import dataclass
from math import comb

from .constructions import embed_into_set_bipartite
from .errors import ParameterError, ValidationError
from .extraction import construct_induced
from .formats import _format_label
from .graphs import BLUE, RED, InducedCopyWitness, verify_witness
from .hypergraph import decode_derived, derive_coloring, find_homogeneous_set
from .subsets import subset_rank


@dataclass(frozen=True)
class ParameterReport:
    """Every constant the pipeline would use for a pattern, plus the
    guarantee threshold as a formula; its value is out of reach."""

    c: int
    d: int
    a: int
    b: int
    k: int
    s: int
    palette: int
    n_formula: str
    n_value: None = None


def required_parameters(pattern):
    """Derived constants for a pattern with c lefts and d rights."""
    c = pattern.left_count
    d = len(pattern.right_labels)
    if c < 1 or d < 1:
        raise ParameterError(
            f"pattern must have at least one vertex per side, got {c} lefts, {d} rights"
        )
    a = 2 * c + d
    b = c + 1
    k = 2 * b - 1
    s = a * b + b - 1
    palette = 2 * comb(k, b)
    return ParameterReport(
        c=c, d=d, a=a, b=b, k=k, s=s, palette=palette,
        n_formula=f"R_{{{k},{palette}}}({s})",
    )


def find_induced_mono_pattern(pattern, coloring, budget=None):
    """Run the full pipeline against a 2-colored B_{n,2b-1}.

    Returns a verified witness for an induced monochromatic copy of the
    pattern, or None when the ground set admits no homogeneous set of
    the required size (in particular whenever n < s).
    """
    report = required_parameters(pattern)
    host = coloring.graph
    if host.membership_arity != report.k:
        raise ParameterError(
            f"pattern with {report.c} lefts needs a set-membership host of "
            f"arity {report.k}, got {host!r}"
        )

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


_DOT_COLOR = {RED: "red", BLUE: "blue", None: "black"}


def export_dot(graph, coloring=None, witness=None):
    """Graphviz text for a bipartite graph in the two-column style:
    lefts in one rank, rights in another, edges red/blue when colored
    and black otherwise, witness vertices and edges drawn bold."""
    marked_lefts, marked_rights = set(), set()  # rights by 1-based index
    if witness is not None:
        for left in witness.host_left:
            if not (isinstance(left, int) and 1 <= left <= graph.left_count):
                raise ValidationError(f"witness references unknown left {left!r}")
        marked_lefts = set(witness.host_left)
        marked_rights = {graph.right_index(label) for label in witness.host_right}
    if coloring is None:
        edges = ((left, index, None) for left, index, _ in graph.indexed_edges())
    elif coloring.graph is graph or coloring.graph == graph:
        edges = coloring.edge_bits()
    else:
        raise ValidationError("coloring refers to a different graph")

    lines = ["graph bipartite {", "  rankdir=LR;", "  node [shape=circle];"]
    left_nodes = []
    for x in graph.lefts:
        style = ' style=bold penwidth=2' if x in marked_lefts else ""
        left_nodes.append(f'    L{x} [label="{x}"{style}];')
    if left_nodes:
        lines.append("  { rank=same;")
        lines.extend(left_nodes)
        lines.append("  }")
    right_nodes = []
    for idx, label in enumerate(graph.right_labels, 1):
        style = ' style=bold penwidth=2' if idx in marked_rights else ""
        right_nodes.append(f'    R{idx} [label="{_format_label(label)}"{style}];')
    if right_nodes:
        lines.append("  { rank=same;")
        lines.extend(right_nodes)
        lines.append("  }")
    for left, index, bit in edges:
        attrs = [f"color={_DOT_COLOR[bit]}"]
        if left in marked_lefts and index in marked_rights:
            attrs.append("penwidth=2")
        lines.append(f'  L{left} -- R{index} [{" ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"

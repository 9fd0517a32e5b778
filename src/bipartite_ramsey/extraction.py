"""Constructing an induced monochromatic B_{a,b} from a homogeneous set.

Suppose every (2b-1)-subset of a homogeneous set H (for the derived
coloring of a 2-colored B_{n,2b-1}) carries the same value (c, I): the
edges at positions I = {i_1 < ... < i_b} into any such subset all have
color c.  Take s = a*b + b - 1 elements of H.  The copy's left vertices
are the elements of H at ranks b, 2b, ..., ab; consecutive chosen ranks
are b apart, leaving b-1 unchosen ranks between neighbors, b-1 below the
first and b-1 above the last.  For each b-subset S of the chosen ranks,
build_right_vertex pads S with b-1 filler ranks so that, in sorted
order, the elements of S land exactly at the positions I.  The pads fit
inside the surrounding gaps, so they never hit a chosen rank: the right
vertex is adjacent to precisely the chosen lefts in S, its edges to them
sit at positions I, and the whole copy is induced and colored c.

Filler placement is the one free choice.  The rule pinned here fills the
gap after s_j upward from s_j + 1 and the gap before s_1 downward to
s_1 - 1.
"""

from .constructions import set_bipartite
from .errors import ParameterError
from .graphs import InducedCopyWitness, verify_witness
from .hypergraph import _vertex_list, derive_coloring, encode_derived, is_homogeneous
from .subsets import k_subsets, validate_subset


def build_right_vertex(chosen, positions, a, b):
    """Pad a b-subset of the chosen ranks into a (2b-1)-subset of [ab+b-1]
    whose sorted entries carry the chosen ranks exactly at the given
    positions, using fillers that avoid every multiple of b in [b, ab].

    chosen = {s_1 < ... < s_b} must be a subset of {b, 2b, ..., ab};
    positions = {i_1 < ... < i_b} a b-subset of [2b-1].  The gap of size
    i_1 - 1 before s_1 is filled with s_1 - g, ..., s_1 - 1; the gap of
    size i_{j+1} - i_j - 1 after s_j with s_j + 1, ..., s_j + g; the gap
    of size (2b-1) - i_b after s_b likewise upward.
    """
    if a < 1 or b < 1:
        raise ParameterError(f"need a, b >= 1, got ({a}, {b})")
    positions = validate_subset(positions, 2 * b - 1, b)
    chosen = validate_subset(chosen, a * b, b)
    if any(s % b != 0 for s in chosen):
        raise ParameterError(f"chosen ranks {chosen} must be multiples of b={b}")

    out = []
    gap = positions[0] - 1  # ranks below s_1
    out.extend(range(chosen[0] - gap, chosen[0]))
    for j in range(b):
        out.append(chosen[j])
        if j + 1 < b:
            gap = positions[j + 1] - positions[j] - 1
        else:
            gap = (2 * b - 1) - positions[b - 1]
        out.extend(range(chosen[j] + 1, chosen[j] + gap + 1))

    vertex = tuple(sorted(out))
    # Feasibility of the gaps; each is at most b-1 wide, so the fillers
    # stay strictly between consecutive chosen ranks, above 0, below
    # ab + b, and off the multiples of b.
    assert len(vertex) == 2 * b - 1 and len(set(vertex)) == 2 * b - 1
    assert all(vertex[positions[j] - 1] == chosen[j] for j in range(b))
    assert vertex[0] >= 1 and vertex[-1] <= a * b + b - 1
    assert all(x % b != 0 or x in chosen for x in vertex if b <= x <= a * b)
    return vertex


def extract_induced(homogeneous, derived, a, b, host, coloring):
    """Witness for an induced monochromatic B_{a,b} inside a 2-colored
    B_{n,2b-1}, given a homogeneous set for its derived coloring.

    The homogeneous set must be integers in [1, n], at least a*b + b - 1
    of them; only the smallest a*b + b - 1 are used.  Homogeneity (with
    exactly the claimed derived value) is re-verified from the derived
    table, by is_homogeneous and the value of the first subset, before
    anything is built: the witness is a certificate, so it is not
    constructed from unchecked assumptions.  The host need not have its
    ground set equal to the homogeneous set; elements are addressed by
    rank, i.e. the r-th smallest member plays the role of r.
    """
    if a < 1 or b < 1:
        raise ParameterError(f"need a, b >= 1, got ({a}, {b})")
    expected = encode_derived(derived, b)  # validates the positions
    k = 2 * b - 1
    s = a * b + b - 1
    if host.membership_arity != k:
        raise ParameterError(
            f"host must be the full set-membership graph B_(n,{k}), got {host!r}"
        )
    members = _vertex_list(homogeneous, host.left_count)
    if len(members) < s:
        raise ParameterError(
            f"homogeneous set has {len(members)} elements, need a*b + b - 1 = {s}"
        )
    members = members[:s]
    sc = derive_coloring(coloring, b)
    if not is_homogeneous(sc, members) or sc.value_of(tuple(members[:k])) != expected:
        raise ParameterError(f"set {members} is not homogeneous with value {derived}")
    return construct_induced(members, derived, a, b, host, coloring)


def construct_induced(members, derived, a, b, host, coloring):
    """The induced monochromatic B_{a,b} with the derived value's color,
    built on the sorted members of a set already known to be homogeneous
    with that value (the r-th smallest member plays rank r), and checked
    with verify_witness before it is returned."""
    host_left = tuple(members[rank - 1] for rank in range(b, a * b + 1, b))
    host_right = []
    for T in k_subsets(a, b):
        ranks = build_right_vertex(tuple(t * b for t in T), derived.positions, a, b)
        host_right.append(tuple(members[r - 1] for r in ranks))

    witness = InducedCopyWitness(
        pattern=set_bipartite(a, b),
        host_left=host_left,
        host_right=tuple(host_right),
        claimed_color=derived.color,
    )
    if not verify_witness(host, witness, coloring):
        raise AssertionError("extraction produced an invalid witness (bug)")
    return witness

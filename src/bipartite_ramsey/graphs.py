"""Bipartite graphs, 2-colorings of their edges, and induced-copy witnesses.

A bipartite graph has left vertices 1..left_count and an ordered list of
right vertices.  Right vertices carry labels: either opaque integers
(conventionally 1..right_count) or sorted tuples of integers for
set-membership graphs, whose right vertices *are* k-subsets of the left
ground set.  Labels are a tuple and edges a frozenset of (left, label)
pairs, except in set_bipartite's B_{n,k}, which computes both from subset
ranks on demand.  Non-edges are first-class: the induced-subgraph checks
below depend on them as much as on the edges.

An edge 2-coloring is packed: one bit mask per right vertex, in
right_labels order.  Bit p of a right's mask is the color (RED = 0,
BLUE = 1) of its edge to its p-th smallest neighbour, counting p from 0;
a set-membership right X = {z_0 < z_1 < ...} is its own neighbourhood,
so bit p colors the edge (z_p, X).  The masks are a bytes object when
every right has at most 8 neighbours (every B_{n,k} with k <= 8) and a
tuple of ints otherwise.  Both are sequences of ints, so nothing outside
the EdgeColoring constructor looks at which one it holds.

Everything here is an immutable value; operations are pure functions and
safe to call concurrently.

The brute-force searcher find_induced_monochromatic is the module's
oracle: deliberately unclever, exhaustive over injective vertex maps, and
trusted by the rest of the package as ground truth at desk scale.
"""

from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import combinations, permutations
from typing import Optional

from .errors import BudgetMeter, ValidationError
from .subsets import SubsetSequence


class Color(IntEnum):
    """Edge color.  RED sorts before BLUE everywhere a tie must be broken."""

    RED = 0
    BLUE = 1

    @property
    def letter(self):
        return "R" if self is Color.RED else "B"

    @classmethod
    def from_letter(cls, s):
        if s == "R":
            return cls.RED
        if s == "B":
            return cls.BLUE
        raise ValidationError(f"unknown color letter {s!r} (expected R or B)")


RED = Color.RED
BLUE = Color.BLUE


def _normalize_label(label):
    if isinstance(label, int):
        return label
    if isinstance(label, (tuple, list)):
        t = tuple(label)
        if not all(isinstance(x, int) for x in t):
            raise ValidationError(f"subset label must contain integers: {t}")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise ValidationError(f"subset label must be strictly increasing: {t}")
        return t
    raise ValidationError(f"right label must be an int or an int tuple, got {label!r}")


class MembershipEdgeSet:
    """Set-like view of the edges of a full set-membership graph.

    Behaves like the frozenset of all pairs (x, X) with X a k-subset of
    [n] and x in X, but holds nothing: B_{35,7} has 47 million edges,
    which never fit in memory as tuples.  Supports exactly what edge
    storage needs: membership, length, iteration, equality.
    """

    __slots__ = ("n", "k", "rights")

    def __init__(self, n, k):
        self.n, self.k, self.rights = n, k, SubsetSequence(n, k)

    def __contains__(self, edge):
        x, label = edge if type(edge) is tuple and len(edge) == 2 else (None, None)
        return type(x) is int and label in self.rights and x in label

    def __iter__(self):
        return ((x, label) for label in self.rights for x in label)

    def __len__(self):
        return self.k * len(self.rights)

    def __eq__(self, other):
        if isinstance(other, MembershipEdgeSet):
            return (self.n, self.k) == (other.n, other.k)
        if isinstance(other, (set, frozenset)):
            return len(other) == len(self) and all(e in self for e in other)
        return NotImplemented

    def __hash__(self):
        return hash(("membership-edges", self.n, self.k))

    def __repr__(self):
        return f"MembershipEdgeSet(n={self.n}, k={self.k})"


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Left class 1..left_count, labeled right class, edges between them.

    right_labels is a tuple and edges a frozenset of (left, right_label)
    pairs, except in set_bipartite's B_{n,k}: a SubsetSequence and a
    MembershipEdgeSet, which store nothing.
    """

    left_count: int
    right_labels: tuple
    edges: object

    def __post_init__(self):
        if self.left_count < 0:
            raise ValidationError(f"left_count must be >= 0, got {self.left_count}")
        labels = tuple(_normalize_label(l) for l in self.right_labels)
        if len(set(labels)) != len(labels):
            raise ValidationError("right labels must be pairwise distinct")
        object.__setattr__(self, "right_labels", labels)
        label_set = set(labels)
        edges = set()
        for e in self.edges:
            try:
                left, label = e
            except (TypeError, ValueError):
                raise ValidationError(f"edge must be a (left, right_label) pair: {e!r}")
            label = _normalize_label(label)
            if not (isinstance(left, int) and 1 <= left <= self.left_count):
                raise ValidationError(f"edge {e!r} references unknown left vertex")
            if label not in label_set:
                raise ValidationError(f"edge {e!r} references unknown right label")
            edges.add((left, label))
        object.__setattr__(self, "edges", frozenset(edges))

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.left_count == other.left_count
            and self.right_labels == other.right_labels
            and self.edges == other.edges
        )

    def __hash__(self):
        # Cheap but consistent with __eq__; avoids hashing huge edge sets.
        return hash((self.left_count, len(self.right_labels), len(self.edges)))

    # -- basic queries ------------------------------------------------

    @property
    def right_count(self):
        return len(self.right_labels)

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def lefts(self):
        return range(1, self.left_count + 1)

    @cached_property
    def _label_index(self):
        # label -> 1-based position in right_labels
        return {label: i for i, label in enumerate(self.right_labels, 1)}

    def has_right_label(self, label):
        if isinstance(self.right_labels, SubsetSequence):
            return label in self.right_labels  # by rank
        return label in self._label_index

    def right_index(self, label):
        """1-based position of a right label in the stored order."""
        try:
            if isinstance(self.right_labels, SubsetSequence):
                return self.right_labels.index(label) + 1
            return self._label_index[label]
        except (KeyError, ValueError):
            raise ValidationError(f"unknown right label {label!r}")

    def label_at(self, index):
        """Right label at a 1-based position."""
        if not 1 <= index <= len(self.right_labels):
            raise ValidationError(f"right index {index} out of range")
        return self.right_labels[index - 1]

    def has_edge(self, left, label):
        return (left, label) in self.edges

    def neighbors(self, label):
        """Sorted tuple of the lefts adjacent to a right label."""
        if isinstance(self.edges, MembershipEdgeSet):
            return label  # a set-membership right is its own neighbourhood
        return self._neighbor_table[label]

    @cached_property
    def _neighbor_table(self):
        table = {label: [] for label in self.right_labels}
        for left, label in self.edges:
            table[label].append(left)
        return {label: tuple(sorted(lefts)) for label, lefts in table.items()}

    @cached_property
    def _max_degree(self):
        if isinstance(self.edges, MembershipEdgeSet):
            return self.edges.k
        return max(map(len, self._neighbor_table.values()), default=0)

    def sorted_edges(self):
        """Edges ordered by (left, right position); the canonical order."""
        labels = tuple(self.right_labels)  # one pass, not one unrank per edge
        return [(left, labels[index - 1]) for left, index, _ in self.indexed_edges()]

    def indexed_edges(self):
        """(left, 1-based right index, p) per edge in the canonical order,
        where left is the right's p-th smallest neighbour (from 0).  Edges
        are bucketed by left from the neighbour lists, not sorted."""
        rows = [[] for _ in range(self.left_count + 1)]
        for index, label in enumerate(self.right_labels, 1):
            for p, left in enumerate(self.neighbors(label)):
                rows[left].append((index, p))
        for left, row in enumerate(rows):
            for index, p in row:
                yield left, index, p

    def is_complete(self):
        return self.edge_count == self.left_count * len(self.right_labels)

    @cached_property
    def membership_arity(self):
        """k if this graph is exactly the set-membership graph B_{n,k}, else None.

        B_{n,k} has lefts [n], one right vertex per k-subset of [n] in
        lexicographic order, and an edge (x, X) exactly when x is in X.
        """
        if isinstance(self.edges, MembershipEdgeSet):
            return self.edges.k
        labels = self.right_labels
        k = len(labels[0]) if labels and isinstance(labels[0], tuple) else None
        if k is None or labels != SubsetSequence(self.left_count, k):
            return None
        return k if all(self.neighbors(label) == label for label in labels) else None

    def __repr__(self):
        return (
            f"BipartiteGraph(left_count={self.left_count}, "
            f"rights={len(self.right_labels)}, edges={self.edge_count})"
        )


def make_graph(left_count, right_labels, edges):
    """Build a BipartiteGraph from plain iterables."""
    return BipartiteGraph(left_count, tuple(right_labels), frozenset(edges))


def _bit(neighbors, left):
    """Position of a left among a right's sorted neighbours; ValueError
    when it is not one of them."""
    p = bisect_left(neighbors, left)
    if p == len(neighbors) or neighbors[p] != left:
        raise ValueError(f"{left!r} is not a neighbour")
    return p


@dataclass(frozen=True, eq=False)
class EdgeColoring:
    """Total map from a graph's edges to {RED, BLUE}, packed per right.

    masks[r] holds the colors of the edges at right_labels[r]: bit p is
    the color of the edge to that right's p-th smallest neighbour (see
    the module docstring for the layout and the two storage types).
    constant_coloring, coloring_from_map and random_coloring build
    colorings; coloring_from_map validates that every edge is colored once.
    """

    graph: BipartiteGraph
    masks: object  # bytes, or a tuple of ints when some right has degree > 8

    def __post_init__(self):
        masks, degree = self.masks, self.graph._max_degree
        if type(masks) is bytes:  # a C-speed range check, and no copy below
            out_of_range = masks.translate(None, bytes(range(1 << min(degree, 8))))
        else:
            out_of_range = masks and (min(masks) < 0 or max(masks) >> degree)
        if out_of_range or len(masks) != self.graph.right_count:
            raise ValidationError("a coloring needs one mask per right, within its degree")
        object.__setattr__(self, "masks", (bytes if degree <= 8 else tuple)(masks))

    def color_of(self, left, label):
        graph = self.graph
        try:
            mask = self.masks[graph.right_index(label) - 1]
            return (RED, BLUE)[mask >> _bit(graph.neighbors(label), left) & 1]
        except (TypeError, ValueError):
            raise ValidationError(f"no edge ({left}, {label!r}) in the colored graph")

    def edge_bits(self):
        """(left, 1-based right index, color bit) per edge in the canonical
        edge order; the bit is 0 for RED and 1 for BLUE."""
        masks = self.masks
        for left, index, p in self.graph.indexed_edges():
            yield left, index, masks[index - 1] >> p & 1

    def __eq__(self, other):
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self.graph == other.graph and self.masks == other.masks

    def __repr__(self):
        return f"EdgeColoring(graph={self.graph!r}, edges={len(self.graph.edges)})"


def pack_coloring(graph, colored_edges, neighborhoods=None):
    """EdgeColoring from (left, 1-based right index, color) triples, one
    per edge.  neighborhoods lists each right's sorted neighbourhood in
    right_labels order, if the caller has it already.

    Raises ValidationError for a pair that is not an edge, an edge
    colored twice, a value that is not a color, or an edge left out.
    """
    if neighborhoods is None:  # one lookup per right, not per edge
        neighborhoods = [graph.neighbors(label) for label in graph.right_labels]
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


def constant_coloring(graph, color):
    """Color every edge of the graph the same."""
    if Color(color) is RED:
        return EdgeColoring(graph, bytes(graph.right_count))
    full = [(1 << len(graph.neighbors(label))) - 1 for label in graph.right_labels]
    return EdgeColoring(graph, full)


def coloring_from_map(graph, mapping):
    """EdgeColoring from an explicit edge -> color dict (validated total)."""
    index = {label: i for i, label in enumerate(graph.right_labels, 1)}
    # A set-membership right is its own neighbourhood: reuse the key tuples.
    neighborhoods = list(index) if isinstance(graph.edges, MembershipEdgeSet) else None

    def colored_edges():
        for edge, color in mapping.items():
            if type(edge) is not tuple or len(edge) != 2 or edge[1] not in index:
                raise ValidationError(f"{edge!r} is not an edge of the graph")
            yield edge[0], index[edge[1]], color

    return pack_coloring(graph, colored_edges(), neighborhoods)


def random_coloring(graph, rng):
    """Independent fair RED/BLUE choice per edge, in canonical edge order."""
    masks = [0] * graph.right_count
    for _, index, p in graph.indexed_edges():
        masks[index - 1] |= (rng.random() >= 0.5) << p  # BLUE is bit 1
    return EdgeColoring(graph, masks)


@dataclass(frozen=True)
class InducedCopyWitness:
    """Certificate that a pattern occurs induced (and maybe monochromatic).

    host_left[i-1] is the host image of pattern left vertex i, and
    host_right[j-1] the host image of the pattern's j-th right vertex.
    The certificate is checkable in polynomial time by verify_witness.
    """

    pattern: BipartiteGraph
    host_left: tuple
    host_right: tuple
    claimed_color: Optional[Color] = None

    def __post_init__(self):
        object.__setattr__(self, "host_left", tuple(self.host_left))
        object.__setattr__(
            self, "host_right", tuple(_normalize_label(l) for l in self.host_right)
        )
        if self.claimed_color is not None:
            object.__setattr__(self, "claimed_color", Color(self.claimed_color))
        if len(self.host_left) != self.pattern.left_count:
            raise ValidationError(
                f"witness maps {len(self.host_left)} left vertices, "
                f"pattern has {self.pattern.left_count}"
            )
        if len(self.host_right) != len(self.pattern.right_labels):
            raise ValidationError(
                f"witness maps {len(self.host_right)} right vertices, "
                f"pattern has {len(self.pattern.right_labels)}"
            )
        if len(set(self.host_left)) != len(self.host_left):
            raise ValidationError("witness left map is not injective")
        if len(set(self.host_right)) != len(self.host_right):
            raise ValidationError("witness right map is not injective")


def verify_witness(host, witness, coloring=None):
    """Check an induced-copy certificate against its host.

    True iff mapped adjacency matches pattern adjacency exactly in both
    directions (the induced condition: host non-edges must be pattern
    non-edges too), and, when the witness claims a color and a coloring
    is supplied, every mapped host edge carries that color.

    Malformed witnesses (dangling references; shape errors are already
    rejected at construction) raise ValidationError rather than
    returning False.
    """
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


def induced_subgraph(host, lefts, rights):
    """The subgraph on the chosen vertices with ALL host edges between them.

    Chosen lefts are renumbered 1..|lefts| in increasing order of their
    host ids; right labels are preserved and keep their host order.
    """
    lefts = sorted(set(lefts))
    for left in lefts:
        if not (isinstance(left, int) and 1 <= left <= host.left_count):
            raise ValidationError(f"unknown left vertex {left!r}")
    rights = set(_normalize_label(r) for r in rights)
    for label in rights:
        if not host.has_right_label(label):
            raise ValidationError(f"unknown right label {label!r}")
    kept_labels = tuple(l for l in host.right_labels if l in rights)
    renumber = {old: new for new, old in enumerate(lefts, 1)}
    edges = frozenset(
        (renumber[left], label)
        for (left, label) in host.edges
        if left in renumber and label in rights
    )
    return BipartiteGraph(len(lefts), kept_labels, edges)


def find_induced_monochromatic(host, coloring, pattern, budget=None):
    """Exhaustively search the host for an induced monochromatic pattern copy.

    Enumerates left-vertex combinations in lexicographic order, then for
    each arrangement of them tries RED before BLUE and assigns host right
    vertices to pattern right vertices depth-first in host order, so the
    first witness found is deterministic.  Injective maps that reorder a
    combination are all considered: absence means no copy exists under
    any vertex mapping.

    Returns a witness accepted by verify_witness (claimed_color set;
    RED by convention when the pattern has no edges), or None when no
    induced monochromatic copy exists.  Raises BudgetExceededError if
    the number of candidate checks passes the budget, which is an
    "unknown", not an "absent".
    """
    a = pattern.left_count
    b = len(pattern.right_labels)
    if a > host.left_count or b > len(host.right_labels):
        return None
    if coloring.graph is not host and coloring.graph != host:
        raise ValidationError("coloring refers to a different graph than the host")

    meter = BudgetMeter(budget)
    host_adj = [frozenset(host.neighbors(label)) for label in host.right_labels]
    pat_needs = [pattern.neighbors(label) for label in pattern.right_labels]
    host_labels = host.right_labels
    pattern_has_edges = pattern.edge_count > 0

    for left_combo in combinations(range(1, host.left_count + 1), a):
        for left_perm in permutations(left_combo):
            left_set = frozenset(left_perm)
            # Host lefts that must be the exact neighborhood of each mapped right.
            needs = [frozenset(left_perm[i - 1] for i in need) for need in pat_needs]
            for color in (RED, BLUE):
                if color is BLUE and not pattern_has_edges:
                    break  # vacuous witnesses are RED by convention
                chosen = _assign_rights(
                    host, coloring, host_labels, host_adj, needs, left_set, color, meter
                )
                if chosen is not None:
                    return InducedCopyWitness(pattern, left_perm, chosen, color)
    return None


def _assign_rights(host, coloring, host_labels, host_adj, needs, left_set, color, meter):
    """Depth-first injective assignment of host rights to pattern rights."""
    b = len(needs)
    chosen = []
    used = set()

    def extend(j):
        for idx, label in enumerate(host_labels):
            if idx in used:
                continue
            meter.charge()
            if host_adj[idx] & left_set != needs[j]:
                continue
            mask, neighbors = coloring.masks[idx], host.neighbors(label)
            if any(mask >> _bit(neighbors, l) & 1 != color for l in needs[j]):
                continue
            used.add(idx)
            chosen.append(label)
            if j + 1 == b or extend(j + 1):
                return True
            used.discard(idx)
            chosen.pop()
        return False

    if b == 0 or extend(0):
        return tuple(chosen)
    return None

"""Bipartite graphs, 2-colorings of their edges, and induced-copy witnesses.

A bipartite graph has left vertices 1..left_count and an ordered list of
right vertices.  Right vertices carry labels: either opaque integers
(conventionally 1..right_count) or sorted tuples of integers for
set-membership graphs, whose right vertices *are* k-subsets of the left
ground set.  Every graph stores its labels and, in the same order, each
right's sorted tuple of neighbours, and reads its edges from those.  In
set_bipartite's B_{n,k} one SubsetSequence, computed from subset ranks on
demand, is both.  Non-edges are first-class: the induced-subgraph checks
below depend on them as much as on the edges.

An edge 2-coloring is packed: one bit mask per right vertex, in
right_labels order.  Bit p of a right's mask is the color (RED = 0,
BLUE = 1) of its edge to its p-th smallest neighbour, counting p from 0;
a set-membership right X = {z_0 < z_1 < ...} is its own neighbourhood,
so bit p colors the edge (z_p, X).  pack_coloring, coloring_from_map and
random_coloring each write one ASCII 0/1 per edge in that order, and
_packed turns the digits into masks: a bit plane at a time when every
right has the same degree d <= 8 (B_{n,k} with k <= 8, K_{n,k} with
n <= 8), else a right at a time.  The masks are a _dense_table, as
SubsetColoring's values are: bytes when every right has at most 8
neighbours (every B_{n,k} with k <= 8), else a tuple of ints.  Nothing
outside the two constructors looks at which one it holds.

Everything here is an immutable value; operations are pure functions and
safe to call concurrently.

The brute-force searcher find_induced_monochromatic is the module's
oracle: deliberately unclever, exhaustive over injective vertex maps, and
trusted by the rest of the package as ground truth at desk scale.
"""

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import accumulate, chain, combinations, pairwise, permutations, product, repeat
from operator import ge, index as integer, rshift
from typing import Optional

from .errors import BudgetMeter, ValidationError
from .subsets import SubsetSequence, is_subset_count


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
_DIGIT = b"01" + bytes(254)  # bytes.translate table: color bit -> ASCII digit
_PLANE = [bytes.maketrans(b"01", bytes((0, 1 << p))) for p in range(8)]  # digit -> bit p


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


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Left class 1..left_count, labeled right class, and each right's
    neighbourhood: neighborhoods[r] is the sorted tuple of the lefts
    adjacent to right_labels[r].

    In set_bipartite's B_{n,k} both fields are one SubsetSequence, since a
    set-membership right is its own neighbourhood; it stores nothing.
    """

    left_count: int
    right_labels: tuple
    neighborhoods: tuple

    def __post_init__(self):
        n, labels, neighborhoods = self.left_count, self.right_labels, self.neighborhoods
        if n < 0:
            raise ValidationError(f"left_count must be >= 0, got {n}")
        if type(labels) is SubsetSequence and neighborhoods is labels and labels.n <= n:
            # B_{n,k}: valid by construction, every right of degree k, and
            # rights found by rank rather than through a dict.
            k = labels.k
            self.__dict__.update(_max_degree=k, edge_count=k * len(labels), _find=labels.index)
            return
        labels = tuple(map(_normalize_label, labels))
        if len(set(labels)) != len(labels):
            raise ValidationError("right labels must be pairwise distinct")
        neighborhoods = tuple(map(tuple, neighborhoods))
        if len(neighborhoods) != len(labels):
            raise ValidationError(f"{len(neighborhoods)} neighbourhoods for {len(labels)} rights")
        lefts = range(1, n + 1)
        for label, adjacent in zip(labels, neighborhoods):
            if not all(isinstance(x, int) and x in lefts for x in adjacent) or any(
                map(ge, adjacent, adjacent[1:])
            ):
                raise ValidationError(
                    f"right {label!r} needs increasing neighbours in 1..{n}, got {adjacent}"
                )
        object.__setattr__(self, "right_labels", labels)
        object.__setattr__(self, "neighborhoods", neighborhoods)

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.left_count == other.left_count
            and self.right_labels == other.right_labels
            and self.neighborhoods == other.neighborhoods
        )

    def __hash__(self):
        # Cheap but consistent with __eq__; avoids hashing huge edge sets.
        return hash((self.left_count, len(self.right_labels), self.edge_count))

    # -- basic queries ------------------------------------------------

    @property
    def right_count(self):
        return len(self.right_labels)

    @cached_property
    def edge_count(self):
        return sum(map(len, self.neighborhoods))

    @property
    def lefts(self):
        return range(1, self.left_count + 1)

    @cached_property
    def _find(self):
        # label -> 0-based position in right_labels; KeyError when absent
        return {label: r for r, label in enumerate(self.right_labels)}.__getitem__

    def _position(self, label):
        """0-based position of a right label; None if unknown or unhashable."""
        try:
            return self._find(label)
        except (KeyError, TypeError, ValueError):
            return None

    def has_right_label(self, label):
        return self._position(label) is not None

    def right_index(self, label):
        """1-based position of a right label in the stored order."""
        r = self._position(label)
        if r is None:
            raise ValidationError(f"unknown right label {label!r}")
        return r + 1

    def label_at(self, index):
        """Right label at a 1-based position."""
        if not 1 <= index <= len(self.right_labels):
            raise ValidationError(f"right index {index} out of range")
        return self.right_labels[index - 1]

    def has_edge(self, left, label):
        r = self._position(label)
        return r is not None and left in self.neighborhoods[r]

    def neighbors(self, label):
        """Sorted tuple of the lefts adjacent to a right label."""
        return self.neighborhoods[self.right_index(label) - 1]

    @cached_property
    def _max_degree(self):
        return max(map(len, self.neighborhoods), default=0)

    def sorted_edges(self):
        """Edges ordered by (left, right position); the canonical order."""
        labels = tuple(self.right_labels)  # one pass, not one unrank per edge
        return [(left, labels[i - 1]) for left, row in enumerate(self.edge_rows()[0]) for i in row]

    def edge_rows(self, masks=None):
        """The canonical edge order, left by left, from one pass over the
        rights in index order: rows[left] is an array('i') of the 1-based
        indices of that left's rights, increasing (rows[0] is empty).  Given
        masks, one per right as an EdgeColoring holds them, bits[left] is a
        bytearray of the color bits of those edges; else bits is None."""
        rows = [array("i") for _ in range(self.left_count + 1)]
        add = [row.append for row in rows]
        if masks is None:
            for index, lefts in enumerate(self.neighborhoods, 1):
                for left in lefts:
                    add[left](index)
            return rows, None
        bits = [bytearray() for _ in rows]
        add_bit = [row.append for row in bits]
        for index, (lefts, mask) in enumerate(zip(self.neighborhoods, masks), 1):
            for left in lefts:
                add[left](index)
                add_bit[left](mask & 1)
                mask >>= 1
        return rows, bits

    def is_complete(self):
        return self.edge_count == self.left_count * len(self.right_labels)

    @cached_property
    def membership_arity(self):
        """k if this graph is exactly the set-membership graph B_{n,k}, else None."""
        return set_graph_arity(self.left_count, self.right_labels, self.neighborhoods)

    def __repr__(self):
        return (
            f"BipartiteGraph(left_count={self.left_count}, "
            f"rights={len(self.right_labels)}, edges={self.edge_count})"
        )


def set_graph_arity(left_count, labels, neighborhoods):
    """k when the tuples of right labels and neighbourhoods are B_{left_count,k}'s
    (its k-subsets in lexicographic order, each its own neighbourhood), else
    None.  Equality with the subsets proves the input valid unchecked."""
    k = len(neighborhoods[0]) if neighborhoods else 0
    counted = k and is_subset_count(len(labels), left_count, k)  # capped: C(n, k) can be vast
    return k if counted and labels == SubsetSequence(left_count, k) == neighborhoods else None


def make_graph(left_count, right_labels, edges):
    """Build a BipartiteGraph from right labels and (left, label) edges.
    Each label is normalized once, as a right; an edge names its right by
    the normalized label or, for a subset, by a list of its elements."""
    labels = tuple(map(_normalize_label, right_labels))
    position = {label: r for r, label in enumerate(labels)}
    neighborhoods = [set() for _ in labels]
    for e in edges:
        try:
            left, label = e
            r = position[tuple(label) if type(label) is list else label]
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"edge {e!r} is not a (left, right label) pair of the graph")
        if not (isinstance(left, int) and 1 <= left <= left_count):
            raise ValidationError(f"edge {e!r} references unknown left vertex")
        neighborhoods[r].add(left)
    return BipartiteGraph(left_count, labels, [tuple(sorted(lefts)) for lefts in neighborhoods])


def _dense_table(values, low, high):
    """The integers low..high in values as bytes when high <= 255, else as
    a tuple; ValidationError for a value that is not one of them.  bytes
    are range-checked in C and not copied."""
    try:
        if type(values) is not bytes or high > 255:  # iter: bytes(5) is five zero bytes
            values = bytes(iter(values)) if high <= 255 else tuple(map(integer, values))
        if high <= 255:
            bad = values.translate(None, bytes(range(low, high + 1)))
        else:
            bad = values and not (low <= min(values) and max(values) <= high)
    except (TypeError, ValueError):  # not an integer, or not a byte
        bad = True
    if bad:
        raise ValidationError(f"values must be integers in {low}..{high}")
    return values


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
    colorings; coloring_from_map takes any Mapping and, as pack_coloring
    does, raises ValidationError unless exactly the edges get colors.
    """

    graph: BipartiteGraph
    masks: object  # bytes, or a tuple of ints when some right has degree > 8

    def __post_init__(self):
        graph = self.graph
        masks = _dense_table(self.masks, 0, (1 << graph._max_degree) - 1)
        if len(masks) != graph.right_count:
            raise ValidationError("a coloring needs one mask per right")
        # The table bound is the whole check when every right has the max degree.
        if graph.edge_count != graph._max_degree * len(masks) and any(
            map(rshift, masks, map(len, graph.neighborhoods))
        ):
            raise ValidationError("a mask has a bit past its right's degree")
        object.__setattr__(self, "masks", masks)

    def color_of(self, left, label):
        graph = self.graph
        try:
            r = graph.right_index(label) - 1
            return (RED, BLUE)[self.masks[r] >> _bit(graph.neighborhoods[r], left) & 1]
        except (TypeError, ValueError):
            raise ValidationError(f"no edge ({left}, {label!r}) in the colored graph")

    def __eq__(self, other):
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self.graph == other.graph and self.masks == other.masks

    def __repr__(self):
        return f"EdgeColoring(graph={self.graph!r}, edges={self.graph.edge_count})"


def _packed(graph, text):
    """EdgeColoring from one ASCII 0/1 per edge in mask bit order (right by
    right, neighbours increasing): a right's digits, reversed, are its mask.
    With every right of degree d <= 8, text[p::d] is bit p of every mask."""
    d, rights = graph._max_degree, graph.right_count
    if d <= 8 and len(text) == graph.edge_count == d * rights:
        if text.translate(None, b"01"):
            raise ValidationError("edge colors must be the digits 0 and 1")
        planes = (int.from_bytes(text[p::d].translate(_PLANE[p]), "big") for p in range(d))
        return EdgeColoring(graph, sum(planes).to_bytes(rights, "big"))
    ends = pairwise(accumulate(map(len, graph.neighborhoods), initial=0))
    return EdgeColoring(graph, (int(text[o:e][::-1] or b"0", 2) for o, e in ends))


def _dealt(graph, rows):
    """The items of rows, where rows[left] iterates over a left's items in
    edge_rows order, in mask bit order: each edge, as mask bit order meets
    it, takes the next item of its left's row."""
    return map(next, map(rows.__getitem__, chain.from_iterable(graph.neighborhoods)))


def pack_coloring(graph, lefts, rights, bits):
    """EdgeColoring from three columns, one entry per edge in any order:
    lefts, 1-based right indices and colors, packed as _packed's digits,
    "?" until colored, one bisect per edge.

    Raises ValidationError for a pair that is not an edge, an edge
    colored twice, a value that is not a color, or an edge left out.
    """
    # Every edge's left in mask bit order; right index i's run is starts[i - 1]:starts[i].
    table = _dense_table(chain.from_iterable(graph.neighborhoods), 0, graph.left_count)
    d = graph._max_degree
    if d and graph.edge_count == d * graph.right_count:  # every right of degree d
        starts = range(0, d * (graph.right_count + 1), d)
    else:
        starts = list(accumulate(map(len, graph.neighborhoods), initial=0))
    text = bytearray(b"?") * len(table)
    for left, index, color in zip(lefts, rights, bits):
        try:
            e = starts[index]
            p = bisect_left(table, left, starts[index - 1], e)
            bad = p == e or table[p] != left or index < 1
        except (IndexError, TypeError):
            bad = True  # no such right, or a left that is not an int
        if bad:
            raise ValidationError(f"({left!r}, right {index!r}) is not an edge of the graph")
        if text[p] != 63 or color not in (0, 1):  # 63 is "?"; 0 and 1 are RED and BLUE
            raise ValidationError(f"edge ({left}, right {index}) colored twice or not by a color")
        text[p] = 48 + color  # ASCII 0 or 1
    if b"?" in text:
        raise ValidationError(f"coloring is not total: {text.count(b'?')} edges are uncolored")
    return _packed(graph, text)


def constant_coloring(graph, color):
    """Color every edge of the graph the same."""
    if Color(color) is RED:
        return EdgeColoring(graph, bytes(graph.right_count))
    return EdgeColoring(graph, [(1 << len(lefts)) - 1 for lefts in graph.neighborhoods])


def coloring_from_map(graph, mapping):
    """EdgeColoring from a Mapping of each (left, right label) edge to RED
    or BLUE.  Each edge is looked up once, right-major (mask bit order); a
    Mapping that is not a dict is copied first, so no __missing__ colors an
    edge it lacks.  ValidationError for an uncolored edge, a value that is
    not 0 or 1 (RED, BLUE or a bool), or a key that is not an edge.  The
    looked-up bits, as digits, go to _packed."""
    if type(mapping) is not dict:
        mapping = dict(mapping)
    edges = chain.from_iterable(map(zip, graph.neighborhoods, map(repeat, graph.right_labels)))
    try:
        bits = _dense_table(map(mapping.__getitem__, edges), 0, 1)  # one 0/1 byte per edge
    except KeyError as exc:
        raise ValidationError(f"coloring is not total: edge {exc.args[0]!r} is uncolored")
    if len(mapping) != len(bits):
        raise ValidationError(f"coloring has {len(mapping) - len(bits)} keys that are not edges")
    return _packed(graph, bits.translate(_DIGIT))


def random_coloring(graph, rng):
    """Independent fair RED/BLUE choice per edge, in canonical edge order.
    Each left's draws are one row of digits; each edge, taken in mask bit
    order, takes the next digit of its left's row."""
    degrees = Counter(chain.from_iterable(graph.neighborhoods))
    rows = [iter(bytes(map((0.5).__le__, [rng.random() for _ in range(degrees[left])]))
                 .translate(_DIGIT)) for left in range(graph.left_count + 1)]  # BLUE is 1
    return _packed(graph, bytes(_dealt(graph, rows)))


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


def _check_lefts(host, lefts):
    """ValidationError unless every one of the lefts is the host's."""
    for left in lefts:
        if not (isinstance(left, int) and 1 <= left <= host.left_count):
            raise ValidationError(f"unknown left {left!r}")


def _resolve(host, coloring, witness=None):
    """The 0-based host positions of a witness's rights, one label lookup
    each; ValidationError unless the witness's vertices are the host's and
    the coloring, if any, is of the host."""
    positions = []
    if witness is not None:
        _check_lefts(host, witness.host_left)
        positions = [host.right_index(label) - 1 for label in witness.host_right]
    if coloring is not None and coloring.graph is not host and coloring.graph != host:
        raise ValidationError("coloring refers to a different graph than the host")
    return positions


def verify_witness(host, witness, coloring=None):
    """Check an induced-copy certificate against its host.

    True iff mapped adjacency matches pattern adjacency exactly in both
    directions (the induced condition: host non-edges must be pattern
    non-edges too), and, when the witness claims a color and a coloring
    is supplied, every mapped host edge carries that color.

    Each witness vertex is resolved once, by _resolve: a left outside the
    host, a right label it lacks, or a coloring of another graph raises
    ValidationError rather than returning False.
    """
    positions = _resolve(host, coloring, witness)
    lefts, color = witness.host_left, witness.claimed_color
    masks = coloring.masks if coloring is not None and color is not None else None
    for r, needs in zip(positions, witness.pattern.neighborhoods):
        neighbors = host.neighborhoods[r]
        if needs != tuple(i for i, left in enumerate(lefts, 1) if left in neighbors):
            return False
        if masks is not None and any(
            masks[r] >> _bit(neighbors, lefts[i - 1]) & 1 != color for i in needs
        ):
            return False
    return True


def induced_subgraph(host, lefts, rights):
    """The subgraph on the chosen vertices with ALL host edges between them.

    Chosen lefts are renumbered 1..|lefts| in increasing order of their
    host ids; right labels are preserved and keep their host order.
    """
    lefts = set(lefts)
    _check_lefts(host, lefts)
    kept = sorted({host.right_index(_normalize_label(r)) - 1 for r in rights})
    renumber = {old: new for new, old in enumerate(sorted(lefts), 1)}
    return BipartiteGraph(
        len(lefts),
        [host.right_labels[r] for r in kept],
        [tuple(renumber[x] for x in host.neighborhoods[r] if x in renumber) for r in kept],
    )


def find_induced_monochromatic(host, coloring, pattern, budget=None):
    """Exhaustively search the host for an induced monochromatic pattern copy.

    Enumerates left-vertex combinations in lexicographic order, then for
    each arrangement of them tries RED before BLUE.  For each pattern
    right it lists, in host order, the host rights that fit it: their
    neighbourhood among the mapped lefts is exactly the one needed, and
    those edges have the color.  The first tuple of those lists' product
    whose rights are distinct is the witness, the lexicographically first
    injective assignment in host order, so the result is deterministic.
    Injective maps that reorder a combination are all considered: absence
    means no copy exists under any vertex mapping.

    Returns a witness accepted by verify_witness (claimed_color set;
    RED by convention when the pattern has no edges), or None when no
    induced monochromatic copy exists.  One budget check is one (host
    right, pattern right) test or one tuple tried; BudgetExceededError
    past the budget is an "unknown", not an "absent".
    """
    a = pattern.left_count
    b = len(pattern.right_labels)
    if a > host.left_count or b > len(host.right_labels):
        return None
    _resolve(host, coloring)  # refuses a coloring of another graph

    meter = BudgetMeter(budget)
    rights = [(frozenset(lefts), lefts, mask)
              for lefts, mask in zip(host.neighborhoods, coloring.masks)]
    colors = (RED, BLUE) if pattern.edge_count else (RED,)  # vacuous witnesses are RED

    for left_combo in combinations(host.lefts, a):
        for left_perm in permutations(left_combo):
            left_set = frozenset(left_perm)
            # Host lefts that must be the exact neighborhood of each mapped right.
            needs = [frozenset(left_perm[i - 1] for i in need) for need in pattern.neighborhoods]
            for color in colors:
                lists = []
                for need in needs:
                    meter.charge(len(rights))
                    lists.append([r for r, (adjacent, lefts, mask) in enumerate(rights)
                                  if adjacent & left_set == need
                                  and all(mask >> _bit(lefts, x) & 1 == color for x in need)])
                    if not lists[-1]:
                        break
                else:
                    for chosen in product(*lists):
                        meter.charge()
                        if len(set(chosen)) == b:
                            labels = [host.right_labels[r] for r in chosen]
                            return InducedCopyWitness(pattern, left_perm, labels, color)
    return None

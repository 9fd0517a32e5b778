"""Colorings of k-subsets, homogeneous sets, and exact micro Ramsey numbers.

A SubsetColoring assigns one of palette_size values to every arity-subset
of {1,...,n}; values are stored densely by the subset's lexicographic
rank (graphs._dense_table: bytes when palette_size <= 255, else a tuple),
so lookups are O(1).  A vertex set H is homogeneous when all
arity-subsets of H get the same value (vacuously so when H is smaller
than the arity).

derive_coloring turns an edge 2-coloring of the set-membership graph
B_{n,2b-1} into a subset coloring: each (2b-1)-subset X = {z_1 < ... <
z_{2b-1}} receives the pair (c, I), where c is the color appearing at
least b times among the edges (z_p, X) (the counts sum to an odd number,
so exactly one color qualifies) and I is the set of the b smallest
positions p with that color.  Which b positions to record is a free
choice; smallest-first is pinned here for determinism.  The palette has
exactly 2 * C(2b-1, b) values.  The vote depends only on a subset's
packed edge mask, so it is computed once per mask value (2^(2b-1)) and
the masks are mapped through that table, bytes in one bytes.translate.

find_homogeneous_set returns the lexicographically first homogeneous
s-set.  It grows a vertex prefix depth-first in increasing vertex order
and, when a vertex v joins, looks up only the arity-subsets v completes
with the prefix; the first disagreement abandons the prefix, since every
superset of a non-homogeneous set is non-homogeneous too.  Its budget
counts the subset-value lookups actually made, far fewer than the
arity-subsets of every s-set in turn.  The same search, run on a given
set's own members for s equal to its size, decides whether that set is
homogeneous and with which value (is_homogeneous, extract_induced):
each arity-subset is looked up at most once, and the first disagreement
ends it.

Everything exhaustive is budgeted: searches refuse loudly instead of
running unboundedly, since interesting homogeneous-set thresholds are
astronomically out of reach.  Only micro parameters terminate.
"""

import operator
from array import array
from dataclasses import dataclass
from itertools import product
from math import comb

from .errors import BudgetExceededError, BudgetMeter, ParameterError, ValidationError
from .graphs import BLUE, RED, Color, _dense_table
from .subsets import capped_comb, is_subset_count, k_subsets, subset_rank, subset_unrank
from .subsets import validate_subset


@dataclass(frozen=True)
class SubsetColoring:
    """Total map from the arity-subsets of [n] to values 1..palette_size."""

    n: int
    arity: int
    palette_size: int
    values: object  # values[r] colors rank r: bytes if palette_size <= 255, else a tuple

    def __post_init__(self):
        palette = self.palette_size
        if self.n < 0 or self.arity < 0 or palette < 1:
            raise ValidationError(
                f"bad subset-coloring shape (n={self.n}, arity={self.arity}, palette={palette})"
            )
        object.__setattr__(self, "values", _dense_table(self.values, 1, palette))
        _require_total(self.n, self.arity, len(self.values))

    def value_of(self, subset):
        """Value of a sorted arity-subset of [n]."""
        t = validate_subset(subset, self.n, self.arity)
        return self.values[subset_rank(t, self.n)]

    def items(self):
        """(subset, value) pairs in lexicographic subset order."""
        return zip(k_subsets(self.n, self.arity), self.values)

    @classmethod
    def from_map(cls, n, arity, palette_size, mapping):
        """Build from a {subset: value} dict; must be total."""
        return cls(n, arity, palette_size, _rank_table(n, arity, mapping.items()))


def _require_total(n, arity, count):
    """ValidationError unless count is C(n, arity), named by formula: the
    number can run past the 4,300 digits str() converts."""
    if not is_subset_count(count, n, arity):
        raise ValidationError(f"coloring must cover all C({n},{arity}) subsets, got {count}")


def _rank_table(n, arity, pairs):
    """Values by subset rank from (subset, value) pairs naming each
    arity-subset of [n] once.  Ranks and values are read into columns
    first, so the table is allocated only once their count is right.
    No count of pairs reaches C(n, arity) >= 2^63, past a column slot:
    then the pairs are counted for the refusal, and none is ranked."""
    if n < 0 or arity < 0:
        raise ValidationError(f"bad subset-coloring shape (n={n}, arity={arity})")
    if capped_comb(n, arity, 1 << 63) == 1 << 63:
        _require_total(n, arity, sum(1 for _ in pairs))
    ranks, values = array("q"), []
    for subset, value in pairs:
        ranks.append(subset_rank(validate_subset(subset, n, arity), n))
        values.append(value)
    _require_total(n, arity, len(ranks))
    table = [None] * len(ranks)
    for r, value in zip(ranks, values):
        if table[r] is not None:
            raise ValidationError(f"duplicate subset {subset_unrank(r, n, arity)}")
        table[r] = value
    return table  # total distinct ranks fill every slot


@dataclass(frozen=True)
class DerivedColor:
    """A palette value of the derived coloring: a color plus b positions."""

    color: Color
    positions: tuple  # sorted b-subset of [2b-1]

    def __post_init__(self):
        object.__setattr__(self, "color", Color(self.color))
        object.__setattr__(self, "positions", tuple(self.positions))


def derived_palette_size(b):
    return 2 * comb(2 * b - 1, b)


def encode_derived(derived, b):
    """Palette value in 1..2*C(2b-1,b): RED block first, positions by rank."""
    positions = validate_subset(derived.positions, 2 * b - 1, b)
    return derived.color.value * comb(2 * b - 1, b) + subset_rank(positions, 2 * b - 1) + 1


def decode_derived(value, b):
    """Inverse of encode_derived."""
    block = comb(2 * b - 1, b)
    if not 1 <= value <= 2 * block:
        raise ValidationError(f"derived palette value {value} out of range 1..{2 * block}")
    color = Color((value - 1) // block)
    rank = (value - 1) % block
    return DerivedColor(color, subset_unrank(rank, 2 * b - 1, b))


def _majority(colors, b):
    """(color, its b smallest 1-based positions in colors) for RED if RED
    occurs at least b times, else for BLUE, which the caller knows does."""
    for color in (RED, BLUE):
        positions = [p for p, c in enumerate(colors, 1) if c is color]
        if len(positions) >= b:
            return color, tuple(positions[:b])
    raise AssertionError(f"no color occurs {b} times in {colors}")


def majority_positions(colors, b):
    """(color, positions) for one subset: the color covering >= b of the
    2b-1 incoming edges, and the b smallest positions carrying it."""
    if len(colors) != 2 * b - 1:
        raise ParameterError(f"expected {2 * b - 1} edge colors, got {len(colors)}")
    return DerivedColor(*_majority(colors, b))  # counts sum to 2b-1: one color reaches b


def derive_coloring(coloring, b):
    """Derived subset coloring of a 2-colored B_{n,2b-1}.

    The host must be exactly the set-membership graph of arity 2b-1 with
    every (2b-1)-subset present; anything else is a shape mismatch.
    """
    if b < 1:
        raise ParameterError(f"b must be >= 1, got {b}")
    k = 2 * b - 1
    host = coloring.graph
    if host.membership_arity != k:
        raise ParameterError(
            f"host must be the full set-membership graph B_(n,{k}) "
            f"for b={b}, got {host!r}"
        )
    # Bit p of a subset's mask colors its edge at position p + 1.
    table = [
        encode_derived(majority_positions([(RED, BLUE)[m >> p & 1] for p in range(k)], b), b)
        for m in range(1 << k)
    ]
    masks = coloring.masks
    if type(masks) is bytes:  # k <= 8: one C-speed pass through the padded table
        values = masks.translate(bytes(table).ljust(256, b"\0"))
    else:
        values = map(table.__getitem__, masks)
    return SubsetColoring(host.left_count, k, derived_palette_size(b), values)


def _vertex_list(vertices, n):
    """The members of a vertex set, sorted and distinct; ParameterError
    unless each is an integer in [1, n]."""
    try:
        members = sorted({operator.index(v) for v in vertices})
    except TypeError:
        raise ParameterError(f"vertices must be integers, got {vertices!r}") from None
    if members and (members[0] < 1 or members[-1] > n):
        raise ParameterError(f"vertices {members[0]}..{members[-1]} not contained in [1,{n}]")
    return members


def is_homogeneous(coloring, vertices):
    """True iff all arity-subsets of the vertex set share one value.

    Vacuously true when the set has fewer than arity elements.  Decided
    by find_homogeneous_set's search, run on the set's members for an
    s-set of its own size; that search cannot exceed its budget here.
    """
    vset, values = _vertex_list(vertices, coloring.n), coloring.values
    meter = BudgetMeter(len(values) + 1)  # no subset is looked up twice
    return _homogeneous(values, coloring.n, coloring.arity, vset, len(vset), meter) is not None


def find_homogeneous_set(coloring, s, budget=None):
    """Lexicographically first homogeneous s-subset of [n], with its value.

    Returns (vertices, value) or None when no s-subset is homogeneous
    (including the trivial case s > n, where no s-subset exists at all).
    The value is None in the vacuous case s < arity.  s = n checks the
    whole value table at once; otherwise the search extends a chosen
    prefix depth-first in increasing vertex order, looking up only the
    arity-subsets each new vertex completes (is_homogeneous runs the same
    search on a given set).  One budget check is one subset-value lookup
    actually made; past the budget the search raises BudgetExceededError.
    """
    try:
        s = operator.index(s)
    except TypeError:
        raise ParameterError(f"s must be an integer, got {s!r}") from None
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    if s > coloring.n:
        return None
    meter, n = BudgetMeter(budget), coloring.n
    found = _homogeneous(coloring.values, n, coloring.arity, range(1, n + 1), s, meter)
    return None if found is None else (tuple(found[0]), found[1])


def _homogeneous(values, n, arity, vertices, s, meter):
    """find_homogeneous_set on a bare value table, over s or more sorted vertices in [n]."""
    if s < arity:
        return vertices[:s], None
    if s == n or arity == 0:  # the whole value table, or its one subset ()
        meter.charge(len(values))
        first = values[0]
        return (vertices[:s], first) if values.count(first) == len(values) else None
    return _extend_homogeneous(values, n, arity, vertices, s, meter)


def _extend_homogeneous(values, n, k, vertices, s, meter):
    """Depth-first search for 1 <= k = arity <= s < n, over s or more vertices.

    Vertices join the chosen prefix in increasing order, so complete
    s-sets are reached in combinations order, and a prefix that is not
    homogeneous is abandoned (homogeneity is hereditary): the first
    s-set reached is the lexicographically first homogeneous one.

    rank(X) = C(n,k) - 1 - sum_j C(n - x_j, k - j) (see subset_rank).
    sums[t] holds that sum over the positions of each t-subset of the
    prefix, so the subset Y + (v,) completed by a new vertex v ranks
    top - sums[k-1][Y] + v, with top = C(n,k) - 1 - n.
    """
    vertices = tuple(vertices)  # indexes faster than the range [n] callers pass
    top = len(values) - 1 - n
    sums = [[0]] + [[] for _ in range(k - 1)]
    chosen = []
    value = None  # fixed by the prefix's first k vertices
    last = len(vertices) - s  # the last position the prefix's next vertex may take
    i = 0
    while True:
        if i > last:
            # Too few vertices left to complete this prefix: backtrack.
            if not chosen:
                return None
            i = vertices.index(chosen.pop(), len(chosen)) + 1  # a position is >= its depth
            last -= 1
            depth = len(chosen)
            for t, level in enumerate(sums):
                del level[comb(depth, t):]
            if depth < k:
                value = None
            continue
        v = vertices[i]
        new = value
        for partial in sums[-1]:
            meter.charge()
            got = values[top - partial + v]
            if new is None:
                new = got
            elif got != new:
                break
        else:
            if len(chosen) == s - 1:
                return (*chosen, v), new
            # New t-subsets of the prefix are the (t-1)-subsets plus v,
            # whose position t-1 adds C(n - v, k - t + 1).
            for t in range(k - 1, 0, -1):
                c = comb(n - v, k - t + 1)
                sums[t].extend([p + c for p in sums[t - 1]])
            chosen.append(v)
            last += 1
            value = new
        i += 1


def _first_counterexample(arity, palette, s, n, meter):
    """First coloring of C([n],arity), in odometer order, in which
    find_homogeneous_set's search (on the caller's meter) finds no
    s-set; None if every coloring has one.  Refused up front when there
    are more colorings than the budget.

    Odometer order: values listed by subset rank, the last position
    (lexicographically largest subset) ticking fastest, all-1s first.
    """
    if palette == 1:  # its one coloring makes [1..s] homogeneous, vacuously if s < arity
        return None
    bits = palette.bit_length()
    subsets = capped_comb(n, arity, 1 << 16)
    # Unless palette^C(n,arity) has under 2^16 bits, it is computed only
    # when its lower bound 2^(C(n,arity) * (bits - 1)) is within the budget.
    if subsets * bits < 1 << 16 or subsets * (bits - 1) < meter.limit.bit_length():
        subsets = comb(n, arity)
        estimate = palette ** subsets
    else:
        estimate = None
    if estimate is None or estimate > meter.limit:
        # Past about 3,000 digits only the formula: str() stops at 4,300.
        shown = f" = {estimate}" if estimate and estimate.bit_length() < 10_000 else ""
        raise BudgetExceededError(
            f"enumerating {palette}^C({n},{arity}){shown} colorings at n={n} "
            f"exceeds the budget of {meter.limit}",
            estimate=estimate or (lambda: palette ** comb(n, arity)),
            limit=meter.limit, used=meter.used,
        )
    vertices = range(1, n + 1)
    for values in product(range(1, palette + 1), repeat=subsets):
        if _homogeneous(values, n, arity, vertices, s, meter) is None:
            return SubsetColoring(n, arity, palette, values)
    return None


def lower_bound_coloring(arity, palette, s, n, budget=None):
    """A concrete coloring of C([n],arity) with no homogeneous s-set,
    or None when every coloring has one (the first such coloring in
    odometer order, so the result is reproducible)."""
    if not 0 <= s <= n:
        raise ParameterError(f"need 0 <= s <= n, got s={s} and n={n}")
    return _first_counterexample(arity, palette, s, n, BudgetMeter(budget))


def ramsey_number_exact(arity, palette, s, max_n, budget=None):
    """Least n <= max_n such that EVERY palette-coloring of the
    arity-subsets of [n] has a homogeneous s-set; None if no n <= max_n
    qualifies.

    Exhaustive over all palette^C(n,arity) colorings per candidate n, so
    only micro parameters are feasible; candidate ns whose estimated
    enumeration exceeds the budget are refused with the estimate.  Once
    some n qualifies the search stops: adding a vertex cannot destroy
    the property, so the first success is the minimum.
    """
    if arity < 1 or palette < 1 or s < 1 or max_n < 1:
        raise ParameterError("arity, palette, s, max_n must all be >= 1")
    meter = BudgetMeter(budget)
    for n in range(max(s, 1), max_n + 1):
        if _first_counterexample(arity, palette, s, n, meter) is None:
            return n
    return None

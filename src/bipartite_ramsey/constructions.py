"""Builders for the two host families, the pattern embedding, and the
pattern's parameters.

complete_bipartite(n, k) is the all-edges host on n + k vertices.
set_bipartite(n, k) is the set-membership graph: lefts 1..n, one right
vertex per k-subset of [n] in lexicographic order, edge (x, X) iff x in X.

embed_into_set_bipartite places an arbitrary pattern inside a
set-membership graph as an induced subgraph.  With c pattern lefts and d
pattern rights the target is B_{a,b} with a = 2c + d and b = c + 1:
indices 1..c of the ground set play the pattern lefts, c+1..2c are
spare filler elements, and 2c+1..2c+d are per-right distinguishers.
Pattern right j becomes the b-set

    N(j)  u  {2c + j}  u  {c+1, ..., c + (b - |N(j)| - 1)}

where N(j) is j's neighborhood in the pattern.  The distinguisher 2c+j
keeps distinct rights distinct even when their neighborhoods agree, and
the fillers pad the set up to size b without touching 1..c, so the copy
is induced.  No attempt is made to minimize a or b.  required_parameters
is the one place a, b and the pipeline's other constants are computed.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError
from .graphs import BipartiteGraph, InducedCopyWitness, verify_witness
from .hypergraph import derived_palette_size
from .subsets import SubsetSequence, capped_comb


def complete_bipartite(n, k):
    """K_{n,k}: every (left, right) pair is an edge; rights labeled 1..k."""
    if n < 1 or k < 1:
        raise ParameterError(f"complete_bipartite needs n, k >= 1, got ({n}, {k})")
    return BipartiteGraph(n, tuple(range(1, k + 1)), (tuple(range(1, n + 1)),) * k)


def set_bipartite(n, k):
    """B_{n,k}: rights are the k-subsets of [n], edge (x, X) iff x in X.

    A right is its own neighbourhood, so one SubsetSequence serves as both
    right_labels and neighborhoods.  It answers from subset ranks and
    stores nothing, even for C(n,k) ~ 10^11.
    """
    if n < 1 or k < 1:
        raise ParameterError(f"set_bipartite needs n, k >= 1, got ({n}, {k})")
    if k > n:
        raise ParameterError(f"set_bipartite needs k <= n, got k={k} > n={n}")
    subsets = SubsetSequence(n, k)
    return BipartiteGraph(n, subsets, subsets)


@dataclass(frozen=True)
class ParameterReport:
    """Every constant the pipeline would use for a pattern, plus the
    guarantee threshold as a formula; its value is out of reach.  palette
    is computed when first read; palette_text spells it, past 10,000 bits
    by its formula 2*C(k,b)."""

    c: int
    d: int
    a: int
    b: int
    k: int
    s: int
    palette_text: str
    n_formula: str
    n_value: None = None

    @cached_property
    def palette(self):
        return derived_palette_size(self.b)


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
    half = capped_comb(k, b, 1 << 10_000)  # C(k, b) only as far as it can be printed
    palette = f"{2 * half}" if half < 1 << 10_000 else f"2*C({k},{b})"
    return ParameterReport(
        c=c, d=d, a=a, b=b, k=k, s=s, palette_text=palette,
        n_formula=f"R_{{{k},{palette}}}({s})",
    )


@dataclass(frozen=True)
class EmbeddingResult:
    """An induced placement of a pattern inside B_{a,b}.

    left_map sends pattern left i to ground element i; right_map sends
    pattern right j (1-based position) to its image b-subset of [a].
    The witness is the same data in certificate form, already verified
    against set_bipartite(a, b).
    """

    a: int
    b: int
    left_map: dict
    right_map: dict
    witness: InducedCopyWitness


def embed_into_set_bipartite(pattern):
    """Embed a pattern with c lefts and d rights induced into B_{2c+d, c+1}."""
    p = required_parameters(pattern)
    c, d, a, b = p.c, p.d, p.a, p.b

    right_map = {}
    for j, neighbors in enumerate(pattern.neighborhoods, 1):
        fillers = range(c + 1, c + (b - len(neighbors) - 1) + 1)
        image = tuple(sorted([*neighbors, 2 * c + j, *fillers]))
        right_map[j] = image

    left_map = {i: i for i in range(1, c + 1)}
    witness = InducedCopyWitness(
        pattern,
        host_left=tuple(left_map[i] for i in range(1, c + 1)),
        host_right=tuple(right_map[j] for j in range(1, d + 1)),
        claimed_color=None,
    )
    host = set_bipartite(a, b)
    if not verify_witness(host, witness):
        raise AssertionError("embedding produced a non-induced placement (bug)")
    return EmbeddingResult(a=a, b=b, left_map=left_map, right_map=right_map, witness=witness)

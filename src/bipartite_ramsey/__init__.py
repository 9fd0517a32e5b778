"""Certificate-producing bipartite Ramsey constructions.

The package turns three constructive facts into executable algorithms,
each returning an explicit witness that a fast independent checker
accepts:

  * pigeonhole extraction of a monochromatic complete bipartite subgraph
    from any 2-coloring of a large enough K_{n,k};
  * extraction of an induced monochromatic set-membership graph B_{a,b}
    from a 2-coloring of B_{n,2b-1}, given a homogeneous set of its
    derived subset coloring;
  * embedding of an arbitrary bipartite pattern induced into some
    B_{a,b}, composed with the previous step into an end-to-end pipeline.

A brute-force oracle (find_induced_monochromatic) and exact micro-scale
Ramsey numbers (ramsey_number_exact) provide the ground truth the
constructions are tested against.
"""

from .constructions import (
    EmbeddingResult,
    ParameterReport,
    complete_bipartite,
    embed_into_set_bipartite,
    required_parameters,
    set_bipartite,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ParameterError,
    ValidationError,
)
from .extraction import build_right_vertex, extract_induced
from .formats import export_dot
from .graphs import (
    BLUE,
    RED,
    BipartiteGraph,
    Color,
    EdgeColoring,
    InducedCopyWitness,
    constant_coloring,
    coloring_from_map,
    find_induced_monochromatic,
    induced_subgraph,
    make_graph,
    random_coloring,
    verify_witness,
)
from .hypergraph import (
    DerivedColor,
    SubsetColoring,
    decode_derived,
    derive_coloring,
    derived_palette_size,
    encode_derived,
    find_homogeneous_set,
    is_homogeneous,
    lower_bound_coloring,
    majority_positions,
    ramsey_number_exact,
)
from .pigeonhole import extract_monochromatic_complete, signature_of
from .pipeline import find_induced_mono_pattern
from .subsets import k_subsets, subset_rank, subset_unrank

__version__ = "0.1.0"

__all__ = [
    "BLUE",
    "RED",
    "BipartiteGraph",
    "BudgetExceededError",
    "Color",
    "DEFAULT_BUDGET",
    "DerivedColor",
    "EdgeColoring",
    "EmbeddingResult",
    "InducedCopyWitness",
    "ParameterError",
    "ParameterReport",
    "SubsetColoring",
    "ValidationError",
    "build_right_vertex",
    "coloring_from_map",
    "complete_bipartite",
    "constant_coloring",
    "decode_derived",
    "derive_coloring",
    "derived_palette_size",
    "embed_into_set_bipartite",
    "encode_derived",
    "export_dot",
    "extract_induced",
    "extract_monochromatic_complete",
    "find_homogeneous_set",
    "find_induced_mono_pattern",
    "find_induced_monochromatic",
    "induced_subgraph",
    "is_homogeneous",
    "k_subsets",
    "lower_bound_coloring",
    "majority_positions",
    "make_graph",
    "ramsey_number_exact",
    "random_coloring",
    "required_parameters",
    "set_bipartite",
    "signature_of",
    "subset_rank",
    "subset_unrank",
    "verify_witness",
]

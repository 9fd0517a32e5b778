#!/usr/bin/env python3
"""Any bipartite pattern, induced and monochromatic, end to end.

Every bipartite pattern with c lefts and d rights sits induced inside
B_{a,b} with a = 2c + d, b = c + 1: each pattern right becomes a b-set
holding its neighborhood, a private distinguisher, and spare fillers.
Composing that placement with the induced monochromatic B_{a,b}
extraction turns any sufficiently homogeneous 2-colored B_{n,2b-1} into
an induced monochromatic copy of the pattern itself.

The ground-set size that GUARANTEES a homogeneous set is a Ramsey number
nobody can compute; the pipeline reports it symbolically and runs
honestly at small n, where constant colorings make every set
homogeneous.
"""

from bipartite_ramsey import (
    RED,
    constant_coloring,
    embed_into_set_bipartite,
    find_induced_mono_pattern,
    make_graph,
    required_parameters,
    set_bipartite,
    verify_witness,
)

# Three lefts, two rights, five edges; right 2 is not adjacent to left 2.
pattern = make_graph(3, (1, 2), {(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)})
report = required_parameters(pattern)
print(f"pattern: c={report.c}, d={report.d}")
print(f"embeds into B_({report.a},{report.b}); host arity k={report.k}")
print(f"homogeneous size needed: s={report.s}, derived palette: {report.palette}")
print(f"guaranteed ground set: n = {report.n_formula}  (not computable)")

embedding = embed_into_set_bipartite(pattern)
print("\nembedding images of the pattern rights:")
for j, image in sorted(embedding.right_map.items()):
    print(f"  right {j} -> {image}")

# A small pattern keeps the demo fast: a single edge, so a = 3, b = 2,
# s = 7, and an all-RED B_{7,3} suffices.
edge = make_graph(1, (1,), {(1, 1)})
host = set_bipartite(7, 3)
coloring = constant_coloring(host, RED)
witness = find_induced_mono_pattern(edge, coloring)
print("\nsingle-edge pattern against all-RED B_(7,3):")
print("  left image: ", witness.host_left)
print("  right image:", witness.host_right)
print("  color:      ", witness.claimed_color.name)
print("  checker accepts:", verify_witness(host, witness, coloring))

print("\nthe five-edge pattern needs B_(35,7) (about 6.7M right vertices);")
print("run it with: pytest tests/test_acceptance.py -k full_scale -s")

#!/usr/bin/env python3
"""
Exact threshold dimension at desk scale
=======================================

For graphs on up to 8 vertices the dimension (the fewest threshold graphs
whose intersection is the graph) is computed exactly: list the maximal
threshold subgraphs of the complement (Chvatal-Hammer), let each one cover
the non-edges it holds, and solve the minimum set cover. Two disjoint
triangles are a classic tight example: the dimension equals 3, and so does
the clique-removal chromatic lower bound.
"""

from thdim import (complete_graph, compute_report, cycle_graph, disjoint_cliques,
                   exact_decomposition, exact_dimension, lower_bound_clique_chromatic,
                   path_graph, upper_bound_ramsey_style)
from thdim.exactdim import _maximal_covers

for name, g in [
    ("P_4", path_graph(4)),
    ("C_4", cycle_graph(4)),
    ("C_5", cycle_graph(5)),
    ("2K_2", disjoint_cliques(2)),
    ("2K_3", disjoint_cliques(3)),
    ("K_6", complete_graph(6)),
]:
    dim = exact_dimension(g)
    lo = lower_bound_clique_chromatic(g)
    hi = upper_bound_ramsey_style(g)
    print(f"{name:5}  dimension {dim}   bracket [{lo}, {hi}]")

print()
g = disjoint_cliques(3)
print(f"2K_3 has {len(_maximal_covers(g))} minimal threshold supergraphs;")
d = exact_decomposition(g)
print(f"an optimal decomposition uses {d.size} of them:")
for f in d.factors:
    print("  ", sorted(f.graph.edges()))

print()
print("Full report for C_5:")
print(compute_report(cycle_graph(5)).to_text())

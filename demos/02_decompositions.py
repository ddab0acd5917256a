#!/usr/bin/env python3
"""
Decomposing a graph into an intersection of threshold graphs
============================================================

Three constructive routes, each with a provable factor-count bound:

  vertex cover   -> at most beta(G) factors
  degeneracy     -> at most 10 k ceil(ln n) factors (randomized, verified)
  treewidth      -> at most 2 (width + 1) factors

Every decomposition is verified before it is returned: each factor contains
the graph, and the intersection of the factor edge sets equals the graph.
"""

import math

from thdim import (cycle_graph, decompose_degeneracy, decompose_treewidth,
                   decompose_vertex_cover, degeneracy_ordering,
                   heuristic_tree_decomposition, petersen_graph)

g = petersen_graph()
print(f"Petersen graph: n={g.n}, m={g.m}, max degree {g.max_degree()}")
print()

d_vc = decompose_vertex_cover(g)  # a minimum cover: Petersen has 10 <= 24 vertices
print(f"vertex cover of size {d_vc.bound_claimed}  -> {d_vc.size} factors "
      f"(bound {d_vc.bound_claimed}), verified={d_vc.verified}")

k, _ = degeneracy_ordering(g)
d_deg = decompose_degeneracy(g, seed=0)
print(f"degeneracy k={k}             -> {d_deg.size} factors "
      f"(bound {d_deg.bound_claimed} = 10*{k}*{math.ceil(math.log(g.n))}), "
      f"verified={d_deg.verified}")

td = heuristic_tree_decomposition(g)
d_tw = decompose_treewidth(g, td)
print(f"tree decomposition width {td.width} -> {d_tw.size} factors "
      f"(bound {d_tw.bound_claimed}), verified={d_tw.verified}")

print()
print("Every factor is a threshold graph on the same vertex set; the first")
print("factor of the degeneracy decomposition, for instance, has edges:")
print(sorted(d_deg.factors[0].graph.edges()))

# A cycle makes the bound-versus-practice gap visible.
print()
c = cycle_graph(10)
d = decompose_degeneracy(c, seed=0)
print(f"C_10: {d.size} factors against the claimed bound {d.bound_claimed}")

#!/usr/bin/env python3
"""
From decompositions to depth-2 circuits
=======================================

The clique-indicator function of a graph G maps a 0-1 vector to 1 exactly
when its support is a clique. A decomposition of G into k threshold graphs
compiles into k integer linear-threshold gates under a single AND; each gate
alone would be one majority gate after wire duplication. Verification is
exact without walking the 2^n inputs: the pairs a gate with non-negative
weights accepts form a threshold graph, so the circuit is checked gate by
gate against those graphs and pair by pair against G. The gate list can be
read back into the graph it computes.
"""

from thdim import (Graph, GraphicFunction, LtfWitness, MajorityCircuit,
                   compile_circuit, disjoint_cliques, exact_decomposition,
                   format_circuit, ltfs_to_graph, to_2cnf, verify_circuit)

g = disjoint_cliques(2)  # 2K_2: edges (0,1) and (2,3)
f = GraphicFunction(g)
print("2K_2 clique indicator:")
print("  f(1,1,0,0) =", f.evaluate((1, 1, 0, 0)), " (an edge: a clique)")
print("  f(1,0,1,0) =", f.evaluate((1, 0, 1, 0)), " (cross pair: not a clique)")

clauses = to_2cnf(g)
print(f"\nits 2-CNF has one all-negative clause per non-edge ({len(clauses)} clauses):")
print(" ", [(a[0], b[0]) for a, b in clauses])

d = exact_decomposition(g)
circuit = compile_circuit(g, d)
print(f"\ncompiled circuit: {circuit.gate_count} gates over {circuit.arity} inputs")
print(format_circuit(circuit).strip())

ok, counterexample = verify_circuit(f, circuit)
print(f"\nexact check: equal={ok}")

back = ltfs_to_graph(circuit.gates)
print("reading the gates back as a graph recovers the input:", back == g)

# K_3 plus 19 isolated vertices: the gate accepts exactly the right pairs but
# rejects the triangle, an input that random 22-bit vectors almost never hit
k3 = Graph(22, [(0, 1), (0, 2), (1, 2)])
wrong = MajorityCircuit(arity=22, gates=(LtfWitness((2, 2, 2) + (5,) * 19, 5),))
ok, counterexample = verify_circuit(GraphicFunction(k3), wrong)
print("\na gate that rejects a triangle of K_3 + 19 isolated vertices: equal =", ok,
      "counterexample =", [v for v, bit in enumerate(counterexample) if bit])

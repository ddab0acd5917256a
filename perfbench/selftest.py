"""The checker must reject planted faults and accept their repaired twins.

1. K3 plus 19 isolated vertices with one gate, weights (2,2,2, 5 x 19) and
   bound 5: it rejects the triangle, yet random 22-bit inputs almost never
   contain all three triangle vertices, so sampled checking accepts it.
2. A degeneracy decomposition with one necessary factor removed. Redundant
   factors are pruned first, so that every factor left is the only one to
   exclude some non-edge; the pruned decomposition must still be accepted.

Run directly (`python3 perfbench/selftest.py` from the repository root) to
print the outcome; the benchmark runs it before measuring.
"""

from __future__ import annotations

import sys
from pathlib import Path

import checker

K3_PLUS = 22  # vertices: triangle 0, 1, 2 and isolated 3..21


def _k3_plus_isolated():
    return K3_PLUS, [(0, 1), (0, 2), (1, 2)]


def _circuit_text(n: int, gates: list[tuple[int, list[int]]]) -> str:
    lines = [f"ltf-and {n} {len(gates)}"]
    lines += ["gate " + " ".join(str(x) for x in (b, *w)) for b, w in gates]
    return "\n".join(lines) + "\n"


def _irredundant(n: int, edges, factors: list[list[int]]) -> list[int]:
    """Indices of a sub-decomposition in which every factor is necessary:
    drop, in order, each factor whose excluded non-edges all have another
    excluding factor left."""
    g = checker.neighbour_masks(n, edges)
    excluded = [{(u, v) for v in range(n) for u in range(v)
                 if not g[v] >> u & 1 and not f[v] >> u & 1} for f in factors]
    count: dict[tuple[int, int], int] = {}
    for ex in excluded:
        for pair in ex:
            count[pair] = count.get(pair, 0) + 1
    keep = []
    for idx, ex in enumerate(excluded):
        if all(count[pair] >= 2 for pair in ex):
            for pair in ex:
                count[pair] -= 1
        else:
            keep.append(idx)
    return keep


def run() -> list[tuple[str, bool, str]]:
    """(case, passed, detail) for every planted fault and control."""
    from thdim.decompose import decompose_degeneracy, format_decomposition
    from thdim.randgraphs import gen_gnm

    results = []
    n, edges = _k3_plus_isolated()
    wrong = _circuit_text(n, [(5, [2, 2, 2] + [5] * (n - 3))])
    right = _circuit_text(n, [(3, [1, 1, 1] + [3] * (n - 3))])
    err, _ = checker.check_circuit(n, edges, wrong)
    results.append(("k3-plus-19 wrong gate rejected", err is not None, err or "accepted"))
    err, _ = checker.check_circuit(n, edges, right)
    results.append(("k3-plus-19 correct gate accepted", err is None, err or "accepted"))

    g = gen_gnm(30, 90, seed=7)
    edges = list(g.edges())
    text = format_decomposition(decompose_degeneracy(g, seed=7))
    err, count = checker.check_decomposition(g.n, edges, text)
    results.append(("degeneracy decomposition accepted", err is None, err or f"{count} factors"))
    lines = text.splitlines()
    factors = [checker.factor_masks(g.n, ln) for ln in lines[1:]]
    keep = _irredundant(g.n, edges, factors)
    method = lines[0].split()[1]

    def planted(indices: list[int]) -> str:
        body = [lines[1 + i] for i in indices]
        return "\n".join([f"td-decomp {method} {len(body)}"] + body) + "\n"

    err, _ = checker.check_decomposition(g.n, edges, planted(keep))
    results.append((f"irredundant {len(keep)} of {count} factors accepted", err is None,
                    err or "accepted"))
    err, _ = checker.check_decomposition(g.n, edges, planted(keep[1:]))
    results.append((f"necessary factor {keep[0]} removed, rejected", err is not None,
                    err or "accepted"))
    return results


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    results = run()
    for case, passed, detail in results:
        print(f"{'ok  ' if passed else 'FAIL'} {case}: {detail}")
    return 0 if all(passed for _, passed, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())

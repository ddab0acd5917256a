"""Independent checks of what the `thdim` subcommands write.

Nothing here imports `thdim`: decompositions are replayed from their
creation sequences, circuits are certified against the benchmark's own
maximal-clique enumeration, and reports are bracketed against a brute-force
thresholdness test. Every check returns an error string, or None when the
output is correct. Graphs are given as a vertex count and an edge list.
"""

from __future__ import annotations

from itertools import combinations


def neighbour_masks(n: int, edges) -> list[int]:
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _content_lines(text: str) -> list[str]:
    return [ln for ln in (raw.strip() for raw in text.splitlines())
            if ln and not ln.startswith("#")]


# ---------------------------------------------------------------------------
# decompositions: "td-decomp <method> <k>" then k lines "ts <n> v:tag ..."

def factor_masks(n: int, line: str) -> list[int]:
    """Neighbour bitmasks of the threshold graph a `ts` line describes.

    u and v are adjacent iff the later of the two is tagged `d`: v sees
    everything placed before it when v is `d`, plus every `d` placed after it.
    Raises ValueError on a malformed line.
    """
    tokens = line.split()
    if len(tokens) != n + 2 or tokens[0] != "ts" or tokens[1] != str(n):
        raise ValueError(f"bad creation line for n={n}: {line[:60]!r}")
    seq = []
    for tok in tokens[2:]:
        v_str, _, tag = tok.partition(":")
        if tag not in ("i", "d") or not v_str.isdigit():
            raise ValueError(f"bad creation token {tok!r}")
        seq.append((int(v_str), tag == "d"))
    if sorted(v for v, _ in seq) != list(range(n)):
        raise ValueError("creation sequence is not a permutation of the vertices")
    nbr = [0] * n
    placed = 0
    for v, dominating in seq:
        if dominating:
            nbr[v] = placed
        placed |= 1 << v
    later_d = 0
    for v, dominating in reversed(seq):
        nbr[v] |= later_d
        if dominating:
            later_d |= 1 << v
    return nbr


def parse_decomposition(n: int, text: str) -> list[list[int]]:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty decomposition")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "td-decomp" or not head[2].isdigit():
        raise ValueError(f"bad decomposition header {lines[0]!r}")
    if int(head[2]) != len(lines) - 1:
        raise ValueError(f"header promises {head[2]} factors, file has {len(lines) - 1}")
    return [factor_masks(n, ln) for ln in lines[1:]]


def check_factor_masks(n: int, edges, factors: list[list[int]]) -> str | None:
    """Every factor contains g, and the AND of the factors equals g."""
    if not factors:
        return "no factors"
    g = neighbour_masks(n, edges)
    inter = [(1 << n) - 1 & ~(1 << v) for v in range(n)]
    for idx, f in enumerate(factors):
        for v in range(n):
            if g[v] & ~f[v]:
                return f"factor {idx} drops an edge at vertex {v}"
            inter[v] &= f[v]
    for v in range(n):
        if inter[v] != g[v]:
            return f"a non-edge at vertex {v} survives every factor"
    return None


def check_decomposition(n: int, edges, text: str) -> tuple[str | None, int]:
    """(error or None, number of factors)."""
    try:
        factors = parse_decomposition(n, text)
    except ValueError as exc:
        return str(exc), 0
    return check_factor_masks(n, edges, factors), len(factors)


# ---------------------------------------------------------------------------
# circuits: "ltf-and <arity> <gates>" then lines "gate <bound> <w_0> ... <w_n-1>"

def maximal_cliques(n: int, edges) -> list[int]:
    """Bron-Kerbosch with pivoting over bitmasks; each clique as a bitmask."""
    nbr = neighbour_masks(n, edges)
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0:
            if x == 0:
                out.append(r)
            return
        px = p | x
        pivot = max(_bits(px), key=lambda u: (nbr[u] & p).bit_count())
        for v in _bits(p & ~nbr[pivot]):
            expand(r | 1 << v, p & nbr[v], x & nbr[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << n) - 1, 0)
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_circuit(text: str) -> tuple[int, list[tuple[int, list[int]]]]:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty circuit")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "ltf-and":
        raise ValueError(f"bad circuit header {lines[0]!r}")
    arity, count = int(head[1]), int(head[2])
    if count != len(lines) - 1:
        raise ValueError(f"header promises {count} gates, file has {len(lines) - 1}")
    gates = []
    for ln in lines[1:]:
        tokens = ln.split()
        if tokens[0] != "gate" or len(tokens) != arity + 2:
            raise ValueError(f"bad gate line {ln[:60]!r}")
        numbers = [int(t) for t in tokens[1:]]
        gates.append((numbers[0], numbers[1:]))
    return arity, gates


def check_gates(n: int, edges, gates: list[tuple[int, list[int]]]) -> str | None:
    """Exact test that the AND of the gates is g's clique indicator.

    With non-negative weights each gate accepts a family closed under
    subsets, so the AND equals the clique indicator iff (a) some gate
    rejects every non-edge pair and (b) every gate accepts every maximal
    clique.
    """
    for _, weights in gates:
        if len(weights) != n:
            return "gate arity differs from the graph"
        if any(w < 0 for w in weights):
            return "negative weight; the subset-closure argument does not apply"
    nbr = neighbour_masks(n, edges)
    for u, v in combinations(range(n), 2):
        if not nbr[u] >> v & 1 and not any(w[u] + w[v] > b for b, w in gates):
            return f"non-edge ({u},{v}) accepted by every gate"
    for clique in maximal_cliques(n, edges):
        members = list(_bits(clique))
        for idx, (bound, weights) in enumerate(gates):
            if sum(weights[v] for v in members) > bound:
                return f"gate {idx} rejects the maximal clique {members}"
    return None


def check_circuit(n: int, edges, text: str) -> tuple[str | None, int]:
    """(error or None, number of gates)."""
    try:
        arity, gates = parse_circuit(text)
    except ValueError as exc:
        return str(exc), 0
    if arity != n:
        return f"circuit arity {arity} differs from n={n}", len(gates)
    return check_gates(n, edges, gates), len(gates)


# ---------------------------------------------------------------------------
# reports: "key,value" rows written by `thdim report --out`

BRUTE_THRESHOLD_LIMIT = 12


def is_threshold_brute(n: int, edges) -> bool:
    """No induced 2K2, P4 or C4 among all 4-subsets."""
    nbr = neighbour_masks(n, edges)
    for quad in combinations(range(n), 4):
        pairs = [(u, v) for u, v in combinations(quad, 2) if nbr[u] >> v & 1]
        degs = sorted(sum(1 for e in pairs if w in e) for w in quad)
        if (len(pairs), degs) in ((2, [1, 1, 1, 1]), (3, [1, 1, 2, 2]), (4, [2, 2, 2, 2])):
            return False
    return True


def check_report(n: int, edges, text: str) -> tuple[str | None, int]:
    """(error or None, the exact value, or else the least upper bound):
    lower bounds <= exact value <= upper bounds and factor counts."""
    rows = {}
    lines = _content_lines(text)
    if not lines or lines[0] != "key,value":
        return "missing report header", 0
    for ln in lines[1:]:
        key, sep, value = ln.partition(",")
        if not sep:
            return f"bad report row {ln!r}", 0
        rows[key] = value
    try:
        if int(rows["n"]) != n or int(rows["m"]) != len(edges):
            return "report n or m differs from the graph", 0
        lower = {k: int(v) for k, v in rows.items() if k.startswith("lower.")}
        upper = {k: int(v) for k, v in rows.items() if k.startswith("upper.")}
        counts = {k: int(v) for k, v in rows.items() if k.startswith("factors.")}
        exact = int(rows["exact"]) if rows.get("exact") else None
    except (KeyError, ValueError) as exc:
        return f"unreadable report: {exc}", 0
    if n <= BRUTE_THRESHOLD_LIMIT:
        expected = 1 if is_threshold_brute(n, edges) else 2
        if lower.get("lower.non-threshold") != expected:
            return "non-threshold lower bound disagrees with the brute-force test", 0
    if not upper and not counts:
        return "report has no upper bound", 0
    lo = max(lower.values(), default=1)
    hi = min(list(upper.values()) + list(counts.values()))
    if lo > hi:
        return f"lower bound {lo} exceeds upper bound {hi}", 0
    if exact is not None:
        if not lo <= exact <= hi:
            return f"exact value {exact} outside [{lo}, {hi}]", 0
        if counts.get("factors.exact", exact) != exact:
            return "exact factor count differs from the exact value", 0
    return None, (exact if exact is not None else hi)

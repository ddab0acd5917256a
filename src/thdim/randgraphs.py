"""Seeded random graphs and the desk-scale degeneracy-decomposition experiment.

The generator is Python's Mersenne Twister (random.Random); each trial draws
its own child seed via SHA-256 stream splitting (see seeding.py), so tables
are byte-identical across runs and independent of execution order.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
import random
from typing import Iterable

from .decompose import RandomizedSearchError, decompose_degeneracy
from .graphs import (MAX_EDGES, ExactLimitError, Graph, ParseError, check_vertex_count,
                     degeneracy_ordering, girth, parse_ints, read_lines)
from .seeding import split_seed


def gen_gnm(n: int, m: int, seed: int = 0) -> Graph:
    """Uniform graph with exactly m edges (partial Fisher-Yates over all pairs).

    The shuffle runs over the indices of combinations(range(n), 2) and keeps
    only the slots it has moved, so it takes O(m) memory, not O(n^2).
    """
    total = math.comb(n, 2)
    if not (0 <= m <= total):
        raise ValueError(f"m={m} out of range for n={n}")
    rng = random.Random(split_seed(seed, "gnm", n))
    moved: dict[int, int] = {}  # slot -> the pair index now in it, when not its own
    picked = []
    for i in range(m):
        j = i + rng.randrange(total - i)
        picked.append(moved.get(j, j))
        moved[j] = moved.pop(i, i)
    return Graph(n, [_pair_at(n, idx) for idx in picked])


def _pair_at(n: int, idx: int) -> tuple[int, int]:
    """The idx-th pair of combinations(range(n), 2). Counted from the end,
    the rows u = n-2, n-3, ... hold 1, 2, ... pairs."""
    back = math.comb(n, 2) - 1 - idx
    rows = (math.isqrt(8 * back + 1) - 1) // 2  # full rows after u
    return n - 2 - rows, n - 1 - (back - rows * (rows + 1) // 2)


@dataclass(frozen=True)
class ExperimentRow:
    kind: str  # "trial" | "agg-median" | "agg-max"
    n: int
    m: int
    trial: int | None
    seed: int | None
    degeneracy: int | None
    factors: int | None
    bound: int | None
    ratio: float | None
    verified: bool | None
    flag: str

    def render(self) -> str:
        cells = [self.kind, str(self.n), str(self.m),
                 "" if self.trial is None else str(self.trial),
                 "" if self.seed is None else str(self.seed),
                 "" if self.degeneracy is None else str(self.degeneracy),
                 "" if self.factors is None else str(self.factors),
                 "" if self.bound is None else str(self.bound),
                 "" if self.ratio is None else f"{self.ratio:.6f}",
                 "" if self.verified is None else str(int(self.verified)),
                 self.flag]
        return ",".join(cells)


TABLE_HEADER = "kind,n,m,trial,seed,degeneracy,factors,bound,ratio,verified,flag"


def run_experiment(spec: list[tuple[int, int, int]], seed: int = 0) -> list[ExperimentRow]:
    """For each (n, m, trials): generate, measure degeneracy, decompose, record.

    Rows flag inputs below the m >= n/2 regime instead of refusing them, and
    a decomposition refusal (ValueError, RandomizedSearchError, MemoryError)
    is recorded in its row rather than aborting; an AssertionError, a
    failed verification, is a bug and propagates.
    Aggregates (median and max of factors/(d_av ln n)) follow each block.
    """
    rows: list[ExperimentRow] = []
    for spec_index, (n, m, trials) in enumerate(spec):
        flag = "" if m >= n / 2 else "below-m>=n/2"
        ratios = []
        for trial in range(trials):
            trial_seed = split_seed(seed, "experiment", spec_index, trial)
            g = gen_gnm(n, m, seed=trial_seed)
            k, _ = degeneracy_ordering(g)
            bound = 10 * max(k, 1) * math.ceil(math.log(n))
            d_av = 2 * m / n
            try:
                decomp = decompose_degeneracy(g, seed=split_seed(trial_seed, "decompose"))
                factors = decomp.size
                verified = decomp.verified
                ratio = factors / (d_av * math.log(n)) if m > 0 else 0.0
                row_flag = flag
            except (ValueError, RandomizedSearchError, MemoryError) as exc:  # refusals: recorded
                factors, verified, ratio = None, False, None
                row_flag = (flag + ";" if flag else "") + f"failed:{type(exc).__name__}"
            rows.append(ExperimentRow(
                kind="trial", n=n, m=m, trial=trial, seed=trial_seed,
                degeneracy=k, factors=factors, bound=bound, ratio=ratio,
                verified=verified, flag=row_flag))
            if ratio is not None:
                ratios.append(ratio)
        if ratios:
            rows.append(ExperimentRow(kind="agg-median", n=n, m=m, trial=None,
                                      seed=None, degeneracy=None, factors=None,
                                      bound=None, ratio=statistics.median(ratios),
                                      verified=None, flag=flag))
            rows.append(ExperimentRow(kind="agg-max", n=n, m=m, trial=None,
                                      seed=None, degeneracy=None, factors=None,
                                      bound=None, ratio=max(ratios),
                                      verified=None, flag=flag))
    return rows


def render_table(rows: list[ExperimentRow]) -> str:
    return "\n".join([TABLE_HEADER] + [r.render() for r in rows]) + "\n"


def parse_experiment_spec(text: str | Iterable[str]) -> list[tuple[int, int, int]]:
    """Lines of "<n> <m> <trials>"; '#' comments and blank lines allowed.

    n above MAX_VERTICES and m above MAX_EDGES are refused with
    ExactLimitError before any graph is drawn; n < 1, m outside [0, C(n, 2)]
    and trials < 1 are ParseErrors.
    """
    spec = []
    for line_no, tokens in read_lines(text):
        if len(tokens) != 3:
            raise ParseError(line_no, "expected '<n> <m> <trials>'")
        n, m, trials = parse_ints(line_no, tokens)
        check_vertex_count(n)
        if n < 1:
            raise ParseError(line_no, f"n={n} must be at least 1")
        if not (0 <= m <= math.comb(n, 2)):
            raise ParseError(line_no, f"m={m} out of range for n={n}")
        if m > MAX_EDGES:
            raise ExactLimitError(f"line {line_no}: m={m} exceeds the cap MAX_EDGES = {MAX_EDGES}")
        if trials < 1:
            raise ParseError(line_no, f"trials={trials} must be at least 1")
        spec.append((n, m, trials))
    return spec


@dataclass(frozen=True)
class GirthDegeneracyCheck:
    girth: int | float
    g_param: int | None  # girth - 1, None for forests
    bound: int
    degeneracy: int
    ok: bool


def girth_degeneracy_check(g: Graph) -> GirthDegeneracyCheck:
    """Check degeneracy <= ceil(n^(1/floor(gp/2))) with gp = girth - 1.

    Forests (infinite girth) use the limiting bound 2 (the value the formula
    approaches as gp grows), which every forest meets with room to spare.
    """
    k, _ = degeneracy_ordering(g)
    gamma = girth(g)
    if gamma == math.inf:
        bound = 2 if g.n >= 2 else 1
        return GirthDegeneracyCheck(girth=gamma, g_param=None, bound=bound,
                                    degeneracy=k, ok=k <= bound)
    gp = int(gamma) - 1
    bound = math.ceil(g.n ** (1 / (gp // 2))) if gp >= 2 else g.n
    return GirthDegeneracyCheck(girth=gamma, g_param=gp, bound=bound,
                                degeneracy=k, ok=k <= bound)

"""One workload in its own process: set-up, checker self-test, timed rounds.

    python3 perfbench/child.py <workload> <seed> <seconds> <trace> <workdir> <launched>

`launched` is the parent's time.monotonic() just before it started this
process. Set-up runs from then until the inputs are written: interpreter
start, imports, graph generation. The child times the reference loop right
after set-up, to know the speed set-up saw. With <seconds> 0 it stops there.
Otherwise it runs the checker self-test and then rounds of ops: every op
calls `thdim.cli.main(argv)` in-process, a reference loop is timed between
ops, and checker.py judges every output outside the timed window. The
result goes to <workdir>/child.json. With trace 1 each round runs twice on
the same inputs, untraced and then traced, and the per-layer numbers come
from the traced pass.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import checker
import selftest
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OP_TIME_CAP_S = 60      # one op beyond this fails with reason "timeout"
ROUNDS_BUDGET_S = 120   # no round starts that would end after this
MAX_FAILURES_KEPT = 20
# Other tenants of a shared machine slow it by up to 1.6x for seconds at a
# time. A short reference loop run before and after each op measures the
# speed the op saw; each op's time is also reported in units of it. Ops
# shorter than REFERENCE_EVERY_S are batched between two reference loops, so
# that the loops take at most about a fifth of a round of short ops.
REFERENCE_ITERATIONS = 30_000
REFERENCE_REPEATS = 3
REFERENCE_EVERY_S = 0.25


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so no handler in the
    program under test swallows it."""


def _on_alarm(_signum, _frame):
    raise OpTimeout()


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import thdim.cli
    return thdim.cli


def reference_loop() -> int:
    """A fixed pure-Python task mixing the operations thdim spends its time on:
    integer arithmetic, set inserts and big-int bit operations."""
    acc, seen, mask = 0, set(), 0
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        seen.add(acc & 4095)
        mask |= 1 << (acc & 511)
        mask &= ~(1 << (i & 511))
    return acc + len(seen) + mask.bit_count()


def reference_s() -> float:
    """Mean time of REFERENCE_REPEATS reference loops: the machine's current speed."""
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        reference_loop()
    return (time.perf_counter() - start) / REFERENCE_REPEATS


def run_op(cli, op: workloads.Op) -> tuple[float, str | None, str]:
    """(seconds, failure reason or None, captured stdout) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_CAP_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
        if rc != 0:
            reason = f"exit {rc}: {err.getvalue().strip()[:200]}"
    except OpTimeout:
        reason = "timeout"
    except MemoryError:
        reason = "oom"
    except Exception as exc:  # any escape from the program is a failed op
        reason = f"exception {type(exc).__name__}: {exc}"[:300]
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, reason, out.getvalue()


def check_op(op: workloads.Op, stdout: str) -> tuple[str | None, int, int]:
    """(rejection or None, factors, gates or exact dimension emitted, bytes written)."""
    g = op.graph
    if op.command == "verify":
        return (None if stdout.startswith("equal") else f"verify said {stdout.strip()!r}"), 0, 0
    try:
        text = op.output.read_text()
    except OSError as exc:
        return f"output unreadable: {exc}", 0, 0
    size = len(text.encode())
    if op.command == "decompose":
        err, count = checker.check_decomposition(g.n, g.edges, text)
    elif op.command == "compile":
        err, count = checker.check_circuit(g.n, g.edges, text)
    else:
        err, count = checker.check_report(g.n, g.edges, text)
    return err, count, size


class Runner:
    def __init__(self, cli, ops: list[workloads.Op], tracer: Tracer | None):
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[dict] = []
        self.failed = 0

    def one_pass(self, index: int, traced: bool) -> dict:
        """Run every op once, then check what each wrote."""
        gc.collect()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        op_s, op_ref, batch = [], [], []
        results = []
        try:
            before = reference_s()
            for i, op in enumerate(self.ops):
                if traced:
                    self.tracer.command = op.command
                elapsed, reason, stdout = run_op(self.cli, op)
                op_s.append(elapsed)
                batch.append(elapsed)
                results.append((op, reason, stdout))
                if sum(batch) >= REFERENCE_EVERY_S or i == len(self.ops) - 1:
                    after = reference_s()
                    op_ref.extend(t / ((before + after) / 2) for t in batch)
                    batch, before = [], after
        finally:
            if traced:
                self.tracer.uninstall()
        factors = out_bytes = circuit_bytes = 0
        for op, reason, stdout in results:
            self.attempted += 1
            if reason is None:
                err, count, size = check_op(op, stdout)
                factors += count
                out_bytes += size
                circuit_bytes += size if op.command == "compile" else 0
                reason = f"check: {err}" if err else None
            if reason is not None:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_KEPT:
                    self.failures.append({"round": index, "argv": op.argv, "reason": reason})
        return {"round": index, "traced": traced, "round_s": sum(op_s),
                "round_ref": sum(op_ref), "op_s": op_s, "op_ref": op_ref, "factors": factors,
                "output_bytes": out_bytes, "circuit_bytes": circuit_bytes}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        launched: float) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    cli = _import_cli()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    from thdim.randgraphs import gen_gnm  # after install, so set-up is traced too
    work = workdir / "io"
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.build_ops(workload, seed, work, gen_gnm)
    setup = {"setup_s": time.monotonic() - launched, "setup_reference_s": reference_s()}
    if not seconds:
        return setup
    setup_layers = {}
    if tracer:
        tracer.uninstall()
        setup_layers = tracer.layer_metrics()
        spans = tracer.span_records()
    checks = selftest.run()

    runner = Runner(cli, ops, tracer)
    passes = []
    begin = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        passes.append(runner.one_pass(index, traced=False))
        if tracer:
            traced = runner.one_pass(index, traced=True)
            traced["layers"] = tracer.layer_metrics()
            passes.append(traced)
            spans.extend(tracer.span_records())
        index += 1
        now = time.perf_counter()
        last = now - round_start
        elapsed = now - begin
        if elapsed + last > ROUNDS_BUDGET_S:
            break
        if index >= workloads.MIN_ROUNDS and elapsed + last > seconds:
            break

    result = {
        **setup,
        "workload": workload, "seed": seed, "trace": trace,
        "op_commands": [op.command for op in ops],
        "selftest": [{"case": c, "passed": p, "detail": d} for c, p, d in checks],
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
    }
    if tracer:
        result["layers"] = reduce_layers(passes, setup_layers)
        with open(workdir / "spans.jsonl", "w") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
    return result


def best_op_times(passes: list[dict]) -> list[float]:
    """Each op's best time over the passes. Other processes on a shared machine
    slow whole stretches of a run; an op's best time filters that out."""
    return [min(times) for times in zip(*(p["op_s"] for p in passes))]


def reduce_layers(passes: list[dict], setup_layers: dict) -> dict:
    """Median over traced passes of each per-layer number; gen_gnm from set-up;
    tracing overhead as traced minus untraced median round time. The two are
    compared in reference units, so that the machine's speed changing between
    passes does not show as overhead, and the difference is turned back into
    seconds at the untraced passes' median reference speed."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    keys = traced[0]["layers"].keys()
    out = {k: statistics.median(p["layers"][k] for p in traced) for k in keys}
    for k in ("randgraphs.gen_gnm.s", "randgraphs.gen_gnm.calls"):
        out[k] = setup_layers[k]
    reference = statistics.median(p["round_s"] / p["round_ref"] for p in untraced)
    out["trace.overhead_s"] = reference * (statistics.median(p["round_ref"] for p in traced)
                                           - statistics.median(p["round_ref"] for p in untraced))
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir, launched = argv
    workdir = Path(workdir)
    result = run(workload, int(seed), float(seconds), trace == "1", workdir, float(launched))
    tmp = workdir / "child.json.tmp"
    tmp.write_text(json.dumps(result))
    tmp.replace(workdir / "child.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The thdim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sparse-gnm --seed 1 --seconds 20 --trace 0

Run from the repository root. SETUP_CHILDREN set-up-only child processes
run first, then the workload child; every child runs under a memory cap
(RLIMIT_AS) and the run's time cap, and times its own set-up (see child.py).
setup_s is the median over all these children of set-up time scaled to the
reference speed: seconds x REFERENCE_NOMINAL_S / the child's reference-loop
time. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it print
every metric by name with its unit. A fuller record, with provenance, goes
to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from child import best_op_times  # noqa: E402
from tracer import layer_units  # noqa: E402

SETUP_CHILDREN = 8
# A round figure for the reference loop's time on a 2-core Xeon virtual
# machine, where it reads 14 to 26 ms as other tenants come and go. Raw
# set-up time follows them, by up to 23% between two sets of runs; scaled to
# this fixed speed, it follows them much less.
REFERENCE_NOMINAL_S = 0.020
MEMORY_CAP_BYTES = 3 << 30
RUN_TIME_CAP_S = 160    # from the run's start until the workload child is killed
STATE = ROOT / ".perfbench"

END_TO_END = {  # name -> unit
    "round_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
    "factors_total": "count", "output_bytes": "bytes",
}

DETAIL_UNITS = {  # printed with the end-to-end metrics, not part of the JSON line
    "decompose_s": "s", "compile_s": "s", "verify_s": "s", "report_s": "s",
    "failed_share": "ratio", "circuit_bytes": "bytes", "rounds": "count",
    "round_s": "s", "round_s_median": "s", "reference_ms": "ms",
    "setup_s_raw": "s", "setup_reference_ms": "ms",
}


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    mem_kb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 1024
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "mem_total_kb": mem_kb}


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def child_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def run_child(workload: str, seed: int, seconds: int, trace: int, workdir: Path,
              deadline: float) -> tuple[dict | None, str | None]:
    """(child result or None, failure reason or None); the child is killed at
    `deadline` (a time.monotonic value). With seconds 0 it only sets up."""
    workdir.mkdir(parents=True, exist_ok=True)
    log = open(workdir / "child.log", "w")
    try:
        proc = subprocess.Popen(child_cmd(workload, seed, seconds, trace, workdir,
                                          repr(time.monotonic())),
                                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                preexec_fn=_limit_child)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, "timeout"
    finally:
        log.close()
        shutil.rmtree(workdir / "io", ignore_errors=True)
    result_file = workdir / "child.json"
    if rc == 0 and result_file.exists():
        return json.loads(result_file.read_text()), None
    tail = (workdir / "child.log").read_text()[-2000:]
    if rc == -signal.SIGKILL or "MemoryError" in tail:
        return None, "oom"
    return None, f"crash (exit {rc}): {tail.strip()[-300:]}"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(child: dict, setups: list[dict]) -> tuple[dict, dict]:
    """(end-to-end metrics, the breakdown printed alongside).

    round_ref is the median over rounds of the round's time in reference
    units. The printed seconds time each op by its best round. Counts are
    equal in every round, since every round repeats the same ops. `setups`
    holds the set-up times and reference-loop times of every child.
    """
    rounds = [p for p in child["passes"] if not p["traced"]]
    best = best_op_times(rounds)
    first = rounds[0]

    def per_cmd(cmd):
        return sum(t for t, op_cmd in zip(best, child["op_commands"]) if op_cmd == cmd)

    metrics = {
        "round_ref": _median(p["round_ref"] for p in rounds),
        "setup_s": _median(REFERENCE_NOMINAL_S * s["setup_s"] / s["setup_reference_s"]
                           for s in setups),
        "peak_rss_mb": child["peak_rss_mb"],
        "factors_total": first["factors"],
        "output_bytes": first["output_bytes"],
    }
    detail = {
        "decompose_s": per_cmd("decompose"), "compile_s": per_cmd("compile"),
        "verify_s": per_cmd("verify"), "report_s": per_cmd("report"),
        "failed_share": child["failed"] / max(child["attempted"], 1),
        "circuit_bytes": first["circuit_bytes"],
        "rounds": len(rounds),
        "round_s": sum(best),
        "round_s_median": _median(p["round_s"] for p in rounds),
        "reference_ms": 1000 * _median(p["round_s"] / p["round_ref"] for p in rounds),
        "setup_s_raw": _median(s["setup_s"] for s in setups),
        "setup_reference_ms": 1000 * _median(s["setup_reference_s"] for s in setups),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thdim").is_dir():
        sys.exit(f"no thdim sources under {ROOT / 'src'}")

    deadline = time.monotonic() + RUN_TIME_CAP_S
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    rundir = STATE / "runs" / run_id
    setups, crash = [], None
    for k in range(SETUP_CHILDREN):
        setup, crash = run_child(args.workload, args.seed, 0, 0, rundir / f"setup{k}", deadline)
        if crash:
            break
        setups.append(setup)
    child = None
    if not crash:
        child, crash = run_child(args.workload, args.seed, args.seconds, args.trace, rundir,
                                 deadline)
    if child is not None and not args.trace:
        setups.append({k: child[k] for k in ("setup_s", "setup_reference_s")})

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(), "setups": setups}
    print(" ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    if child is None:
        record["crash"] = crash
        correct, attempted, failed = False, 1, 1
        metrics = {}
        print(f"workload child failed: {crash}")
    else:
        record["child"] = child
        attempted, failed = child["attempted"], child["failed"]
        selftest_ok = all(c["passed"] for c in child["selftest"])
        correct = failed == 0 and selftest_ok
        for case in child["selftest"]:
            if not case["passed"]:
                print(f"checker self-test failed: {case['case']}: {case['detail']}")
        for f in child["failures"]:
            print(f"failed op (round {f['round']}): {' '.join(f['argv'][:4])}: {f['reason']}")
        if args.trace:
            metrics = child["layers"]
        else:
            metrics, detail = summarize(child, setups)
            record["detail"] = detail
            for name, value in detail.items():
                print(f"{name:<48} {value:.6g} {DETAIL_UNITS[name]}")
    units = END_TO_END if not args.trace else layer_units()
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in units.items()}
    for name, m in out.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

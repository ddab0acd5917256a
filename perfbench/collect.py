"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/collect.py --seeds 1-5 --workloads bounded-degree --traced 0

Each seed runs every chosen workload once untraced through run.py; --traced
more runs per workload add the per-layer breakdown. For every end-to-end
metric the summary gives the median, the quartiles of
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median, next to
the bound BENCHMARK.json allows. The printed breakdown lines (decompose_s,
compile_s, verify_s, report_s, failed_share, circuit_bytes, ...) are
summarized the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, provenance

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(final JSON object, the 'name value unit' lines printed before it)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    printed = {}
    for line in lines[:-1]:
        tokens = line.split()
        if len(tokens) == 3:
            try:
                printed[tokens[0]] = float(tokens[1])
            except ValueError:
                pass
    return json.loads(lines[-1]), printed


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*", default=names, choices=names)
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"provenance": provenance(), "run_seconds": seconds, "seeds": seeds,
               "workloads": {}}
    for workload in args.workloads:
        metrics: dict[str, list[float]] = {}
        printed: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            start = time.perf_counter()
            result, lines = one_run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false", flush=True)
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, value in lines.items():
                if name not in result["metrics"]:
                    printed.setdefault(name, []).append(value)
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.0f} s): "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
        entry = {"attempted": attempted, "failed": failed,
                 "end_to_end": {k: summarize(v) for k, v in metrics.items()},
                 "breakdown": {k: summarize(v) for k, v in printed.items()}}
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <- above bound/3"
            print(f"  {workload} {name}: median {s['median']:.4g}, spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        layers = []
        for seed in seeds[:args.traced]:
            result, _ = one_run(workload, seed, seconds, 1)
            layers.append({k: m["value"] for k, m in result["metrics"].items()})
        if layers:
            entry["per_layer"] = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

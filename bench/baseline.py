"""Measure every workload on ten seeds and write the summary to
bench/baseline.json.

    python3 bench/baseline.py

Each run measures for ``run_seconds`` of BENCHMARK.json.  For each
workload: ten untraced runs on seeds 1..10, then one traced run on seed 1.  Each end-to-end metric gets its values, median,
quartiles (``statistics.quantiles(values, n=4)``) and spread, the distance
between the quartiles as a share of the median.  Runs go one at a time, so
they do not compete for the two cores.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys

import run


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    print(f"{workload} seed={seed} trace={trace}: {lines[-2]}", flush=True)
    return json.loads(lines[-1]), lines


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    seconds = json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(1, 11))
    out = {"python": platform.python_version(), "machine": platform.machine(),
           "seconds": seconds, "seeds": seeds,
           "end_to_end": {}, "per_layer": {}, "hotspots": {}, "failed": {}}
    for workload in run.WORKLOADS:
        results = [run_once(workload, seed, seconds, 0)[0] for seed in seeds]
        out["end_to_end"][workload] = {
            name: summarize([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]}
        traced, lines = run_once(workload, 1, seconds, 1)
        out["per_layer"][workload] = {
            name: m["value"] for name, m in traced["metrics"].items()}
        out["hotspots"][workload] = lines[-3]
        out["failed"][workload] = sum(r["failed"] for r in results + [traced])
    (run.BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in out["end_to_end"].items():
        for name, s in metrics.items():
            print(f"{workload} {name}: median={s['median']:.4f} "
                  f"spread={s['spread']:.3f}")


if __name__ == "__main__":
    main()

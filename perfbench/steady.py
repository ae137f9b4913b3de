#!/usr/bin/env python3
"""Steadiness mode: repeat each workload over several seeds and report, per
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads bike-long --runs 5

Each run is a separate ``run.py`` process with seeds 1, 2, ... and the
benchmark's ``run_seconds``. A spread above the metric's bound fails. The
summary is written as JSON (``--out``, default under ``.perfbench/results/``);
the exit code is 0 only when every run was correct and every spread was
within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FIRST_SEED = 1


def one_run(workload: str, seed: int) -> tuple[dict | None, float, str]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, proc.stderr.strip()[-2000:]
    return json.loads(lines[-1]), wall, ""


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", help="summary file (JSON)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("quartiles need at least 2 runs")

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        results = {}
        for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
            result, wall, err = one_run(workload, seed)
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED ({wall:.1f} s) {err}", file=sys.stderr)
                continue
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"{result['attempted']} jobs", file=sys.stderr)
            for name, m in result["metrics"].items():
                results.setdefault(name, []).append(m["value"])
            results.setdefault("wall_s", []).append(wall)
        if not results or any(len(v) < 2 for v in results.values()):
            ok = False
            continue
        summary[workload] = {name: summarize(values) for name, values in results.items()}
        print(f"\n{workload}: {args.runs} runs, seeds {FIRST_SEED}..{FIRST_SEED + args.runs - 1}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if s["spread"] < bound / 3 else "within bound"
                if s["spread"] > bound:
                    verdict = "too noisy"
                    ok = False
            print(f"  {name:<16} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.3f} {bound if bound is not None else '':>6}  {verdict}")

    out = Path(args.out) if args.out else (
        ROOT / ".perfbench" / "results" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nsummary written to {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Multi-drone surveillance case study on synthetic data: centralized
monitoring of the four drone properties (two local ones imposed on the
anchor drone, two over the whole swarm) at each swarm size, over every
time t in 0..steps.

Each formula is monitored by one call over the whole window, so the
per-step time is that call's total divided by steps + 1, compilation
included.

Usage: python3 scripts/drone_case_study.py [--sigma 4,10,50,100] [--steps 80] [--seed 0]
"""

import argparse
import time

from stlgo import DroneScenarioConfig, gen_drone, monitor_global, monitor_local
from stlgo.cli import drone_formulas, with_anchor_graphs

ANCHOR = 1


def drone_rows(sigma, steps, seed):
    """One row per drone formula on a seeded σ-drone run: sat and vio over
    t in 0..steps, the monitoring call's total time in seconds and its mean
    per step in milliseconds."""
    run = with_anchor_graphs(
        gen_drone(DroneScenarioConfig(sigma=sigma, seed=seed, horizon=steps + 2)), ANCHOR)
    rows = []
    for name, f, kind in drone_formulas(run, sigma, ANCHOR):
        start = time.perf_counter()
        if kind == "local":
            signal = monitor_local(run, f, ANCHOR, steps)
        else:
            signal = monitor_global(run, f, steps)
        total = time.perf_counter() - start
        sat = sum(signal.values[:steps + 1])
        rows.append({"sigma": sigma, "formula": name, "sat": sat, "vio": steps + 1 - sat,
                     "total_s": total, "mean_ms": total * 1000.0 / (steps + 1)})
    return rows


def _swarm_sizes(text):
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 2:  # a swarm has at least two drones
        raise argparse.ArgumentTypeError(
            f"expected a comma list of swarm sizes >= 2, got {text!r}")
    return sizes


def _steps(text):
    try:
        steps = int(text)
    except ValueError:
        steps = -1
    if steps < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return steps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=_swarm_sizes, default="4,10,50,100")
    ap.add_argument("--steps", type=_steps, default=80)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'sigma':>6} {'formula':>8} {'sat':>5} {'vio':>5} {'mean ms/step':>13}")
    for sigma in args.sigma:
        for row in drone_rows(sigma, args.steps, args.seed):
            print(f"{row['sigma']:>6} {row['formula']:>8} {row['sat']:>5} "
                  f"{row['vio']:>5} {row['mean_ms']:>13.3f}")


if __name__ == "__main__":
    main()

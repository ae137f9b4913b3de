#!/usr/bin/env python3
"""Bike-share case study on synthetic data: centralized monitoring of four
availability properties over a month of seeded daily runs, then distributed
monitoring of the two station-level properties from a single station's
partial view (it sees the states of stations within 2.5 miles on the
distance graph or within 7 minutes on the travel-time multigraph).

Usage: python3 scripts/bike_case_study.py [--stations 12] [--days 31] [--seed 0]
"""

import argparse
import random
import time

from stlgo import (
    KnowledgeMask,
    agent_neighbors,
    gen_bike,
    monitor_dist,
    monitor_global,
    monitor_local,
    parse_global,
    parse_local,
)
from stlgo.scenario import BikeScenarioConfig

PHI1 = "G[0,24]([x[0] < 5] -> Out{mt} E[5,inf] W[0,8] [x[0] >= 8])"
PHI2 = "G[0,24]([x[1] > 15] -> In{d} E[0,4] W[0,2] [x[1] - x[2] > 5])"
BIG1 = "FA{{{V}}}(G[0,24](Out{{d}} E[3,inf] W[0,1] [x[0] >= 8]))"
BIG2 = "FA{{{V}}}(G[0,24]([x[0] < 2] -> Out{{mt}} E[3,inf] W[0,12] [x[0] >= 4]))"

ANCHOR = 1
D_RADIUS = 2.5  # miles on the distance graph
MT_MINUTES = 7.0  # minutes on the travel-time multigraph


def visibility_mask(run, observer):
    """States visible to the observer: everything about stations reachable
    within the distance radius or the travel-time budget, at every hour."""
    visible = {observer}
    visible |= agent_neighbors(run, "d", 0, observer, "out", (0.0, D_RADIUS))
    visible |= agent_neighbors(run, "d", 0, observer, "in", (0.0, D_RADIUS))
    visible |= agent_neighbors(run, "mt", 0, observer, "out", (0.0, MT_MINUTES))
    visible |= agent_neighbors(run, "mt", 0, observer, "in", (0.0, MT_MINUTES))
    return KnowledgeMask(observer, [(j, 0, run.length) for j in visible])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stations", type=int, default=12)
    ap.add_argument("--days", type=int, default=31)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    core = sorted(rng.sample(range(1, args.stations + 1), min(5, args.stations)))
    v = ",".join(str(s) for s in core)

    local = [("phi1", parse_local(PHI1)), ("phi2", parse_local(PHI2))]
    global_ = [
        ("Phi1", parse_global(BIG1.format(V=v))),
        ("Phi2", parse_global(BIG2.format(V=v))),
    ]

    runs = [
        gen_bike(BikeScenarioConfig(stations=args.stations, seed=args.seed * 1000 + day))
        for day in range(args.days)
    ]

    print(f"centralized monitoring over {args.days} daily runs "
          f"({args.stations} stations, core set {{{v}}})")
    print(f"{'':>6} {'# sat':>6} {'avg time (s)':>13}")
    for name, f in local:
        start = time.perf_counter()
        sat = sum(monitor_local(run, f, ANCHOR, 0).values[0] for run in runs)
        per = (time.perf_counter() - start) / len(runs)
        print(f"{name:>6} {sat:>6} {per:>13.2e}")
    for name, f in global_:
        start = time.perf_counter()
        sat = sum(monitor_global(run, f, 0).values[0] for run in runs)
        per = (time.perf_counter() - start) / len(runs)
        print(f"{name:>6} {sat:>6} {per:>13.2e}")

    print(f"\ndistributed monitoring at station {ANCHOR} (partial knowledge)")
    print(f"{'':>6} {'# sat':>6} {'# vio':>6} {'# unknown':>10} {'avg time (s)':>13}")
    masks = [visibility_mask(run, ANCHOR) for run in runs]
    for name, f in local:
        start = time.perf_counter()
        verdicts = [
            monitor_dist(run, mask, f, ANCHOR, 0).values[0] for run, mask in zip(runs, masks)
        ]
        per = (time.perf_counter() - start) / len(runs)
        sat = sum(1 for x in verdicts if x == 1)
        vio = sum(1 for x in verdicts if x == 0)
        unk = sum(1 for x in verdicts if x is None)
        print(f"{name:>6} {sat:>6} {vio:>6} {unk:>10} {per:>13.2e}")


if __name__ == "__main__":
    main()

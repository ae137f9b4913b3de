"""The derived distance graph (``DistanceSnapshot``) against the stored one.

A drone run's ``d`` graph is derived from the positions. Built the old way,
as stored edge rows ``(i, j, 1, math.dist(x_i, x_j))``, it must give the same
edges, queries and equality, and every monitor must answer the same over
either kind.
"""

import math
import random

import pytest

from stlgo import (
    DroneScenarioConfig,
    KnowledgeMask,
    MultigraphSnapshot,
    gen_drone,
    is_determinable,
    monitor_dist,
    monitor_global,
    monitor_local,
    parse_local,
)
from stlgo.cli import drone_formulas, with_anchor_graphs
from stlgo.formula import horizon
from stlgo.model import DistanceSnapshot, neighbor_items

CASES = [(sigma, seed) for sigma in (2, 4, 30) for seed in range(4)]

# the drone-observer formulas
OBSERVER_FORMULAS = (
    "G[0,2](Out{s} E[0,2] (F[0,3](In{c} E[1,inf] [x[0] >= 4])))",
    "F[0,3](Out{d} E[2,inf] W[0,3] (G[0,2](In{s} E[0,1] [x[1] >= 3])))",
    "G[0,2](Out{d} E[1,inf] W[0,2] ([x[0] >= 2] & In{s} E[0,3] [x[1] <= 6]))",
)


def stored_d(here) -> MultigraphSnapshot:
    n = len(here)
    return MultigraphSnapshot("d", False, [
        (i, j, 1, math.dist(here[i - 1], here[j - 1]))
        for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ])


def both_kinds(sigma, seed, horizon=80):
    derived = gen_drone(DroneScenarioConfig(sigma=sigma, seed=seed, horizon=horizon))
    stored = derived.with_graph("d", [stored_d(here) for here in derived.trajectory.states])
    return derived, stored


def windows(snap, rng):
    """Open, half-open, empty and exact windows, the exact ones at distances
    the snapshot holds."""
    out = [(0.3, math.inf), (-math.inf, math.inf), (1.0, 0.5), (-5.0, -1.0)]
    weights = sorted(e.weight for e in snap.edges)
    for w in rng.sample(weights, min(3, len(weights))):
        out += [(w, w), (w, math.inf), (-math.inf, w), (0.0, w)]
    return out


@pytest.mark.parametrize("sigma, seed", CASES)
def test_derived_snapshot_matches_stored_rows(sigma, seed):
    derived, stored = both_kinds(sigma, seed)
    rng = random.Random(seed)
    for a, b in zip(derived.graphs.dynamic["d"], stored.graphs.dynamic["d"]):
        assert type(a) is DistanceSnapshot and type(b) is MultigraphSnapshot
        assert a.edges == b.edges
        assert a.max_node() == b.max_node() == sigma
        assert a == b and b == a and not a != b and not b != a
        assert hash(a) == hash(b)
        for i in range(1, sigma + 2):  # agent sigma + 1 has no edges in either
            for direction in ("in", "out"):
                assert set(a.oriented_edges(i, direction)) == set(b.oriented_edges(i, direction))
                for lo, hi in windows(b, rng):
                    assert a.multiplicities(i, direction, lo, hi) == \
                        b.multiplicities(i, direction, lo, hi)
    # and so does the derived run's neighbor index, which skips
    # ``multiplicities`` for a distance snapshot
    for lo, hi in ((0.3, math.inf), (-math.inf, math.inf), (1.0, 0.5)):
        for direction in ("in", "out"):
            index = derived.graphs.neighbor_index("d", direction, lo, hi)
            for t, b in enumerate(stored.graphs.dynamic["d"]):
                for i in range(1, sigma + 2):
                    want = b.multiplicities(i, direction, lo, hi)
                    assert dict(neighbor_items(index.at(i, t))) == want


def test_distance_snapshot_equality_and_graph_type():
    states = gen_drone(DroneScenarioConfig(sigma=3, seed=1, horizon=20)).trajectory.states
    assert states[0] != states[-1]
    a, b = DistanceSnapshot("d", states[0]), DistanceSnapshot("d", states[0])
    assert a == b and hash(a) == hash(b)
    assert a != DistanceSnapshot("e", states[0])
    assert a != DistanceSnapshot("d", states[-1]) != stored_d(states[0])
    assert a != MultigraphSnapshot("d", True, a.edges)
    assert a != "d"
    # one agent: no pair, no edge
    lone = DistanceSnapshot("d", ((0.0, 0.0),))
    assert lone == MultigraphSnapshot("d", False, []) and lone.max_node() == 0
    assert lone.multiplicities(1, "out") == {} and lone.oriented_edges(1, "in") == ()


@pytest.mark.parametrize("sigma, seed", CASES)
def test_monitors_answer_the_same_over_either_kind(sigma, seed):
    derived, stored = both_kinds(sigma, seed)
    derived, stored = with_anchor_graphs(derived, 1), with_anchor_graphs(stored, 1)
    rng = random.Random(seed)
    observer = rng.randrange(1, sigma + 1)
    half = rng.sample([j for j in range(1, sigma + 1) if j != observer], sigma // 2)
    masks = (KnowledgeMask.self_only(observer),
             KnowledgeMask(observer, {(j, t) for j in half for t in range(derived.length + 1)}))
    local = [parse_local(text) for text in OBSERVER_FORMULAS]
    for name, f, kind in drone_formulas(derived, sigma, 1):
        if kind == "global":
            if name == "Phi3":
                T = derived.length - 2
                assert monitor_global(derived, f, T) == monitor_global(stored, f, T)
            continue
        local.append(f)
    for f in local:
        T = derived.length - int(horizon(f)[1])
        agent = rng.randrange(1, sigma + 1)
        assert monitor_local(derived, f, agent, T) == monitor_local(stored, f, agent, T)
        for mask in masks:
            assert monitor_dist(derived, mask, f, observer, T) == \
                monitor_dist(stored, mask, f, observer, T)
            assert is_determinable(derived, mask, f, observer, T) == \
                is_determinable(stored, mask, f, observer, T)

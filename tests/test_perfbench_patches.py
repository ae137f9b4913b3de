"""The benchmark drives stlgo through names and call forms that a refactor
could break: the traced benchmark patches stlgo functions by name, and the
workloads build knowledge masks from pair sets. A refactor that renames or
moves one, or changes what a mask built that way knows, must fail here, not
only in a benchmark run."""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from stlgo import (
    BikeScenarioConfig,
    DroneScenarioConfig,
    KnowledgeMask,
    agent_neighbors,
    gen_bike,
    lower,
    parse_global,
)
from stlgo.formula import nodes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


SPANS = load_perfbench("spans")
WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("module, attrs", [(p[0], p[1]) for p in SPANS.PATCHES])
def test_every_patched_name_resolves(module, attrs):
    mod = importlib.import_module(module)
    for attr in attrs:
        assert callable(getattr(mod, attr)), f"{module}.{attr}"


def test_lowered_nodes_have_vars_for_the_node_counter():
    core = lower(parse_global("G[0,2] FA{1..3}([x[0] >= 0] | F[0,1] [x[0] >= 1] | true)"))
    for node in nodes(core):
        vars(node)
    assert SPANS._core_nodes(core, ()) == {"core_nodes": sum(1 for _ in nodes(core))}


def _as_ranges(pairs):
    """Maximal (subject, t_from, t_to) ranges covering a set of pairs."""
    ranges = []
    for j, t in sorted(pairs):
        if ranges and ranges[-1][0] == j and ranges[-1][2] == t - 1:
            ranges[-1][2] = t
        else:
            ranges.append([j, t, t])
    return [tuple(r) for r in ranges]


def test_half_swarm_mask_is_whole_histories():
    mask = WORKLOADS._half_swarm(random.Random(7), 3, 10, 20)
    others = [j for j in range(1, 11) if j != 3]
    half = random.Random(7).sample(others, 5)
    assert mask == KnowledgeMask(3, [(j, 0, 20) for j in half])
    assert all(mask.knows(j, t) for j in half for t in range(21))


def test_bike_visibility_mask_is_whole_histories():
    run = gen_bike(BikeScenarioConfig(stations=8, seed=2, hours=30))
    mask = WORKLOADS.BikeLong._visibility_mask(run, 1)
    visible = {1}
    for tag, radius in (("d", 2.5), ("mt", 7.0)):
        for direction in ("in", "out"):
            visible |= agent_neighbors(run, tag, 0, 1, direction, (0.0, radius))
    assert len(visible) > 1
    assert mask == KnowledgeMask(1, [(j, 0, run.length) for j in visible])


def test_drone_radius_mask_knows_the_sensed_pairs(tmp_path):
    workload = WORKLOADS.DroneObserver(1, WORKLOADS.DroneObserver.sizes["tiny"], tmp_path)
    workload.setup()
    checked = 0
    for run, masks in workload.state["scenarios"]:
        for s, by_name in masks.items():
            radius = dict(by_name)["radius"]
            sensed = {
                (e.dst, t)
                for t in range(run.length + 1)
                for e in run.graphs.at("d", t).oriented_edges(s, "out")
                if e.weight <= DroneScenarioConfig.sensing_radius
            }
            assert radius == KnowledgeMask(s, _as_ranges(sensed))
            for j in range(1, run.num_agents + 1):
                for t in range(run.length + 1):
                    assert radius.knows(j, t) == (j == s or (j, t) in sensed)
            checked += len(sensed)
    assert checked

import json
import math
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stlgo import (
    BikeScenarioConfig,
    DroneScenarioConfig,
    Edge,
    GraphTrajectory,
    KnowledgeMask,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    Signal,
    gen_bike,
    gen_drone,
    monitor_dist,
    monitor_global,
    monitor_local,
    parse_global,
    parse_local,
)
from stlgo.cli import EXIT_DATA, main
from stlgo.model import DistanceSnapshot
from stlgo.serialization import (
    SchemaError,
    load_graphs,
    load_labels,
    load_mask,
    load_run,
    load_signal,
    save_graphs,
    save_mask,
    save_run,
    save_signal,
)

from conftest import random_run


def test_run_round_trip(tmp_path):
    for run in (
        gen_bike(BikeScenarioConfig(stations=5, seed=2)),
        gen_drone(DroneScenarioConfig(sigma=3, seed=2, horizon=4)),
    ):
        save_run(run, tmp_path / "r.json", tmp_path / "g.json")
        assert load_run(tmp_path / "r.json", tmp_path / "g.json") == run


def test_infinite_weights_round_trip(tmp_path):
    snap = MultigraphSnapshot(
        "g", True, [(1, 2, 1, math.inf), (2, 1, 1, -math.inf), (1, 2, 2, 0.5)]
    )
    graphs = GraphTrajectory(0, static={"g": snap})
    save_graphs(graphs, tmp_path / "g.json")
    assert load_graphs(tmp_path / "g.json", 0) == graphs
    text = (tmp_path / "g.json").read_text()
    assert '"inf"' in text and '"-inf"' in text


def test_mask_round_trip(tmp_path):
    mask = KnowledgeMask(2, frozenset({(1, 0), (1, 1), (1, 2), (3, 5), (3, 7)}))
    save_mask(mask, tmp_path / "m.json")
    assert load_mask(tmp_path / "m.json", 7) == mask


def test_mask_ranges_are_clipped_to_the_run(tmp_path):
    def load(known, length):
        (tmp_path / "m.json").write_text(json.dumps(
            {"schema": "stlgo/1", "observer": 1, "known": known}))
        return load_mask(tmp_path / "m.json", length)

    assert load([[2, 0, 100000]], 10) == load([[2, 0, 10]], 10)
    assert load([[2, 0, 100000]], 10) == KnowledgeMask(1, {(2, t) for t in range(11)})
    assert load([[2, 11, 10**9], [3, 4, 5]], 10) == KnowledgeMask(1, {(3, 4), (3, 5)})
    # a file that lists the observer loads as the same mask without that entry
    assert load([[1, 0, 10], [3, 4, 5]], 10) == load([[3, 4, 5]], 10)


def test_saved_mask_never_lists_the_observer(tmp_path):
    save_mask(KnowledgeMask.full(2, 3, 4), tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text())["known"] == [[1, 0, 4], [3, 0, 4]]


def test_signal_round_trip(tmp_path):
    tern = Signal(0, (1, None, 0, None))
    save_signal(tern, tmp_path / "t.json")
    assert load_signal(tmp_path / "t.json") == tern
    boolean = Signal(0, (1, 0, 1))
    save_signal(boolean, tmp_path / "b.json")
    assert load_signal(tmp_path / "b.json") == boolean


def test_monitor_signals_load_back_equal(tmp_path):
    run = gen_drone(DroneScenarioConfig(sigma=4, seed=1, horizon=6))
    local = parse_local("F[0,2] [x[0] >= 4]")
    signals = [
        monitor_local(run, local, 2, 3),
        monitor_global(run, parse_global("G[0,1] @1.([x[1] >= 4])"), 3),
        monitor_dist(run, KnowledgeMask.self_only(1), local, 2, 3),
        monitor_dist(run, KnowledgeMask.full(1, 4, 6), local, 2, 3),
    ]
    assert None in signals[2].values and None not in signals[0].values
    for k, signal in enumerate(signals):
        save_signal(signal, tmp_path / f"{k}.json")
        assert load_signal(tmp_path / f"{k}.json") == signal


def test_schema_tag_checked(tmp_path):
    (tmp_path / "bad.json").write_text('{"schema": "other/9", "t0": 0, "values": []}')
    with pytest.raises(SchemaError, match="stlgo/1"):
        load_signal(tmp_path / "bad.json")


def test_dynamic_graph_gap_rejected(tmp_path):
    doc = {
        "schema": "stlgo/1",
        "types": {"g": {"directed": True, "snapshots": [{"t": 0, "edges": []}]}},
    }
    import json

    (tmp_path / "g.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="missing snapshots"):
        load_graphs(tmp_path / "g.json", 2)


def test_declared_counts_cross_checked(tmp_path):
    import json

    doc = {
        "schema": "stlgo/1",
        "num_agents": 3,
        "state_dim": 1,
        "length": 0,
        "states": [[[0.0]]],
    }
    (tmp_path / "r.json").write_text(json.dumps(doc))
    from stlgo.serialization import load_trajectory

    with pytest.raises(SchemaError, match="num_agents"):
        load_trajectory(tmp_path / "r.json")


def test_extra_snapshots_beyond_length_rejected(tmp_path):
    import json

    doc = {
        "schema": "stlgo/1",
        "types": {
            "g": {
                "directed": True,
                "snapshots": [{"t": t, "edges": []} for t in range(4)],
            }
        },
    }
    (tmp_path / "g.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="exceed run length"):
        load_graphs(tmp_path / "g.json", 1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_run_round_trips_with_deterministic_bytes(seed):
    rng = random.Random(seed)
    run = random_run(rng)
    # an undirected multigraph with self-loops and weights that need all of
    # their digits, given with endpoints in either order
    rows = []
    for i in range(1, run.num_agents + 1):
        for j in range(i, run.num_agents + 1):
            for u in (1, 2):
                if rng.random() < 0.3:
                    w = rng.choice((math.inf, -math.inf, rng.uniform(-5, 5), 0.1 + 0.2))
                    rows.append((j, i, u, w) if rng.random() < 0.5 else (i, j, u, w))
    run = run.with_graph("u", MultigraphSnapshot("u", False, rows))
    with tempfile.TemporaryDirectory() as d:
        a, b = Path(d, "a"), Path(d, "b")
        a.mkdir()
        b.mkdir()
        save_run(run, a / "r.json", a / "g.json")
        save_run(run, b / "r.json", b / "g.json")
        for name in ("r.json", "g.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert load_run(a / "r.json", a / "g.json") == run


def test_files_are_one_line_of_compact_json(tmp_path):
    run = gen_drone(DroneScenarioConfig(sigma=3, seed=2, horizon=4))
    save_run(run, tmp_path / "r.json", tmp_path / "g.json")
    for name in ("r.json", "g.json"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"


def test_nan_weight_in_file_rejected(tmp_path):
    (tmp_path / "g.json").write_text(
        '{"schema": "stlgo/1", "types": {"g": {"directed": true, "static": true, '
        '"snapshots": [{"edges": [[1, 2, 1, NaN]]}]}}}'
    )
    with pytest.raises(SchemaError, match="bad edge weight nan"):
        load_graphs(tmp_path / "g.json", 0)


# -- malformed files through the CLI -------------------------------------------


def _bundle(tmp_path):
    """Three agents over t = 0..2: a static directed graph "c", a time-varying
    undirected graph "d", a mask of agent 1 and a local formula."""
    run = MasRun(
        MasTrajectory([[(0.0,), (1.0,), (2.0,)]] * 3),
        GraphTrajectory(
            2,
            static={"c": MultigraphSnapshot("c", True, [(1, 2, 1, 0.5)])},
            dynamic={"d": tuple(
                MultigraphSnapshot("d", False, [(1, 3, 1, 1.0)]) for _ in range(3)
            )},
        ),
    )
    paths = {k: tmp_path / f"{k}.json" for k in ("run", "graphs", "mask")}
    save_run(run, paths["run"], paths["graphs"])
    save_mask(KnowledgeMask(1, frozenset({(2, 0), (2, 1)})), paths["mask"])
    paths["formula"] = tmp_path / "f.stlgo"
    paths["formula"].write_text("Out{c} E[1,1] true\n", encoding="utf-8")
    return paths


def _c_edges(*rows):
    def mutate(doc):
        doc["types"]["c"]["snapshots"][0]["edges"] = list(rows)
        return doc
    return mutate


def _set(keys, value):
    def mutate(doc):
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        return doc
    return mutate


# name -> (file, mutation of its document; a returned string is written verbatim)
MALFORMED = {
    "endpoint null": ("graphs", _c_edges([None, 2, 1, 0.5])),
    "endpoint a list": ("graphs", _c_edges([[1], 2, 1, 0.5])),
    "endpoint 2.7": ("graphs", _c_edges([1, 2.7, 1, 0.5])),
    "endpoint a string": ("graphs", _c_edges(["2", 1, 1, 0.5])),
    "endpoint true": ("graphs", _c_edges([True, 2, 1, 0.5])),
    "index 1.5": ("graphs", _c_edges([1, 2, 1.5, 0.5])),
    "index 0": ("graphs", _c_edges([1, 2, 0, 0.5])),
    "weight true": ("graphs", _c_edges([1, 2, 1, True])),
    "weight null": ("graphs", _c_edges([1, 2, 1, None])),
    "weight a word": ("graphs", _c_edges([1, 2, 1, "far"])),
    "agent 0": ("graphs", _c_edges([1, 0, 1, 0.5])),
    "agent -4": ("graphs", _c_edges([1, -4, 1, 0.5])),
    "agent N+1": ("graphs", _c_edges([1, 4, 1, 0.5])),
    "exact duplicate row": ("graphs", _c_edges([1, 2, 1, 0.5], [1, 2, 1, 0.5])),
    "duplicate key": ("graphs", _c_edges([1, 2, 1, 0.5], [1, 2, 1, 0.7])),
    "undirected mirrored key": ("graphs", _set(
        ["types", "d", "snapshots", 1, "edges"], [[1, 3, 1, 1.0], [3, 1, 1, 2.0]])),
    "edge row not a list": ("graphs", _c_edges(5)),
    "edge row too short": ("graphs", _c_edges([1, 2, 1])),
    "edges not a list": ("graphs", _set(["types", "c", "snapshots", 0, "edges"], 5)),
    "types not an object": ("graphs", _set(["types"], [1])),
    "graph entry not an object": ("graphs", _set(["types", "c"], 5)),
    "snapshots not a list": ("graphs", _set(["types", "c", "snapshots"], 5)),
    "snapshot not an object": ("graphs", _set(["types", "d", "snapshots", 0], 5)),
    "directed a string": ("graphs", _set(["types", "c", "directed"], "false")),
    "snapshot time a string": ("graphs", _set(["types", "d", "snapshots", 1, "t"], "1")),
    "derived kind unknown": ("graphs", _set(["types", "d"], {"directed": False,
                                                             "derived": "cosine"})),
    "derived kind not a string": ("graphs", _set(["types", "d"], {"directed": False,
                                                                  "derived": ["distance"]})),
    "derived with snapshots": ("graphs", _set(["types", "d"], {
        "directed": False, "derived": "distance", "snapshots": []})),
    "derived and static": ("graphs", _set(["types", "d"], {
        "directed": False, "derived": "distance", "static": True})),
    "derived directed": ("graphs", _set(["types", "d"], {"directed": True,
                                                         "derived": "distance"})),
    "derived positions a number": ("graphs", _set(["types", "d"], {
        "directed": False, "derived": "distance", "positions": 5})),
    "derived positions ragged": ("graphs", _set(["types", "d"], {
        "directed": False, "derived": "distance",
        "positions": [[[0.0], [1.0], [2.0]], [[0.0], [1.0]], [[0.0], [1.0], [2.0]]]})),
    "derived positions short of the run": ("graphs", _set(["types", "d"], {
        "directed": False, "derived": "distance", "positions": [[[0.0], [1.0], [2.0]]] * 2})),
    "weight an integer too large for a float": ("graphs", _c_edges([1, 2, 1, 10 ** 400])),
    "weight an integer past the digit limit": ("graphs", lambda doc: json.dumps(
        _c_edges([1, 2, 1, 0])(doc)).replace("[1, 2, 1, 0]", f"[1, 2, 1, {'9' * 5000}]")),
    "nested too deeply": ("graphs", lambda doc: "[" * 100_000 + "]" * 100_000),
    "truncated JSON": ("graphs", lambda doc: json.dumps(doc)[:-2]),
    "states a number": ("run", _set(["states"], 5)),
    "state vector a number": ("run", _set(["states", 0, 1], 5)),
    "null state component": ("run", _set(["states", 0, 1], [None])),
    "state component a string": ("run", _set(["states", 2, 0], ["1.0"])),
    "state component true": ("run", _set(["states", 1, 2], [True])),
    "states empty": ("run", _set(["states"], [])),
    "ragged time slice": ("run", _set(["states", 1], [[0.0]])),
    "mask range with a string": ("mask", _set(["known"], [[2, "0", 1]])),
    "mask observer null": ("mask", _set(["observer"], None)),
    "mask observer 0": ("mask", _set(["observer"], 0)),
    "mask known a number": ("mask", _set(["known"], 5)),
    "mask entry a number": ("mask", _set(["known"], [5])),
    "mask subject 0": ("mask", _set(["known"], [[0, 0, 5]])),
    "mask subject -2": ("mask", _set(["known"], [[-2, 0, 1]])),
}

_CASES = [
    pytest.param(command, name, id=f"{command}-{name}")
    for name, (which, _) in MALFORMED.items()
    for command in (("monitor-dist",) if which == "mask" else ("monitor", "monitor-dist"))
]


@pytest.mark.parametrize("command,name", _CASES)
def test_malformed_file_exits_3_with_one_error_line(tmp_path, capsys, command, name):
    paths = _bundle(tmp_path)
    which, mutate = MALFORMED[name]
    doc = mutate(json.loads(paths[which].read_text(encoding="utf-8")))
    paths[which].write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    argv = [command, "--formula", str(paths["formula"]), "--run", str(paths["run"]),
            "--graphs", str(paths["graphs"]), "--agent", "1"]
    if command == "monitor-dist":
        argv = argv[:-2] + ["--mask", str(paths["mask"])]
    assert main(argv) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert str(paths[which]) in lines[0]


def test_integer_weight_too_large_for_a_float_is_a_schema_error_without_its_digits(tmp_path):
    """The CLI's exit 3 is among MALFORMED; this checks the message."""
    paths = _bundle(tmp_path)
    doc = json.loads(paths["graphs"].read_text(encoding="utf-8"))
    doc["types"]["c"]["snapshots"][0]["edges"] = [[1, 2, 1, int("9" * 400)]]
    paths["graphs"].write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="bad edge weight") as caught:
        load_run(paths["run"], paths["graphs"])
    assert str(paths["graphs"]) in str(caught.value) and "9" * 20 not in str(caught.value)


def test_well_formed_bundle_monitors_with_a_derived_distance_graph(tmp_path):
    paths = _bundle(tmp_path)
    doc = json.loads(paths["graphs"].read_text(encoding="utf-8"))
    doc["types"]["d"] = {"directed": False, "derived": "distance"}
    paths["graphs"].write_text(json.dumps(doc), encoding="utf-8")
    paths["formula"].write_text("Out{d} E[2,2] W[1,2] true\n", encoding="utf-8")
    common = ["--formula", str(paths["formula"]), "--run", str(paths["run"]),
              "--graphs", str(paths["graphs"])]
    assert main(["monitor"] + common + ["--agent", "2"]) == 0
    assert main(["monitor-dist"] + common + ["--mask", str(paths["mask"])]) == 0
    assert load_run(paths["run"], paths["graphs"]).graphs.at("d", 1).edges == {
        Edge(1, 2, 1, 1.0), Edge(1, 3, 1, 2.0), Edge(2, 3, 1, 1.0)
    }


def test_well_formed_bundle_monitors(tmp_path, capsys):
    """The malformed cases above start from a bundle both commands accept."""
    paths = _bundle(tmp_path)
    common = ["--formula", str(paths["formula"]), "--run", str(paths["run"]),
              "--graphs", str(paths["graphs"])]
    assert main(["monitor"] + common + ["--agent", "1"]) == 0
    assert main(["monitor-dist"] + common + ["--mask", str(paths["mask"])]) == 0
    assert load_run(paths["run"], paths["graphs"]).graphs.at("c", 0).edges == {
        Edge(1, 2, 1, 0.5)
    }


@pytest.mark.parametrize(
    "loader,body",
    [
        (load_signal, '"t0": null, "values": [1]'),
        (load_signal, '"t0": -5, "values": [1]'),
        (load_signal, '"t0": 0, "values": []'),
        (load_signal, '"t0": 0, "values": [1, null]'),
        (load_signal, '"t0": 0, "values": ["x"]'),
        (load_signal, '"t0": 0, "values": 5'),
        (load_signal, '"t0": 0, "values": [true]'),
        (load_signal, '"t0": 0, "values": [1.0]'),
        (load_labels, '"labels": [1]'),
        (load_labels, '"labels": {"1": "H"}'),
        (load_labels, '"labels": {"1": [5]}'),
        (load_labels, '"labels": {"one": ["H"]}'),
    ],
)
def test_malformed_signal_and_label_files_raise_schema_error(tmp_path, loader, body):
    path = tmp_path / "f.json"
    path.write_text('{"schema": "stlgo/1", ' + body + "}", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(str(path))):
        loader(path)


def test_file_that_is_not_utf8_raises_schema_error_naming_it(tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(b'{"schema": "stlgo/1", "labels": {"1": ["\xff"]}}')
    with pytest.raises(SchemaError, match=re.escape(str(path))):
        load_labels(path)


# -- derived distance graphs ------------------------------------------------


def _stored_d(run):
    """The run with its derived d graph replaced by the same rows, stored."""
    n = run.num_agents
    return run.with_graph("d", [
        MultigraphSnapshot("d", False, [(i, j, 1, math.dist(here[i - 1], here[j - 1]))
                                        for i in range(1, n + 1) for j in range(i + 1, n + 1)])
        for here in run.trajectory.states
    ])


def test_run_file_names_a_derived_graph_in_one_descriptor(tmp_path):
    run = gen_drone(DroneScenarioConfig(sigma=5, seed=3, horizon=6))
    save_run(run, tmp_path / "r.json", tmp_path / "g.json")
    doc = json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))
    assert doc["types"]["d"] == {"directed": False, "derived": "distance"}
    assert list(doc["types"]) == ["c", "d", "s"]
    back = load_run(tmp_path / "r.json", tmp_path / "g.json")
    assert back == run
    assert all(type(snap) is DistanceSnapshot for snap in back.graphs.dynamic["d"])
    # saving the loaded run again gives the same bytes
    save_run(back, tmp_path / "r2.json", tmp_path / "g2.json")
    assert (tmp_path / "g2.json").read_bytes() == (tmp_path / "g.json").read_bytes()


def test_standalone_graph_file_keeps_a_derived_graph_derived(tmp_path):
    """A standalone graph file names a derived graph in a descriptor that
    carries its positions, and loads back to the same derived graph."""
    run = gen_drone(DroneScenarioConfig(sigma=5, seed=3, horizon=6))
    save_graphs(run.graphs, tmp_path / "g.json")
    doc = json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))
    assert doc["types"]["d"] == {"directed": False, "derived": "distance",
                                 "positions": json.loads(json.dumps(run.trajectory.states))}
    back = load_graphs(tmp_path / "g.json", run.length)
    assert back == run.graphs == _stored_d(run).graphs
    assert all(type(snap) is DistanceSnapshot for snap in back.dynamic["d"])
    save_graphs(back, tmp_path / "g2.json")
    assert (tmp_path / "g2.json").read_bytes() == (tmp_path / "g.json").read_bytes()
    # a stored distance graph is still written as its edge rows
    save_graphs(_stored_d(run).graphs, tmp_path / "stored.json")
    assert "derived" not in (tmp_path / "stored.json").read_text(encoding="utf-8")
    # the bundle's graph file, loaded on its own, brings its positions along
    with pytest.raises(SchemaError):
        load_graphs(tmp_path / "g.json", run.length + 1)


def test_standalone_graph_file_with_a_descriptor_raises_schema_error(tmp_path):
    run = gen_drone(DroneScenarioConfig(sigma=3, seed=0, horizon=2))
    save_run(run, tmp_path / "r.json", tmp_path / "g.json")
    with pytest.raises(SchemaError, match=re.escape(f"{tmp_path / 'g.json'}: graph 'd': ")):
        load_graphs(tmp_path / "g.json", run.length)


def test_bundle_with_stored_distance_rows_loads_and_saves_byte_for_byte(tmp_path):
    run = _stored_d(gen_drone(DroneScenarioConfig(sigma=4, seed=2, horizon=5)))
    save_run(run, tmp_path / "r.json", tmp_path / "g.json")
    assert "derived" not in (tmp_path / "g.json").read_text(encoding="utf-8")
    back = load_run(tmp_path / "r.json", tmp_path / "g.json")
    assert back == run
    assert all(type(snap) is MultigraphSnapshot for snap in back.graphs.dynamic["d"])
    save_run(back, tmp_path / "r2.json", tmp_path / "g2.json")
    for name in ("r", "g"):
        assert (tmp_path / f"{name}2.json").read_bytes() == \
            (tmp_path / f"{name}.json").read_bytes()


def test_distance_graph_of_another_trajectory_is_saved_with_its_positions(tmp_path):
    """A run's descriptor leaves its positions out only when they are the
    states saved beside it; otherwise the reloaded weights would change."""
    cfg = DroneScenarioConfig(sigma=4, seed=1, horizon=5)
    run_a = gen_drone(cfg)
    run_b = gen_drone(DroneScenarioConfig(sigma=4, seed=2, horizon=5))
    mixed = MasRun(run_b.trajectory, run_a.graphs)
    save_run(mixed, tmp_path / "r.json", tmp_path / "g.json")
    doc = json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))
    assert doc["types"]["d"]["positions"] == json.loads(json.dumps(run_a.trajectory.states))
    back = load_run(tmp_path / "r.json", tmp_path / "g.json")
    assert back == mixed and back.graphs == run_a.graphs
    assert all(type(snap) is DistanceSnapshot for snap in back.graphs.dynamic["d"])
    # equal states held in another trajectory object still derive the same graph
    copy = MasRun(MasTrajectory([list(s) for s in run_a.trajectory.states]), run_a.graphs)
    save_run(copy, tmp_path / "r.json", tmp_path / "g.json")
    doc = json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))
    assert doc["types"]["d"] == {"directed": False, "derived": "distance"}
    assert load_run(tmp_path / "r.json", tmp_path / "g.json") == run_a

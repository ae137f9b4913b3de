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
    TernarySignal,
    gen_bike,
    gen_drone,
)
from stlgo.central import BoolSignal
from stlgo.cli import EXIT_DATA, main
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
    snap = MultigraphSnapshot.make(
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
    assert load([[2, 0, 100000]], 10).known == {(2, t) for t in range(11)}
    assert load([[2, 11, 10**9], [3, 4, 5]], 10).known == {(3, 4), (3, 5)}


def test_signal_round_trip(tmp_path):
    tern = TernarySignal(0, (1, None, 0, None))
    save_signal(tern, tmp_path / "t.json")
    assert load_signal(tmp_path / "t.json") == tern
    boolean = BoolSignal(0, (1, 0, 1))
    save_signal(boolean, tmp_path / "b.json")
    assert load_signal(tmp_path / "b.json").values == (1, 0, 1)


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
    run = run.with_graph("u", MultigraphSnapshot.make("u", False, rows))
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
        MasTrajectory.from_states([[(0.0,), (1.0,), (2.0,)]] * 3),
        GraphTrajectory(
            2,
            static={"c": MultigraphSnapshot.make("c", True, [(1, 2, 1, 0.5)])},
            dynamic={"d": tuple(
                MultigraphSnapshot.make("d", False, [(1, 3, 1, 1.0)]) for _ in range(3)
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
    "nested too deeply": ("graphs", lambda doc: "[" * 100_000 + "]" * 100_000),
    "states a number": ("run", _set(["states"], 5)),
    "state vector a number": ("run", _set(["states", 0, 1], 5)),
    "null state component": ("run", _set(["states", 0, 1], [None])),
    "state component a string": ("run", _set(["states", 2, 0], ["1.0"])),
    "mask range with a string": ("mask", _set(["known"], [[2, "0", 1]])),
    "mask observer null": ("mask", _set(["observer"], None)),
    "mask observer 0": ("mask", _set(["observer"], 0)),
    "mask known a number": ("mask", _set(["known"], 5)),
    "mask entry a number": ("mask", _set(["known"], [5])),
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

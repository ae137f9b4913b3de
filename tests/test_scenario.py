import math
import random
import re
import time
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stlgo import (
    BikeScenarioConfig,
    DroneScenarioConfig,
    GraphTrajectory,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    export_station_csv,
    gen_bike,
    gen_drone,
    ingest_station_csv,
)
from stlgo.scenario import _index, _num
from stlgo.serialization import save_run


def euclid(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def test_drone_distance_graph_matches_positions():
    run = gen_drone(DroneScenarioConfig(sigma=4, seed=42, horizon=10))
    for t in range(run.length + 1):
        snap = run.graphs.at("d", t)
        weights = {(e.src, e.dst): e.weight for e in snap.edges}
        assert len(weights) == 6  # complete graph on 4 nodes
        for (i, j), w in weights.items():
            d = euclid(run.trajectory.state(i, t), run.trajectory.state(j, t))
            assert w == pytest.approx(d, abs=0.0)


def test_drone_sensing_and_communication_predicates():
    cfg = DroneScenarioConfig(sigma=6, seed=3, horizon=12)
    run = gen_drone(cfg)
    c = run.graphs.at("c", 0)
    c_pairs = {(e.src, e.dst) for e in c.edges}
    for i in range(1, 7):
        for j in range(i + 1, 7):
            assert ((i, j) in c_pairs) == (cfg.category(i) == cfg.category(j))
    for t in range(run.length + 1):
        s_pairs = {(e.src, e.dst) for e in run.graphs.at("s", t).edges}
        for i in range(1, 7):
            for j in range(i + 1, 7):
                close = (
                    euclid(run.trajectory.state(i, t), run.trajectory.state(j, t))
                    <= cfg.sensing_radius
                )
                same = cfg.category(i) == cfg.category(j)
                assert ((i, j) in s_pairs) == (close and same)


def close_pairs(cfg, run, same_category: bool):
    """(i, j, t) for each pair i < j of a drone run that lies within the
    sensing radius at t, in the same category or in different ones."""
    return [
        (i, j, t)
        for t in range(run.length + 1)
        for i in range(1, run.num_agents + 1)
        for j in range(i + 1, run.num_agents + 1)
        if euclid(run.trajectory.state(i, t), run.trajectory.state(j, t)) <= cfg.sensing_radius
        and (cfg.category(i) == cfg.category(j)) == same_category
    ]


def test_drone_same_category_pair_senses_when_close():
    cfg = DroneScenarioConfig(sigma=6, seed=3)
    run = gen_drone(cfg)
    pairs = close_pairs(cfg, run, same_category=True)
    assert pairs  # the seeded run has such a pair
    for i, j, t in pairs:
        s = [(e.index, e.weight) for e in run.graphs.at("s", t).edges if e[:2] == (i, j)]
        assert s == [(1, 1.0)]


def test_drone_different_categories_never_link():
    cfg = DroneScenarioConfig(sigma=6, seed=3)
    run = gen_drone(cfg)
    pairs = close_pairs(cfg, run, same_category=False)
    assert pairs  # the seeded run has such a pair
    c = {e[:2] for e in run.graphs.at("c", 0).edges}
    for i, j, t in pairs:
        assert (i, j) not in c
        assert (i, j) not in {e[:2] for e in run.graphs.at("s", t).edges}


def test_drone_determinism():
    cfg = DroneScenarioConfig(sigma=5, seed=99, horizon=8)
    assert gen_drone(cfg) == gen_drone(cfg)
    assert gen_drone(cfg) != gen_drone(DroneScenarioConfig(sigma=5, seed=100, horizon=8))


def test_bike_dynamics_identity():
    run = gen_bike(BikeScenarioConfig(stations=9, seed=7))
    traj = run.trajectory
    for i in range(1, traj.num_agents + 1):
        for t in range(traj.length):
            n, n_in, n_out = traj.state(i, t)
            n_next = traj.state(i, t + 1)[0]
            assert n_next == n + n_in - n_out
            assert n >= 0 and n_next >= 0


def test_bike_multigraph_has_two_parallel_edges_per_pair():
    run = gen_bike(BikeScenarioConfig(stations=10, seed=7))
    mt = run.graphs.at("mt", 0)
    by_pair = {}
    for e in mt.edges:
        by_pair.setdefault((e.src, e.dst), set()).add(e.index)
    assert by_pair  # density keeps this nonempty at 10 stations
    for pair, indices in by_pair.items():
        assert indices == {1, 2}


def test_bike_determinism_byte_identical(tmp_path):
    cfg = BikeScenarioConfig(stations=6, seed=5)
    for name in ("a", "b"):
        save_run(gen_bike(cfg), tmp_path / f"{name}_run.json", tmp_path / f"{name}_graphs.json")
    assert (tmp_path / "a_run.json").read_bytes() == (tmp_path / "b_run.json").read_bytes()
    assert (tmp_path / "a_graphs.json").read_bytes() == (tmp_path / "b_graphs.json").read_bytes()


# ---------------------------------------------------------------------------
# CSV ingestion


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_station_csv(tmp_path):
    states = write(
        tmp_path / "states.csv",
        "station,hour,n,n_in,n_out\n1,0,5,1,0\n1,1,6,0,0\n",
    )
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n")
    run = ingest_station_csv(states, dist, times)
    assert run.num_agents == 1
    assert run.length == 1
    assert run.trajectory.state(1, 0) == (5.0, 1.0, 0.0)


def test_csv_round_trip(tmp_path):
    run = gen_bike(BikeScenarioConfig(stations=7, seed=12))
    paths = (tmp_path / "s.csv", tmp_path / "d.csv", tmp_path / "t.csv")
    export_station_csv(run, *paths)
    again = ingest_station_csv(*paths)
    assert again == run


def _two_station_graphs():
    """The graphs of a two-station, two-step bike run that round-trips."""
    return {"d": MultigraphSnapshot("d", True, [(1, 2, 1, 0.5)]),
            "mt": MultigraphSnapshot("mt", True, [(1, 2, 1, 3.0), (1, 2, 2, 9.0)])}


def _two_station_run(static, dynamic=None):
    traj = MasTrajectory([[(1.0, 0.0, 0.0), (2.0, 1.0, 0.0)], [(1.0, 0.0, 1.0), (3.0, 0.0, 0.0)]])
    return MasRun(traj, GraphTrajectory(1, static=static, dynamic=dynamic or {}))


def test_csv_round_trip_two_stations(tmp_path):
    run = _two_station_run(_two_station_graphs())
    paths = (tmp_path / "s.csv", tmp_path / "d.csv", tmp_path / "t.csv")
    export_station_csv(run, *paths)
    assert ingest_station_csv(*paths) == run


def _refused(tmp_path, run, message):
    """The export of run fails naming the graph, and writes no file."""
    paths = (tmp_path / "s.csv", tmp_path / "d.csv", tmp_path / "t.csv")
    with pytest.raises(ValueError, match=message):
        export_station_csv(run, *paths)
    assert not any(path.exists() for path in paths)


def test_export_refuses_a_time_varying_graph(tmp_path):
    graphs = _two_station_graphs()
    d = (graphs.pop("d"), MultigraphSnapshot("d", True, [(2, 1, 1, 0.5)]))
    _refused(tmp_path, _two_station_run(graphs, {"d": d}), "graph 'd': .* static graphs only")


def test_export_refuses_an_undirected_graph(tmp_path):
    graphs = _two_station_graphs()
    graphs["mt"] = MultigraphSnapshot("mt", False, [(1, 2, 1, 3.0), (1, 2, 2, 9.0)])
    _refused(tmp_path, _two_station_run(graphs), "graph 'mt': .* directed graphs only")


def test_export_refuses_parallel_distance_edges(tmp_path):
    graphs = _two_station_graphs()
    graphs["d"] = MultigraphSnapshot("d", True, [(1, 2, 1, 0.5), (1, 2, 2, 0.7)])
    _refused(tmp_path, _two_station_run(graphs), r"graph 'd': edge \(1, 2, 2\): .* one d edge")


def test_export_refuses_an_extra_graph(tmp_path):
    graphs = _two_station_graphs()
    graphs["c"] = MultigraphSnapshot("c", True, [(1, 2, 1, 1.0)])
    _refused(tmp_path, _two_station_run(graphs), "graph 'c': .* only the graphs d and mt")


def test_missing_hour_is_named(tmp_path):
    states = write(
        tmp_path / "states.csv",
        "station,hour,n,n_in,n_out\n1,0,5,1,0\n1,2,6,0,0\n",
    )
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n")
    with pytest.raises(ValueError, match="missing hour 1"):
        ingest_station_csv(states, dist, times)


def test_nan_rejected_with_position(tmp_path):
    states = write(
        tmp_path / "states.csv",
        "station,hour,n,n_in,n_out\n1,0,nan,1,0\n",
    )
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n")
    with pytest.raises(ValueError, match="row 2.*NaN"):
        ingest_station_csv(states, dist, times)


@pytest.mark.parametrize("row, message", [
    ("1,0,inf,1,0", r"agent 1 at time 0: state \(inf, 1.0, 0.0\) is not 3 finite numbers"),
    ("1,0,1e400,1,0", r"agent 1 at time 0: state \(inf, 1.0, 0.0\) is not 3 finite numbers"),
    ("inf,0,1,1,0", "row 2: column 'station': expected integer"),
])
def test_bad_state_cell_names_the_file(tmp_path, row, message):
    states = write(tmp_path / "states.csv", f"station,hour,n,n_in,n_out\n{row}\n")
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(states))}: {message}$"):
        ingest_station_csv(states, dist, times)


@pytest.mark.parametrize(
    "dist_rows,times_rows,where",
    [
        ("1,2,3.0\n2,1,3.0\n1,2,3.0\n", "", "dist.csv: row 4"),
        ("", "1,2,4.0,9.0\n1,2,4.0,9.0\n", "times.csv: row 3"),
    ],
)
def test_repeated_station_pair_rejected_with_position(tmp_path, dist_rows, times_rows, where):
    """An exact repeat is an error too, not dropped."""
    states = write(tmp_path / "states.csv", "station,hour,n,n_in,n_out\n1,0,5,0,0\n2,0,5,0,0\n")
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n" + dist_rows)
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n" + times_rows)
    with pytest.raises(ValueError, match=rf"{where}: duplicate pair \(src 1, dst 2\)"):
        ingest_station_csv(states, dist, times)


@pytest.mark.parametrize(
    "name, rows, message",
    [
        ("states", "1,0,5,0,0\n\n1,1,abc,0,0\n", "column 'n': not a number: 'abc'"),
        ("dist", "1,2,3.0\n\n2,1,abc\n", "column 'miles': not a number: 'abc'"),
        ("times", "1,2,4.0,9.0\n\n2,1,4.0,abc\n", "column 'walk_min': not a number: 'abc'"),
    ],
    ids=["states", "dist", "times"],
)
def test_row_hint_counts_blank_lines(tmp_path, name, rows, message):
    """Line 3 is blank, so the bad cell is on line 4 of its file."""
    headers = {"states": "station,hour,n,n_in,n_out\n", "dist": "src,dst,miles\n",
               "times": "src,dst,transit_min,walk_min\n"}
    default = {"states": "1,0,5,0,0\n2,0,5,0,0\n", "dist": "", "times": ""}
    paths = [write(tmp_path / f"{k}.csv", headers[k] + (rows if k == name else default[k]))
             for k in ("states", "dist", "times")]
    bad = tmp_path / f"{name}.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{bad}: row 4: {message}')}$"):
        ingest_station_csv(*paths)


def test_bad_header_reported(tmp_path):
    states = write(tmp_path / "states.csv", "station,hour,bikes\n1,0,5\n")
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n")
    with pytest.raises(ValueError, match="header"):
        ingest_station_csv(states, dist, times)


def test_noncontiguous_stations_rejected(tmp_path):
    states = write(
        tmp_path / "states.csv",
        "station,hour,n,n_in,n_out\n1,0,5,0,0\n3,0,5,0,0\n",
    )
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n")
    with pytest.raises(ValueError, match="missing \\[2\\]"):
        ingest_station_csv(states, dist, times)


@pytest.mark.parametrize("station", [10**9, 3_000_000])
def test_far_out_station_fails_fast_with_a_short_message(tmp_path, station):
    states = write(tmp_path / "states.csv",
                   f"station,hour,n,n_in,n_out\n1,0,5,0,0\n{station},0,5,0,0\n")
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n")
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        ingest_station_csv(states, dist, times)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (f"{states}: station ids not contiguous; "
                              f"missing [2, 3, 4, 5, 6] and {station - 7} more")


@pytest.mark.parametrize("rows, missing", [
    ("1,0,5,0,0\n7,0,5,0,0\n", "[2, 3, 4, 5, 6]"),
    ("1,0,5,0,0\n8,0,5,0,0\n", "[2, 3, 4, 5, 6] and 1 more"),
    ("2,0,5,0,0\n4,0,5,0,0\n", "[1, 3]"),
])
def test_missing_station_list_is_bounded(tmp_path, rows, missing):
    states = write(tmp_path / "states.csv", "station,hour,n,n_in,n_out\n" + rows)
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n")
    with pytest.raises(ValueError, match=f"missing {re.escape(missing)}$"):
        ingest_station_csv(states, dist, times)


# Three stations over hours 0..2; the counts repeat, so cells share texts.
STATES = {(s, t): (float(5 + s - t), float(t % 2), 1.0)
          for s in (1, 2, 3) for t in (0, 1, 2)}


def state_text(variant, s, t):
    n, n_in, n_out = STATES[(s, t)]
    cells = [str(s), str(t), str(int(n)), str(int(n_in)), str(int(n_out))]
    if variant == "padded":
        cells = [f" {c}\t" if k % 2 else f"  {c}" for k, c in enumerate(cells)]
    elif variant == "station forms":
        cells[0] = {1: "1.0", 2: "+2", 3: "03"}[s]
    elif variant == "quoted":
        cells = [f'"{c}"' for c in cells]
    return ",".join(cells)


@pytest.mark.parametrize("variant", [
    "plain", "shuffled", "padded", "station forms", "crlf", "blank lines", "quoted"])
def test_ingest_forms_give_the_direct_run(tmp_path, variant):
    keys = sorted(STATES, key=lambda k: (k[1], k[0]))
    if variant == "shuffled":
        random.Random(3).shuffle(keys)
    lines = ["station,hour,n,n_in,n_out"] + [state_text(variant, *k) for k in keys]
    if variant == "blank lines":
        lines = list(chain.from_iterable((line, "") for line in lines))
    newline = "\r\n" if variant == "crlf" else "\n"
    states = tmp_path / "states.csv"
    states.write_bytes((newline.join(lines) + newline).encode())
    dist = write(tmp_path / "dist.csv", "src,dst,miles\n1,2,0.5\n")
    times = write(tmp_path / "times.csv", "src,dst,transit_min,walk_min\n3,1,4.0,9.5\n")
    run = ingest_station_csv(states, dist, times)
    direct = MasRun(
        MasTrajectory([[STATES[(s, t)] for s in (1, 2, 3)] for t in (0, 1, 2)]),
        GraphTrajectory(2, static={
            "d": MultigraphSnapshot("d", True, [(1, 2, 1, 0.5)]),
            "mt": MultigraphSnapshot("mt", True, [(3, 1, 1, 4.0), (3, 1, 2, 9.5)]),
        }),
    )
    assert run == direct
    # one float object per distinct cell text, whatever the padding
    floats = list(chain.from_iterable(chain.from_iterable(run.trajectory.states)))
    texts = {str(int(v)) for v in floats}
    assert len({id(v) for v in floats}) == len(texts)


@pytest.mark.parametrize("stations", [1, 6, 12])
@pytest.mark.parametrize("hours", [1, 24, 2000])
def test_csv_round_trip_sizes(tmp_path, stations, hours):
    run = gen_bike(BikeScenarioConfig(stations=stations, seed=stations + hours, hours=hours))
    paths = (tmp_path / "s.csv", tmp_path / "d.csv", tmp_path / "t.csv")
    export_station_csv(run, *paths)
    assert ingest_station_csv(*paths) == run


def _old_index(raw):
    """Integral cells as the ingestion read them before int() came first."""
    return int(_num("f", 2, "c", raw.strip(), integral=True))


@given(st.one_of(
    st.text(alphabet=" \t+-_.0123456789e\u0663\u2003", max_size=12),
    st.integers(-2**60, 2**60).map(str),
    st.integers(2**53 - 3, 2**53 + 3).flatmap(
        lambda v: st.sampled_from([str(v), f"-{v}", f" +{v} ", f"{v}.0"])),
))
def test_integral_cells_read_as_int_of_float(raw):
    try:
        want = _old_index(raw)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _index("f", 2, "c", raw)
    else:
        got = _index("f", 2, "c", raw)
        assert got == want and type(got) is int


def test_drone_determinism_byte_identical(tmp_path):
    cfg = DroneScenarioConfig(sigma=4, seed=21, horizon=6)
    for name in ("a", "b"):
        save_run(gen_drone(cfg), tmp_path / f"{name}_r.json", tmp_path / f"{name}_g.json")
    assert (tmp_path / "a_r.json").read_bytes() == (tmp_path / "b_r.json").read_bytes()
    assert (tmp_path / "a_g.json").read_bytes() == (tmp_path / "b_g.json").read_bytes()

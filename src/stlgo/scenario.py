"""Seeded scenario generators and CSV ingestion for station data.

Both generators are deterministic: equal configs and seeds give identical
runs, bit for bit. The drone generator's motion model (dispatch to a region,
surveil, return to the station) is incidental; what the tests pin down are
the graph constructions: the distance graph carries pairwise Euclidean
distances, the communication graph links same-category drones, and the
sensing graph links same-category drones within the sensing radius. The
distance graph is not stored: each snapshot is derived from its time slice
of the trajectory, so a drone run's graph file names it in one descriptor
instead of a complete graph of edge rows (``stlgo.serialization``).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import ClassVar

from .model import DistanceSnapshot, GraphTrajectory, MasRun, MasTrajectory, MultigraphSnapshot

# drone stations and surveillance regions lie in [0, AREA]^2; a drone of
# category k moves SPEEDS[k] per time step
AREA = 8.0
REGION_COUNT = 5
SPEEDS = (0.6, 0.4)

# bike stations: initial bikes, the most bikes one station gains or loses in
# an hour, chance that a directed pair has a distance (d) or a transit/walk
# (mt) edge, and the uniform ranges of edge weights
CAPACITY = (0, 30)
FLOW_MAX = 8
D_DENSITY = 0.35
MT_DENSITY = 0.35
DISTANCE_RANGE = (0.2, 5.0)
TRANSIT_RANGE = (3.0, 20.0)
WALK_RANGE = (5.0, 45.0)


@dataclass(frozen=True)
class DroneScenarioConfig:
    """A drone run over times 0..horizon: sigma drones, the first
    floor(sigma/2) in category 0 and the rest in category 1. Two drones of
    one category sense each other within ``sensing_radius``."""

    sigma: int
    seed: int = 0
    horizon: int = 80
    sensing_radius: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.sigma < 2:
            raise ValueError("need at least 2 drones")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def category(self, agent: int) -> int:
        return 0 if agent <= self.sigma // 2 else 1


def gen_drone(cfg: DroneScenarioConfig) -> MasRun:
    """Drone-surveillance run with distance (d), communication (c), and
    sensing (s) graphs. State is the 2D position; ``d`` is derived from it
    (``DistanceSnapshot``), ``c`` and ``s`` are stored edge rows."""
    rng = random.Random(cfg.seed)
    sigma, L = cfg.sigma, cfg.horizon

    stations = [(rng.uniform(0, AREA), rng.uniform(0, AREA)) for _ in range(sigma)]
    regions = [(rng.uniform(0, AREA), rng.uniform(0, AREA)) for _ in range(REGION_COUNT)]

    pos = [list(p) for p in stations]
    target: list[tuple[float, float] | None] = [None] * sigma
    dwell = [rng.randrange(0, 3) for _ in range(sigma)]
    returning = [False] * sigma
    category = [cfg.category(i) for i in range(1, sigma + 1)]
    positions: list[list[tuple[float, float]]] = []

    for _ in range(L + 1):
        positions.append([(x, y) for x, y in pos])
        for i in range(sigma):
            speed = SPEEDS[category[i]]
            if target[i] is None:
                if dwell[i] > 0:
                    dwell[i] -= 1
                else:
                    target[i] = regions[rng.randrange(len(regions))]
                    returning[i] = False
                continue
            tx, ty = target[i]
            dx, dy = tx - pos[i][0], ty - pos[i][1]
            dist = math.hypot(dx, dy)
            if dist <= speed:
                pos[i][0], pos[i][1] = tx, ty
                if returning[i]:
                    target[i] = None
                    dwell[i] = rng.randrange(1, 4)
                else:
                    target[i] = stations[i]
                    returning[i] = True
            else:
                pos[i][0] += speed * dx / dist
                pos[i][1] += speed * dy / dist

    trajectory = MasTrajectory(positions)

    kin = [(i, j) for i in range(1, sigma + 1) for j in range(i + 1, sigma + 1)
           if category[i - 1] == category[j - 1]]
    s_snaps = []
    for here in trajectory.states:
        s_edges = [
            (i, j, 1, 1.0)
            for i, j in kin
            if math.dist(here[i - 1], here[j - 1]) <= cfg.sensing_radius
        ]
        s_snaps.append(MultigraphSnapshot("s", False, s_edges))
    graphs = GraphTrajectory(
        L,
        static={"c": MultigraphSnapshot("c", False, [(i, j, 1, 1.0) for i, j in kin])},
        dynamic={
            "d": tuple(DistanceSnapshot("d", here) for here in trajectory.states),
            "s": tuple(s_snaps),
        },
    )
    return MasRun(trajectory, graphs)


@dataclass(frozen=True)
class BikeScenarioConfig:
    stations: int
    seed: int = 0
    hours: int = 24

    def __post_init__(self):
        if self.stations < 1:
            raise ValueError("need at least one station")
        if self.hours < 1:
            raise ValueError("need at least one hour")


def gen_bike(cfg: BikeScenarioConfig) -> MasRun:
    """Bike-share run: states [n, n_in, n_out] with the conservation update
    n(t+1) = n(t) + n_in(t) - n_out(t), a static directed distance graph d,
    and a static directed multigraph mt carrying transit time (edge 1) and
    walking time (edge 2) per connected pair."""
    rng = random.Random(cfg.seed)
    n_st, L = cfg.stations, cfg.hours

    d_edges = []
    mt_edges = []
    for i in range(1, n_st + 1):
        for j in range(1, n_st + 1):
            if i == j:
                continue
            if rng.random() < D_DENSITY:
                d_edges.append((i, j, 1, round(rng.uniform(*DISTANCE_RANGE), 2)))
            if rng.random() < MT_DENSITY:
                mt_edges.append((i, j, 1, round(rng.uniform(*TRANSIT_RANGE), 1)))
                mt_edges.append((i, j, 2, round(rng.uniform(*WALK_RANGE), 1)))

    counts = [rng.randint(*CAPACITY) for _ in range(n_st)]
    slices = []
    for t in range(L + 1):
        slice_ = []
        next_counts = []
        for i in range(n_st):
            inflow = rng.randint(0, FLOW_MAX)
            outflow = min(rng.randint(0, FLOW_MAX), counts[i] + inflow)
            slice_.append((float(counts[i]), float(inflow), float(outflow)))
            next_counts.append(counts[i] + inflow - outflow)
        slices.append(slice_)
        counts = next_counts

    trajectory = MasTrajectory(slices)
    graphs = GraphTrajectory(
        L,
        static={
            "d": MultigraphSnapshot("d", True, d_edges),
            "mt": MultigraphSnapshot("mt", True, mt_edges),
        },
    )
    return MasRun(trajectory, graphs)


# ---------------------------------------------------------------------------
# CSV ingestion

STATES_HEADER = ["station", "hour", "n", "n_in", "n_out"]
DISTANCES_HEADER = ["src", "dst", "miles"]
TIMES_HEADER = ["src", "dst", "transit_min", "walk_min"]

# every int of at most this magnitude is a float exactly, so int(text) equals
# int(float(text)) up to here; past it float() rounds and int() does not
_EXACT = 2 ** 53
# a station-gap message lists this many missing ids, then a count
_LISTED = 5


def _read_rows(path, expected_header: list[str]):
    """The non-blank data rows of a CSV file, after checking its header:
    yields each row as (the line it ends on, its list of raw cells)."""
    width = len(expected_header)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != expected_header:
            raise ValueError(
                f"{path}: header must be {','.join(expected_header)!r}, "
                f"got {','.join(header)!r}"
            )
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ValueError(f"{path}: row {reader.line_num}: expected {width} fields")
            yield reader.line_num, row


def _num(path, line: int, column: str, raw: str, integral: bool = False) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(
            f"{path}: row {line}: column {column!r}: not a number: {raw.strip()!r}") from None
    if math.isnan(v):
        raise ValueError(f"{path}: row {line}: column {column!r}: NaN rejected")
    if integral and not v.is_integer():
        raise ValueError(f"{path}: row {line}: column {column!r}: expected integer")
    return v


def _index(path, line: int, column: str, raw: str) -> int:
    """An integral cell, read as int(float(text)): int() takes the plain
    forms exactly, _num any other (``1.0``, ``1e3``) or reports the fault."""
    try:
        v = int(raw)
    except ValueError:
        pass
    else:
        if -_EXACT <= v <= _EXACT:
            return v
    return int(_num(path, line, column, raw, integral=True))


def _state_key(path, line: int, station_raw: str, hour_raw: str, cells) -> tuple[int, int]:
    """A (station, hour) key that the fast path did not take, checked in
    order: both numbers, their ranges, then the key's uniqueness."""
    station = _index(path, line, "station", station_raw)
    hour = _index(path, line, "hour", hour_raw)
    if station < 1:
        raise ValueError(f"{path}: row {line}: station ids are 1-indexed")
    if hour < 0:
        raise ValueError(f"{path}: row {line}: negative hour")
    if (station, hour) in cells:
        raise ValueError(f"{path}: row {line}: duplicate (station {station}, hour {hour})")
    return station, hour


def _state_value(path, line: int, column: str, raw: str, values: dict[str, float]) -> float:
    """A state cell missing from ``values``: the float of its stripped text,
    shared with every cell of the same text and kept under its raw text."""
    text = raw.strip()
    v = values.get(text)
    if v is None:
        v = values[text] = _num(path, line, column, text)
    values[raw] = v
    return v


def _first_gap(path, cells, num_agents: int, length: int):
    """Raise for the first (station, hour) cell missing from ``cells``, whose
    keys lie in 1..num_agents x 0..length: a missing station first, then the
    first missing hour of the lowest station."""
    stations = {s for s, _ in cells}
    if len(stations) < num_agents:
        # every id lies in 1..num_agents, so the scan ends after at most
        # len(stations) + _LISTED ids however large num_agents is
        missing = list(islice((s for s in range(1, num_agents + 1) if s not in stations),
                              _LISTED))
        more = num_agents - len(stations) - len(missing)
        raise ValueError(f"{path}: station ids not contiguous; missing {missing}"
                         + (f" and {more} more" if more else ""))
    for s in range(1, num_agents + 1):
        for t in range(length + 1):
            if (s, t) not in cells:
                raise ValueError(f"{path}: station {s}: missing hour {t}")


def ingest_station_csv(states_path, distances_path, times_path) -> MasRun:
    """Assemble a bike-share-shaped run from three CSV files.

    Stations must be 1..N contiguous and every (station, hour) cell present
    for hours 0..L; gaps, duplicates (of a cell or of a station pair), and
    NaN values are schema errors with row diagnostics.
    """
    cells: dict[tuple[int, int], tuple[float, float, float]] = {}
    # one float per distinct cell text: station counts repeat, so a long run
    # holds a few hundred state values rather than three floats per cell.
    # Cells are looked up by their raw text; _state_value fills in a miss.
    values: dict[str, float] = {}
    value = values.get
    for line, (station, hour, n, n_in, n_out) in _read_rows(states_path, STATES_HEADER):
        # a plain, in-range, new key is taken as it is; any other is read
        # again by _state_key, which accepts it or raises the row's fault
        try:
            key = int(station), int(hour)
        except ValueError:
            key = None
        if (key is None or not (0 < key[0] <= _EXACT and 0 <= key[1] <= _EXACT)
                or key in cells):
            key = _state_key(states_path, line, station, hour, cells)
        a, b, c = value(n), value(n_in), value(n_out)
        if a is None or b is None or c is None:
            a, b, c = (_state_value(states_path, line, column, raw, values)
                       for column, raw in zip(STATES_HEADER[2:], (n, n_in, n_out)))
        cells[key] = (a, b, c)
    if not cells:
        raise ValueError(f"{states_path}: no data rows")
    # keys are unique, stations >= 1 and hours >= 0: the cells cover
    # 1..N x 0..L exactly when there are N * (L + 1) of them
    num_agents = max(map(itemgetter(0), cells))
    length = max(map(itemgetter(1), cells))
    if len(cells) != num_agents * (length + 1):
        _first_gap(states_path, cells, num_agents, length)

    try:
        trajectory = MasTrajectory(
            [[cells[(s, t)] for s in range(1, num_agents + 1)] for t in range(length + 1)]
        )
    except ValueError as exc:
        raise ValueError(f"{states_path}: {exc}") from None

    def station_pair(path, line, src_raw, dst_raw, seen) -> tuple[int, int]:
        src = _index(path, line, "src", src_raw)
        dst = _index(path, line, "dst", dst_raw)
        for v in (src, dst):
            if not 1 <= v <= num_agents:
                raise ValueError(f"{path}: row {line}: station {v} out of range 1..{num_agents}")
        if (src, dst) in seen:
            raise ValueError(f"{path}: row {line}: duplicate pair (src {src}, dst {dst})")
        seen.add((src, dst))
        return src, dst

    d_edges = []
    seen = set()
    for line, (src, dst, miles) in _read_rows(distances_path, DISTANCES_HEADER):
        src, dst = station_pair(distances_path, line, src, dst, seen)
        d_edges.append((src, dst, 1, _num(distances_path, line, "miles", miles)))

    mt_edges = []
    seen = set()
    for line, (src, dst, transit, walk) in _read_rows(times_path, TIMES_HEADER):
        src, dst = station_pair(times_path, line, src, dst, seen)
        mt_edges.append((src, dst, 1, _num(times_path, line, "transit_min", transit)))
        mt_edges.append((src, dst, 2, _num(times_path, line, "walk_min", walk)))

    graphs = GraphTrajectory(
        length,
        static={
            "d": MultigraphSnapshot("d", True, d_edges),
            "mt": MultigraphSnapshot("mt", True, mt_edges),
        },
    )
    return MasRun(trajectory, graphs)


def _write_csv(path, header: list[str], rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def export_station_csv(run: MasRun, states_path, distances_path, times_path):
    """Inverse of ingestion for bike-shaped runs; re-ingesting the written
    files reproduces the run exactly. The run must carry just the two graphs
    that ingestion builds, both static and directed: d with one edge per
    pair, and mt with edges 1 and 2 per pair. Any other run is refused
    before a file is written."""
    traj = run.trajectory
    if traj.state_dim != 3:
        raise ValueError("station export expects [n, n_in, n_out] states")
    graphs = run.graphs
    extra = sorted(graphs.types - {"d", "mt"})
    if extra:
        raise ValueError(f"graph {extra[0]!r}: station files carry only the graphs d and mt")
    for tag in ("d", "mt"):
        if tag not in graphs.static:
            raise ValueError(f"graph {tag!r}: station files carry static graphs only")
        if not graphs.at(tag, 0).directed:
            raise ValueError(f"graph {tag!r}: station files carry directed graphs only")
    parallel = sorted(e[:3] for e in graphs.at("d", 0).edges if e.index != 1)
    if parallel:
        raise ValueError(f"graph 'd': edge {parallel[0]}: station files carry one d edge per pair")
    by_pair: dict[tuple[int, int], dict[int, float]] = {}
    for e in graphs.at("mt", 0).edges:
        by_pair.setdefault((e.src, e.dst), {})[e.index] = e.weight
    pairs = sorted(by_pair.items())
    for (src, dst), pair in pairs:
        if set(pair) != {1, 2}:
            raise ValueError(f"graph 'mt': pair ({src}, {dst}) must carry edges 1 and 2")
    # csv writes a float as str(), which is repr(): the shortest text that
    # reads back as the same float
    agents = range(1, traj.num_agents + 1)
    _write_csv(states_path, STATES_HEADER, chain.from_iterable(
        zip(agents, repeat(t), *zip(*slice_)) for t, slice_ in enumerate(traj.states)))
    _write_csv(distances_path, DISTANCES_HEADER,
               ((e.src, e.dst, e.weight) for e in sorted(graphs.at("d", 0).edges)))
    _write_csv(times_path, TIMES_HEADER,
               ((src, dst, pair[1], pair[2]) for (src, dst), pair in pairs))


"""Data model for multi-agent runs: trajectories, multigraphs, and neighbor queries.

Agents are 1-indexed (1..N). Time is discrete, 0..L where L is the last
valid index. All types are immutable after construction and safe to share
across concurrent evaluators; the one thing a run fills in later is its
neighbor index (``NeighborIndex``), a cache of answers its snapshots
already determine.

Each value type has one constructor, which checks what it is given and
packs it in the pass that builds it: ``MasTrajectory`` takes raw state
rows, ``MultigraphSnapshot`` raw (src, dst, u, w) edge rows. Callers hand
over rows unconverted and turn its ``ValueError`` into their own error. A
``DistanceSnapshot`` stores no rows: it takes a time slice of a checked
``MasTrajectory`` and derives its edges, the distances between the states.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterable, Literal, Mapping, NamedTuple

from .formula import WeightInterval

Direction = Literal["in", "out"]

NEG_INF = float("-inf")
POS_INF = float("inf")


class UnknownGraphTypeError(ValueError):
    """Raised when a query names a graph type the run does not carry."""


class TimeOutOfRangeError(ValueError):
    """Raised when a query addresses a time index beyond the run length."""

    @classmethod
    def of(cls, t: int, lo: int, hi: int) -> TimeOutOfRangeError:
        """The error for time t outside lo..hi, naming both."""
        return cls(f"time out of range: T={t} not in {lo}..{hi}")


class Edge(NamedTuple):
    src: int
    dst: int
    index: int
    weight: float


_edge_key = operator.itemgetter(0, 1, 2)


def _edge_weight(w, decode_weight) -> float:
    """The one weight check: a weight that is not a plain non-NaN float,
    first mapped through ``decode_weight`` if given, must be a real number
    other than a bool or NaN."""
    if decode_weight is not None:
        w = decode_weight(w)
    if isinstance(w, (int, float)) and not isinstance(w, bool):
        try:
            w = float(w)
        except OverflowError:  # an int past the floats; its digits are not shown
            raise ValueError("bad edge weight: an integer too large for a float") from None
        if not math.isnan(w):
            return w
        raise ValueError("bad edge weight nan: edge weights may not be NaN")
    raise ValueError(f"bad edge weight {w!r}")


def _edge_set(directed: bool, rows: Iterable, decode_weight) -> tuple[frozenset[Edge], int]:
    """Validate and canonicalise edge rows in one pass.

    Each row must unpack to (src, dst, u, w) with endpoints of type int and
    >= 1, an index u of type int and >= 1 (a bool is not an int here) and a
    non-NaN real weight. Undirected edges are
    oriented (min, max). Returns the edges and the largest endpoint (0 when
    there are none); a repeated (src, dst, u) key is an error.
    """
    new = tuple.__new__
    edges = []
    top = 0
    for row in rows:
        try:
            src, dst, index, weight = row
        except (TypeError, ValueError):
            raise ValueError("edge must be [src, dst, u, w]") from None
        if type(src) is not int or type(dst) is not int or type(index) is not int:
            raise ValueError(f"edge {row!r}: src, dst and u must be integers")
        if type(weight) is not float or weight != weight:
            weight = _edge_weight(weight, decode_weight)
        if index < 1:
            raise ValueError("edge index must be >= 1")
        if src <= dst:
            low, high = src, dst
        elif directed:
            low, high = dst, src
        else:
            src, dst = low, high = dst, src
        if low < 1:
            raise ValueError(f"edge {row!r} references agent {low} < 1")
        if high > top:
            top = high
        edges.append(new(Edge, (src, dst, index, weight)))
    # keys are counted after the loop: a set of short-lived key tuples built
    # in C costs a fraction of one grown row by row alongside the edges
    if len(set(map(_edge_key, edges))) < len(edges):
        seen = set()
        for e in edges:
            if e[:3] in seen:
                raise ValueError(f"duplicate edge {e[:3]} in snapshot")
            seen.add(e[:3])
    return frozenset(edges), top


def _packed_vector(vec, state_dim: int, i: int, t: int) -> tuple[float, ...]:
    """A state vector checked and converted component by component."""
    if isinstance(vec, (list, tuple)) and len(vec) == state_dim:
        try:
            row = tuple(float(v) for v in vec if not isinstance(v, (str, bytes, bool)))
        except (TypeError, ValueError, OverflowError):
            row = ()
        if len(row) == state_dim and all(map(math.isfinite, row)):
            return row
    raise ValueError(f"agent {i} at time {t}: state {vec!r} is not {state_dim} finite numbers")


@dataclass(frozen=True)
class MasTrajectory:
    """Discrete-time states of N homogeneous agents.

    ``states`` is time-major: states[t][i-1] is the state vector of agent i
    at time t. The constructor takes nested lists or tuples, sized as the
    first vector of the first slice, and stores tuples of finite floats; a
    component is anything ``float()`` takes but a ``str``, ``bytes`` or
    ``bool``. ``num_agents``, ``state_dim`` and ``length`` are read off it.
    """

    states: tuple[tuple[tuple[float, ...], ...], ...]
    num_agents: int = field(init=False)
    state_dim: int = field(init=False)
    length: int = field(init=False)

    def __post_init__(self):
        # one pass over the slices: a slice of float vectors is checked in
        # C-level passes, any other vector by vector
        states = self.states
        if not isinstance(states, (list, tuple)) or not states:
            raise ValueError("states must be a non-empty list of time slices")
        first = states[0]
        num_agents = len(first) if isinstance(first, (list, tuple)) else 0
        state_dim = len(first[0]) if num_agents and isinstance(first[0], (list, tuple)) else 0
        if not state_dim:
            raise ValueError("time 0: need a non-empty state vector per agent")
        packed = []
        for t, slice_ in enumerate(states):
            if not isinstance(slice_, (list, tuple)) or len(slice_) != num_agents:
                raise ValueError(f"time {t}: need {num_agents} agent states")
            if not (
                {list, tuple}.issuperset(map(type, slice_))
                and set(map(len, slice_)) == {state_dim}
                and set(map(type, chain.from_iterable(slice_))) == {float}
                and all(map(math.isfinite, chain.from_iterable(slice_)))
            ):
                slice_ = [_packed_vector(v, state_dim, i, t) for i, v in enumerate(slice_, 1)]
            packed.append(tuple(map(tuple, slice_)))
        object.__setattr__(self, "states", tuple(packed))
        object.__setattr__(self, "num_agents", num_agents)
        object.__setattr__(self, "state_dim", state_dim)
        object.__setattr__(self, "length", len(packed) - 1)

    def state(self, agent: int, t: int) -> tuple[float, ...]:
        if not 0 <= t <= self.length:
            raise TimeOutOfRangeError.of(t, 0, self.length)
        if not 1 <= agent <= self.num_agents:
            raise ValueError(f"unknown agent {agent}")
        return self.states[t][agent - 1]

    def full_state(self, t: int) -> tuple[tuple[float, ...], ...]:
        if not 0 <= t <= self.length:
            raise TimeOutOfRangeError.of(t, 0, self.length)
        return self.states[t]


_ONES = repeat(1)


def neighbor_items(entry) -> Iterable[tuple[int, int]]:
    """The (neighbor, multiplicity) pairs of a ``NeighborIndex`` entry."""
    return zip(entry, _ONES) if type(entry) is tuple else entry.items()


def edge_count(entry) -> int:
    """The number of edges a ``NeighborIndex`` entry counts."""
    return len(entry) if type(entry) is tuple else sum(entry.values())


def _lean(mult: dict[int, int]) -> tuple[int, ...] | dict[int, int]:
    # every multiplicity 1, as in any graph without parallel edges: the
    # neighbors alone, and no neighbors at all is the one empty tuple
    return tuple(mult) if len(mult) == sum(mult.values()) else mult


def _packed(table: dict[int, list[Edge]]) -> dict[int, tuple[Edge, ...]]:
    # tuples hold a table's lists without their spare capacity; a snapshot
    # keeps its tables for its lifetime
    return {n: tuple(es) for n, es in table.items()}


@dataclass(frozen=True, eq=False)
class MultigraphSnapshot:
    """One multigraph at one instant: typed, possibly directed, weighted edges.

    Undirected edges are stored once in canonical (min, max) endpoint order
    and mirrored at query time. Parallel edges are distinguished by the edge
    index; self-loops are permitted and counted like any edge.

    ``edges`` may be given as any iterable of (src, dst, u, w) rows; they are
    checked and canonicalised in one pass (see ``_edge_set``) and stored as a
    frozenset of ``Edge``. ``decode_weight``, if given, maps every weight that
    is not a plain float before it is checked (a file's ``"inf"`` token to
    ``math.inf``, say).

    Two snapshots are equal when their type, direction and edges are, of
    whichever kind (see ``DistanceSnapshot``).
    """

    graph_type: str
    directed: bool
    edges: frozenset[Edge]
    decode_weight: InitVar[Callable[[object], float] | None] = None
    _max_node: int = field(init=False, repr=False, compare=False)

    def __post_init__(self, decode_weight):
        edges, top = _edge_set(self.directed, self.edges, decode_weight)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_max_node", top)

    @cached_property
    def _tables(self) -> tuple[dict[int, tuple[Edge, ...]], dict[int, tuple[Edge, ...]]]:
        """(out-table, in-table): node i -> the edges a query of i in that
        direction sees.

        A directed graph lists each edge under its ``src`` in the out-table
        and under its ``dst`` in the in-table. An undirected graph has one
        table for both directions, with each edge under both endpoints and a
        self-loop once. Either way every edge listed under i has i as an
        endpoint, and its other endpoint is the neighbor.
        """
        if self.directed:
            out: dict[int, list[Edge]] = {}
            into: dict[int, list[Edge]] = {}
            for e in self.edges:
                out.setdefault(e.src, []).append(e)
                into.setdefault(e.dst, []).append(e)
            return _packed(out), _packed(into)
        both: dict[int, list[Edge]] = {}
        for e in self.edges:
            both.setdefault(e.src, []).append(e)
            if e.dst != e.src:
                both.setdefault(e.dst, []).append(e)
        table = _packed(both)
        return table, table

    def oriented_edges(self, i: int, direction: Direction) -> tuple[Edge, ...]:
        """Edges of agent i in the given direction, oriented per the query.

        For ``in`` the result edges read (j, i, u); for ``out`` they read
        (i, j, u). Undirected snapshots yield the same connections either way.
        """
        edges = self._tables[direction == "in"].get(i, ())
        if direction == "in":
            return tuple(Edge(d if s == i else s, i, u, w) for s, d, u, w in edges)
        return tuple(Edge(i, d if s == i else s, u, w) for s, d, u, w in edges)

    def multiplicities(
        self, i: int, direction: Direction, lo: float = NEG_INF, hi: float = POS_INF
    ) -> dict[int, int]:
        """Neighbor j -> number of i's edges in the direction to j whose
        weight lies in [lo, hi]; the same edges ``oriented_edges`` yields."""
        mult: dict[int, int] = {}
        for s, d, _, w in self._tables[direction == "in"].get(i, ()):
            if lo <= w <= hi:
                j = d if s == i else s
                mult[j] = mult.get(j, 0) + 1
        return mult

    def _entry(self, i: int, direction: Direction, lo: float, hi: float):
        """``multiplicities`` as a ``NeighborIndex`` entry."""
        return _lean(self.multiplicities(i, direction, lo, hi))

    def max_node(self) -> int:
        return self._max_node

    def __eq__(self, other):
        if not isinstance(other, MultigraphSnapshot):
            return NotImplemented
        return (self.graph_type, self.directed, self.edges) == (
            other.graph_type, other.directed, other.edges)

    def __hash__(self):
        return hash((self.graph_type, self.directed, self.edges))


class DistanceSnapshot(MultigraphSnapshot):
    """The distance graph of one time slice, derived from the agents' states.

    It is the complete undirected graph with one edge (i, j, 1, w) per pair
    of agents i < j, where w = ``math.dist`` of their state vectors, and
    no self-loop. ``positions`` is the slice, ``states[t]`` of a
    ``MasTrajectory``; it is all the snapshot stores. Each query of agent
    i computes i's distances; the answers the monitors read again are kept
    by the run's ``NeighborIndex``. ``edges`` is built on each read, for
    the callers that need edges (the translators, ``==``); it holds the
    same floats a stored snapshot of those rows holds, since ``math.dist``
    is symmetric bit for bit. A graph file writes no edge rows for it: a
    dynamic tag of these snapshots is one descriptor, with the positions
    unless they are the states saved beside it (``stlgo.serialization``).
    """

    def __init__(self, graph_type: str, positions: tuple[tuple[float, ...], ...]):
        n = len(positions)
        object.__setattr__(self, "graph_type", graph_type)
        object.__setattr__(self, "directed", False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "_max_node", n if n > 1 else 0)

    def __repr__(self):
        return f"DistanceSnapshot({self.graph_type!r}, <{len(self.positions)} positions>)"

    @property
    def edges(self) -> frozenset[Edge]:
        dist, here, new = math.dist, self.positions, tuple.__new__
        return frozenset([new(Edge, (i, j, 1, dist(p, q)))
                          for i, p in enumerate(here, 1) for j, q in enumerate(here[i:], i + 1)])

    def _row(self, i: int) -> list[float]:
        """i's distance to every agent in agent order; i's own entry is NaN,
        which lies in no weight window. An agent beyond the slice has none."""
        here = self.positions
        if not 1 <= i <= len(here):
            return []
        dist, p = math.dist, here[i - 1]
        row = [dist(p, q) for q in here]
        row[i - 1] = math.nan
        return row

    def oriented_edges(self, i: int, direction: Direction) -> tuple[Edge, ...]:
        row = self._row(i)
        if direction == "in":
            return tuple(Edge(j, i, 1, w) for j, w in enumerate(row, 1) if j != i)
        return tuple(Edge(i, j, 1, w) for j, w in enumerate(row, 1) if j != i)

    def multiplicities(
        self, i: int, direction: Direction, lo: float = NEG_INF, hi: float = POS_INF
    ) -> dict[int, int]:
        return {j: 1 for j, w in enumerate(self._row(i), 1) if lo <= w <= hi}

    def _entry(self, i: int, direction: Direction, lo: float, hi: float):
        return tuple([j for j, w in enumerate(self._row(i), 1) if lo <= w <= hi])


class NeighborIndex:
    """The neighbors of every agent in one graph type, in one direction,
    over the edges whose weight lies in one window [lo, hi]: a run's
    ``MultigraphSnapshot.multiplicities``, each entry filled on its first
    read and kept as long as the run (``GraphTrajectory.neighbor_index``).

    An entry is the neighbors of an agent with their multiplicities: the
    tuple of neighbors when every multiplicity is 1, else a dict neighbor
    -> multiplicity. Iterating either yields the neighbors, and
    ``neighbor_items`` their (neighbor, multiplicity) pairs. ``at(i, t)``
    is agent i's entry at time t, one entry per agent for a static graph;
    ``over_time(i)`` takes each neighbor's largest multiplicity over all
    times. An entry filled twice is filled equal, so concurrent readers
    may share an index. Over a graph type the run does not carry, the
    first read raises ``UnknownGraphTypeError``.
    """

    __slots__ = ("_tag", "_snaps", "_static", "_query", "_at", "_over_time")

    def __init__(self, tag: str, snaps: tuple[MultigraphSnapshot, ...] | None,
                 direction: Direction, lo: float, hi: float):
        self._tag = tag
        self._snaps = snaps  # one per time, a static graph's one alone, None if unknown
        self._static = snaps is None or len(snaps) == 1
        self._query = (direction, lo, hi)
        self._at: dict = {}  # agent -> its entry (static) or its entries per time
        self._over_time: dict = {}  # agent -> its entry over all times

    def at(self, i: int, t: int) -> tuple[int, ...] | dict[int, int]:
        if self._static:
            entry = self._at.get(i)
            if entry is None:
                entry = self._at[i] = self._fill(i, 0)
            return entry
        row = self._at.get(i)
        if row is None:
            row = self._at[i] = [None] * len(self._snaps)
        entry = row[t]
        if entry is None:
            entry = row[t] = self._fill(i, t)
        return entry

    def over_time(self, i: int) -> tuple[int, ...] | dict[int, int]:
        if self._static:
            return self.at(i, 0)
        entry = self._over_time.get(i)
        if entry is None:
            most: dict[int, int] = {}
            for t in range(len(self._snaps)):
                for j, m in neighbor_items(self.at(i, t)):
                    if m > most.get(j, 0):
                        most[j] = m
            entry = self._over_time[i] = _lean(most)
        return entry

    def _fill(self, i: int, t: int):
        if self._snaps is None:
            raise UnknownGraphTypeError(f"unknown graph type: {self._tag!r}")
        return self._snaps[t]._entry(i, *self._query)


@dataclass(frozen=True)
class GraphTrajectory:
    """Named, typed multigraph snapshots per time step.

    ``static`` holds graph types whose single snapshot applies at every t;
    ``dynamic`` maps a type to one snapshot per time index 0..length.

    The run's neighbor queries go through one ``NeighborIndex`` per (graph
    type, direction, weight window), made on the first ask and filled
    entry by entry as entries are read. The indexes are derived data:
    they take no part in ``==`` or ``repr``, and every new trajectory,
    ``with_graph``'s copies included, starts without them.
    """

    length: int
    static: Mapping[str, MultigraphSnapshot] = field(default_factory=dict)
    dynamic: Mapping[str, tuple[MultigraphSnapshot, ...]] = field(default_factory=dict)
    _neighbors: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        overlap = set(self.static) & set(self.dynamic)
        if overlap:
            raise ValueError(f"graph types both static and dynamic: {sorted(overlap)}")
        for tag, snap in self.static.items():
            if snap.graph_type != tag:
                raise ValueError(f"snapshot for {tag!r} is typed {snap.graph_type!r}")
        for tag, snaps in self.dynamic.items():
            if len(snaps) != self.length + 1:
                raise ValueError(
                    f"graph {tag!r}: need {self.length + 1} snapshots, got {len(snaps)}"
                )
            for snap in snaps:
                if snap.graph_type != tag:
                    raise ValueError(f"snapshot for {tag!r} is typed {snap.graph_type!r}")
                if snap.directed != snaps[0].directed:
                    raise ValueError(f"graph {tag!r}: snapshots disagree on 'directed'")
        object.__setattr__(self, "static", dict(self.static))
        object.__setattr__(self, "dynamic", dict(self.dynamic))

    @property
    def types(self) -> frozenset[str]:
        return frozenset(self.static) | frozenset(self.dynamic)

    def at(self, graph_type: str, t: int) -> MultigraphSnapshot:
        if not 0 <= t <= self.length:
            raise TimeOutOfRangeError.of(t, 0, self.length)
        if graph_type in self.static:
            return self.static[graph_type]
        if graph_type in self.dynamic:
            return self.dynamic[graph_type][t]
        raise UnknownGraphTypeError(f"unknown graph type: {graph_type!r}")

    def neighbor_index(
        self, graph_type: str, direction: Direction, lo: float, hi: float
    ) -> NeighborIndex:
        """The run's index of neighbors in one graph type and direction,
        over the edges with a weight in [lo, hi]."""
        key = (graph_type, direction, lo, hi)
        index = self._neighbors.get(key)
        if index is None:
            if graph_type in self.static:
                snaps = (self.static[graph_type],)
            else:
                snaps = self.dynamic.get(graph_type)
            index = self._neighbors[key] = NeighborIndex(graph_type, snaps, direction, lo, hi)
        return index

    def with_graph(
        self,
        tag: str,
        snapshots: MultigraphSnapshot | Iterable[MultigraphSnapshot],
    ) -> GraphTrajectory:
        """Return a copy carrying one extra graph type (replaces an existing tag)."""
        static = dict(self.static)
        dynamic = dict(self.dynamic)
        static.pop(tag, None)
        dynamic.pop(tag, None)
        if isinstance(snapshots, MultigraphSnapshot):
            static[tag] = snapshots
        else:
            dynamic[tag] = tuple(snapshots)
        return GraphTrajectory(self.length, static, dynamic)

    def max_node(self) -> int:
        nodes = [s.max_node() for s in self.static.values()]
        nodes += [s.max_node() for snaps in self.dynamic.values() for s in snaps]
        return max(nodes, default=0)


@dataclass(frozen=True)
class MasRun:
    """A MAS trajectory together with the trajectories of all its graphs."""

    trajectory: MasTrajectory
    graphs: GraphTrajectory

    def __post_init__(self):
        if self.graphs.length != self.trajectory.length:
            raise ValueError(
                f"trajectory length {self.trajectory.length} != "
                f"graph length {self.graphs.length}"
            )
        bad = self.graphs.max_node()
        if bad > self.trajectory.num_agents:
            raise ValueError(f"graph references agent {bad} > N={self.trajectory.num_agents}")

    @property
    def num_agents(self) -> int:
        return self.trajectory.num_agents

    @property
    def length(self) -> int:
        return self.trajectory.length

    def with_graph(self, tag, snapshots) -> MasRun:
        return MasRun(self.trajectory, self.graphs.with_graph(tag, snapshots))


def agent_neighbors(
    run: MasRun,
    graph_type: str,
    t: int,
    i: int | Iterable[int],
    direction: Direction,
    weights: tuple[float, float] = (NEG_INF, POS_INF),
) -> frozenset[int]:
    """The agents at the other end of an edge of agent i (or of any agent in
    a set of agents) in one graph at time t, in the given direction, with a
    weight in the window, read from the run's ``NeighborIndex``. The query
    is checked whole even for an empty set of agents."""
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', not {direction!r}")
    window = WeightInterval(*weights)
    agents = (i,) if isinstance(i, int) else tuple(i)
    for a in agents:
        if not 1 <= a <= run.num_agents:
            raise ValueError(f"unknown agent {a}")
    run.graphs.at(graph_type, t)  # checks the time, then the graph type
    index = run.graphs.neighbor_index(graph_type, direction, window.lo, window.hi)
    return frozenset(j for a in agents for j in index.at(a, t))

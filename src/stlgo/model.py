"""Data model for multi-agent runs: trajectories, multigraphs, and neighbor queries.

Agents are 1-indexed (1..N). Time is discrete, 0..L where L is the last
valid index. All types are immutable after construction and safe to share
across concurrent evaluators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Literal, Mapping, NamedTuple

Direction = Literal["in", "out"]

NEG_INF = float("-inf")
POS_INF = float("inf")


class UnknownGraphTypeError(ValueError):
    """Raised when a query names a graph type the run does not carry."""


class TimeOutOfRangeError(ValueError):
    """Raised when a query addresses a time index beyond the run length."""


class Edge(NamedTuple):
    src: int
    dst: int
    index: int
    weight: float


_edge_key = operator.itemgetter(0, 1, 2)


def _edge_weight(w, decode_weight) -> float:
    """A weight that is not a plain non-NaN float, through ``decode_weight``
    if given; otherwise any real number but a bool or NaN."""
    if decode_weight is not None:
        return decode_weight(w)
    if isinstance(w, (int, float)) and not isinstance(w, bool):
        w = float(w)
        if not math.isnan(w):
            return w
        raise ValueError("edge weights may not be NaN")
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


@dataclass(frozen=True)
class MasTrajectory:
    """Discrete-time states of N homogeneous agents.

    ``states`` is time-major: states[t][i-1] is the state vector of agent i
    at time t, a tuple of ``state_dim`` finite floats.
    """

    num_agents: int
    state_dim: int
    length: int
    states: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self):
        if self.num_agents < 1:
            raise ValueError("num_agents must be positive")
        if self.state_dim < 1:
            raise ValueError("state_dim must be positive")
        if self.length < 0:
            raise ValueError("length must be >= 0")
        if len(self.states) != self.length + 1:
            raise ValueError(
                f"need {self.length + 1} time slices, got {len(self.states)}"
            )
        for t, slice_ in enumerate(self.states):
            if len(slice_) != self.num_agents:
                raise ValueError(f"time {t}: need {self.num_agents} agent states")
            for i, vec in enumerate(slice_, start=1):
                if len(vec) != self.state_dim:
                    raise ValueError(
                        f"agent {i} at time {t}: state has dimension {len(vec)}, "
                        f"expected {self.state_dim}"
                    )
                for v in vec:
                    if not math.isfinite(v):
                        raise ValueError(
                            f"agent {i} at time {t}: non-finite state component"
                        )

    @classmethod
    def from_states(cls, states: Iterable[Iterable[Iterable[float]]]) -> MasTrajectory:
        """Build from any nested time-major sequence states[t][i-1][k]."""
        packed = tuple(
            tuple(tuple(float(v) for v in vec) for vec in slice_) for slice_ in states
        )
        if not packed:
            raise ValueError("trajectory needs at least one time slice")
        return cls(
            num_agents=len(packed[0]),
            state_dim=len(packed[0][0]) if packed[0] else 0,
            length=len(packed) - 1,
            states=packed,
        )

    def state(self, agent: int, t: int) -> tuple[float, ...]:
        if not 0 <= t <= self.length:
            raise TimeOutOfRangeError("time out of range")
        if not 1 <= agent <= self.num_agents:
            raise ValueError(f"unknown agent {agent}")
        return self.states[t][agent - 1]

    def full_state(self, t: int) -> tuple[tuple[float, ...], ...]:
        if not 0 <= t <= self.length:
            raise TimeOutOfRangeError("time out of range")
        return self.states[t]


@dataclass(frozen=True)
class MultigraphSnapshot:
    """One multigraph at one instant: typed, possibly directed, weighted edges.

    Undirected edges are stored once in canonical (min, max) endpoint order
    and mirrored at query time. Parallel edges are distinguished by the edge
    index; self-loops are permitted and counted like any edge.

    ``edges`` may be given as any iterable of (src, dst, u, w) rows; they are
    checked and canonicalised in one pass (see ``_edge_set``) and stored as a
    frozenset of ``Edge``. ``decode_weight``, if given, maps every weight that
    is not a plain float (a file's ``"inf"`` token, say) to one, or raises.
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

    @classmethod
    def make(cls, graph_type: str, directed: bool, edges: Iterable) -> MultigraphSnapshot:
        return cls(graph_type, directed, edges)

    @cached_property
    def _incidence(self) -> dict[int, tuple[Edge, ...]]:
        """node -> incident edges; for directed graphs keyed by both roles."""
        by_node: dict[int, list[Edge]] = {}
        for e in self.edges:
            by_node.setdefault(e.src, []).append(e)
            if e.dst != e.src:
                by_node.setdefault(e.dst, []).append(e)
        return {n: tuple(es) for n, es in by_node.items()}

    def oriented_edges(self, i: int, direction: Direction) -> tuple[Edge, ...]:
        """Edges of agent i in the given direction, oriented per the query.

        For ``in`` the result edges read (j, i, u); for ``out`` they read
        (i, j, u). Undirected snapshots yield the same connections either way.
        """
        out = []
        for e in self._incidence.get(i, ()):
            if self.directed:
                if direction == "out" and e.src == i:
                    out.append(e)
                elif direction == "in" and e.dst == i:
                    out.append(e)
            else:
                if e.src == i and e.dst == i:
                    out.append(e)
                elif direction == "out":
                    other = e.dst if e.src == i else e.src
                    out.append(Edge(i, other, e.index, e.weight))
                else:
                    other = e.dst if e.src == i else e.src
                    out.append(Edge(other, i, e.index, e.weight))
        return tuple(out)

    def max_node(self) -> int:
        return self._max_node


@dataclass(frozen=True)
class GraphTrajectory:
    """Named, typed multigraph snapshots per time step.

    ``static`` holds graph types whose single snapshot applies at every t;
    ``dynamic`` maps a type to one snapshot per time index 0..length.
    """

    length: int
    static: Mapping[str, MultigraphSnapshot] = field(default_factory=dict)
    dynamic: Mapping[str, tuple[MultigraphSnapshot, ...]] = field(default_factory=dict)

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

    @property
    def static_types(self) -> frozenset[str]:
        return frozenset(self.static)

    def at(self, graph_type: str, t: int) -> MultigraphSnapshot:
        if not 0 <= t <= self.length:
            raise TimeOutOfRangeError("time out of range")
        if graph_type in self.static:
            return self.static[graph_type]
        if graph_type in self.dynamic:
            return self.dynamic[graph_type][t]
        raise UnknownGraphTypeError(f"unknown graph type: {graph_type!r}")

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


def neighbors(
    run: MasRun,
    graph_type: str,
    t: int,
    i: int,
    direction: Direction,
    weights: tuple[float, float] = (NEG_INF, POS_INF),
) -> frozenset[Edge]:
    """Edges of agent i in one graph at time t whose weights fall in the window.

    For ``in`` the returned edges are oriented (j, i, u); for ``out`` they
    are (i, j, u). On undirected snapshots both directions expose the same
    connections, re-oriented to the query.
    """
    snap = _query_snapshot(run, graph_type, t, i, weights)
    lo, hi = weights
    return frozenset(
        e for e in snap.oriented_edges(i, direction) if lo <= e.weight <= hi
    )


def _query_snapshot(run: MasRun, graph_type: str, t: int, i: int, weights) -> MultigraphSnapshot:
    """Validate a neighbor query of agent i and return the snapshot it reads."""
    lo, hi = weights
    if lo > hi:
        raise ValueError(f"weight interval reversed: [{lo}, {hi}]")
    if not 1 <= i <= run.num_agents:
        raise ValueError(f"unknown agent {i}")
    return run.graphs.at(graph_type, t)


def agent_neighbors(
    run: MasRun,
    graph_type: str,
    t: int,
    i: int | Iterable[int],
    direction: Direction,
    weights: tuple[float, float] = (NEG_INF, POS_INF),
) -> frozenset[int]:
    """Opposite endpoints of ``neighbors``; accepts an agent or a set of agents."""
    if isinstance(i, int):
        agents = (i,)
    else:
        agents = tuple(i)
    found: set[int] = set()
    for a in agents:
        for e in neighbors(run, graph_type, t, a, direction, weights):
            found.add(e.src if direction == "in" else e.dst)
    return frozenset(found)


def neighbor_multiplicities(
    run: MasRun,
    graph_type: str,
    t: int,
    i: int,
    direction: Direction,
    weights: tuple[float, float] = (NEG_INF, POS_INF),
) -> dict[int, int]:
    """Opposite endpoint -> number of parallel edges inside the weight window.

    Counts the same edges as ``neighbors``, straight from the snapshot's
    incidence lists: a self-loop counts once, toward agent i itself.
    """
    snap = _query_snapshot(run, graph_type, t, i, weights)
    lo, hi = weights
    directed = snap.directed
    incoming = direction == "in"
    mult: dict[int, int] = {}
    for src, dst, _, w in snap._incidence.get(i, ()):
        if not lo <= w <= hi:
            continue
        if directed:
            if (dst if incoming else src) != i:
                continue
            other = src if incoming else dst
        else:
            other = dst if src == i else src
        mult[other] = mult.get(other, 0) + 1
    return mult

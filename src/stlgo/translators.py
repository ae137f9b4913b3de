"""Encodings of counting, inter-agent distance, and agent-trace distance
properties into graph-operator formulas, plus the graph constructions the
encodings need.

Conventions shared by every route in this module and by the direct-semantics
oracles in the test suite:

- The shortest-distance graph materializes one edge per ordered reachable
  pair of distinct nodes. The distance from a node to itself is 0 as a
  value of the distance map but is not materialized as an edge, so counting
  operators over distance graphs never count the anchor itself.
- Agent traces are simple (no repeated nodes). Reach mode additionally
  requires strictly positive weights, which makes the restriction harmless
  for upper-bounded windows: revisiting only increases the sum.
- Parallel edges of a distance graph collapse to their cheapest weight.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Literal, Mapping

from .formula import (
    INF,
    AgentBind,
    And,
    CountSet,
    ForAllAgents,
    GraphOp,
    LocalFormula,
    GlobalFormula,
    Not,
    Or,
    WeightInterval,
    join_left,
)
from .model import MasRun, MultigraphSnapshot

Comparator = Literal["<=", "<", ">=", ">", "="]
TraceMode = Literal["reach", "escape"]

LabelMap = Mapping[int, frozenset[str] | set[str]]


def _distance_adjacency(g: MultigraphSnapshot) -> dict[int, list[tuple[int, float]]]:
    """node -> (neighbor, cheapest weight) over the node's out-edges."""
    nodes = set()
    for e in g.edges:
        if math.isinf(e.weight):
            raise ValueError("distance graphs need finite weights")
        if e.weight < 0:
            raise ValueError("negative weights unsupported")
        nodes.update(e[:2])
    adj = {}
    for u in nodes:
        best: dict[int, float] = {}
        for _, v, _, w in g.oriented_edges(u, "out"):
            if w < best.get(v, math.inf):
                best[v] = w
        adj[u] = list(best.items())
    return adj


def _dijkstra(adj: dict[int, list[tuple[int, float]]], source: int) -> dict[int, float]:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def shortest_distance_map(
    g: MultigraphSnapshot, nodes: Iterable[int] | None = None
) -> dict[int, dict[int, float]]:
    """Min path-weight sums between all pairs; d[i][i] == 0 for every node.

    Unreachable pairs are absent. Weights must be finite and non-negative.
    """
    adj = _distance_adjacency(g)
    all_nodes = set(adj)
    if nodes is not None:
        all_nodes |= set(nodes)
    return {u: _dijkstra(adj, u) for u in sorted(all_nodes)}


def shortest_distance_graph(
    g: MultigraphSnapshot, graph_type: str, nodes: Iterable[int] | None = None
) -> MultigraphSnapshot:
    """Single-edge graph of shortest distances over reachable pairs.

    Only pairs of distinct nodes are materialized; the zero self-distance
    stays a fact of the distance map rather than an edge, so counting
    operators over the result never count the anchor agent itself.
    """
    dmap = shortest_distance_map(g, nodes)
    edges = []
    for u, row in dmap.items():
        for v, d in row.items():
            if u == v:
                continue
            if g.directed or u < v:
                edges.append((u, v, 1, d))
    return MultigraphSnapshot(graph_type, g.directed, edges)


def psi_graph_tag(psi: str, agent: int) -> str:
    return f"psi{psi}_{agent}"


def normalize_labels(labels: LabelMap, num_agents: int) -> dict[int, frozenset[str]]:
    """Total label map on 1..N; agents without an entry carry no labels."""
    out = {i: frozenset() for i in range(1, num_agents + 1)}
    for agent, ls in labels.items():
        if not 1 <= agent <= num_agents:
            raise ValueError(f"label for unknown agent {agent}")
        out[agent] = frozenset(ls)
    return out


def labeled_subgraph(
    ds: MultigraphSnapshot, labels: LabelMap, psi: str, agent: int
) -> MultigraphSnapshot:
    """Induced subgraph of the shortest-distance graph on the agents carrying
    the label, plus the anchor agent; weights preserved. An unknown label
    legally yields the graph on the anchor alone. Its tag is
    ``psi_graph_tag(psi, agent)``."""
    keep = {j for j, ls in labels.items() if psi in ls}
    keep.add(agent)
    edges = [e for e in ds.edges if e.src in keep and e.dst in keep]
    return MultigraphSnapshot(psi_graph_tag(psi, agent), ds.directed, edges)


def anchor_subgraph(g: MultigraphSnapshot, agent: int, graph_type: str) -> MultigraphSnapshot:
    """Subgraph keeping only the edges incident to one anchor agent."""
    edges = [e for e in g.edges if agent in (e.src, e.dst)]
    return MultigraphSnapshot(graph_type, g.directed, edges)


def count_set_for(cmp: Comparator, bound: float) -> CountSet:
    """The set of counts c' with c' ~ bound, as a count set.

    The bound may be fractional (the averaging variant multiplies by N') or
    infinite; an unsatisfiable comparison yields the empty count set.
    """
    if cmp not in (">=", ">", "<=", "<", "=", "=="):
        raise ValueError(f"unsupported comparator {cmp!r}")
    if math.isnan(bound):
        raise ValueError("count threshold is NaN")
    if math.isinf(bound):  # every count is finite: above -inf, below inf
        holds = cmp in ((">=", ">") if bound < 0 else ("<=", "<"))
        return CountSet.full() if holds else CountSet.empty()
    if cmp in (">=", ">"):
        lo = math.ceil(bound) if cmp == ">=" else math.floor(bound) + 1
        return CountSet.single(max(0, lo), INF)
    if cmp in ("<=", "<"):
        hi = math.floor(bound) if cmp == "<=" else math.ceil(bound) - 1
        return CountSet.empty() if hi < 0 else CountSet.single(0, hi)
    if bound < 0 or bound != int(bound):
        return CountSet.empty()
    return CountSet.single(int(bound), int(bound))


def translate_sastl_count(
    psi: str,
    weights: WeightInterval,
    cmp: Comparator,
    c: float,
    inner: LocalFormula,
    agent: int,
    op: Literal["sum", "avg"] = "sum",
    n_prime: int | None = None,
) -> GlobalFormula:
    """Counting over the psi-labeled shortest-distance graph of the anchor.

    The run must be augmented with that graph's tag before monitoring
    (``labeled_subgraph`` builds it; ``psi_graph_tag`` names it). The avg
    variant requires the neighbor total N' (an int >= 1) up front.
    """
    if op == "sum":
        bound = c
    elif op == "avg":
        if type(n_prime) is not int or n_prime < 1:
            raise ValueError(f"avg requires N' to be an int >= 1, not {n_prime!r}")
        bound = c * n_prime
    else:
        raise ValueError(f"sastl op must be 'sum' or 'avg', not {op!r}")
    tag = psi_graph_tag(psi, agent)
    counts = count_set_for(cmp, bound)
    return AgentBind(agent, GraphOp("in", "exists", (tag,), counts, weights, inner))


def translate_sstl(
    op: Literal["somewhere", "everywhere"],
    weights: WeightInterval,
    inner: LocalFormula,
    agent: int,
) -> GlobalFormula:
    """Somewhere / everywhere over the shortest-distance graph, tagged "ds".

    Somewhere asks for at least one satisfying agent in the distance window;
    everywhere asks for zero violating agents there.
    """
    if op == "somewhere":
        counts = CountSet.single(1, INF)
        child = inner
    elif op == "everywhere":
        counts = CountSet.single(0, 0)
        child = Not(inner)
    else:
        raise ValueError(f"unsupported operator {op!r}")
    return AgentBind(agent, GraphOp("in", "exists", ("ds",), counts, weights, child))


# ---------------------------------------------------------------------------
# agent traces (reach / escape)


def enumerate_traces(
    g: MultigraphSnapshot,
    agent: int,
    weights: WeightInterval,
    mode: TraceMode,
) -> frozenset[tuple[int, ...]]:
    """All simple traces rooted at the agent that meet the mode's condition.

    Reach sums edge weights along the trace (strictly positive weights
    required, so the search can prune on the upper bound); escape tests the
    shortest distance between the trace's endpoints. The one-node trace
    qualifies whenever its distance (0) falls in the window.
    """
    adj = _distance_adjacency(g)
    if mode == "reach":
        if any(w <= 0 for nbrs in adj.values() for _, w in nbrs):
            raise ValueError("positive weights required")
        limit = weights.hi
    elif mode == "escape":
        dist = _dijkstra(adj, agent)
        limit = math.inf
    else:
        raise ValueError(f"unsupported trace mode {mode!r}")

    # depth-first over simple paths, on an explicit stack of
    # (path, its last node, its weight sum)
    found = set()
    pending = [((agent,), agent, 0.0)]
    while pending:
        path, last, total = pending.pop()
        if weights.contains(total if mode == "reach" else dist.get(last, math.inf)):
            found.add(path)
        for nxt, w in adj.get(last, ()):
            if nxt not in path and (longer := total + w) <= limit:
                pending.append((path + (nxt,), nxt, longer))
    return frozenset(found)


def translate_strel(
    op: TraceMode,
    weights: WeightInterval,
    agent: int,
    run: MasRun,
    t: int,
    phi1: LocalFormula | None = None,
    phi2: LocalFormula | None = None,
    phi: LocalFormula | None = None,
) -> GlobalFormula:
    """A reach or escape property at the agent and time t, as a disjunction
    over the traces ``enumerate_traces`` finds in the distance graph ``d``
    at t, shortest first. Reach needs phi1 and phi2: on each trace every
    agent before the last satisfies phi1 and the last satisfies phi2, so the
    one-node trace contributes just phi2 at the anchor. Escape needs phi:
    every agent on the trace satisfies it. Trace sets depend on the graph at
    t, so the encoding is per time step."""
    if op == "reach":
        if phi1 is None or phi2 is None:
            raise ValueError("reach needs phi1 and phi2")
    elif op == "escape":
        if phi is None:
            raise ValueError("escape needs phi")
    else:
        raise ValueError(f"unsupported trace mode {op!r}")
    traces = enumerate_traces(run.graphs.at("d", t), agent, weights, op)
    parts: list[GlobalFormula] = []
    for tau in sorted(traces, key=lambda s: (len(s), s)):
        if op == "escape":
            part = ForAllAgents(tuple(sorted(set(tau))), phi)
        else:
            part = AgentBind(tau[-1], phi2)
            if len(tau) > 1:
                part = And(ForAllAgents(tuple(sorted(set(tau[:-1]))), phi1), part)
        parts.append(part)
    return join_left(Or, parts)

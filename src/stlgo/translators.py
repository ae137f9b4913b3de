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
    FALSITY,
    ForAllAgents,
    GraphOp,
    LocalFormula,
    GlobalFormula,
    Not,
    Or,
    WeightInterval,
    FULL_WEIGHTS,
)
from .model import Edge, MasRun, MultigraphSnapshot

Comparator = Literal["<=", "<", ">=", ">", "="]
TraceMode = Literal["reach", "escape"]

LabelMap = Mapping[int, frozenset[str] | set[str]]


def _distance_adjacency(g: MultigraphSnapshot) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {}
    best: dict[tuple[int, int], float] = {}
    for e in g.edges:
        if math.isinf(e.weight):
            raise ValueError("distance graphs need finite weights")
        if e.weight < 0:
            raise ValueError("negative weights unsupported")
        pairs = [(e.src, e.dst)]
        if not g.directed and e.src != e.dst:
            pairs.append((e.dst, e.src))
        for u, v in pairs:
            key = (u, v)
            if key not in best or e.weight < best[key]:
                best[key] = e.weight
    for (u, v), w in best.items():
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, [])
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
    g: MultigraphSnapshot,
    graph_type: str | None = None,
    nodes: Iterable[int] | None = None,
) -> MultigraphSnapshot:
    """Single-edge graph of shortest distances over reachable pairs.

    Only pairs of distinct nodes are materialized; the zero self-distance
    stays a fact of the distance map rather than an edge, so counting
    operators over the result never count the anchor agent itself.
    """
    tag = graph_type if graph_type is not None else g.graph_type + "s"
    dmap = shortest_distance_map(g, nodes)
    edges = []
    for u, row in dmap.items():
        for v, d in row.items():
            if u == v:
                continue
            if g.directed or u < v:
                edges.append(Edge(u, v, 1, d))
    return MultigraphSnapshot.make(tag, g.directed, edges)


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
    ds: MultigraphSnapshot,
    labels: LabelMap,
    psi: str,
    agent: int,
    graph_type: str | None = None,
) -> MultigraphSnapshot:
    """Induced subgraph of the shortest-distance graph on the agents carrying
    the label, plus the anchor agent; weights preserved. An unknown label
    legally yields the graph on the anchor alone."""
    keep = {j for j, ls in labels.items() if psi in ls}
    keep.add(agent)
    tag = graph_type if graph_type is not None else psi_graph_tag(psi, agent)
    edges = [e for e in ds.edges if e.src in keep and e.dst in keep]
    return MultigraphSnapshot.make(tag, ds.directed, edges)


def anchor_subgraph(
    g: MultigraphSnapshot, agent: int, graph_type: str | None = None
) -> MultigraphSnapshot:
    """Subgraph keeping only the edges incident to one anchor agent."""
    tag = graph_type if graph_type is not None else f"{g.graph_type}{agent}"
    edges = [e for e in g.edges if agent in (e.src, e.dst)]
    return MultigraphSnapshot.make(tag, g.directed, edges)


def count_set_for(cmp: Comparator, bound: float) -> CountSet:
    """The set of counts c' with c' ~ bound, as a count set.

    The bound may be fractional (the averaging variant multiplies by N');
    an unsatisfiable comparison yields the empty count set.
    """
    if cmp in (">=", ">"):
        lo = math.ceil(bound) if cmp == ">=" else math.floor(bound) + 1
        return CountSet.single(max(0, lo), INF)
    if cmp in ("<=", "<"):
        hi = math.floor(bound) if cmp == "<=" else math.ceil(bound) - 1
        return CountSet.empty() if hi < 0 else CountSet.single(0, hi)
    if cmp in ("=", "=="):
        if bound < 0 or bound != int(bound):
            return CountSet.empty()
        return CountSet.single(int(bound), int(bound))
    raise ValueError(f"unsupported comparator {cmp!r}")


def translate_sastl_count(
    psi: str,
    weights: WeightInterval,
    cmp: Comparator,
    c: float,
    inner: LocalFormula,
    agent: int,
    op: Literal["sum", "avg"] = "sum",
    n_prime: int | None = None,
    graph_tag: str | None = None,
) -> GlobalFormula:
    """Counting over the psi-labeled shortest-distance graph of the anchor.

    The run must be augmented with that graph's tag before monitoring
    (``labeled_subgraph`` builds it; ``psi_graph_tag`` names it). The avg
    variant requires the neighbor total N' up front.
    """
    if op == "avg":
        if n_prime is None:
            raise ValueError("avg requires N'")
        bound = c * n_prime
    else:
        bound = c
    tag = graph_tag if graph_tag is not None else psi_graph_tag(psi, agent)
    counts = count_set_for(cmp, bound)
    return AgentBind(agent, GraphOp("in", "exists", (tag,), counts, weights, inner))


def translate_sstl(
    op: Literal["somewhere", "everywhere"],
    weights: WeightInterval,
    inner: LocalFormula,
    agent: int,
    ds_tag: str = "ds",
) -> GlobalFormula:
    """Somewhere / everywhere over the shortest-distance graph.

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
    return AgentBind(agent, GraphOp("in", "exists", (ds_tag,), counts, weights, child))


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
        for nbrs in adj.values():
            if any(w <= 0 for _, w in nbrs):
                raise ValueError("positive weights required")
        found: set[tuple[int, ...]] = set()

        def walk(path: list[int], total: float):
            if weights.contains(total):
                found.add(tuple(path))
            if total > weights.hi:
                return
            here = path[-1]
            for nxt, w in adj.get(here, ()):
                if nxt in path:
                    continue
                if total + w > weights.hi:
                    continue
                path.append(nxt)
                walk(path, total + w)
                path.pop()

        walk([agent], 0.0)
        return frozenset(found)

    if mode == "escape":
        dist = _dijkstra(adj, agent)
        found = set()

        def walk_all(path: list[int]):
            if weights.contains(dist.get(path[-1], math.inf)):
                found.add(tuple(path))
            for nxt, _ in adj.get(path[-1], ()):
                if nxt in path:
                    continue
                path.append(nxt)
                walk_all(path)
                path.pop()

        walk_all([agent])
        return frozenset(found)

    raise ValueError(f"unsupported trace mode {mode!r}")


def _fold_or(parts: list[GlobalFormula]) -> GlobalFormula:
    if not parts:
        return FALSITY
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def translate_strel_reach(
    phi1: LocalFormula,
    phi2: LocalFormula,
    weights: WeightInterval,
    agent: int,
    run: MasRun,
    t: int,
    d_tag: str = "d",
) -> GlobalFormula:
    """Reach as a disjunction over the enumerated traces: every agent before
    the last must satisfy phi1 and the last must satisfy phi2. The one-node
    trace contributes the empty conjunction for phi1, i.e. just phi2 at the
    anchor. Trace sets depend on the distance graph at t, so the encoding is
    per time step."""
    traces = enumerate_traces(run.graphs.at(d_tag, t), agent, weights, "reach")
    parts: list[GlobalFormula] = []
    for tau in sorted(traces, key=lambda s: (len(s), s)):
        bind = AgentBind(tau[-1], phi2)
        prefix = tuple(sorted(set(tau[:-1])))
        parts.append(bind if not prefix else And(ForAllAgents(prefix, phi1), bind))
    return _fold_or(parts)


def translate_strel_escape(
    phi: LocalFormula,
    weights: WeightInterval,
    agent: int,
    run: MasRun,
    t: int,
    d_tag: str = "d",
) -> GlobalFormula:
    """Escape as a disjunction over the enumerated traces: every agent on the
    trace must satisfy phi."""
    traces = enumerate_traces(run.graphs.at(d_tag, t), agent, weights, "escape")
    parts = [
        ForAllAgents(tuple(sorted(set(tau))), phi)
        for tau in sorted(traces, key=lambda s: (len(s), s))
    ]
    return _fold_or(parts)


def translate_strel(
    op: TraceMode,
    weights: WeightInterval,
    agent: int,
    run: MasRun,
    t: int,
    phi1: LocalFormula | None = None,
    phi2: LocalFormula | None = None,
    phi: LocalFormula | None = None,
    d_tag: str = "d",
) -> GlobalFormula:
    if op == "reach":
        if phi1 is None or phi2 is None:
            raise ValueError("reach needs phi1 and phi2")
        return translate_strel_reach(phi1, phi2, weights, agent, run, t, d_tag)
    if op == "escape":
        if phi is None:
            raise ValueError("escape needs phi")
        return translate_strel_escape(phi, weights, agent, run, t, d_tag)
    raise ValueError(f"unsupported trace mode {op!r}")


def translate_strel_reach_hops(
    phi1: LocalFormula,
    phi2: LocalFormula,
    weights: WeightInterval,
    agent: int,
    num_agents: int,
    d_tag: str = "d",
) -> GlobalFormula:
    """Hop-count alternative to the trace encoding, valid when every edge
    weight is 1: reach within k hops nests k counting operators.

    Unlike the trace route this counts revisiting routes too, so the two
    strategies coincide only when shortcutting is free, i.e. for windows
    with lower bound 0 (or 1 when the anchor itself is not the witness).
    """
    if weights.lo != int(weights.lo) and weights.lo != -INF:
        raise ValueError("hop windows need integer bounds")
    if weights.hi != INF and weights.hi != int(weights.hi):
        raise ValueError("hop windows need integer bounds")
    lo = max(0, int(weights.lo)) if weights.lo != -INF else 0
    hi = num_agents - 1 if weights.hi == INF else min(int(weights.hi), num_agents - 1)
    one_or_more = CountSet.single(1, INF)
    disjuncts: list[LocalFormula] = []
    for k in range(lo, hi + 1):
        if k == 0:
            disjuncts.append(phi2)
            continue
        nested = phi2
        for _ in range(k):
            nested = And(
                phi1,
                GraphOp("in", "exists", (d_tag,), one_or_more, FULL_WEIGHTS, nested),
            )
        disjuncts.append(nested)
    if not disjuncts:
        return FALSITY
    out = disjuncts[0]
    for d in disjuncts[1:]:
        out = Or(out, d)
    return AgentBind(agent, out)

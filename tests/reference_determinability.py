"""Reference determinability check used only by tests.

``reference_is_determinable`` is the per-time-step transcription of the
determinability check: for every leaf and every t it recomputes the leaf's
composed neighbor set and its unmemoized chain count, unioning (maximizing)
over all times whenever the chain touches a time-varying graph. It is slow,
exponential in graph-operator nesting depth, and plainly correct by reading;
``stlgo.distributed.is_determinable`` computes the same t-independent values
once per leaf and must return reports equal to this one.
"""

from __future__ import annotations

from collections import Counter

from stlgo.central import _Query, validate_local
from stlgo.distributed import DeterminabilityReport, LeafFailure, build_operator_tree
from stlgo.formula import INF, horizon
from stlgo.model import TimeOutOfRangeError


def reference_is_determinable(run, mask, f, subject, T) -> DeterminabilityReport:
    validate_local(run, f)
    if not 1 <= subject <= run.num_agents:
        raise ValueError(f"unknown agent {subject}")
    if not 0 <= T <= run.length:
        raise TimeOutOfRangeError("time out of range")
    _, t_max = horizon(f)
    end = int(min(T + t_max, run.length))
    static_tags = run.graphs.static
    failures: list[LeafFailure] = []

    for index, leaf, chain in build_operator_tree(_Query(run, f, subject, T)):
        _, leaf_t_max = horizon(leaf)
        exact = all(op.graphs[0] in static_tags for op in chain)
        for t in range(end + 1):
            agents = frozenset((subject,))
            for op in chain:
                agents = _level_neighbors(run, op, agents, t if exact else None)
            w_end = run.length if leaf_t_max == INF else int(min(t + leaf_t_max, run.length))
            missing = tuple(
                (j, u)
                for j in sorted(agents)
                for u in range(t, w_end + 1)
                if not mask.knows(j, u)
            )
            if not missing:
                continue
            if chain:
                count = _chain_count(run, subject, chain, t if exact else None)
                if count < chain[0].counts.min_value():
                    continue
            failures.append(LeafFailure(index, t, missing))

    return DeterminabilityReport(not failures, tuple(failures))


def _snapshot_multiplicities(run, node, agent: int, u: int) -> Counter:
    """The operator's per-neighbor parallel-edge counts at the agent, time u."""
    return Counter(run.graphs.at(node.graphs[0], u)._entry(
        agent, node.direction, node.weights.lo, node.weights.hi
    ))


def _level_neighbors(run, node, agents, t) -> frozenset[int]:
    """Neighbor set one operator level out; t=None unions over all times."""
    times = range(run.length + 1) if t is None else (t,)
    return frozenset(
        j for u in times for a in agents for j in _snapshot_multiplicities(run, node, a, u)
    )


def _level_multiplicities(run, node, agent: int, t) -> Counter:
    """Per-neighbor parallel-edge counts; t=None takes the maximum over times."""
    if t is not None:
        return _snapshot_multiplicities(run, node, agent, t)
    out: dict[int, int] = {}
    for u in range(run.length + 1):
        for j, m in _snapshot_multiplicities(run, node, agent, u).items():
            out[j] = max(out.get(j, 0), m)
    return out


def _chain_count(run, agent: int, chain: tuple, t) -> int:
    """Edges at the chain's first operator leading to agents whose own nested
    counts reach the downstream minimum thresholds."""
    mult = _level_multiplicities(run, chain[0], agent, t)
    if len(chain) == 1:
        return sum(mult.values())
    threshold = chain[1].counts.min_value()
    total = 0
    for j, m in mult.items():
        if _chain_count(run, j, chain[1:], t) >= threshold:
            total += m
    return total

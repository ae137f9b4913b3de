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

from stlgo.central import validate_local
from stlgo.distributed import (
    DeterminabilityReport,
    LeafFailure,
    prepare_for_distributed,
)
from stlgo.formula import INF, build_operator_tree, contains_atom, horizon
from stlgo.model import TimeOutOfRangeError


def reference_is_determinable(run, mask, f, subject, T) -> DeterminabilityReport:
    validate_local(run, f)
    if not 1 <= subject <= run.num_agents:
        raise ValueError(f"unknown agent {subject}")
    if not 0 <= T <= run.length:
        raise TimeOutOfRangeError("time out of range")
    _, t_max = horizon(f)
    end = int(min(T + t_max, run.length))
    prepared = prepare_for_distributed(f)
    tree = build_operator_tree(prepared)
    ops = dict(enumerate(tree.operators, 1))
    static_tags = run.graphs.static
    failures: list[LeafFailure] = []

    for leaf in tree.leaves:
        if not contains_atom(leaf.formula):
            continue
        _, leaf_t_max = horizon(leaf.formula)
        exact = all(ops[p].graphs[0] in static_tags for p in leaf.ancestors)
        for t in range(end + 1):
            agents = frozenset((subject,))
            for p in leaf.ancestors:
                agents = _level_neighbors(run, ops[p], agents, t if exact else None)
            w_end = run.length if leaf_t_max == INF else int(min(t + leaf_t_max, run.length))
            missing = tuple(
                (j, u)
                for j in sorted(agents)
                for u in range(t, w_end + 1)
                if not mask.knows(j, u)
            )
            if not missing:
                continue
            if leaf.ancestors:
                count = _chain_count(
                    run, subject, leaf.ancestors, t if exact else None, ops
                )
                if count < ops[leaf.ancestors[0]].counts.min_value():
                    continue
            failures.append(LeafFailure(leaf.index, t, missing))

    return DeterminabilityReport(not failures, tuple(failures))


def _snapshot_multiplicities(run, node, agent: int, u: int) -> dict[int, int]:
    """The operator's per-neighbor parallel-edge counts at the agent, time u."""
    return run.graphs.at(node.graphs[0], u).multiplicities(
        agent, node.direction, node.weights.lo, node.weights.hi
    )


def _level_neighbors(run, node, agents, t) -> frozenset[int]:
    """Neighbor set one operator level out; t=None unions over all times."""
    times = range(run.length + 1) if t is None else (t,)
    return frozenset(
        j for u in times for a in agents for j in _snapshot_multiplicities(run, node, a, u)
    )


def _level_multiplicities(run, node, agent: int, t) -> dict[int, int]:
    """Per-neighbor parallel-edge counts; t=None takes the maximum over times."""
    if t is not None:
        return _snapshot_multiplicities(run, node, agent, t)
    out: dict[int, int] = {}
    for u in range(run.length + 1):
        for j, m in _snapshot_multiplicities(run, node, agent, u).items():
            out[j] = max(out.get(j, 0), m)
    return out


def _chain_count(run, agent: int, chain: tuple[int, ...], t, ops) -> int:
    """Edges at the chain's first operator leading to agents whose own nested
    counts reach the downstream minimum thresholds."""
    node = ops[chain[0]]
    mult = _level_multiplicities(run, node, agent, t)
    if len(chain) == 1:
        return sum(mult.values())
    threshold = ops[chain[1]].counts.min_value()
    total = 0
    for j, m in mult.items():
        if _chain_count(run, j, chain[1:], t, ops) >= threshold:
            total += m
    return total

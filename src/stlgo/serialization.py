"""JSON file formats, all under the versioned schema tag "stlgo/1".

Run file:    {"schema", "num_agents", "state_dim", "length", "states"[t][i][k]}
Graph file:  {"schema", "types": {tag: {"directed", "static"?, "snapshots":
             [{"t"?, "edges": [[src, dst, u, w]]}]}}}
Mask file:   {"schema", "observer", "known": [[subject, t_from, t_to]]}
Report file: {"schema", "determinable", "failures": [{"leaf", "time",
             "unknown_states": [[agent, t]]}]} (monitor-dist) or
             {"schema", "results": [{...}]} (bench)
Signal file: {"schema", "t0", "values": [0 | 1 | "?"]}
Label file:  {"schema", "labels": {agent: [label, ...]}}

Agents are numbered 1..N. In a graph file src, dst and the edge index u are
JSON integers (not booleans): src and dst in 1..N, u >= 1, and no
(src, dst, u) key repeats within a snapshot. Undirected edges are written
once, in (min, max) order. A weight w is a number or, for the infinities
(JSON has no literal for them), the string "inf" or "-inf".

Every file is written as one line of compact JSON (no spaces after "," and
":") in a fixed key order, edges sorted, so saving the same value twice
gives the same bytes; re-reading gives the same in-memory value. Readers
check the shape of what they read and report any deviation as a
``SchemaError`` naming the file; graph rows are checked in the same pass
that builds each snapshot.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterable

from .distributed import KnowledgeMask, TernarySignal
from .central import BoolSignal
from .model import GraphTrajectory, MasRun, MasTrajectory, MultigraphSnapshot

SCHEMA = "stlgo/1"


class SchemaError(ValueError):
    """Raised when a file does not match its expected stlgo/1 schema."""


def _check_schema(doc, path, *required):
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SchemaError(f"{path}: expected schema {SCHEMA!r}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path}: missing field {key!r}")


def _is_int(v) -> bool:
    return type(v) is int


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None


def _dump(doc, path):
    # json.dumps without indent runs the C encoder (json.dump never does);
    # the documents written here are trees, so the cycle check is skipped
    text = json.dumps(doc, separators=(",", ":"), check_circular=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _weight_out(w: float):
    if w == math.inf:
        return "inf"
    if w == -math.inf:
        return "-inf"
    return w


def _weight_in(raw, path):
    if raw == "inf":
        return math.inf
    if raw == "-inf":
        return -math.inf
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and not math.isnan(raw):
        return float(raw)
    raise SchemaError(f"{path}: bad edge weight {raw!r}")


# -- trajectory ------------------------------------------------------------


def save_trajectory(traj: MasTrajectory, path):
    _dump(
        {
            "schema": SCHEMA,
            "num_agents": traj.num_agents,
            "state_dim": traj.state_dim,
            "length": traj.length,
            "states": traj.states,
        },
        path,
    )


def load_trajectory(path) -> MasTrajectory:
    doc = _load(path)
    _check_schema(doc, path, "num_agents", "state_dim", "length", "states")
    states = doc["states"]
    if not isinstance(states, list) or not all(
        isinstance(slice_, list) and all(isinstance(vec, list) for vec in slice_)
        for slice_ in states
    ):
        raise SchemaError(f"{path}: 'states' must be nested lists states[t][i][k]")
    for slice_ in states:
        for vec in slice_:
            for v in vec:
                if type(v) is not float and not _is_int(v):
                    raise SchemaError(f"{path}: state component {v!r} is not a number")
    try:
        traj = MasTrajectory.from_states(states)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    for key in ("num_agents", "state_dim", "length"):
        if not _is_int(doc[key]) or getattr(traj, key) != doc[key]:
            raise SchemaError(
                f"{path}: declared {key}={doc[key]} but states imply {getattr(traj, key)}"
            )
    return traj


# -- graphs ------------------------------------------------------------------


def save_graphs(graphs: GraphTrajectory, path):
    types = {}
    for tag in sorted(graphs.static):
        snap = graphs.static[tag]
        types[tag] = {
            "directed": snap.directed,
            "static": True,
            "snapshots": [{"edges": _edges_out(snap)}],
        }
    for tag in sorted(graphs.dynamic):
        snaps = graphs.dynamic[tag]
        types[tag] = {
            "directed": snaps[0].directed,
            "snapshots": [
                {"t": t, "edges": _edges_out(snap)} for t, snap in enumerate(snaps)
            ],
        }
    _dump({"schema": SCHEMA, "types": types}, path)


def _edges_out(snap: MultigraphSnapshot):
    # plain tuples encode as JSON arrays in C (an Edge, being a tuple
    # subclass, is first copied to a list); only infinite weights need a token
    inf = math.inf
    return [
        e[:] if -inf < e.weight < inf else (e.src, e.dst, e.index, _weight_out(e.weight))
        for e in sorted(snap.edges)
    ]


def load_graphs(path, length: int) -> GraphTrajectory:
    doc = _load(path)
    _check_schema(doc, path, "types")
    if not isinstance(doc["types"], dict):
        raise SchemaError(f"{path}: 'types' must map graph tags to graphs")
    decode_weight = functools.partial(_weight_in, path=path)
    static = {}
    dynamic = {}
    for tag, entry in doc["types"].items():
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: graph {tag!r}: must be an object")
        if "directed" not in entry or "snapshots" not in entry:
            raise SchemaError(f"{path}: graph {tag!r}: need 'directed' and 'snapshots'")
        directed = entry["directed"]
        is_static = entry.get("static", False)
        if type(directed) is not bool or type(is_static) is not bool:
            raise SchemaError(f"{path}: graph {tag!r}: 'directed' and 'static' must be booleans")
        snaps = entry["snapshots"]
        if not isinstance(snaps, list) or not all(isinstance(e, dict) for e in snaps):
            raise SchemaError(f"{path}: graph {tag!r}: 'snapshots' must be a list of objects")
        if is_static:
            if len(snaps) != 1:
                raise SchemaError(f"{path}: static graph {tag!r} needs exactly one snapshot")
            static[tag] = _snapshot_in(tag, directed, snaps[0], path, decode_weight)
        else:
            by_t = {}
            for entry in snaps:
                if "t" not in entry:
                    raise SchemaError(f"{path}: graph {tag!r}: dynamic snapshot without 't'")
                if not _is_int(entry["t"]):
                    raise SchemaError(f"{path}: graph {tag!r}: snapshot time {entry['t']!r} "
                                      "is not an integer")
                if entry["t"] in by_t:
                    raise SchemaError(f"{path}: graph {tag!r}: duplicate snapshot t={entry['t']}")
                by_t[entry["t"]] = _snapshot_in(tag, directed, entry, path, decode_weight)
            missing = [t for t in range(length + 1) if t not in by_t]
            if missing:
                raise SchemaError(f"{path}: graph {tag!r}: missing snapshots for t={missing}")
            extra = sorted(t for t in by_t if not 0 <= t <= length)
            if extra:
                raise SchemaError(
                    f"{path}: graph {tag!r}: snapshots at t={extra} exceed run length {length}"
                )
            dynamic[tag] = tuple(by_t[t] for t in range(length + 1))
    return GraphTrajectory(length, static, dynamic)


def _snapshot_in(tag, directed, entry, path, decode_weight) -> MultigraphSnapshot:
    """The snapshot of one graph-file entry; its rows go to the constructor
    unconverted, which checks them in the pass that builds the snapshot."""
    rows = entry.get("edges", [])
    if not isinstance(rows, list):
        raise SchemaError(f"{path}: graph {tag!r}: 'edges' must be a list")
    try:
        return MultigraphSnapshot(tag, directed, rows, decode_weight)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{path}: graph {tag!r}: {exc}") from None


def load_run(trajectory_path, graphs_path) -> MasRun:
    traj = load_trajectory(trajectory_path)
    graphs = load_graphs(graphs_path, traj.length)
    try:
        return MasRun(traj, graphs)
    except ValueError as exc:
        raise SchemaError(f"{graphs_path}: {exc}") from None


def save_run(run: MasRun, trajectory_path, graphs_path):
    save_trajectory(run.trajectory, trajectory_path)
    save_graphs(run.graphs, graphs_path)


# -- masks -------------------------------------------------------------------


def save_mask(mask: KnowledgeMask, path):
    # collapse per-subject known times into maximal ranges
    by_subject: dict[int, list[int]] = {}
    for j, t in sorted(mask.known):
        by_subject.setdefault(j, []).append(t)
    ranges = []
    for j, times in sorted(by_subject.items()):
        start = prev = times[0]
        for t in times[1:]:
            if t == prev + 1:
                prev = t
                continue
            ranges.append([j, start, prev])
            start = prev = t
        ranges.append([j, start, prev])
    _dump({"schema": SCHEMA, "observer": mask.observer, "known": ranges}, path)


def load_mask(path, length: int) -> KnowledgeMask:
    """The mask in a file, for a run of the given length: each range is
    clipped to the run's times 0..length."""
    doc = _load(path)
    _check_schema(doc, path, "observer", "known")
    if not _is_int(doc["observer"]) or not isinstance(doc["known"], list):
        raise SchemaError(f"{path}: need an integer 'observer' and a list 'known'")
    pairs = set()
    for entry in doc["known"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(f"{path}: mask entry must be [subject, t_from, t_to]")
        if not all(map(_is_int, entry)):
            raise SchemaError(f"{path}: mask entry {entry} must hold integers")
        j, t_from, t_to = entry
        if t_from > t_to:
            raise SchemaError(f"{path}: mask range reversed: {entry}")
        pairs.update((j, t) for t in range(max(t_from, 0), min(t_to, length) + 1))
    try:
        return KnowledgeMask(doc["observer"], frozenset(pairs))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# -- reports -----------------------------------------------------------------


def save_report(report: dict, path):
    """Write a report's fields after the schema tag."""
    _dump({"schema": SCHEMA, **report}, path)


# -- signals -----------------------------------------------------------------


def save_signal(signal: BoolSignal | TernarySignal, path):
    values = ["?" if v is None else v for v in signal.values]
    _dump({"schema": SCHEMA, "t0": signal.t0, "values": values}, path)


def load_signal(path) -> TernarySignal:
    doc = _load(path)
    _check_schema(doc, path, "t0", "values")
    if not _is_int(doc["t0"]) or not isinstance(doc["values"], list):
        raise SchemaError(f"{path}: need an integer 't0' and a list 'values'")
    values = []
    for v in doc["values"]:
        if v == "?":
            values.append(None)
        elif _is_int(v) and v in (0, 1):
            values.append(v)
        else:
            raise SchemaError(f"{path}: signal values must be 0, 1, or '?'")
    return TernarySignal(doc["t0"], tuple(values))


# -- labels -----------------------------------------------------------------


def save_labels(labels: dict[int, Iterable[str]], path):
    _dump(
        {
            "schema": SCHEMA,
            "labels": {str(a): sorted(ls) for a, ls in sorted(labels.items())},
        },
        path,
    )


def load_labels(path) -> dict[int, frozenset[str]]:
    doc = _load(path)
    _check_schema(doc, path, "labels")
    labels = doc["labels"]
    if not isinstance(labels, dict) or not all(
        isinstance(ls, list) and all(isinstance(x, str) for x in ls) for ls in labels.values()
    ):
        raise SchemaError(f"{path}: 'labels' must map agents to lists of strings")
    try:
        return {int(a): frozenset(ls) for a, ls in labels.items()}
    except ValueError:
        raise SchemaError(f"{path}: label keys must be agent numbers") from None

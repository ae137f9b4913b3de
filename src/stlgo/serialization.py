"""JSON file formats, all under the versioned schema tag "stlgo/1".

Run file:    {"schema", "num_agents", "state_dim", "length", "states"[t][i][k]}
Graph file:  {"schema", "types": {tag: {"directed", "static"?, "snapshots":
             [{"t"?, "edges": [[src, dst, u, w]]}]}
                            | {"directed": false, "derived": "distance",
                               "positions"?[t][i][k]}}}
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

A derived tag is a descriptor instead of snapshots: "distance" stands for
one ``DistanceSnapshot`` per time slice of the positions it carries, or,
without them, of the run file's states. Both writers name every dynamic tag
of ``DistanceSnapshot``s this way. ``save_run`` leaves the positions out
when they are the states it saves beside the graph file, and only
``load_run``, which has just read those states, reads such a descriptor; a
standalone graph file (``save_graphs``, ``load_graphs``) always carries
them.

Every file is written as one line of compact JSON (no spaces after "," and
":") in a fixed key order, edges sorted, so saving the same value twice
gives the same bytes; re-reading gives the same in-memory value. Readers
check only the file's shape (fields, JSON kinds, declared against implied
sizes) and decode its tokens ("inf", "-inf", "?"). The values go unconverted
to their type's constructor, which checks them as it builds (``stlgo.model``);
its ``ValueError`` is reported as a ``SchemaError`` naming the file.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from .central import Signal
from .distributed import KnowledgeMask
from .model import DistanceSnapshot, GraphTrajectory, MasRun, MasTrajectory, MultigraphSnapshot

SCHEMA = "stlgo/1"
DERIVED_DISTANCE = "distance"  # the one kind of derived graph a run's graph file names


class SchemaError(ValueError):
    """Raised when a file does not match its expected stlgo/1 schema."""


def _check_schema(doc, path, *required):
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SchemaError(f"{path}: expected schema {SCHEMA!r}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path}: missing field {key!r}")


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # bad JSON or UTF-8, or an int past Python's digit limit
            raise SchemaError(f"{path}: {exc}") from None


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


def _weight_in(raw):
    """A file's weight with its infinity tokens decoded, for the snapshot to check."""
    if raw == "inf":
        return math.inf
    if raw == "-inf":
        return -math.inf
    return raw


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
    try:
        traj = MasTrajectory(doc["states"])
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    for key in ("num_agents", "state_dim", "length"):
        if type(doc[key]) is not int or getattr(traj, key) != doc[key]:
            raise SchemaError(
                f"{path}: declared {key}={doc[key]} but states imply {getattr(traj, key)}"
            )
    return traj


# -- graphs ------------------------------------------------------------------


def save_graphs(graphs: GraphTrajectory, path):
    """Write a standalone graph file: a derived tag carries its positions."""
    _dump(_graphs_doc(graphs, None), path)


def _graphs_doc(graphs: GraphTrajectory, states) -> dict:
    """The graph file of the graphs. A dynamic tag whose every snapshot is a
    ``DistanceSnapshot`` is written as a descriptor, with the positions the
    snapshots derive from unless those are ``states``, the run's states that
    ``save_run`` writes beside the graph file."""
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
        if all(type(snap) is DistanceSnapshot for snap in snaps):
            types[tag] = {"directed": False, "derived": DERIVED_DISTANCE}
            if states is None or any(snap.positions != here for snap, here in zip(snaps, states)):
                types[tag]["positions"] = [snap.positions for snap in snaps]
            continue
        types[tag] = {
            "directed": snaps[0].directed,
            "snapshots": [
                {"t": t, "edges": _edges_out(snap)} for t, snap in enumerate(snaps)
            ],
        }
    return {"schema": SCHEMA, "types": types}


def _edges_out(snap: MultigraphSnapshot):
    # plain tuples encode as JSON arrays in C (an Edge, being a tuple
    # subclass, is first copied to a list); only infinite weights need a token
    inf = math.inf
    return [e[:] if -inf < e[3] < inf else (*e[:3], _weight_out(e[3]))
            for e in sorted(snap.edges)]


def load_graphs(path, length: int) -> GraphTrajectory:
    """The graphs of a standalone graph file; a descriptor without its
    positions, which only a run's graph file leaves out, is a ``SchemaError``."""
    return _graphs_in(path, length, None)


def _graphs_in(path, length: int, states) -> GraphTrajectory:
    doc = _load(path)
    _check_schema(doc, path, "types")
    if not isinstance(doc["types"], dict):
        raise SchemaError(f"{path}: 'types' must map graph tags to graphs")
    static = {}
    dynamic = {}
    for tag, entry in doc["types"].items():
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: graph {tag!r}: must be an object")
        if "derived" in entry:
            dynamic[tag] = _derived_in(tag, entry, length, states, path)
            continue
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
            static[tag] = _snapshot_in(tag, directed, snaps[0], path)
        else:
            by_t = {}
            for entry in snaps:
                if "t" not in entry:
                    raise SchemaError(f"{path}: graph {tag!r}: dynamic snapshot without 't'")
                if type(entry["t"]) is not int:
                    raise SchemaError(f"{path}: graph {tag!r}: snapshot time {entry['t']!r} "
                                      "is not an integer")
                if entry["t"] in by_t:
                    raise SchemaError(f"{path}: graph {tag!r}: duplicate snapshot t={entry['t']}")
                by_t[entry["t"]] = _snapshot_in(tag, directed, entry, path)
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


def _derived_in(tag, entry, length: int, states, path) -> tuple[DistanceSnapshot, ...]:
    """The snapshots a descriptor stands for, one per time slice of its
    positions or, without them, of the run's states."""
    if entry["derived"] != DERIVED_DISTANCE:
        raise SchemaError(f"{path}: graph {tag!r}: unknown derived graph {entry['derived']!r}, "
                          f"expected {DERIVED_DISTANCE!r}")
    if "snapshots" in entry or "static" in entry:
        raise SchemaError(f"{path}: graph {tag!r}: a derived graph has no 'snapshots' or 'static'")
    if entry.get("directed") is not False:
        raise SchemaError(f"{path}: graph {tag!r}: a distance graph needs 'directed': false")
    if "positions" in entry:
        try:
            states = MasTrajectory(entry["positions"]).states
        except ValueError as exc:
            raise SchemaError(f"{path}: graph {tag!r}: positions: {exc}") from None
        if len(states) != length + 1:
            raise SchemaError(f"{path}: graph {tag!r}: {len(states)} position slices, "
                              f"need {length + 1}")
    elif states is None:
        raise SchemaError(f"{path}: graph {tag!r}: derived from a run's states; "
                          "a standalone graph file needs its 'positions'")
    return tuple(DistanceSnapshot(tag, here) for here in states)


def _snapshot_in(tag, directed, entry, path) -> MultigraphSnapshot:
    """The snapshot of one graph-file entry; its rows go to the constructor
    unconverted, which checks them in the pass that builds the snapshot."""
    rows = entry.get("edges", [])
    if not isinstance(rows, list):
        raise SchemaError(f"{path}: graph {tag!r}: 'edges' must be a list")
    try:
        return MultigraphSnapshot(tag, directed, rows, _weight_in)
    except ValueError as exc:
        raise SchemaError(f"{path}: graph {tag!r}: {exc}") from None


def load_run(trajectory_path, graphs_path) -> MasRun:
    traj = load_trajectory(trajectory_path)
    graphs = _graphs_in(graphs_path, traj.length, traj.states)
    try:
        return MasRun(traj, graphs)
    except ValueError as exc:
        raise SchemaError(f"{graphs_path}: {exc}") from None


def save_run(run: MasRun, trajectory_path, graphs_path):
    save_trajectory(run.trajectory, trajectory_path)
    _dump(_graphs_doc(run.graphs, run.trajectory.states), graphs_path)


# -- masks -------------------------------------------------------------------


def save_mask(mask: KnowledgeMask, path):
    _dump({"schema": SCHEMA, "observer": mask.observer, "known": mask.ranges}, path)


def load_mask(path, length: int) -> KnowledgeMask:
    """The mask in a file, for a run of the given length: each range is
    clipped to the run's times 0..length."""
    doc = _load(path)
    _check_schema(doc, path, "observer", "known")
    if type(doc["observer"]) is not int or not isinstance(doc["known"], list):
        raise SchemaError(f"{path}: need an integer 'observer' and a list 'known'")
    ranges = []
    for entry in doc["known"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(f"{path}: mask entry must be [subject, t_from, t_to]")
        if not all(type(v) is int for v in entry):
            raise SchemaError(f"{path}: mask entry {entry} must hold integers")
        j, t_from, t_to = entry
        if j < 1 or t_from > t_to:
            raise SchemaError(f"{path}: mask entry {entry} needs subject >= 1, t_from <= t_to")
        if t_to >= 0 and t_from <= length:
            ranges.append((j, max(t_from, 0), min(t_to, length)))
    try:
        return KnowledgeMask(doc["observer"], ranges)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# -- reports -----------------------------------------------------------------


def save_report(report: dict, path):
    """Write a report's fields after the schema tag."""
    _dump({"schema": SCHEMA, **report}, path)


# -- signals -----------------------------------------------------------------


def save_signal(signal: Signal, path):
    values = ["?" if v is None else v for v in signal.values]
    _dump({"schema": SCHEMA, "t0": signal.t0, "values": values}, path)


def load_signal(path) -> Signal:
    doc = _load(path)
    _check_schema(doc, path, "t0", "values")
    values = doc["values"]
    if not isinstance(values, list) or None in values:  # null is no cell, "?" is
        raise SchemaError(f"{path}: 'values' must be a list of 0, 1 and '?'")
    try:
        return Signal(doc["t0"], tuple([None if v == "?" else v for v in values]))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


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

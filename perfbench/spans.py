"""In-memory span tracing of stlgo's layers, applied from outside the package.

A ``Tracer`` replaces public functions of the stlgo modules with wrappers
that record one span per call: layer, operation, start, end, parent span and
job id, plus a few counts read off the returned value. Nothing inside
``src/stlgo`` is edited. The wrappers are installed by attribute assignment
on the module objects for the duration of one traced job (or set-up) and
removed afterwards, so untraced jobs run the original functions.

A function is wrapped in every namespace it is called through: the
benchmark calls ``stlgo.central.monitor_local`` through its module, while
``stlgo.cli`` imported the name into its own namespace, so both attributes
are patched. ``model`` is exercised inside every layer but has no span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

LAYERS = (
    "scenario", "serialization", "parser", "formula",
    "central", "distributed", "translators", "cli",
)


@dataclass
class Span:
    job: str
    layer: str
    op: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)


# -- counts read off results -------------------------------------------------


def _run_edges(result, args):
    graphs = result.graphs
    n = sum(len(s.edges) for s in graphs.static.values())
    n += sum(len(s.edges) for snaps in graphs.dynamic.values() for s in snaps)
    return {"edges": n}


def _file_bytes(result, args):
    paths = [a for a in args if isinstance(a, (str, os.PathLike))]
    return {"bytes": sum(os.path.getsize(p) for p in paths if os.path.isfile(p))}


def _core_nodes(result, args):
    from stlgo.formula import GlobalFormula, LocalFormula

    n = 0
    stack = [result]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(
            v for v in vars(node).values() if isinstance(v, (LocalFormula, GlobalFormula))
        )
    return {"core_nodes": n}


def _cells(result, args):
    values = result.values
    return {"cells": len(values), "unknown": sum(1 for v in values if v is None)}


def _report(result, args):
    return {"determinable": int(result.determinable), "failure_pairs": len(result.failures)}


def _edges_out(result, args):
    edges = getattr(result, "edges", None)
    return {"edges_out": len(edges)} if edges is not None else {}


# (module, attributes, layer, operation, counter)
PATCHES = (
    ("stlgo.scenario", ("gen_drone", "gen_bike"), "scenario", "gen", _run_edges),
    ("stlgo.scenario", ("export_station_csv",), "scenario", "export", None),
    ("stlgo.scenario", ("ingest_station_csv",), "scenario", "ingest", None),
    ("stlgo.serialization", ("load_run", "load_mask", "load_labels"),
     "serialization", "load", _file_bytes),
    ("stlgo.serialization",
     ("save_run", "save_signal", "save_graphs", "save_mask", "save_labels"),
     "serialization", "save", _file_bytes),
    ("stlgo.parser", ("parse_local", "parse_global", "print_formula"), "parser", "parse", None),
    ("stlgo.cli", ("parse_local", "parse_global", "print_formula"), "parser", "parse", None),
    ("stlgo.central", ("lower",), "formula", "lower", _core_nodes),
    ("stlgo.distributed", ("prepare_for_distributed",), "formula", "lower", _core_nodes),
    ("stlgo.distributed", ("build_operator_tree",), "formula", "tree", None),
    ("stlgo.central", ("monitor_local", "monitor_global"), "central", "monitor", _cells),
    ("stlgo.cli", ("monitor_local", "monitor_global"), "central", "monitor", _cells),
    ("stlgo.distributed", ("monitor_dist",), "distributed", "monitor", _cells),
    ("stlgo.cli", ("monitor_dist",), "distributed", "monitor", _cells),
    ("stlgo.distributed", ("is_determinable",), "distributed", "determinability", _report),
    ("stlgo.cli", ("is_determinable",), "distributed", "determinability", _report),
    ("stlgo.cli",
     ("shortest_distance_graph", "labeled_subgraph", "anchor_subgraph", "normalize_labels",
      "translate_sastl_count", "translate_sstl"),
     "translators", "translate", _edges_out),
    ("stlgo.cli", ("main",), "cli", "main", None),
)


class Tracer:
    """Records spans of traced jobs in memory; ``spans`` is written out by
    the caller when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._originals: list[tuple[object, str, object]] = []

    def run(self, job_id: str, fn, root_layer: str = "job"):
        """Call ``fn()`` as one traced job; returns (result, root span).

        The root span covers the whole call; time inside it that no layer
        span covers is the job's own (front-end) time. Exceptions propagate
        after the root span is closed and the originals are restored.
        """
        self._install()
        self._job = job_id
        idx = self._open(root_layer, "request")
        try:
            result = fn()
        except BaseException:
            self.spans[idx].failed = True
            raise
        finally:
            self._close(idx)
            self._job = None
            self._uninstall()
        return result, self.spans[idx]

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, layer: str, op: str) -> int:
        span = Span(self._job, layer, op, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")

    def _wrap(self, fn, layer: str, op: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(layer, op)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[idx].failed = True
                raise
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.spans[idx].counts = counter(result, args)
            return result

        return traced

    def _install(self):
        for mod_name, attrs, layer, op, counter in PATCHES:
            mod = importlib.import_module(mod_name)
            for attr in attrs:
                original = getattr(mod, attr)
                self._originals.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, layer, op, counter))

    def _uninstall(self):
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def nesting_problems(spans: list[Span]) -> list[tuple[int, str]]:
    """(index, problem) for each span that does not lie inside its parent,
    belongs to another job than its parent, or starts before its previous
    sibling ended. Without such problems the self times of one job's spans
    partition its root span."""
    problems = []
    last_child_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.parent is None:
            continue
        p = spans[s.parent]
        if p.job != s.job:
            problems.append((i, f"span {s.layer}.{s.op} is in job {s.job}, its parent in {p.job}"))
        elif not p.start <= s.start <= s.end <= p.end:
            problems.append((i, f"span {s.layer}.{s.op} [{s.start!r}, {s.end!r}] lies outside "
                                f"its parent {p.layer}.{p.op} [{p.start!r}, {p.end!r}]"))
        elif s.start < last_child_end.get(s.parent, p.start):
            problems.append((i, f"span {s.layer}.{s.op} starts before its previous sibling ends"))
        last_child_end[s.parent] = s.end
    return problems

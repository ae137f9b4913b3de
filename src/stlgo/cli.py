"""Command-line front end.

Exit codes are a stable contract: 0 the monitored property is satisfied at
t0 (or the command simply succeeded), 1 usage or parse error, 2 property
violated at t0, 3 data error (bad bundle, unknown graph tag, insufficient
trace). A distributed verdict of "?" at t0 exits with 4 (undetermined),
leaving the meanings of 0 and 2 intact.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import formula as F
from . import serialization as io
from .central import monitor_global, monitor_local
from .distributed import is_determinable, monitor_dist
from .formula import (
    Always,
    And,
    CountSet,
    ForAllAgents,
    GlobalAtom,
    GraphOp,
    Implies,
    Truth,
    WeightInterval,
    join_left,
)
from .model import MasRun
from .parser import ParseError, parse_global, parse_local, print_formula
from .scenario import BikeScenarioConfig, DroneScenarioConfig, gen_bike, gen_drone
from .translators import (
    anchor_subgraph,
    labeled_subgraph,
    normalize_labels,
    psi_graph_tag,
    shortest_distance_graph,
    translate_sastl_count,
    translate_sstl,
    translate_strel,
)

EXIT_SAT = 0
EXIT_USAGE = 1
EXIT_VIOLATED = 2
EXIT_DATA = 3
EXIT_UNDETERMINED = 4

class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a word that starts with "-" as an option unless it
        # looks like a negative number; "-1,5" and "-inf,inf" are values too
        self._negative_number_matcher = re.compile(r"^-\.?\d|^-inf", re.IGNORECASE)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A usage error; ``main`` prints its message, the whole stderr text,
    and exits with EXIT_USAGE."""


def _read_formula_file(path: str, global_mode: bool):
    """The formula in a file; _UsageError says why it cannot be read or
    parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            src = fh.read()
    except OSError as exc:
        raise _UsageError(f"error: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"error: {path}: {exc}") from None
    try:
        return parse_global(src) if global_mode else parse_local(src)
    except ParseError as exc:
        raise _UsageError(exc.render(src)) from None


def _weights(text: str) -> WeightInterval:
    try:
        lo, hi = (float(s) for s in text.split(","))
        return WeightInterval(lo, hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo,hi' with numbers lo <= hi, got {text!r}") from None


def _write_or_print(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    f = _read_formula_file(args.formula, args.global_)
    print(print_formula(f))
    return EXIT_SAT


def cmd_monitor(args) -> int:
    f = _read_formula_file(args.formula, args.global_)
    run = io.load_run(args.run, args.graphs)
    T = args.tmax if args.tmax is not None else args.t0
    if args.global_:
        signal = monitor_global(run, f, T, strict=args.strict_horizon)
    else:
        signal = monitor_local(run, f, args.agent, T, strict=args.strict_horizon)
    verdict = signal.value_at(args.t0)  # before any file is written
    if args.out:
        io.save_signal(signal, args.out)
    print(f"s({args.t0}) = {verdict}")
    return EXIT_SAT if verdict == 1 else EXIT_VIOLATED


def cmd_monitor_dist(args) -> int:
    f = _read_formula_file(args.formula, False)
    run = io.load_run(args.run, args.graphs)
    mask = io.load_mask(args.mask, run.length)
    agent = max([mask.observer, *(j for j, _, _ in mask.ranges)])
    if agent > run.num_agents:
        raise ValueError(f"{args.mask}: names agent {agent}, but the run has agents "
                         f"1..{run.num_agents}")
    subject = args.subject if args.subject is not None else mask.observer
    T = args.tmax if args.tmax is not None else args.t0
    signal = monitor_dist(run, mask, f, subject, T, strict=args.strict_horizon)
    verdict = signal.value_at(args.t0)  # before any file is written
    report = is_determinable(run, mask, f, subject, T)
    if args.out:
        io.save_signal(signal, args.out)
    if args.report:
        io.save_report(
            {
                "determinable": report.determinable,
                "failures": [
                    {"leaf": fl.leaf_index, "time": fl.time,
                     "unknown_states": [list(p) for p in fl.unknown_states]}
                    for fl in report.failures
                ],
            },
            args.report,
        )
    shown = "?" if verdict is None else verdict
    print(f"s({args.t0}) = {shown}  determinable = {report.determinable}")
    if verdict is None:
        return EXIT_UNDETERMINED
    return EXIT_SAT if verdict == 1 else EXIT_VIOLATED


def _check_translate_flags(args):
    """Raise _UsageError naming what the chosen translation lacks among its
    flags."""
    if args.source == "sastl" and None in (args.psi, args.anchor, args.cmp, args.count):
        raise _UsageError("error: sastl needs --psi, --anchor, --cmp, --count")
    if args.source == "sstl" and (
            args.op not in ("somewhere", "everywhere") or args.anchor is None):
        raise _UsageError("error: sstl needs --op somewhere|everywhere and --anchor")
    if args.source == "strel":
        if args.op not in ("reach", "escape") or args.anchor is None:
            raise _UsageError("error: strel needs --op reach|escape and --anchor")
        if args.op == "reach" and not (args.inner and args.inner2):
            raise _UsageError("error: reach needs --inner (phi1) and --inner2 (phi2)")
        if not args.inner:
            raise _UsageError("error: escape needs --inner (phi)")


def cmd_translate(args) -> int:
    _check_translate_flags(args)
    run = io.load_run(args.run, args.graphs)
    if args.anchor is not None and not 1 <= args.anchor <= run.num_agents:
        raise ValueError(f"anchor {args.anchor} out of range 1..{run.num_agents}")
    inner = parse_local(args.inner) if args.inner else Truth()
    graphs = run.graphs

    if args.source in ("sastl", "sstl"):
        ds = shortest_distance_graph(
            run.graphs.at("d", args.time), "ds",
            nodes=range(1, run.num_agents + 1),
        )
        graphs = graphs.with_graph("ds", ds)
        if args.source == "sastl":
            raw = io.load_labels(args.labels) if args.labels else {}
            labels = normalize_labels(raw, run.num_agents)
            out = translate_sastl_count(
                args.psi, args.weights, args.cmp, args.count, inner, args.anchor,
                op=args.op or "sum", n_prime=args.n_prime,
            )
            graphs = graphs.with_graph(
                psi_graph_tag(args.psi, args.anchor),
                labeled_subgraph(ds, labels, args.psi, args.anchor),
            )
        else:
            out = translate_sstl(args.op, args.weights, inner, args.anchor)
    else:
        if args.op == "reach":
            out = translate_strel(
                "reach", args.weights, args.anchor, run, args.time,
                phi1=parse_local(args.inner), phi2=parse_local(args.inner2),
            )
        else:
            out = translate_strel(
                "escape", args.weights, args.anchor, run, args.time,
                phi=parse_local(args.inner),
            )

    _write_or_print(print_formula(out), args.out_formula)
    if args.out_graphs:
        io.save_graphs(graphs, args.out_graphs)
    return EXIT_SAT


def cmd_gen(args) -> int:
    if args.kind == "drone":
        run = gen_drone(
            DroneScenarioConfig(sigma=args.sigma, seed=args.seed, horizon=args.horizon)
        )
    else:
        run = gen_bike(
            BikeScenarioConfig(stations=args.stations, seed=args.seed, hours=args.hours)
        )
    io.save_run(run, args.out_run, args.out_graphs)
    print(f"wrote {args.out_run} and {args.out_graphs}")
    return EXIT_SAT


# ---------------------------------------------------------------------------
# drone case study (scripts/drone_case_study.py and the benchmark read these)


def drone_formulas(run: MasRun, sigma: int, anchor: int):
    """The four drone-surveillance properties, sized for sigma agents.

    Returns (name, formula, kind) triples; the run must carry the anchor's
    sensing/communication star graphs under the tags "si" / "ci".
    """
    win = F.TimeInterval(0, 2)
    safe_out = GraphOp(
        "out", "exists", ("d",), CountSet.single(sigma - 1, sigma - 1),
        WeightInterval(0.3, math.inf), Truth(),
    )
    phi3 = F.Always(safe_out, win)
    phi4 = F.Eventually(
        GraphOp("out", "forall", ("s", "c"), CountSet.single(1, sigma - 1),
                F.FULL_WEIGHTS, Truth()),
        win,
    )
    big_phi3 = Always(ForAllAgents(tuple(range(1, sigma + 1)), safe_out), win)

    def close_atom(j: int):
        # 1 - ||x^anchor - x^j||_2 >= 0
        dx = F.BinOp("-", F.AgentStateVar(anchor, 0), F.AgentStateVar(j, 0))
        dy = F.BinOp("-", F.AgentStateVar(anchor, 1), F.AgentStateVar(j, 1))
        dist = F.UnaryFn("sqrt", F.BinOp("+", F.BinOp("*", dx, dx), F.BinOp("*", dy, dy)))
        return GlobalAtom(F.BinOp("-", F.Const(1.0), dist))

    linked = GraphOp(
        "in", "exists", ("si", "ci"), CountSet.single(1, 1), F.FULL_WEIGHTS, Truth()
    )
    conjuncts = [
        Implies(close_atom(j), F.AgentBind(j, linked))
        for j in range(1, sigma + 1)
        if j != anchor
    ]
    big_phi4 = Always(join_left(And, conjuncts), win)

    return [
        ("phi3", phi3, "local"),
        ("phi4", phi4, "local"),
        ("Phi3", big_phi3, "global"),
        ("Phi4", big_phi4, "global"),
    ]


def with_anchor_graphs(run: MasRun, anchor: int) -> MasRun:
    """Attach the anchor's sensing/communication star subgraphs (si, ci)."""
    si = tuple(
        anchor_subgraph(run.graphs.at("s", t), anchor, "si")
        for t in range(run.length + 1)
    )
    ci = anchor_subgraph(run.graphs.at("c", 0), anchor, "ci")
    return run.with_graph("si", si).with_graph("ci", ci)


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="stlgo", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula file and print its canonical form")
    p.add_argument("formula")
    p.add_argument("--global", dest="global_", action="store_true",
                   help="use the system-level grammar")
    p.set_defaults(func=cmd_parse)

    def bundle_args(p):
        p.add_argument("--run", required=True, help="trajectory file (JSON)")
        p.add_argument("--graphs", required=True, help="graph file (JSON)")

    p = sub.add_parser("monitor", help="centralized Boolean monitoring")
    p.add_argument("--formula", required=True)
    bundle_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--agent", type=int, help="agent the local formula is imposed on")
    group.add_argument("--global", dest="global_", action="store_true")
    p.add_argument("--t0", type=int, default=0, help="time whose verdict sets the exit code")
    p.add_argument("--tmax", type=int, default=None, help="monitoring time T (default t0)")
    p.add_argument("--out", help="signal output file")
    p.add_argument("--strict-horizon", action="store_true",
                   help="fail instead of clamping bounded windows at the trace end")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("monitor-dist", help="distributed three-valued monitoring")
    p.add_argument("--formula", required=True)
    bundle_args(p)
    p.add_argument("--mask", required=True, help="knowledge mask file (JSON)")
    p.add_argument("--subject", type=int, default=None,
                   help="agent the formula is imposed on (default: the observer)")
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--out", help="ternary signal output file")
    p.add_argument("--report", help="determinability report output file (JSON)")
    p.add_argument("--strict-horizon", action="store_true")
    p.set_defaults(func=cmd_monitor_dist, global_=False)

    p = sub.add_parser("translate", help="encode counting/distance/trace properties")
    p.add_argument("--from", dest="source", required=True, choices=["sastl", "sstl", "strel"])
    bundle_args(p)
    p.add_argument("--labels", help="label file (JSON), for sastl")
    p.add_argument("--op", help="sum|avg (sastl), somewhere|everywhere (sstl), reach|escape (strel)")
    p.add_argument("--psi", help="label the counted agents must carry (sastl)")
    p.add_argument("--anchor", type=int, help="agent the property is anchored at")
    p.add_argument("--weights", type=_weights, default="-inf,inf",
                   help="distance window 'lo,hi'")
    p.add_argument("--cmp", choices=["<=", "<", ">=", ">", "="], help="count comparison (sastl)")
    p.add_argument("--count", type=float, help="count threshold c (sastl)")
    p.add_argument("--n-prime", type=int, default=None, help="neighbor total N' (sastl avg)")
    p.add_argument("--inner", help="inner formula text (phi; phi1 for reach)")
    p.add_argument("--inner2", help="phi2 for reach")
    p.add_argument("--time", type=int, default=0,
                   help="time step whose distance graph d the encoding is built on")
    p.add_argument("--out-formula", help="write the encoded formula here")
    p.add_argument("--out-graphs", help="write the augmented graph file here")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("gen", help="generate a seeded synthetic run")
    p.add_argument("kind", choices=["drone", "bike"])
    p.add_argument("--sigma", type=int, default=4, help="drone count")
    p.add_argument("--stations", type=int, default=10, help="bike station count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=80, help="drone run length")
    p.add_argument("--hours", type=int, default=24, help="bike run length")
    p.add_argument("--out-run", required=True)
    p.add_argument("--out-graphs", required=True)
    p.set_defaults(func=cmd_gen)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # SchemaError, InsufficientTraceError, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

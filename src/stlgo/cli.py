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
import sys
import time

from . import formula as F
from . import serialization as io
from .central import Evaluator, InsufficientTraceError, monitor_global, monitor_local
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
    lower,
)
from .model import MasRun, TimeOutOfRangeError, UnknownGraphTypeError
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

DATA_ERRORS = (
    UnknownGraphTypeError,
    TimeOutOfRangeError,
    InsufficientTraceError,
    io.SchemaError,
    ValueError,
    OSError,
)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_formula_file(path: str, global_mode: bool):
    """The formula in a file, or None once the reason it cannot be read or
    parsed is printed to stderr."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            src = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    try:
        return parse_global(src) if global_mode else parse_local(src)
    except ParseError as exc:
        print(exc.render(src), file=sys.stderr)
        return None


def _parse_weights(text: str) -> WeightInterval:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"weight interval must be 'lo,hi', got {text!r}")
    return WeightInterval(float(parts[0]), float(parts[1]))


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
    if f is None:
        return EXIT_USAGE
    print(print_formula(f))
    return EXIT_SAT


def _load_bundle(args) -> MasRun:
    return io.load_run(args.run, args.graphs)


def cmd_monitor(args) -> int:
    f = _read_formula_file(args.formula, args.global_)
    if f is None:
        return EXIT_USAGE
    try:
        run = _load_bundle(args)
        T = args.tmax if args.tmax is not None else args.t0
        if args.global_:
            signal = monitor_global(run, f, T, strict=args.strict_horizon)
        else:
            signal = monitor_local(run, f, args.agent, T, strict=args.strict_horizon)
        if args.out:
            io.save_signal(signal, args.out)
        verdict = signal.value_at(args.t0)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"s({args.t0}) = {verdict}")
    return EXIT_SAT if verdict == 1 else EXIT_VIOLATED


def cmd_monitor_dist(args) -> int:
    f = _read_formula_file(args.formula, False)
    if f is None:
        return EXIT_USAGE
    try:
        run = _load_bundle(args)
        mask = io.load_mask(args.mask, run.length)
        if args.observer is not None and mask.observer != args.observer:
            raise ValueError(
                f"mask observer mismatch: file says {mask.observer}, "
                f"--observer says {args.observer}"
            )
        subject = args.subject if args.subject is not None else mask.observer
        T = args.tmax if args.tmax is not None else args.t0
        signal = monitor_dist(run, mask, f, subject, T, strict=args.strict_horizon)
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
        verdict = signal.value_at(args.t0)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    shown = "?" if verdict is None else verdict
    print(f"s({args.t0}) = {shown}  determinable = {report.determinable}")
    if verdict is None:
        return EXIT_UNDETERMINED
    return EXIT_SAT if verdict == 1 else EXIT_VIOLATED


def cmd_translate(args) -> int:
    try:
        run = _load_bundle(args)
        weights = _parse_weights(args.weights)
        inner = parse_local(args.inner) if args.inner else Truth()
        graphs = run.graphs

        if args.source == "sastl":
            if args.psi is None or args.anchor is None or args.cmp is None or args.count is None:
                raise ValueError("sastl needs --psi, --anchor, --cmp, --count")
            raw = io.load_labels(args.labels) if args.labels else {}
            labels = normalize_labels(raw, run.num_agents)
            ds = shortest_distance_graph(
                run.graphs.at(args.d_tag, args.time), "ds",
                nodes=range(1, run.num_agents + 1),
            )
            psi_graph = labeled_subgraph(ds, labels, args.psi, args.anchor)
            out = translate_sastl_count(
                args.psi, weights, args.cmp, args.count, inner, args.anchor,
                op=args.op or "sum", n_prime=args.n_prime,
            )
            graphs = graphs.with_graph("ds", ds)
            graphs = graphs.with_graph(psi_graph_tag(args.psi, args.anchor), psi_graph)
        elif args.source == "sstl":
            if args.op not in ("somewhere", "everywhere") or args.anchor is None:
                raise ValueError("sstl needs --op somewhere|everywhere and --anchor")
            ds = shortest_distance_graph(
                run.graphs.at(args.d_tag, args.time), "ds",
                nodes=range(1, run.num_agents + 1),
            )
            out = translate_sstl(args.op, weights, inner, args.anchor)
            graphs = graphs.with_graph("ds", ds)
        elif args.source == "strel":
            if args.op not in ("reach", "escape") or args.anchor is None:
                raise ValueError("strel needs --op reach|escape and --anchor")
            if args.op == "reach":
                if not args.inner or not args.inner2:
                    raise ValueError("reach needs --inner (phi1) and --inner2 (phi2)")
                out = translate_strel(
                    "reach", weights, args.anchor, run, args.time,
                    phi1=parse_local(args.inner), phi2=parse_local(args.inner2),
                    d_tag=args.d_tag,
                )
            else:
                if not args.inner:
                    raise ValueError("escape needs --inner (phi)")
                out = translate_strel(
                    "escape", weights, args.anchor, run, args.time,
                    phi=parse_local(args.inner), d_tag=args.d_tag,
                )
        else:
            raise ValueError(f"unknown translation source {args.source!r}")

        _write_or_print(print_formula(out), args.out_formula)
        if args.out_graphs:
            io.save_graphs(graphs, args.out_graphs)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_SAT


def cmd_gen(args) -> int:
    try:
        if args.kind == "drone":
            run = gen_drone(
                DroneScenarioConfig(sigma=args.sigma, seed=args.seed, horizon=args.horizon)
            )
        else:
            run = gen_bike(
                BikeScenarioConfig(stations=args.stations, seed=args.seed, hours=args.hours)
            )
        io.save_run(run, args.out_run, args.out_graphs)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"wrote {args.out_run} and {args.out_graphs}")
    return EXIT_SAT


# ---------------------------------------------------------------------------
# benchmark


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
    body = conjuncts[0]
    for c in conjuncts[1:]:
        body = And(body, c)
    big_phi4 = Always(body, win)

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


def bench_scenario(sigma: int, steps: int, seed: int, anchor: int = 1):
    """Per-step monitoring of the four drone formulas over t in 0..steps.

    Each step evaluates the formula at that single time with a fresh
    evaluator, mirroring repeated one-shot monitoring; reported times are
    per-step means in milliseconds.
    """
    run = gen_drone(DroneScenarioConfig(sigma=sigma, seed=seed, horizon=steps + 2))
    run = with_anchor_graphs(run, anchor)
    rows = []
    for name, formula, kind in drone_formulas(run, sigma, anchor):
        core = lower(formula)
        agent = anchor if kind == "local" else None
        start = time.perf_counter()
        verdicts = [Evaluator(run).eval(core, agent, t) for t in range(steps + 1)]
        elapsed = time.perf_counter() - start
        sat = sum(verdicts)
        rows.append(
            {
                "sigma": sigma,
                "formula": name,
                "sat": sat,
                "vio": len(verdicts) - sat,
                "mean_ms": elapsed * 1000.0 / len(verdicts),
                "total_s": elapsed,
            }
        )
    return rows


def cmd_bench(args) -> int:
    try:
        sigmas = [int(s) for s in args.sigma.split(",")]
        all_rows = []
        print(f"{'sigma':>6} {'formula':>8} {'sat':>5} {'vio':>5} {'mean ms/step':>13}")
        for sigma in sigmas:
            for row in bench_scenario(sigma, args.steps, args.seed, args.anchor):
                all_rows.append(row)
                print(
                    f"{row['sigma']:>6} {row['formula']:>8} {row['sat']:>5} "
                    f"{row['vio']:>5} {row['mean_ms']:>13.3f}"
                )
        if args.out:
            io.save_report({"results": all_rows}, args.out)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_SAT


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
    p.add_argument("--observer", type=int, default=None,
                   help="cross-check against the mask file's observer")
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
    p.add_argument("--weights", default="-inf,inf", help="distance window 'lo,hi'")
    p.add_argument("--cmp", choices=["<=", "<", ">=", ">", "="], help="count comparison (sastl)")
    p.add_argument("--count", type=float, help="count threshold c (sastl)")
    p.add_argument("--n-prime", type=int, default=None, help="neighbor total N' (sastl avg)")
    p.add_argument("--inner", help="inner formula text (phi; phi1 for reach)")
    p.add_argument("--inner2", help="phi2 for reach")
    p.add_argument("--time", type=int, default=0, help="time step for trace enumeration")
    p.add_argument("--d-tag", default="d", help="distance graph tag")
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

    p = sub.add_parser("bench", help="per-step scaling benchmark on drone scenarios")
    p.add_argument("--sigma", default="4,10,50", help="comma list of agent counts")
    p.add_argument("--steps", type=int, default=80, help="monitor t in 0..steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--anchor", type=int, default=1)
    p.add_argument("--out", help="JSON results file")
    p.set_defaults(func=cmd_bench)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``, the timed set-up),
then yields one cycle of monitoring requests (``jobs``) that the runner
issues in a closed loop, one client, one request at a time. Every request is
issued the way a user issues it: the in-process CLI with files on disk for
``drone-files``, and the library calls on a run held in memory (formula
text parsed per request) for the others. Each job carries an untimed check
of its answer.

Why each workload exists, and which layer it stresses, is written in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable

import stlgo.central as central
import stlgo.cli as cli
import stlgo.distributed as distributed
import stlgo.parser as parser
import stlgo.scenario as scenario
import stlgo.serialization as serialization
import stlgo.translators as translators
from stlgo.distributed import KnowledgeMask
from stlgo.formula import WeightInterval, horizon
from stlgo.model import agent_neighbors

# central cells compared with the oracle per distinct answer, besides the
# first and last cell of the signal
ORACLE_SAMPLES = 6
ANCHOR = 1  # the drone formulas' Phi4 and the si/ci graphs are anchored here


@dataclass
class Job:
    """One monitoring request.

    ``request`` is the timed call. ``collect`` runs untimed right after it
    and turns the raw result (including files the request wrote) into a
    hashable answer. ``check`` maps an answer to (verdict cells, problems);
    the runner calls it once per distinct answer of the job.
    """

    key: str
    request: Callable[[], object]
    check: Callable[[Hashable], tuple[int, list[str]]]
    collect: Callable[[object], Hashable] = lambda raw: raw


class Checker:
    """Untimed correctness checks over one run.

    Central answers are compared with the direct-semantics oracle on a
    seeded sample of cells; distributed answers with the central signal of
    the same formula, subject and T, itself oracle-checked once.
    """

    def __init__(self, run, seed: int):
        self.run = run
        self.seed = seed
        self._central: dict = {}

    def oracle(self, key, f, agent, T, strict, signal) -> list[str]:
        _, t_max = horizon(f)
        end = T if strict else int(min(T + t_max, self.run.length))
        if (signal.t0, signal.t1) != (0, end):
            return [f"{key}: signal covers [{signal.t0}, {signal.t1}], expected [0, {end}]"]
        rng = random.Random(f"{self.seed}/{key}")
        times = {0, end} | set(rng.sample(range(end + 1), min(ORACLE_SAMPLES, end + 1)))
        problems = []
        for t in sorted(times):
            if agent is None:
                want = central.oracle_eval_global(self.run, f, t)
            else:
                want = central.oracle_eval(self.run, f, agent, t)
            if signal.value_at(t) != want:
                problems.append(f"{key}: t={t}: monitor {signal.value_at(t)}, oracle {want}")
        return problems

    def central_reference(self, text, f, agent, T, strict):
        ref_key = (text, agent, T, strict)
        if ref_key not in self._central:
            sig = central.monitor_local(self.run, f, agent, T, strict=strict)
            self._central[ref_key] = (sig, self.oracle(f"central {text} @{agent}", f, agent, T,
                                                       strict, sig))
        return self._central[ref_key]

    def dist(self, key, text, f, subject, T, strict, signal, determinable) -> list[str]:
        ref, problems = self.central_reference(text, f, subject, T, strict)
        problems = list(problems)
        if len(signal.values) != len(ref.values):
            problems.append(f"{key}: {len(signal.values)} cells, central has {len(ref.values)}")
        else:
            bad = [t for t, (d, c) in enumerate(zip(signal.values, ref.values))
                   if d is not None and d != c]
            if bad:
                problems.append(f"{key}: determined verdicts differ from central at t={bad[:5]}")
        if determinable and any(v is None for v in signal.values[: T + 1]):
            problems.append(f"{key}: reported determinable, but the signal has ? on [0, {T}]")
        return problems


# -- library requests (run held in memory) ----------------------------------


def central_job(chk: Checker, run, text: str, agent, T: int, strict: bool = False,
                where: str = "") -> Job:
    """monitor_local (agent given) or monitor_global (agent None) of formula
    text; ``where`` names the run in the job key when a workload has several."""
    key = f"{where}central {text} @{agent} T={T}"
    glob = agent is None
    f = parser.parse_global(text) if glob else parser.parse_local(text)

    def request():
        if glob:
            return central.monitor_global(run, parser.parse_global(text), T, strict=strict)
        return central.monitor_local(run, parser.parse_local(text), agent, T, strict=strict)

    def check(sig):
        return len(sig.values), chk.oracle(key, f, agent, T, strict, sig)

    return Job(key, request, check)


def dist_job(chk: Checker, run, text: str, mask_name: str, mask, subject: int, T: int,
             strict: bool = False, determinability: bool = True, where: str = "") -> Job:
    """monitor_dist, plus is_determinable when asked, of formula text."""
    key = f"{where}dist {text} @{subject} mask={mask_name} T={T}"
    f = parser.parse_local(text)

    def request():
        g = parser.parse_local(text)
        sig = distributed.monitor_dist(run, mask, g, subject, T, strict=strict)
        if not determinability:
            return sig, None
        return sig, distributed.is_determinable(run, mask, g, subject, T).determinable

    def check(answer):
        sig, determinable = answer
        return len(sig.values), chk.dist(key, text, f, subject, T, strict, sig, determinable)

    return Job(key, request, check)


# -- CLI requests (files on disk) ---------------------------------------------


def cli_request(argv: list[str]):
    def request():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return request


def _exit_problems(key, code, stdout, stderr, verdict, t0, dist: bool) -> list[str]:
    if verdict is None:
        expected = cli.EXIT_UNDETERMINED
    else:
        expected = cli.EXIT_SAT if verdict == 1 else cli.EXIT_VIOLATED
    problems = []
    if code != expected:
        problems.append(f"{key}: exit {code}, verdict at t0={t0} is {verdict} "
                        f"(expected exit {expected}); stderr: {stderr.strip()[:200]}")
    shown = "?" if verdict is None else verdict
    if not stdout.startswith(f"s({t0}) = {shown}" + ("  " if dist else "\n")):
        problems.append(f"{key}: printed {stdout.strip()!r} for verdict {shown}")
    return problems


def _file_digest(path: Path, keep: dict) -> str:
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    keep.setdefault(digest, data)
    return digest


# -- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    """A seeded workload; ``setup`` may be called several times (set-up time
    is the median), the last call's inputs serve the jobs."""

    seed: int
    size: dict
    work: Path
    state: dict = field(default_factory=dict)

    name = ""
    sizes = {}  # "full" and "tiny" input sizes
    # job_tail_s is this percentile of job latency: the highest of p99, p95,
    # p90, p80 and p75 that leaves at least 10 jobs beyond it at the
    # benchmark's run length. It is fixed per workload, not picked from each
    # run's job count: a run is whole cycles of the job list, so a fixed
    # percentile falls on the same job of the cycle however many cycles the
    # run holds, where a per-run pick moves from job to job with the count.
    tail_pct = 80

    def setup(self):
        raise NotImplementedError

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def rng(self, what: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{what}")


def _drone_texts(run, sigma: int) -> dict[str, str]:
    return {name: parser.print_formula(f)
            for name, f, _ in cli.drone_formulas(run, sigma, ANCHOR)}


def _half_swarm(rng: random.Random, observer: int, sigma: int, length: int) -> KnowledgeMask:
    others = [j for j in range(1, sigma + 1) if j != observer]
    half = rng.sample(others, sigma // 2)
    return KnowledgeMask(observer, frozenset((j, t) for j in half for t in range(length + 1)))


class DroneFiles(Workload):
    name = "drone-files"
    sizes = {"full": {"sigma": 30, "length": 80}, "tiny": {"sigma": 6, "length": 10}}

    def setup(self):
        sigma, L = self.size["sigma"], self.size["length"]
        run = scenario.gen_drone(scenario.DroneScenarioConfig(sigma=sigma, seed=self.seed,
                                                              horizon=L))
        run = cli.with_anchor_graphs(run, ANCHOR)
        paths = {k: self.work / f"{k}.json" for k in ("run", "graphs", "mask", "labels")}
        serialization.save_run(run, paths["run"], paths["graphs"])
        texts = _drone_texts(run, sigma)
        for name, text in texts.items():
            paths[name] = self.work / f"{name}.stlgo"
            paths[name].write_text(text + "\n", encoding="utf-8")
        rng = self.rng("inputs")
        observer = rng.randrange(1, sigma + 1)
        mask = _half_swarm(rng, observer, sigma, L)
        serialization.save_mask(mask, paths["mask"])
        labels = {j: {"H"} for j in rng.sample(range(1, sigma + 1), max(2, sigma // 3))}
        serialization.save_labels(labels, paths["labels"])
        self.state = dict(run=run, paths=paths, texts=texts, observer=observer, labels=labels)

    def jobs(self) -> list[Job]:
        run, paths = self.state["run"], self.state["paths"]
        sigma, L = self.size["sigma"], self.size["length"]
        chk = Checker(run, self.seed)
        rng = self.rng("jobs")
        T = L - 2  # the drone formulas have horizon 2: full signals over [0, L]
        agents = rng.sample(range(1, sigma + 1), 3)
        (out_dir := self.work / "out").mkdir(exist_ok=True)
        jobs = []
        for name, agent in (("phi3", agents[0]), ("phi4", agents[1]),
                            ("phi3", agents[2]), ("phi4", agents[0]),
                            ("Phi3", None), ("Phi4", None)):
            jobs.append(self._monitor(chk, name, agent, T, rng.randrange(T + 1), out_dir))
        for name in ("phi3", "phi4"):
            jobs.append(self._monitor_dist(chk, name, T, rng.randrange(T + 1), out_dir))
        jobs.append(self._translate(["--from", "sstl", "--op", "somewhere", "--anchor",
                                     str(agents[1]), "--weights", "0,3",
                                     "--inner", "[x[0] >= 4]"], out_dir))
        jobs.append(self._translate(["--from", "sstl", "--op", "everywhere", "--anchor",
                                     str(agents[0]), "--weights", "0,2",
                                     "--inner", "[x[1] >= 1]"], out_dir))
        jobs.append(self._translate(["--from", "sastl", "--labels", str(paths["labels"]),
                                     "--psi", "H", "--anchor", str(agents[2]),
                                     "--weights", "0,4", "--cmp", ">=", "--count", "2",
                                     "--inner", "[x[1] >= 4]"], out_dir))
        return jobs

    def _bundle(self) -> list[str]:
        p = self.state["paths"]
        return ["--run", str(p["run"]), "--graphs", str(p["graphs"])]

    def _monitor(self, chk, name, agent, T, t0, out_dir) -> Job:
        text = self.state["texts"][name]
        key = f"cli monitor {name} @{agent} T={T} t0={t0}"
        out = out_dir / f"monitor-{name}-{agent}.json"
        who = ["--global"] if agent is None else ["--agent", str(agent)]
        argv = (["monitor", "--formula", str(self.state["paths"][name])] + self._bundle()
                + who + ["--t0", str(t0), "--tmax", str(T), "--out", str(out)])
        f = parser.parse_global(text) if agent is None else parser.parse_local(text)

        def collect(raw):
            return raw + (serialization.load_signal(out),)

        def check(answer):
            code, stdout, stderr, sig = answer
            problems = chk.oracle(key, f, agent, T, False, sig)
            problems += _exit_problems(key, code, stdout, stderr, sig.value_at(t0), t0, False)
            return len(sig.values), problems

        return Job(key, cli_request(argv), check, collect)

    def _monitor_dist(self, chk, name, T, t0, out_dir) -> Job:
        text = self.state["texts"][name]
        observer = self.state["observer"]
        key = f"cli monitor-dist {name} @{observer} T={T} t0={t0}"
        out, report = out_dir / f"dist-{name}.json", out_dir / f"report-{name}.json"
        argv = (["monitor-dist", "--formula", str(self.state["paths"][name])] + self._bundle()
                + ["--mask", str(self.state["paths"]["mask"]), "--subject", str(observer),
                   "--t0", str(t0), "--tmax", str(T), "--out", str(out), "--report", str(report)])
        f = parser.parse_local(text)

        def collect(raw):
            determinable = json.loads(report.read_text(encoding="utf-8"))["determinable"]
            return raw + (serialization.load_signal(out), determinable)

        def check(answer):
            code, stdout, stderr, sig, determinable = answer
            problems = chk.dist(key, text, f, observer, T, False, sig, determinable)
            problems += _exit_problems(key, code, stdout, stderr, sig.value_at(t0), t0, True)
            return len(sig.values), problems

        return Job(key, cli_request(argv), check, collect)

    def _translate(self, options: list[str], out_dir) -> Job:
        opt = dict(zip(options[::2], options[1::2]))
        source = opt["--from"]
        key = f"cli translate {' '.join(options)}"
        stem = f"translate-{source}-{opt.get('--op', 'sum')}"
        out_formula = out_dir / f"{stem}.stlgo"
        out_graphs = out_dir / f"{stem}.json"
        argv = (["translate"] + options + self._bundle()
                + ["--out-formula", str(out_formula), "--out-graphs", str(out_graphs)])
        graph_files: dict[str, bytes] = {}

        def collect(raw):
            text = out_formula.read_text(encoding="utf-8").strip()
            return raw + (text, _file_digest(out_graphs, graph_files))

        def check(answer):
            code, _, stderr, text, digest = answer
            if code != cli.EXIT_SAT:
                return 0, [f"{key}: exit {code}: {stderr.strip()[:200]}"]
            want_text, want_graphs = self._expected_translation(source, opt)
            problems = []
            if text != want_text:
                problems.append(f"{key}: wrote {text!r}, expected {want_text!r}")
            scratch = out_dir / f"check-{stem}.json"
            scratch.write_bytes(graph_files[digest])
            got = serialization.load_graphs(scratch, want_graphs.length)
            if got != want_graphs:
                problems.append(f"{key}: augmented graph file differs from the expected graphs")
            return 0, problems

        return Job(key, cli_request(argv), check, collect)

    def _expected_translation(self, source, opt):
        run = self.state["run"]
        anchor = int(opt["--anchor"])
        lo, hi = (float(x) for x in opt["--weights"].split(","))
        weights = WeightInterval(lo, hi)
        inner = parser.parse_local(opt["--inner"])
        ds = translators.shortest_distance_graph(run.graphs.at("d", 0), "ds",
                                                 nodes=range(1, run.num_agents + 1))
        graphs = run.graphs.with_graph("ds", ds)
        if source == "sstl":
            out = translators.translate_sstl(opt["--op"], weights, inner, anchor)
        else:
            labels = translators.normalize_labels(self.state["labels"], run.num_agents)
            psi = opt["--psi"]
            graphs = graphs.with_graph(translators.psi_graph_tag(psi, anchor),
                                       translators.labeled_subgraph(ds, labels, psi, anchor))
            out = translators.translate_sastl_count(psi, weights, opt["--cmp"],
                                                    float(opt["--count"]), inner, anchor)
        return parser.print_formula(out), graphs


OBSERVER_FORMULAS = (
    "G[0,2](Out{s} E[0,2] (F[0,3](In{c} E[1,inf] [x[0] >= 4])))",
    "F[0,3](Out{d} E[2,inf] W[0,3] (G[0,2](In{s} E[0,1] [x[1] >= 3])))",
    "G[0,2](Out{d} E[1,inf] W[0,2] ([x[0] >= 2] & In{s} E[0,3] [x[1] <= 6]))",
)


class DroneObserver(Workload):
    """Several independent scenarios, so that one seed's geometry (how often
    drones meet) does not decide the run's cost alone."""

    name = "drone-observer"
    sizes = {"full": {"sigma": 20, "length": 40, "scenarios": 8, "subjects": 1},
             "tiny": {"sigma": 6, "length": 8, "scenarios": 2, "subjects": 1}}

    def setup(self):
        sigma, L = self.size["sigma"], self.size["length"]
        rng = self.rng("inputs")
        scenarios = []
        for k in range(self.size["scenarios"]):
            cfg = scenario.DroneScenarioConfig(sigma=sigma, seed=self.seed * 100 + k, horizon=L)
            run = scenario.gen_drone(cfg)
            masks = {}
            for s in rng.sample(range(1, sigma + 1), self.size["subjects"]):
                sensed = frozenset(
                    (e.dst, t)
                    for t in range(L + 1)
                    for e in run.graphs.at("d", t).oriented_edges(s, "out")
                    if e.weight <= cfg.sensing_radius
                )
                masks[s] = (("self", KnowledgeMask.self_only(s)),
                            ("half", _half_swarm(rng, s, sigma, L)),
                            ("radius", KnowledgeMask(s, sensed)))
            scenarios.append((run, masks))
        self.state = dict(scenarios=scenarios)

    def jobs(self) -> list[Job]:
        L = self.size["length"]
        jobs = []
        unit = 0
        for k, (run, masks) in enumerate(self.state["scenarios"]):
            chk = Checker(run, self.seed)
            for s, by_name in masks.items():
                # every formula once per subject; the mask rotates so that
                # each (formula, mask) pair occurs in the cycle
                for i, text in enumerate(OBSERVER_FORMULAS):
                    T = L - int(horizon(parser.parse_local(text))[1])
                    mask_name, mask = by_name[(unit + i) % len(by_name)]
                    jobs.append(dist_job(chk, run, text, mask_name, mask, s, T,
                                         where=f"run{k} "))
                unit += 1
        return jobs


BIKE_LOCAL = (
    "G[0,24]([x[0] < 5] -> Out{mt} E[5,inf] W[0,8] [x[0] >= 8])",
    "G[0,24]([x[1] > 15] -> In{d} E[0,4] W[0,2] [x[1] - x[2] > 5])",
)
BIKE_GLOBAL = (
    "FA{{{V}}}(G[0,24](Out{{d}} E[3,inf] W[0,1] [x[0] >= 8]))",
    "FA{{{V}}}(G[0,24]([x[0] < 2] -> Out{{mt}} E[3,inf] W[0,12] [x[0] >= 4]))",
)
# No station lends more bikes than it holds: true at every hour, so each
# unbounded window scans to the end of the trace.
BIKE_UNBOUNDED = (
    "G[0,inf]([x[2] <= x[0] + x[1]])",
    "[x[2] <= x[0] + x[1]] U[0,inf] [x[0] + x[1] < x[2]]",
)
# Determinability jobs run from two stations' views in each city.
BIKE_OBSERVERS = (1, 2)


class BikeLong(Workload):
    """Two independent cities per seed, each with the full job list, so that
    one city's layout and demand (how many trips, how dense the graphs) do
    not decide the run's cost alone."""

    name = "bike-long"
    tail_pct = 75  # 2 cycles of 24 jobs
    sizes = {"full": {"stations": 12, "hours": 10000, "unbounded_T": 20, "subjects": 1,
                      "cities": 2},
             "tiny": {"stations": 6, "hours": 60, "unbounded_T": 5, "subjects": 2,
                      "cities": 2}}

    def setup(self):
        cities = []
        for k in range(self.size["cities"]):
            run = scenario.gen_bike(scenario.BikeScenarioConfig(
                stations=self.size["stations"], seed=self.seed * 100 + k,
                hours=self.size["hours"]))
            csvs = [self.work / f"{k}-{name}.csv" for name in ("states", "distances", "times")]
            scenario.export_station_csv(run, *csvs)
            run = scenario.ingest_station_csv(*csvs)
            cities.append((run, {s: self._visibility_mask(run, s) for s in BIKE_OBSERVERS}))
        self.state = dict(cities=cities)

    @staticmethod
    def _visibility_mask(run, observer, d_radius=2.5, mt_minutes=7.0):
        """Stations within 2.5 miles on d or 7 minutes on mt, in either
        direction, are visible at every hour (the bike case study's view)."""
        visible = {observer}
        for tag, radius in (("d", d_radius), ("mt", mt_minutes)):
            for direction in ("in", "out"):
                visible |= agent_neighbors(run, tag, 0, observer, direction, (0.0, radius))
        pairs = frozenset((j, t) for j in visible for t in range(run.length + 1))
        return KnowledgeMask(observer, pairs)

    def jobs(self) -> list[Job]:
        n, L, Tu = self.size["stations"], self.size["hours"], self.size["unbounded_T"]
        T = L - 24  # the case-study properties have horizon 24: full signals
        jobs = []
        for k, (run, masks) in enumerate(self.state["cities"]):
            chk = Checker(run, self.seed)
            rng = self.rng(f"jobs-{k}")
            city = f"city{k} "
            core = ",".join(str(s) for s in sorted(rng.sample(range(1, n + 1), min(5, n))))
            jobs += [central_job(chk, run, text, s, T, where=city) for text in BIKE_LOCAL
                     for s in rng.sample(range(1, n + 1), self.size["subjects"])]
            a = rng.randrange(1, n + 1)
            jobs += [central_job(chk, run, text.format(V=core), None, T, where=city)
                     for text in BIKE_GLOBAL]
            jobs += [dist_job(chk, run, text, "visible", mask, s, T, where=city)
                     for s, mask in masks.items() for text in BIKE_LOCAL]
            # strict horizon keeps the signal on [0, Tu]; every window still runs to L
            jobs += [central_job(chk, run, text, a, Tu, strict=True, where=city)
                     for text in BIKE_UNBOUNDED]
            jobs += [dist_job(chk, run, text, "visible", masks[1], 1, Tu, strict=True,
                              determinability=False, where=city) for text in BIKE_UNBOUNDED]
        return jobs


WORKLOADS = {w.name: w for w in (DroneFiles, DroneObserver, BikeLong)}

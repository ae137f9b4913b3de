#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bike-long --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed (set-up, repeated and timed),
then issues its cycle of monitoring requests in a closed loop (one client,
one request at a time) until ``--seconds`` have passed, always ending on a
whole cycle. Every answer is checked for correctness after timing.

Every timed interval (a job or a set-up) is corrected for the host's speed:
a fixed pure-Python reference task is timed between consecutive intervals,
and each interval is scaled by ``REF_S`` over the mean of the reference
timings just before and just after it. The reported seconds are therefore
seconds at the speed where the reference takes ``REF_S``; the wall times
are kept in the result file. See README.md, "Host-speed correction".

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
each request runs twice, once plainly and once traced (alternating which
goes first), and the per-layer metrics come from the traced copies. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it are a readable
table and the provenance. The full result, and the spans of a traced run,
are written under ``.perfbench/results/``. The exit code is 0 only when
every answer was correct; the stlgo sources are taken from ``src/`` next to
this directory, and the run refuses to start without them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Nominal time of reference_work(): about its time at the fast end of the
# 2-vCPU host the benchmark was sized on. It only scales every reported time.
REF_S = 0.0025
JOB_REF_REPEATS = 2  # reference runs per tick: ~1.5 % of a typical job
SETUP_REF_REPEATS = 10  # set-ups are few, so each of their ticks is longer
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    return ap.parse_args(argv)


def import_stlgo():
    """Put the checkout's src/ first on the path and import stlgo from it."""
    if not (SRC / "stlgo" / "__init__.py").is_file():
        raise SystemExit(f"error: no stlgo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stlgo

    if Path(stlgo.__file__).resolve().parent != SRC / "stlgo":
        raise SystemExit(f"error: imported stlgo from {stlgo.__file__}, not from {SRC}")
    return stlgo


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(args, workload, stlgo) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": workload.size,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "stlgo": stlgo.__version__, "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# -- host-speed correction ----------------------------------------------------


def reference_work() -> int:
    """A fixed pure-Python task of dict, set, tuple and string work, the
    kind stlgo's kernels do, that uses nothing from stlgo."""
    counts: dict = {}
    seen = set()
    acc = 0
    for i in range(3000):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + i
        seen.add((k, i & 15))
        acc += len(str(k))
    return acc + len(sorted(counts.items(), key=lambda kv: kv[1])) + len(seen)


class HostSpeed:
    """Reference timings taken between timed intervals: ``tick()`` before
    each interval and once after the last, so that interval i ran between
    ``refs[i]`` and ``refs[i + 1]``. A tick is the mean of ``repeats``
    back-to-back runs of the reference, with the cyclic collector off so
    that a collection of the program's heap is not charged to the host."""

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.refs: list[float] = []

    def tick(self):
        gc.disable()
        start = time.perf_counter()
        for _ in range(self.repeats):
            reference_work()
        self.refs.append((time.perf_counter() - start) / self.repeats)
        gc.enable()

    def factor(self, i: int) -> float:
        return REF_S / ((self.refs[i] + self.refs[i + 1]) / 2)


# -- running jobs -------------------------------------------------------------


class Record:
    """One issued request. ``latency`` is its ``wall`` time times the
    host-speed ``factor``, set once the run's reference timings are in."""

    __slots__ = ("job", "job_id", "wall", "factor", "latency", "answer", "error", "traced",
                 "cells", "problems")

    def __init__(self, job, job_id, wall, answer, error, traced):
        self.job, self.job_id, self.wall, self.answer = job, job_id, wall, answer
        self.error, self.traced = error, traced
        self.factor = 1.0
        self.latency = wall
        self.cells = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def run_job(job, tracer, job_id: str) -> Record:
    traced = tracer is not None
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = job.request()
            latency = time.perf_counter() - start
        else:
            raw, root = tracer.run(job_id, job.request)
            end = time.perf_counter()
            latency = root.end - root.start
    except (Exception, SystemExit) as exc:
        return Record(job, job_id, time.perf_counter() - start, None,
                      f"{type(exc).__name__}: {exc}", traced)
    problems = []
    if traced and not start <= root.start <= root.end <= end:
        problems.append(f"{job.key}: root span [{root.start!r}, {root.end!r}] lies outside "
                        f"the call [{start!r}, {end!r}]")
    try:
        answer = job.collect(raw)
    except Exception as exc:
        return Record(job, job_id, latency, None, f"collect: {type(exc).__name__}: {exc}",
                      traced)
    rec = Record(job, job_id, latency, answer, None, traced)
    rec.problems = problems
    return rec


def measure(jobs, seconds: float, tracer) -> list[Record]:
    """Closed loop over whole cycles of the job list until the time is up.

    With a tracer, each job runs untraced and traced back to back, the
    order alternating from one job to the next. Each request is preceded
    by a reference timing, and its latency corrected with the timings
    around it.
    """
    records = []
    speed = HostSpeed(JOB_REF_REPEATS)
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or not records:
        for job in jobs:
            for traced in ((False,) if tracer is None else
                           (False, True) if k % 2 == 0 else (True, False)):
                speed.tick()
                records.append(run_job(job, tracer if traced else None,
                                       f"job-{k}" if tracer else ""))
            k += 1
    speed.tick()
    for i, rec in enumerate(records):
        rec.factor = speed.factor(i)
        rec.latency = rec.wall * rec.factor
    return records


def check_records(records):
    """Untimed: check every answer, once per distinct (job, answer)."""
    verdicts: dict = {}
    for rec in records:
        if rec.error is not None:
            continue
        key = (rec.job.key, rec.answer)
        if key not in verdicts:
            try:
                verdicts[key] = rec.job.check(rec.answer)
            except Exception as exc:
                verdicts[key] = (0, [f"{rec.job.key}: check raised {type(exc).__name__}: {exc}"])
        cells, problems = verdicts[key]
        rec.cells, rec.problems = cells, rec.problems + problems


# -- metrics ------------------------------------------------------------------


def tail(latencies, pct):
    """(the pct latency by nearest rank, jobs beyond it, sample count)."""
    xs = sorted(latencies)
    rank = math.ceil(pct / 100 * len(xs))
    return xs[rank - 1], len(xs) - rank, len(xs)


def end_to_end(records, setup_times, tail_pct) -> tuple[dict, str]:
    lat = [r.latency for r in records]
    value, beyond, n = tail(lat, tail_pct)
    failed = sum(r.failed for r in records)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdicts_per_s": (sum(r.cells for r in records) / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    table = [f"  {name:<16} {v:>14.6g} {unit}" for name, (v, unit) in metrics.items()]
    table[0] += f"   (median of {len(setup_times)} set-ups)"
    table[3] += f"   (p{tail_pct} of {n} jobs, {beyond} beyond)"
    table.append(f"  {'fail_ratio':<16} {failed / len(records):>14.6g} ratio"
                 f"   ({failed} of {len(records)} jobs)")
    return metrics, "\n".join(table)


def per_layer(tracer, traced, untraced, factors) -> dict:
    """Per-layer metrics from the spans; ``factors`` maps each traced job id
    and set-up id to its host-speed factor, which scales its self times.
    Also checks, per traced job, that every span lies inside its parent and
    after its previous sibling, which is what makes self times partition the
    job's wall time; a job where that fails is marked failed."""
    from spans import LAYERS, nesting_problems, self_times

    spans = tracer.spans
    setup_ids = {job for job in factors if job.startswith("setup-")}
    own = [t * factors[s.job] for s, t in zip(spans, self_times(spans))]
    jobs = {}
    for s, t in zip(spans, own):
        jobs.setdefault(s.job, []).append((s, t))
    n_jobs = len(traced)

    def job_total(pred, value):
        return sum(value(s, t) for job, ss in jobs.items() if job not in setup_ids
                   for s, t in ss if pred(s))

    def per_job(pred, value):
        return job_total(pred, value) / n_jobs

    def per_setup(pred, value):
        return sum(value(s, t) for job in setup_ids for s, t in jobs.get(job, ()) if pred(s)) \
            / len(setup_ids)

    def is_(layer, op=None):
        return lambda s: s.layer == layer and (op is None or s.op == op)

    def self_s(s, t):
        return t

    def count(name):
        return lambda s, t: s.counts.get(name, 0)

    def ratio(num, den):
        d = job_total(den[0], den[1])
        return job_total(num[0], num[1]) / d if d else 0.0

    dist_mon, det = is_("distributed", "monitor"), is_("distributed", "determinability")
    m = {
        "scenario.gen_s": (per_setup(is_("scenario", "gen"), self_s), "s"),
        "scenario.edges": (per_setup(is_("scenario", "gen"), count("edges")), "count"),
        "scenario.export_s": (per_setup(is_("scenario", "export"), self_s), "s"),
        "scenario.ingest_s": (per_setup(is_("scenario", "ingest"), self_s), "s"),
        "serialization.load_s": (per_job(is_("serialization", "load"), self_s), "s"),
        "serialization.save_s": (per_job(is_("serialization", "save"), self_s), "s"),
        "serialization.bytes": (per_job(is_("serialization"), count("bytes")), "bytes"),
        "parser.parse_s": (per_job(is_("parser"), self_s), "s"),
        "formula.lower_s": (per_job(is_("formula"), self_s), "s"),
        "formula.core_nodes": (per_job(is_("formula"), count("core_nodes")), "count"),
        "central.monitor_s": (per_job(is_("central"), self_s), "s"),
        "central.cells": (per_job(is_("central"), count("cells")), "count"),
        "distributed.monitor_s": (per_job(dist_mon, self_s), "s"),
        "distributed.cells": (per_job(dist_mon, count("cells")), "count"),
        "distributed.unknown_ratio": (ratio((dist_mon, count("unknown")),
                                           (dist_mon, count("cells"))), "ratio"),
        "distributed.determinability_s": (per_job(det, self_s), "s"),
        "distributed.determinable_ratio": (ratio((det, count("determinable")),
                                                 (det, lambda s, t: 1)), "ratio"),
        "distributed.failure_pairs": (per_job(det, count("failure_pairs")), "count"),
        "translators.translate_s": (per_job(is_("translators"), self_s), "s"),
        "translators.edges_out": (per_job(is_("translators"), count("edges_out")), "count"),
        "cli.self_s": (per_job(lambda s: s.layer in ("cli", "job"), self_s), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.failed"] = (float(sum(1 for s in spans if s.layer == layer and s.failed)),
                                "count")
    traced_p50 = statistics.median(r.latency for r in traced)
    untraced_p50 = statistics.median(r.latency for r in untraced)
    m["trace.job_mean_s"] = (statistics.fmean(r.latency for r in traced), "s")
    m["trace.job_p50_s"] = (traced_p50, "s")
    m["trace.untraced_job_p50_s"] = (untraced_p50, "s")
    m["trace.overhead"] = (traced_p50 / untraced_p50 - 1.0, "ratio")

    bad_jobs = {spans[i].job: problem for i, problem in nesting_problems(spans)}
    for rec in traced:
        if rec.job_id in bad_jobs:
            rec.problems.append(f"{rec.job.key}: {bad_jobs[rec.job_id]}")
    return m


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    stlgo = import_stlgo()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    try:
        workload = cls(args.seed, cls.sizes[args.size], work)
        tracer = Tracer() if args.trace else None
        speed = HostSpeed(SETUP_REF_REPEATS)
        wall_setup_times = []
        for rep in range(SETUP_REPEATS):
            workload.state = {}
            gc.collect()
            speed.tick()
            start = time.perf_counter()
            if tracer is None:
                workload.setup()
            else:
                tracer.run(f"setup-{rep}", workload.setup, root_layer="setup")
            wall_setup_times.append(time.perf_counter() - start)
        speed.tick()
        factors = {f"setup-{rep}": speed.factor(rep) for rep in range(len(wall_setup_times))}
        setup_times = [t * factors[f"setup-{rep}"] for rep, t in enumerate(wall_setup_times)]
        jobs = workload.jobs()
        # The inputs live for the whole run; keep the cyclic collector from
        # re-scanning them during jobs, as it would not in a CLI user's fresh
        # process (and rarely does in a library user's long-lived one).
        gc.collect()
        gc.freeze()

        records = measure(jobs, args.seconds, tracer)
        check_records(records)
        if tracer is None:
            metrics, table = end_to_end(records, setup_times, workload.tail_pct)
        else:
            traced = [r for r in records if r.traced]
            untraced = [r for r in records if not r.traced]
            factors.update((r.job_id, r.factor) for r in traced)
            metrics = per_layer(tracer, traced, untraced, factors)
            table = "\n".join(f"  {name:<32} {v:>14.6g} {unit}"
                              for name, (v, unit) in metrics.items())
        failed = [r for r in records if r.failed]
        prov = provenance(args, workload, stlgo)

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"{len(records)} jobs ({len(jobs)} per cycle), {len(failed)} failed")
        print(table)
        problems = [f"{r.job.key}: {r.error}" for r in failed if r.error] + \
                   [p for r in failed for p in r.problems]
        for p in sorted(set(problems))[:20]:
            print(f"FAILED {p}", file=sys.stderr)
        correct = not failed

        result = {
            "correct": correct, "attempted": len(records), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        detail = dict(result, provenance=prov, setup_times=setup_times,
                      wall_setup_times=wall_setup_times,
                      wall_job_p50_s=statistics.median(r.wall for r in records),
                      problems=sorted(set(problems)),
                      jobs=summarize_jobs(records))
        stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
        if tracer is not None:
            with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(vars(s)) + "\n")
        print("provenance " + json.dumps(prov))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize_jobs(records) -> dict:
    by_key: dict = {}
    for r in records:
        by_key.setdefault(r.job.key, []).append(r)
    return {
        key: {"runs": len(rs), "median_s": statistics.median(r.latency for r in rs),
              "wall_median_s": statistics.median(r.wall for r in rs),
              "cells": rs[0].cells, "failed": sum(r.failed for r in rs)}
        for key, rs in by_key.items()
    }


if __name__ == "__main__":
    sys.exit(main())

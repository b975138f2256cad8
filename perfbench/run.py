"""Benchmark of the ``decomp`` command line, driven in-process through ``cli.main``.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One client, one process, no threads: each job is one ``decomp`` command run
after the previous one returned (a closed loop).  A run sets up the seeded
inputs, then repeats passes over the workload's fixed job list for the given
seconds and checks every verdict outside the timed region.  ``--trace 1``
instead runs an untraced, a traced and another untraced pass and reports
the per-layer metrics.  ``--workload all`` runs every workload in its own
fresh process and prints one table.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are CPU seconds of this process (``time.process_time``).  A job is
single-threaded and does no I/O, so on a quiet machine its CPU time is its
wall time; on a shared virtual machine, CPU time leaves out the time the
hypervisor gives the processor to other guests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

# Set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have
# passed (at most SETUP_MAX_REPEATS); setup_s is the median.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 1.5
# Jobs whose first run in a pass is shorter than SHORT_JOB_S are run again in
# round-robin rounds, until the rounds have taken ROUNDS_S or MAX_ROUNDS have
# run, and each one's time in the pass is its fastest run.  The host's speed
# swings by up to a half, over seconds to tens of seconds; millisecond jobs,
# which job_geomean_s weighs most, would otherwise each catch one moment of it.
SHORT_JOB_S = 0.1
ROUNDS_S = 12.0
MAX_ROUNDS = 100

UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "job_geomean_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


@dataclass
class Outcome:
    code: int | None
    out: str
    elapsed: float
    failure: str | None = None  # None, or why the job counts as failed
    wrong: bool = False  # an answer that contradicts the expected verdict


def run_job(main, job, limit: float) -> Outcome:
    """One ``decomp`` command on the job's stdin text, cut off after ``limit`` s."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin), out, io.StringIO()
    code, failure = None, None
    start = process_time()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            code = main(list(job.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = process_time() - start
    except JobTimeout:
        elapsed, failure = process_time() - start, f"exceeded the {limit:g} s limit"
    except Exception as exc:  # a crash is one failed job, not a failed run
        elapsed, failure = process_time() - start, f"raised {exc!r}"
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Outcome(code, out.getvalue(), elapsed, failure)


def run_pass(main, jobs, limit, tracer=None) -> list[Outcome]:
    """One pass over the job list; with a tracer, each job runs once inside a
    job span and lattice-building jobs get their probes afterwards."""
    outcomes = []
    probed = set()
    for job in jobs:
        gc.collect()
        if tracer is None:
            outcomes.append(run_job(main, job, limit))
            continue
        tracer.job = job.id
        with tracer.span("cli.job"):
            outcomes.append(run_job(main, job, limit))
        tracer.job = None
        if job.argv[0] in ("decompose", "lattice") and job.stdin not in probed:
            probed.add(job.stdin)
            tracer.probe_lattice(job.dfa)
    return outcomes


def rerun_short(main, jobs, outcomes, limit) -> None:
    """Time each short job as the fastest of its runs in round-robin rounds;
    a rerun must repeat the first run's exit code and output."""
    short = [(job, o) for job, o in zip(jobs, outcomes) if o.failure is None and o.elapsed < SHORT_JOB_S]
    if not short:
        return
    fastest = [o.elapsed for _, o in short]
    spent = 0.0
    for _ in range(MAX_ROUNDS):
        for i, (job, first) in enumerate(short):
            again = run_job(main, job, limit)
            spent += again.elapsed
            fastest[i] = min(fastest[i], again.elapsed)
            if first.failure is None and (
                again.failure or (again.code, again.out) != (first.code, first.out)
            ):
                first.failure = again.failure or "output differs between repeated runs"
                first.wrong = again.failure is None
        if spent >= ROUNDS_S:
            break
    for (_, outcome), elapsed in zip(short, fastest):
        outcome.elapsed = elapsed


def judge(jobs, passes: list[list[Outcome]]) -> None:
    """Mark each outcome failed or wrong.  The first outcome with the expected
    exit code is checked in full; every later one must repeat it exactly."""
    import checks

    lattice_errors = {}
    for job in jobs:
        if job.dfa.n <= 9 and job.stdin not in lattice_errors:
            lattice_errors[job.stdin] = checks.lattice_size(job.dfa)
    for i, job in enumerate(jobs):
        reference = None
        for outcome in (p[i] for p in passes):
            if outcome.failure is not None:
                continue
            if outcome.code != job.expect_exit:
                outcome.failure = f"exit {outcome.code}, expected {job.expect_exit}"
                outcome.wrong = outcome.code in (0, 1)
            elif reference is None:
                reference = outcome
                try:
                    reason = lattice_errors.get(job.stdin) or job.check(outcome.out)
                except Exception as exc:  # output the check cannot even read
                    reason = f"unreadable output: {exc!r}"
                if reason:
                    outcome.failure, outcome.wrong = reason, True
            elif outcome.out != reference.out:
                outcome.failure, outcome.wrong = "output differs from an earlier pass", True


def charged(outcome: Outcome, limit: float) -> float:
    return limit if outcome.failure else outcome.elapsed


def setup(name: str, seed: int, workdir: Path, preloaded: set[str]):
    """Import the package and every module it pulls in afresh, then build and
    serialize the workload's inputs."""
    for module in set(sys.modules) - preloaded:
        del sys.modules[module]
    gc.collect()  # each repeat starts from the same heap
    start = process_time()
    importlib.import_module("dfadecomp.cli")
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    workloads.write_files(workload, workdir)
    return workload, process_time() - start


def job_table(jobs, passes, limit) -> list[str]:
    """One line per job: median charged time over passes, and any failure."""
    lines = []
    for i, job in enumerate(jobs):
        median = statistics.median(charged(p[i], limit) for p in passes)
        reasons = sorted({p[i].failure for p in passes if p[i].failure})
        lines.append(f"  {job.id:42} {median:10.4f} s  {'; '.join(reasons) or 'ok'}")
    return lines


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"work-{os.getpid()}"
    signal.signal(signal.SIGALRM, _alarm)
    preloaded = set(sys.modules)
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
        ):
            workload = None  # let the previous repeat's inputs go first
            workload, elapsed = setup(name, seed, workdir, preloaded)
            setup_times.append(elapsed)
        # The benchmark's own objects (every job's input automaton) stay out
        # of the collector's way, as they would in a one-command process.
        gc.collect()
        gc.freeze()
        limit = workload.limit_s
        jobs = workload.jobs
        main = sys.modules["dfadecomp.cli"].main
        if trace:
            return _traced(name, seed, jobs, main, limit)
        passes = []
        began = perf_counter()
        while True:
            start = perf_counter()
            passes.append(run_pass(main, jobs, limit))
            rerun_short(main, jobs, passes[-1], limit)
            if len(passes) == 1:
                # Later passes can only add allocator fragmentation.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wall = perf_counter() - start
            if perf_counter() - began + wall > seconds:
                break
        judge(jobs, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(job_table(jobs, passes, limit)))
    per_job = [
        statistics.median(charged(p[i], limit) for p in passes) for i in range(len(jobs))
    ]
    outcomes = [o for p in passes for o in p]
    failed = sum(o.failure is not None for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "batch_s": statistics.median(sum(charged(o, limit) for o in p) for p in passes),
        "job_geomean_s": math.exp(statistics.fmean(math.log(t) for t in per_job)),
        "ok_share": 1 - failed / len(outcomes),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"# {name}: {len(jobs)} jobs x {len(passes)} passes, job limit {limit:g} s")
    return _result(outcomes, {k: (v, UNITS[k]) for k, v in metrics.items()})


def _traced(name, seed, jobs, main, limit) -> dict:
    from tracing import Tracer

    before = run_pass(main, jobs, limit)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(main, jobs, limit, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(main, jobs, limit)
    passes = [before, traced, after]
    judge(jobs, passes)
    print("\n".join(job_table(jobs, passes, limit)))
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{name}-{seed}.json"
    spans_file.write_text(json.dumps(tracer.to_json()))
    layers = tracer.layer_metrics()
    # Untraced passes on both sides of the traced one cancel slow drift.
    job_spans = [s for s in tracer.spans if s[0] == "cli.job"]
    both = [
        ((a.elapsed + c.elapsed) / 2, s[2] - s[1])
        for a, b, c, s in zip(before, traced, after, job_spans)
        if not (a.failure or b.failure or c.failure)
    ]
    untraced = sum(a for a, _ in both)
    layers["trace.overhead_share"] = (sum(t for _, t in both) - untraced) / untraced
    print(f"# {name}: {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    for hook in tracer.missing:
        print(f"# warning: {hook} not found; the metrics it feeds read 0")
    return _result(before + traced + after, {k: (v, per_layer_unit(k)) for k, v in layers.items()})


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def _result(outcomes, metrics) -> dict:
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_process(name: str, seed: int, seconds, trace: int = 0) -> tuple[list[str], dict]:
    """One workload in a fresh process: its report lines and its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: workload {name}, seed {seed} exited with {proc.returncode}")
    *report, last = proc.stdout.splitlines()
    return report, json.loads(last)


def run_all(args) -> int:
    """Each workload in its own fresh process, one table at the end."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        report, rows[name] = run_process(name, args.seed, args.seconds, args.trace)
        print("\n".join(report))
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':34}" + "".join(f"{w:>16}" for w in rows))
    for metric in names:
        unit = rows[next(iter(rows))]["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in rows.values())
        print(f"{metric + ' [' + unit + ']':34}{cells}")
    print(json.dumps(rows))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["decompose", "oracle", "large", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dfadecomp" / "cli.py").is_file():
        print(f"error: no dfadecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, entry in result["metrics"].items():
        print(f"{key:34} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

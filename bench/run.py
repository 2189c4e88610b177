"""loopideal benchmark: three exact-algebra workloads, timed and checked.

    python3 bench/run.py --workload moment_ideals --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1        # every workload, one child process each

Load: one process, one thread, one caller, closed loop: each job is one
user request and the next starts when the previous returns.  With
`--trace 0` the run makes a fixed number of rounds, `--seconds` over the
workload's nominal round time and at least one (one pass over every job,
then two more over the jobs shorter than a quarter second), and prints the
end-to-end metrics.  With `--trace 1` it makes one plain pass and then one
traced pass and prints the per-layer metrics.  Every pass runs on a fresh
set-up, so no program state outlives a pass.  Every result is checked
against `oracle.py` before the next job starts, and any failed job makes
the run incorrect.  Times are reported in reference seconds (see
`calibrate`).  The last stdout line is one JSON object; a run record and,
when traced, the spans go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("moment_ideals", "closed_forms", "orbits")
SETUP_REPS = 11
# The shared machine's speed wanders by a quarter over seconds, so a short
# job is timed as the median of runs in separate passes.
REPEATS = 3
REPEAT_BELOW_S = 0.25
# reference seconds of job time in one round at the parent commit; only
# `--seconds` and these set the number of rounds, never the measured speed
ROUND_S = {"moment_ideals": 17.0, "closed_forms": 22.0, "orbits": 9.0}
# per-job wall-time limit; the slowest job at the parent commit takes ~10 s
JOB_LIMIT_S = 60.0
# Reference speed: calibrate() takes this long when the machine runs at the
# fastest speed seen on the 2-core machine the benchmark was built on.
REFERENCE_CALIBRATION_S = 0.0033
# CPU seconds between speed probes inside a long job
PROBE_S = 0.5

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


@contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def calibrate() -> float:
    """Seconds for a fixed piece of exact rational arithmetic.

    On a shared machine the speed of the same code wanders by a factor of up
    to two over seconds and minutes.  `Speed` rescales every timing to
    reference speed with it, so that a run's figures do not depend on how
    busy its neighbours were.  The loop is benchmark code: no program
    change can make it faster.
    """
    start = perf_counter()
    x, table = Fraction(1, 3), {}
    for i in range(1000):
        x = x * Fraction(i + 1, i + 2) + 1
        table[i % 97] = x
    return perf_counter() - start


class Speed:
    """The machine's speed around, and during, one timed call.

    It calibrates on creation, every PROBE_S of CPU time while entered (a
    profiling-timer signal runs the probe between bytecodes), and again in
    `rescale`, which turns the call's wall time, less the probes' own time,
    into reference seconds at the mean measured speed.
    """

    def __init__(self, probing: bool = True):
        self.samples = [calibrate()]
        self.spent = 0.0
        self.probing = probing

    def _probe(self, signum, frame):
        start = perf_counter()
        self.samples.append(calibrate())
        self.spent += perf_counter() - start

    def __enter__(self):
        if self.probing:
            signal.signal(signal.SIGPROF, self._probe)
            signal.setitimer(signal.ITIMER_PROF, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        if self.probing:
            signal.setitimer(signal.ITIMER_PROF, 0)

    def rescale(self, wall: float) -> float:
        self.samples.append(calibrate())
        return (wall - self.spent) * REFERENCE_CALIBRATION_S / statistics.mean(self.samples)


def setup(workload: str, seed: int):
    """Import loopideal afresh, build the seeded corpus, parse and write it."""
    for name in [m for m in sys.modules if m == "loopideal" or m.startswith("loopideal.")]:
        del sys.modules[name]
    li = importlib.import_module("loopideal")
    importlib.import_module("loopideal.cli")
    specs = corpus.BUILDERS[workload](li, seed)
    return li, workloads.make_jobs(li, specs, OUT / "inputs" / workload)


def run_pass(li, jobs, limit=JOB_LIMIT_S, tracer=None) -> list[dict]:
    """Run every job once, in order, and check its result before the next.

    The oracle and the check are neither timed nor traced, and the result
    is dropped before the next job starts.
    """
    outcomes = []
    for i, job in enumerate(jobs):
        # a full collection first, so each run pays for its own garbage only
        gc.collect()
        if tracer:
            tracer.start_job(i)
        result, status = None, "ok"
        # probes inside a traced call would land in its spans
        speed = Speed(probing=tracer is None)
        start = perf_counter()
        try:
            with time_limit(limit), speed:
                result = job.run()
        except JobTimeout:
            status = "timeout"
        except li.ToolkitError as exc:
            status = f"error: {exc.name}: {exc}"
        wall = perf_counter() - start
        latency = speed.rescale(wall)
        if status == "ok":
            with tracer.paused() if tracer else nullcontext():
                reason = job.check(result, job.oracle())
            if reason is not None:
                status = f"wrong: {reason}"
        del result
        outcomes.append({"job": job.label, "status": status, "latency_s": latency, "wall_s": wall})
    return outcomes


def fresh_jobs(workload, seed, oracles=None):
    """A fresh set-up's jobs: loopideal imported afresh and every input
    parsed again, so nothing the program cached in an earlier pass is left.
    Jobs take their (untimed) reference data from `oracles` when given."""
    li, jobs = setup(workload, seed)
    if oracles:
        for job in jobs:
            job.oracle = oracles[job.label]
    return li, jobs


def run_round(workload, seed) -> list[dict]:
    """One pass over every job, then REPEATS - 1 passes over the short ones,
    each pass on a fresh set-up.

    A job's latency is the median of its runs in the round, and its status
    the first failure among them.
    """
    li, jobs = fresh_jobs(workload, seed)
    first = run_pass(li, jobs)
    oracles = {job.label: job.oracle for job in jobs}
    short = {o["job"] for o in first if o["status"] == "ok" and o["latency_s"] < REPEAT_BELOW_S}
    runs = {o["job"]: [o] for o in first}
    for _ in range(REPEATS - 1):
        li, jobs = fresh_jobs(workload, seed, oracles)
        for o in run_pass(li, [job for job in jobs if job.label in short]):
            runs[o["job"]].append(o)
    return [
        {
            "job": label,
            "status": next((o["status"] for o in rs if o["status"] != "ok"), "ok"),
            "latency_s": statistics.median(o["latency_s"] for o in rs),
            "runs_s": [o["latency_s"] for o in rs],
            "wall_s": [o["wall_s"] for o in rs],
        }
        for label, rs in runs.items()
    ]


def end_to_end(outcomes, setup_times) -> dict:
    """The end-to-end metrics, in reference seconds.

    Failed jobs count against `jobs_per_s` only; any failure also makes the
    run incorrect.
    """
    ok = [o["latency_s"] for o in outcomes if o["status"] == "ok"]
    return {
        "setup_s": statistics.median(setup_times),
        # one caller, closed loop: throughput is one over the mean latency
        "jobs_per_s": len(ok) / sum(o["latency_s"] for o in outcomes),
        "job_p50_s": statistics.median(ok),
        # the highest percentile with at least ten samples beyond it in one pass
        "job_p80_s": statistics.quantiles(ok, n=10)[7],
        "job_max_s": max(ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(args, declared) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    setup_times, setup_walls = [], []
    for _ in range(SETUP_REPS):
        speed = Speed(probing=False)
        start = perf_counter()
        li, jobs = setup(args.workload, args.seed)
        setup_walls.append(perf_counter() - start)
        setup_times.append(speed.rescale(setup_walls[-1]))

    if args.trace:
        # one run per job, so every count is a function of the inputs
        plain = run_pass(li, jobs)
        li, jobs = fresh_jobs(args.workload, args.seed, {job.label: job.oracle for job in jobs})
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_pass(li, jobs, tracer=tracer)
        rounds = [plain, traced]
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = sum(o["wall_s"] for o in traced) - sum(
            o["wall_s"] for o in plain
        )
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted = declared["per_layer"]
    else:
        count = max(1, round(args.seconds / ROUND_S[args.workload]))
        rounds = [run_round(args.workload, args.seed) for _ in range(count)]
        metrics = end_to_end([o for p in rounds for o in p], setup_times)
        wanted = declared["end_to_end"]

    outcomes = [o for p in rounds for o in p]
    failed = [o for o in outcomes if o["status"] != "ok"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "jobs": len(jobs),
        "rounds": len(rounds),
        "attempted": len(outcomes),
        "failed": len(failed),
        "error_rate": len(failed) / len(outcomes),
        "setup_s": setup_times,
        "setup_wall_s": setup_walls,
        "metrics": metrics,
        "outcomes": rounds,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"nproc {record['nproc']}  python {record['python']}  commit {record['commit'][:12]}  "
        f"jobs {len(jobs)}  rounds {len(rounds)}"
    )
    for o in failed:
        print(f"  FAILED {o['job']}: {o['status']}")
    print(f"  {'error_rate':44s} {record['error_rate']:.4f} ({len(failed)}/{len(outcomes)})")
    result = {}
    for m in wanted:
        name = m["name"]
        result[name] = {"value": metrics[name], "unit": m["unit"]}
        print(f"  {name:44s} {metrics[name]:.6g} {m['unit']}")
    # every job completes and passes its check at the parent commit, so a
    # timeout or an error is as wrong as a wrong answer
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": result,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, so peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(child.stdout, end="")
        if child.returncode != 0:
            return child.returncode
        last = json.loads(child.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "loopideal" / "__init__.py").is_file():
        print(f"bench: no loopideal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, declared)


if __name__ == "__main__":
    sys.exit(main())

"""gpt-kit benchmark: seeded closed-loop workloads, checked outputs.

    python3 bench/run.py --workload tensor-enum --seed 1 --seconds 30 --trace 0

One process, one client, no threads: each job (a library analysis or an
in-process CLI pipeline) runs only after the previous one has finished
and been checked. Run from a checkout; the package is imported from its
src/ directory. See bench/README.md for the workloads and metrics.

--trace 0 prints the end-to-end metrics, with times scaled to a reference
machine speed by speed.py. --trace 1 runs every job twice, untraced and
traced, and prints the per-layer metrics (measured times); the two runs
of a job must produce identical outputs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every job's
output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from speed import SpeedProbe, timed_plain

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7  # set-up is timed this many times, in fresh processes
OVERRUN = 2.0  # stop after the round in which job time passes this x --seconds
E2E_METRICS = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_workloads():
    """Import the benchmark's workloads, and with them the checkout's gptkit."""
    if not (SRC / "gptkit" / "__init__.py").is_file():
        sys.exit(f"bench: no gptkit package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import gptkit
    import workloads
    if Path(gptkit.__file__).resolve().parent != SRC / "gptkit":
        sys.exit(f"bench: imported gptkit from {gptkit.__file__}, "
                 f"not from {SRC}")
    return workloads


def _setup_probe(args) -> None:
    """Time import plus input generation, in this fresh process.

    numpy, a third-party import whose load time follows the machine's
    memory system rather than the speed probe, is loaded before the clock
    starts; every other import gptkit makes is timed.
    """
    import numpy  # noqa: F401
    probe = SpeedProbe()
    for _ in range(3):  # warm the probe itself
        probe.sample()

    def set_up():
        workloads = _import_workloads()
        workloads.WORKLOADS[args.workload](args.seed, OUT).plan(args.seconds)

    with probe.running():
        _, timing = probe.timed(set_up)
    print(timing.ref_wall)


def _setup_seconds(args) -> float:
    """Median set-up time over several fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"bench: set-up probe failed ({done.returncode})")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _environment(args) -> dict:
    import numpy
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "src_lines": src_lines}


def _attempt(workload, job):
    """The timed part of a job: its raw result, or the traceback."""
    try:
        return workload.run(job), None
    except Exception:  # a failing job is reported, not fatal
        return None, traceback.format_exc()


class Pass:
    """One closed-loop pass over a job list: timings, outputs, failures.

    With a probe, job times are also scaled to reference speed; without
    one (traced passes) they are only measured.
    """

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe
        self.timings: list = []
        self.digests: list[str] = []
        self.failed: dict[int, str] = {}

    def run_job(self, workload, index: int, job, check: bool = True):
        if self.probe is None:
            (raw, error), timing = timed_plain(_attempt, workload, job)
        else:
            (raw, error), timing = self.probe.timed(_attempt, workload, job)
        self.timings.append(timing)
        if error is None:
            output = workload.finish(job, raw)
            self.digests.append(workload.digest(output))
            reason = workload.check(job, output) if check else None
        else:
            self.digests.append("")
            reason = error
        if reason is not None:
            self.failed[index] = f"{job.label}: {reason}"
        return timing


def _run_rounds(plan, seconds: float, run_one) -> list:
    """Run whole rounds; run_one(index, job) returns measured seconds.

    Stops early, after a whole round, only on a machine far slower than
    the reference one, so that a run stays within its time limits."""
    jobs = []
    measured = 0.0
    for jobs_of_round in plan:
        for job in jobs_of_round:
            measured += run_one(len(jobs), job)
            jobs.append(job)
        if measured > OVERRUN * seconds:
            break
    return jobs


def _warm_up(workload, probe: SpeedProbe | None) -> bool:
    """Load imports and bytecode; the library keeps no caches across
    calls, and every job builds its own spaces, so nothing else carries
    over into the measured jobs."""
    warm = Pass(probe)
    for index, job in enumerate(workload.warmup()):
        warm.run_job(workload, index, job)
    for reason in warm.failed.values():
        sys.stderr.write(f"bench: warm-up failed: {reason}\n")
    return not warm.failed


def _latency_metrics(wall: list[float], cpu: list[float]) -> dict:
    n = len(wall)
    return {
        "jobs_per_s": n / sum(wall),
        "job_p50_ms": statistics.median(wall) * 1e3,
        "job_p90_ms": (statistics.quantiles(wall, n=10)[8] if n >= 2
                       else wall[0]) * 1e3,
        "cpu_ms_per_job": sum(cpu) / n * 1e3,
    }


def _timed_run(workload, plan, args):
    setup_s = _setup_seconds(args)
    probe = SpeedProbe()
    with probe.running():
        if not _warm_up(workload, probe):
            return None
        done = Pass(probe)
        jobs = _run_rounds(plan, args.seconds, lambda index, job:
                           done.run_job(workload, index, job).wall)
    values = _latency_metrics([t.ref_wall for t in done.timings],
                              [t.ref_cpu for t in done.timings])
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in E2E_METRICS}
    measured = _latency_metrics([t.wall for t in done.timings],
                                [t.cpu for t in done.timings])
    return jobs, done.failed, metrics, {"measured": measured}


def _traced_run(workload, plan, args, env):
    """Each job runs untraced and traced, back to back, alternating which
    goes first, so that both see the same machine state."""
    import tracing
    if not _warm_up(workload, None):
        return None
    tracer = tracing.Tracer()
    untraced = Pass()
    traced = Pass()

    def run_traced(index, job):
        tracer.job = index
        with tracer.installed():
            traced.run_job(workload, index, job, check=False)

    def run_both(index, job):
        if index % 2:
            run_traced(index, job)
        measured = untraced.run_job(workload, index, job).wall
        if not index % 2:
            run_traced(index, job)
        return measured

    jobs = _run_rounds(plan, args.seconds, run_both)
    failed = {**untraced.failed, **traced.failed}
    for index, (a, b) in enumerate(zip(untraced.digests, traced.digests)):
        if a != b:
            failed.setdefault(index, f"{jobs[index].label}: traced output "
                              "differs from untraced output")
    overhead = (sum(t.wall for t in untraced.timings)
                / sum(t.wall for t in traced.timings))
    spans = OUT / f"spans-{args.workload}.jsonl"
    tracer.write_spans(spans, env)
    return jobs, failed, tracer.metrics(overhead), {"spans": str(spans)}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    env = _environment(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    plan = workload.plan(args.seconds)
    try:
        if args.trace:
            outcome = _traced_run(workload, plan, args, env)
        else:
            outcome = _timed_run(workload, plan, args)
    finally:
        workload.close()
    if outcome is None:
        return 1
    jobs, failed, metrics, extra = outcome

    attempted = len(jobs)
    for index in sorted(failed):
        sys.stderr.write(f"bench: job {index} failed: {failed[index]}\n")
    print(json.dumps({"env": {**env, "jobs": attempted, **extra}}))
    for name, body in metrics.items():
        note = f" ({attempted} jobs)" if name == "job_p90_ms" else ""
        print(f"{name:<48} {body['value']:>14.6g} {body['unit']}{note}")
    print(f"{'fail_ratio':<48} {len(failed) / attempted:>14.6g} "
          f"({len(failed)} of {attempted} jobs)")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())

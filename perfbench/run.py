"""helimag benchmark: one closed-loop client runs one workload's job stream.

Usage (from the repository root):

    python3 perfbench/run.py --workload {recover,descent,evaluate} \
        --seed N --seconds S --trace {0,1}

The program under test is imported from ``src/`` of the same checkout.  Jobs
are generated from the seed and run one after another in this process, the
next starting when the previous one returns.  Every job's output is checked.

Job timings are reported in units of a fixed pure-numpy reference loop
(``ref``) timed right before each job: a shared host changes speed by up to
2x for tens of seconds at a time, and a job's time divided by the current
reference time cancels most of that swing.  Set-up time is scaled the same
way and reported in seconds at a nominal 1 ref = 1.5 ms.  Raw seconds are
printed on the lines above the result.

With ``--trace 0`` the run measures the end-to-end metrics for S seconds.
With ``--trace 1`` it runs the stream untraced for S/2 seconds, then again
from job 0 with every helimag layer traced for S/2 seconds (at least one
cycle); per-layer metrics are taken over the first cycle of traced jobs, so
their counts repeat exactly for a fixed seed.  Spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("recover", "descent", "evaluate")
SETUP_REPEATS = 3
# setup_s is reported in seconds at a nominal host speed of 1 ref = 1.5 ms
REF_NOMINAL_S = 1.5e-3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_kref", "1/kref"),
    ("job_p50_ref", "ref"),
    ("job_p90_ref", "ref"),
    ("success_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny shrinks every input, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def cap_blas_threads() -> None:
    """Limit BLAS/OpenMP pools to the CPUs this process may use; must run
    before numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, ncpu))
        except ValueError:
            current = ncpu
        os.environ[var] = str(max(1, min(current, ncpu)))


class RefLoop:
    """A fixed pure-numpy loop, independent of helimag, whose time (1 ref,
    1.0 to 1.8 ms on the 2-CPU host the benchmark was tuned on) tracks the
    host's current speed.  One untimed pass first brings its arrays into
    cache, so the previous job's memory traffic does not leak into it."""

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._a = numpy.linspace(0.0, 1.0, 16384).reshape(128, 128)

    def __call__(self) -> float:
        np, a = self._np, self._a
        float((np.sin(a) * np.cos(a) + a * a).sum())
        t = time.perf_counter()
        for _ in range(4):
            float((np.sin(a) * np.cos(a) + a * a).sum())
        return time.perf_counter() - t

    def host_s(self) -> float:
        """Median of several reference timings: ``host.ref_s``."""
        return statistics.median(self() for _ in range(9))


@dataclass
class Phase:
    """Outcome of running a job stream in a closed loop.  Per job: the job's
    wall time and the host reference time around it, the mean of the probes
    taken just before and just after the job."""

    cycle_len: int
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    durations: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def run_job(self, job) -> None:
        """Run and check one job; a job that raises or whose output does not
        pass its check (whatever the check raises) is a failed job, and the
        loop goes on."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            out = job.run()
        except Exception:
            self.durations.append(time.perf_counter() - t)
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return
        self.durations.append(time.perf_counter() - t)
        try:
            job.check(out)
        except Exception:
            self.failed += 1
            self.errors.append("check failed: " + traceback.format_exc(limit=3))

    @property
    def jobs_per_s(self) -> float:
        return self.attempted / self.elapsed

    def job_refs(self) -> list[float]:
        """Job times in ``ref`` units over complete cycles, or over all jobs
        if no cycle completed.  A cycle holds the whole job mix once, so
        statistics over whole cycles do not depend on where the time ran
        out."""
        n = len(self.durations)
        n = n - n % self.cycle_len or n
        return [d / r for d, r in zip(self.durations[:n], self.refs[:n])]

    @property
    def jobs_per_kref(self) -> float:
        """Jobs per 1000 ref of job time: the benchmark's own probes and
        output checks between jobs are left out."""
        norm = self.job_refs()
        return 1000.0 * len(norm) / sum(norm)


def measure(workload, seconds: float, ref: RefLoop, min_jobs: int = 1, tracer=None) -> Phase:
    """Run the workload's stream from job 0 until ``seconds`` have passed and
    at least ``min_jobs`` ran."""
    phase = Phase(workload.cycle_len)
    probes = []
    start = last = time.perf_counter()
    for i, job in enumerate(workload.jobs()):
        if i >= min_jobs and last - start >= seconds:
            break
        probes.append(ref())
        if tracer is not None:
            tracer.job = i
        phase.run_job(job)
        last = time.perf_counter()
    phase.elapsed = last - start
    probes.append(ref())
    phase.refs = [0.5 * (a + b) for a, b in zip(probes, probes[1:])]
    return phase


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "helimag" / "__init__.py").is_file():
        print(f"error: no helimag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import helimag
    import bench_trace
    import bench_workloads
    import_s = time.perf_counter() - t0
    if Path(helimag.__file__).resolve().parent != ROOT / "src" / "helimag":
        print(f"error: helimag imported from {helimag.__file__}", file=sys.stderr)
        return 2

    ref = RefLoop()
    host_start = ref.host_s()
    setup_times = []
    setup_refs = []
    warm = Phase(1)
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        host = ref.host_s()
        t = time.perf_counter()
        reference = bench_workloads.load_reference()
        workload = bench_workloads.make_workload(
            args.workload, args.seed, args.size, reference, OUT)
        for job in workload.warmup:
            warm.run_job(job)
        setup_times.append(time.perf_counter() - t)
        setup_refs.append(setup_times[-1] / host)
    setup_raw_s = import_s + statistics.median(setup_times)
    setup_s = REF_NOMINAL_S * (import_s / host_start + statistics.median(setup_refs))

    try:
        if args.trace:
            untraced = measure(workload, args.seconds / 2, ref)
            tracer = bench_trace.Tracer()
            with bench_trace.Instrumentation(tracer):
                traced = measure(workload, args.seconds / 2, ref,
                                 min_jobs=workload.cycle_len, tracer=tracer)
            phases = [untraced, traced]
        else:
            phases = [measure(workload, args.seconds, ref)]
    finally:
        workload.close()
    host_end = ref.host_s()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = warm.errors + [e for p in phases for e in p.errors]
    for err in errors[:5]:
        print(err.rstrip(), file=sys.stderr)

    last = phases[-1]
    mix = " ".join(f"{k}={v:.3f}" for k, v in workload.mix.items())
    print(f"workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"seconds={args.seconds:g} closed-loop clients=1 mix: {mix}")
    print(f"host.ref_s start={host_start:.6f} end={host_end:.6f}")
    print(f"raw jobs_per_s={last.jobs_per_s:.4f} job_p50_s={statistics.median(last.durations):.5f} "
          f"job_p90_s={p90(last.durations):.5f} jobs={last.attempted} setup_s={setup_raw_s:.4f}")
    if args.trace:
        metrics = tracer.layer_metrics(workload.cycle_len)
        metrics["trace_overhead"] = traced.jobs_per_kref - untraced.jobs_per_kref
        metrics["host.ref_s"] = 0.5 * (host_start + host_end)
        units = dict(bench_trace.PER_LAYER)
        samples = {k: workload.cycle_len for k in units}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        print(f"untraced jobs_per_kref={untraced.jobs_per_kref:.4f} over {untraced.attempted} "
              f"jobs; traced jobs_per_kref={traced.jobs_per_kref:.4f} over {traced.attempted} jobs")
    else:
        norm = last.job_refs()
        metrics = {
            "setup_s": setup_s,
            "jobs_per_kref": last.jobs_per_kref,
            "job_p50_ref": statistics.median(norm),
            "job_p90_ref": p90(norm),
            "success_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        samples = {"setup_s": SETUP_REPEATS, "jobs_per_kref": len(norm),
                   "job_p50_ref": len(norm), "job_p90_ref": len(norm),
                   "success_frac": attempted, "peak_rss_mb": 1}
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]} (samples={samples[name]})")
    result = {
        "correct": failed == 0 and not warm.failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

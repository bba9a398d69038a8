"""decaylab benchmark: seeded CLI job mixes, checked against closed forms.

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; decaylab is imported from its src/.  Each
job is one README CLI command, `decaylab.cli.main(argv)`, run in this
process in a closed loop (one job at a time, no threads, BLAS threads
pinned to 1).  Every output is read back and compared with an independent
reference (perfbench/oracles.py).

--trace 0 runs a fixed number of blocks of the seeded job stream (the
checked blocks, whose points are the result's attempted and failed
counts), then repeats them until the jobs' wall time reaches --seconds (and
the tail percentile has ten jobs beyond it), and prints the end-to-end
metrics.  --trace 1 runs block 0 once untraced and twice traced, checks
that traced outputs are byte-identical to the untraced ones and that the
traced counts repeat exactly, and prints the per-layer metrics.  The last stdout line is the JSON result; the line
before it records the run's provenance.
"""

from __future__ import annotations

import os
import sys

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time

import numpy as np
import scipy
from scipy.integrate import quad
from scipy.special import betainc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import decaylab.cli; "
                "print(repr(time.perf_counter() - t0))")
# top imports reported by the traced run (cumulative time under -X importtime)
IMPORT_LAYERS = {"numpy": "setup.numpy_import_ms",
                 "scipy.integrate": "setup.scipy_integrate_import_ms"}

# The CPU speed of a shared VM swings by up to 2x over tens of seconds.  A
# fixed kernel (QUADPACK calling a Python integrand, like decaylab's hot
# path, but none of its code) is timed before and after each job (at most
# every CALIBRATE_EVERY seconds), and each job's wall time is scaled by
# CALIBRATION_REF_S over the mean kernel time around it: job times are
# reported at the speed where the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 1.5e-3
CALIBRATE_EVERY = 0.25


def calibration_kernel() -> float:
    """Best of three timings of a fixed scipy quad workload, in seconds."""

    def f(x):
        return math.exp(-0.1 * x) * math.cos(3.0 * x) / (1.0 + x * x)

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for k in range(6):
            quad(f, 0.0, 40.0 + k, limit=200, epsabs=1e-12, epsrel=1e-12)
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Kernel timings along the run, to scale wall times to reference speed."""

    def __init__(self):
        self.stamps: list = []  # perf_counter at each kernel timing
        self.kernel: list = []

    def sample(self, force: bool = False) -> int:
        """Time the kernel if the last timing is old; index of the latest."""
        if force or not self.stamps or time.perf_counter() - self.stamps[-1] >= CALIBRATE_EVERY:
            self.kernel.append(calibration_kernel())
            self.stamps.append(time.perf_counter())
        return len(self.kernel) - 1

    def scale(self, before: int, after: int) -> float:
        """Reference-speed factor for an interval between two timings."""
        return CALIBRATION_REF_S / statistics.fmean(self.kernel[before:after + 1])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(cal: Calibration) -> float:
    """Median seconds (at reference speed) of `import decaylab.cli` in fresh
    interpreters, after one untimed import that writes the bytecode cache."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        before = cal.sample(force=True)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        scale = cal.scale(before, cal.sample(force=True))
        if i:
            samples.append(scale * float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def import_layers() -> dict:
    """Per-module import cost from `python -X importtime` (median of three)."""
    runs = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import decaylab.cli"],
                             cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                             timeout=120, check=True)
        cumulative, own = {}, 0.0
        for line in out.stderr.splitlines():
            fields = [f.strip() for f in line.partition(":")[2].split("|")]
            if len(fields) != 3 or not fields[0].isdigit():
                continue
            cumulative[fields[2]] = int(fields[1]) / 1e3
            if fields[2].startswith("decaylab"):
                own += int(fields[0]) / 1e3
        row = {metric: cumulative.get(mod, 0.0) for mod, metric in IMPORT_LAYERS.items()}
        row["setup.decaylab_self_import_ms"] = own
        runs.append(row)
    return {k: ("ms", statistics.median(r[k] for r in runs)) for k in runs[0]}


class Runner:
    """Runs jobs through cli.main in a private directory and checks them."""

    def __init__(self, cli, checks, workdir, cal: Calibration):
        self.cli, self.checks, self.cal = cli, checks, cal
        self.job_dir = os.path.join(workdir, "job")
        os.makedirs(self.job_dir)
        self.problems: list = []

    def _clean(self):
        for name in os.listdir(self.job_dir):
            os.unlink(os.path.join(self.job_dir, name))

    def run_one(self, job) -> tuple:
        """(exit code, job wall time, the same scaled to reference speed)."""
        before = self.cal.sample()
        argv = list(job.argv) + ["--out", self.checks.output_path(job, self.job_dir)]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails the job's points
            rc = -1
            self.problems.append(f"{' '.join(job.argv)}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        return rc, wall, self.cal.scale(before, self.cal.sample()) * wall

    def run_pass(self, jobs, tracer=None) -> dict:
        """One pass over a job list: times, output digests and failed points."""
        times, wall, digests, failed = [], 0.0, [], 0
        with contextlib.redirect_stderr(io.StringIO()):
            for i, job in enumerate(jobs):
                if tracer is not None:
                    tracer.job = i
                rc, dt, scaled = self.run_one(job)
                wall += dt
                times.append(scaled)
                outcome = self.checks.check_job(job, self.job_dir, rc)
                self.problems.extend(outcome.problems)
                digests.append(outcome.digest)
                failed += outcome.failed
                self._clean()
        return {"times": times, "wall": wall, "digests": digests, "failed": failed}


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of the
    order statistics, which moves smoothly where job times form clusters
    (a plain order statistic jumps between them)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def run_timed(runner, workloads, args) -> tuple:
    """Run all of the seed's checked blocks once, however long they take,
    then repeat them in order until the jobs' wall time reaches --seconds.
    `attempted` and `failed` count the checked blocks' points, so they
    depend on the seed alone and not on how many jobs the machine's speed
    lets into the time; every repeat must write byte-identical files to its
    first run."""
    tail = workloads.TAIL_PERCENTILE[args.workload]
    stream = workloads.job_blocks(args.workload, args.seed)
    checked = [next(stream) for _ in range(workloads.CHECKED_BLOCKS[args.workload])]
    times, wall, timed_points, attempted, failed, digests = [], 0.0, 0, 0, 0, []
    passes = 0
    while (passes < len(checked) or wall < args.seconds
           or len(times) * (1.0 - tail / 100.0) < 10):
        k = passes % len(checked)
        res = runner.run_pass(checked[k])
        times += res["times"]
        wall += res["wall"]
        timed_points += sum(j.points for j in checked[k])
        if passes < len(checked):
            failed += res["failed"]
            attempted += sum(j.points for j in checked[k])
            digests.append(res["digests"])
        elif res["digests"] != digests[k]:
            runner.problems.append(f"block {k}: a repeated job wrote different files")
        passes += 1
    metrics = {
        "job_ms_p50": ("ms", 1e3 * harrell_davis(times, 0.5)),
        "job_ms_tail": ("ms", 1e3 * harrell_davis(times, tail / 100.0)),
        "points_per_s": ("1/s", timed_points / sum(times)),
        "ok_frac": ("ratio", 1.0 - failed / attempted),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    }
    argv_digest = hashlib.sha256("".join(workloads.argv_hash(b) for b in checked).encode())
    info = {"checked_blocks": len(checked), "block_passes": passes, "jobs_timed": len(times),
            "tail_percentile": tail, "argv_sha256": argv_digest.hexdigest()[:16]}
    return attempted, failed, metrics, info


def run_traced(runner, workloads, args, tracer) -> tuple:
    jobs = next(workloads.job_blocks(args.workload, args.seed))
    plain = runner.run_pass(jobs)
    tracer.install()
    try:
        traced = runner.run_pass(jobs, tracer)
        points = sum(j.points for j in jobs)
        metrics = tracer.layer_metrics(len(jobs), points)
        counts = tracer.repeatable()
        spans = tracer.spans
        tracer.reset()
        again = runner.run_pass(jobs, tracer)
        counts_again = tracer.repeatable()
    finally:
        tracer.uninstall()
    identical = traced["digests"] == plain["digests"] == again["digests"]
    if not identical:
        runner.problems.append("traced outputs differ from untraced outputs")
    if counts != counts_again:
        runner.problems.append("traced counts differ between two traced passes")
    overhead = statistics.median(traced["times"]) - statistics.median(plain["times"])
    metrics["trace.job_ms_p50_overhead"] = ("ms", 1e3 * overhead)
    metrics.update(import_layers())
    with open(os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": spans}, fh)
    info = {"blocks": 1, "spans": len(spans), "counts_repeat": counts == counts_again,
            "outputs_identical": identical, "argv_sha256": workloads.argv_hash(jobs)}
    return points, plain["failed"], metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "decaylab", "cli.py")):
        print(f"error: no decaylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    cal = Calibration()
    setup = None if args.trace else measure_setup(cal)

    from decaylab import cli
    from perfbench import checks, tracing

    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        runner = Runner(cli, checks, workdir, cal)
        runner.run_pass(next(workloads.job_blocks(args.workload, args.seed))[:1])  # warm-up
        if args.trace:
            attempted, failed, metrics, info = run_traced(runner, workloads, args,
                                                          tracing.Tracer())
        else:
            attempted, failed, metrics, info = run_timed(runner, workloads, args)
            metrics["setup_s"] = ("s", setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    provenance = {
        "workload": args.workload, "seed": args.seed, **info,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
        "problems": runner.problems[:10],
    }
    print(json.dumps(provenance))
    result = {
        "correct": not runner.problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (u, v) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

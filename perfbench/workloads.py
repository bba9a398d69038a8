"""Seeded job streams: README CLI commands generated from (workload, seed).

A stream is a sequence of blocks.  Every block is stratified: each stratum
(command, tolerance, decade of the dimensionless time, potential kind)
appears a fixed number of times, and over a group of blocks every
continuous parameter takes one value from each of equal slices of its range
(Latin hypercube).  Two seeds therefore give blocks of the same shape, which
keeps medians comparable between seeds, while no parameter range is chosen
to avoid a defect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field

TOLERANCES = (1e-9, 1e-12)
T_FACTORS = (0.01, 0.0316, 0.1, 0.316, 1.0)  # Paley-Wiener sweep, two decades


@dataclass(frozen=True)
class Job:
    """One CLI call: argv without --out, the parameters its oracle needs, and
    the number of time points it evaluates."""

    kind: str
    argv: tuple
    points: int
    spec: dict = field(default_factory=dict, compare=False)


def _f(x: float) -> str:
    return format(float(x), ".17g")


class Strata:
    """Latin-hypercube draws for a group of k jobs: for each parameter, the k
    jobs take one value from each of k equal slices of [0, 1), in a seeded
    order, so every seed covers each parameter range the same way."""

    def __init__(self, rng: random.Random, k: int):
        self.rng, self.k, self.cols = rng, k, {}

    def u(self, name: str, i: int) -> float:
        if name not in self.cols:
            order = list(range(self.k))
            self.rng.shuffle(order)
            self.cols[name] = [(slot + self.rng.random()) / self.k for slot in order]
        return self.cols[name][i]

    def uniform(self, name: str, i: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u(name, i)

    def log_uniform(self, name: str, i: int, lo_exp: float, hi_exp: float) -> float:
        return 10.0 ** self.uniform(name, i, lo_exp, hi_exp)


def _tol_args(tol: float) -> list:
    return ["--abs-tol", _f(tol), "--rel-tol", _f(tol)]


def _linear_grid(t_end: float, n: int) -> list:
    return ["--t-start", "0", "--t-end", _f(t_end), "--n-points", str(n)]


def _sweep(t_max: float) -> str:
    return ",".join(_f(t_max * k) for k in T_FACTORS)


# ---------------------------------------------------------------------------
# series: long linear grids, cost dominated by per-point cell quadrature


SERIES_PER_COMMAND = 3  # jobs per command in one block
# with tolerances alternating, every six blocks give each command each
# (tolerance, size) pair three times; fixed sizes keep the cost mix of runs
# alike (a drawn size would move the tail with the draw)
SERIES_SIZES = (101, 251, 401)


def _series_job(st: Strata, i: int, command: str, tol: float, n: int) -> Job:
    if command == "pw-global":
        gamma = st.log_uniform("gamma", i, -1.0, 1.0)
        omega0 = gamma * st.uniform("omega0", i, -2.0, 2.0)
        t_end = st.uniform("t_end", i, 200.0, 1000.0)
        w0 = st.uniform("w0", i, 0.2, 0.8)
        argv = ["pw", "--amplitude", "global-survival", "--gamma", _f(gamma),
                "--omega0", _f(omega0), "--w0", _f(w0), "--T-values", _sweep(t_end),
                *_linear_grid(t_end, n), *_tol_args(tol)]
        spec = dict(gamma=gamma, omega0=omega0, w0=w0, t_end=t_end, tol=tol)
        return Job(command, tuple(argv), n, spec)
    gamma = st.log_uniform("gamma", i, -2.0, 2.0)
    omega0 = gamma * st.uniform("omega0", i, -3.0, 3.0)
    t_end = st.uniform("t_end", i, 5.0, 20.0) / gamma
    argv = [command, "--gamma", _f(gamma), "--omega0", _f(omega0),
            *_linear_grid(t_end, n), *_tol_args(tol)]
    spec = dict(gamma=gamma, omega0=omega0, tol=tol)
    if command != "survival":
        rho00 = st.uniform("rho00", i, 0.2, 0.8)
        radius = 0.99 * math.sqrt(rho00 * (1.0 - rho00)) * st.uniform("radius", i, 0.5, 1.0)
        phi = st.uniform("phase", i, -math.pi, math.pi)
        re01, im01 = radius * math.cos(phi), radius * math.sin(phi)
        argv += ["--rho00", _f(rho00), "--re-rho01", _f(re01), "--im-rho01", _f(im01)]
        spec.update(rho00=rho00, rho01=complex(re01, im01))
    return Job(command, tuple(argv), n, spec)


def series_jobs(rng: random.Random, blocks: int) -> list:
    out = [[] for _ in range(blocks)]
    for c, command in enumerate(("survival", "reduced", "gkls-compare", "pw-global")):
        st = Strata(rng, SERIES_PER_COMMAND * blocks)
        for i in range(st.k):
            b, j = divmod(i, SERIES_PER_COMMAND)
            size = SERIES_SIZES[(b + j) % len(SERIES_SIZES)]
            out[b].append(_series_job(st, i, command, TOLERANCES[(c + i) % 2], size))
    return out


# ---------------------------------------------------------------------------
# scatter: 1-5 log-spaced points per job, fixed per-job cost dominates

SCATTER_DECADES = range(-8, 6)  # dimensionless time 1e-8 .. 1e6


def _scatter_density_job(st: Strata, i: int, density: str, decade: int, tol: float,
                         n: int, json_spec: bool) -> Job:
    s0 = 10.0 ** (decade + st.u("offset", i))  # dimensionless time of the first point
    scale = st.log_uniform("scale", i, -3.0, 3.0)
    ratio = st.uniform("ratio", i, -2.0, 2.0)
    if density == "lorentzian":
        gamma, omega0 = scale, scale * ratio
        spec = dict(gamma=gamma, omega0=omega0)
        t0 = s0 / gamma
        if json_spec:
            dens = ["--density", json.dumps({"kind": "lorentzian", "gamma": gamma,
                                             "omega0": omega0})]
        else:
            dens = ["--gamma", _f(gamma), "--omega0", _f(omega0)]
    elif density == "exponential":
        spec = dict(rate=scale)
        t0 = s0 * scale
        dens = ["--density", json.dumps({"kind": "exponential", "rate": scale})]
    else:
        width, center = scale, scale * ratio
        lo, hi = center - width, center + width
        spec = dict(center=center, width=width)
        t0 = s0 / width
        dens = ["--density", json.dumps({
            "kind": "user-table", "support": [lo, hi], "interpolation": "linear",
            "knots": [[lo, 0.0], [center, 1.0 / width], [hi, 0.0]]})]
    spec["tol"] = tol
    if n == 1:
        grid = ["--t-start", _f(t0), "--n-points", "1"]
    else:
        t1 = t0 * 10.0 ** st.uniform("span", i, 0.3, 1.0)
        grid = ["--t-start", _f(t0), "--t-end", _f(t1), "--n-points", str(n), "--spacing", "log"]
    argv = ["survival", *dens, *grid, *_tol_args(tol)]
    return Job(f"survival-{density}", tuple(argv), n, spec)


def _scatter_pw_job(st: Strata, i: int, amplitude: str, tol: float, n: int) -> Job:
    t_max = 100.0 * 10.0 ** st.u("t_max", i)
    argv = ["pw", "--amplitude", amplitude, "--T-values", _sweep(t_max),
            "--t-start", "0.25", "--t-end", "10", "--n-points", str(n), *_tol_args(tol)]
    if amplitude == "dephasing":
        # gamma * T / 2 stays below 690, where -ln|a| would hit the 1e-300 floor
        gamma = st.log_uniform("scale", i, -3.0, 0.0)
        omega0 = gamma * st.uniform("ratio", i, -2.0, 2.0)
        argv += ["--gamma", _f(gamma), "--omega0", _f(omega0)]
        spec = dict(gamma=gamma, omega0=omega0)
    else:
        rate = st.log_uniform("scale", i, -2.0, 2.0)
        argv += ["--rate", _f(rate)]
        spec = dict(rate=rate)
    spec.update(tol=tol, t_end=10.0, t_start=0.25)
    return Job(f"pw-{amplitude}", tuple(argv), n, spec)


def scatter_jobs(rng: random.Random, blocks: int) -> list:
    out = [[] for _ in range(blocks)]
    for k, density in enumerate(("lorentzian", "exponential", "table")):
        st = Strata(rng, len(SCATTER_DECADES) * len(TOLERANCES) * blocks)
        i = 0
        for b in range(blocks):
            for decade in SCATTER_DECADES:
                for m, tol in enumerate(TOLERANCES):
                    n = 1 + (decade + k + m + b) % 5
                    json_spec = (decade + m + b) % 2 == 1
                    out[b].append(_scatter_density_job(st, i, density, decade, tol, n, json_spec))
                    i += 1
    for amplitude in ("dephasing", "halfline-exp"):
        st = Strata(rng, 2 * len(TOLERANCES) * blocks)
        for i in range(st.k):
            job = _scatter_pw_job(st, i, amplitude, TOLERANCES[i % 2], (8, 12)[i // 2 % 2])
            out[i // 4].append(job)
    return out


# ---------------------------------------------------------------------------
# potential: nonlinear phase W, cells placed by W^{-1} bisection

POTENTIALS = (
    ("exp", False), ("exp", True), ("ramp", False), ("ramp", True),
    ("expr:exp(x)", False), ("expr:max(x,0)^3+max(x,0)", False),
)
# fixed, so every block weighs the (failing) FD jobs at 1e-12 the same
POTENTIAL_POINTS = 40


def _potential_job(st: Strata, i: int, pot: str, fd: bool, tol: float) -> Job:
    n = POTENTIAL_POINTS
    gamma = st.log_uniform("gamma", i, -0.5, 0.5)
    omega0 = gamma * st.uniform("omega0", i, -1.0, 1.0)
    t_start = st.uniform("t_start", i, 0.1, 0.5) / gamma
    t_end = st.uniform("t_end", i, 8.0, 20.0) / gamma
    argv = ["potential", "--potential", pot, "--gamma", _f(gamma), "--omega0", _f(omega0),
            "--t-start", _f(t_start), "--t-end", _f(t_end), "--n-points", str(n),
            *_tol_args(tol)]
    if fd:
        argv.append("--fd-derivative")
    spec = dict(potential=pot, fd=fd, gamma=gamma, omega0=omega0, tol=tol)
    return Job("potential", tuple(argv), n, spec)


def potential_jobs(rng: random.Random, blocks: int) -> list:
    out = [[] for _ in range(blocks)]
    for pot, fd in POTENTIALS:
        st = Strata(rng, len(TOLERANCES) * blocks)
        for i in range(st.k):
            out[i // len(TOLERANCES)].append(_potential_job(st, i, pot, fd, TOLERANCES[i % 2]))
    return out


WORKLOADS = {"series": series_jobs, "scatter": scatter_jobs, "potential": potential_jobs}

# the highest percentile each workload's runs always have ten jobs beyond
TAIL_PERCENTILE = {"series": 75.0, "scatter": 99.0, "potential": 75.0}


# blocks a --trace 0 run checks and counts, whatever its speed: about 15 s
# of jobs on a 2.1 GHz core (28 s for potential, whose failed share varies
# most between seeds), so a run twice as slow overruns 30 s by little
CHECKED_BLOCKS = {"series": 2, "scatter": 32, "potential": 5}


# blocks drawn together: each parameter's Latin hypercube spans this many
# blocks, so the few blocks a run covers are stratified as a whole
GROUP = 8


def job_blocks(workload: str, seed: int):
    """The job stream of (workload, seed), one block at a time, without end."""
    for group in itertools.count():
        rng = random.Random(f"decaylab-bench:{workload}:{seed}:{group}")
        yield from WORKLOADS[workload](rng, GROUP)


def argv_hash(jobs) -> str:
    blob = json.dumps([list(j.argv) for j in jobs], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

"""Read each job's output back and compare every point with its oracle.

A point fails when it is listed in a `.failures` manifest, when its job
exits non-zero, or when its error against the reference exceeds
max(abs_tol, rel_tol * |ref|) of that job.  Values a job derives from its
whole series (Paley-Wiener sums, fits, side files) are checked as one unit:
if one misses, every point of the job fails.  Problems that are not the
program's numerics (missing or malformed files) are reported separately,
because they make the run itself incorrect.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
from decaylab import output

from . import oracles

# bound before the benchmark installs any tracing wrapper
_read_csv = output.read_csv


@dataclass
class Outcome:
    failed: int
    problems: list
    digest: str


def digest_dir(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def output_path(job, directory: str) -> str:
    """The --out value for a job; potential jobs take a prefix."""
    if job.kind == "potential":
        return os.path.join(directory, "job")
    if job.kind.startswith("pw"):
        return os.path.join(directory, "job.txt")
    return os.path.join(directory, "job.csv")


def read_report(path: str) -> dict:
    """[section] key = value report -> {section: {key: value}}."""
    sections: dict = {}
    current = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], {})
            elif current is not None:
                key, _, value = line.partition(" = ")
                current[key] = value
    return sections


def _manifest_times(csv_path: str) -> set:
    path = csv_path + ".failures"
    if not os.path.exists(path):
        return set()
    return {float(entry["t"]) for entry in read_report(path).values()}


def _tol(spec: dict, ref: float) -> float:
    return max(spec["tol"], spec["tol"] * abs(ref))


def _series_reference(job):
    s = job.spec
    if job.kind in ("survival", "reduced", "gkls-compare", "survival-lorentzian", "potential"):
        return lambda t: oracles.lorentzian(s["gamma"], s["omega0"], t)
    if job.kind == "survival-exponential":
        return lambda t: oracles.exponential(s["rate"], t)
    if job.kind == "survival-table":
        return lambda t: oracles.triangle(s["center"], s["width"], t)
    if job.kind == "pw-global":
        return lambda t: oracles.global_survival(s["w0"], s["gamma"], s["omega0"], t)
    raise ValueError(f"no series reference for {job.kind}")


def _point_misses(job, path: str, problems: list) -> int:
    """Failed points of a CSV whose rows are time points."""
    _, names, cols = _read_csv(path)
    t = cols.get("t")
    if t is None or t.size != job.points:
        problems.append(f"{path}: expected {job.points} rows with a t column, got {names}")
        return job.points
    ref_of = _series_reference(job)
    manifest = _manifest_times(path)
    s = job.spec
    failed = 0
    for i, ti in enumerate(t):
        ti = float(ti)
        ref = ref_of(ti)
        if job.kind == "reduced":
            rho01_ref = s["rho01"] * ref if ti != 0 else s["rho01"]
            got = complex(cols["re_rho01"][i], cols["im_rho01"][i])
            err = max(abs(got - rho01_ref),
                      abs(cols["rho00"][i] - s["rho00"]),
                      abs(cols["rho11"][i] - (1.0 - s["rho00"])),
                      abs(cols["sigma_x"][i] - 2.0 * rho01_ref.real) / 2.0)
            bound = _tol(s, abs(rho01_ref))
        elif job.kind == "gkls-compare":
            literal = abs(ref - oracles.lorentzian(4.0 * s["gamma"], 2.0 * s["omega0"], ti))
            literal *= abs(s["rho01"])
            err = max(abs(cols["distance_matched"][i]),
                      abs(cols["distance_literal"][i] - literal))
            bound = _tol(s, literal)
        else:
            err = abs(complex(cols["re"][i], cols["im"][i]) - ref)
            bound = _tol(s, ref)
        if ti in manifest or not err <= bound:
            failed += 1
    return failed


def _pw_report_ok(job, path: str, problems: list) -> bool:
    s = job.spec
    report = read_report(path)
    try:
        pw = {float(k[2:]): float(v) for k, v in report["pw"].items()}
        longtime = float(report["longtime"]["abs_amplitude"])
        fit = report["fit"]
    except (KeyError, ValueError) as exc:
        problems.append(f"{path}: malformed report ({exc})")
        return False
    ok = True
    if job.kind == "pw-global":
        times = np.linspace(0.0, s["t_end"], job.points)
        mags = [abs(oracles.global_survival(s["w0"], s["gamma"], s["omega0"], float(t)))
                for t in times]
        # first-order bound: each sample's |a| error tol_i moves -ln|a| by tol_i/|a|
        worst = max(_tol(s, m) / m for m in mags)
        for T, got in pw.items():
            ref = oracles.pw_from_samples(times, mags, T)
            ok &= abs(got - ref) <= max(_tol(s, ref), 2.0 * math.atan(T) * worst)
        end = mags[-1]
    elif job.kind == "pw-dephasing":
        for T, got in pw.items():
            ref = oracles.pw_dephasing(s["gamma"], T)
            ok &= abs(got - ref) <= _tol(s, ref)
        half = s["gamma"] / 2.0
        ok &= abs(float(fit["rate"]) - half) <= _tol(s, half)
        ok &= abs(float(fit["amplitude"]) - 1.0) <= _tol(s, 1.0)
        end = math.exp(-half * s["t_end"])
    else:
        for T, got in pw.items():
            ref = oracles.pw_halfline_exp(s["rate"], T)
            ok &= abs(got - ref) <= _tol(s, ref)
        end = abs(oracles.exponential(s["rate"], s["t_end"]))
    ok &= abs(longtime - end) <= _tol(s, end)
    return bool(ok)


# side files of a potential job: the transported density must match
# W'(x) p_C(W(x)) and the inverse must round-trip, both to these bounds
DENSITY_REL_TOL = 1e-8
ROUNDTRIP_REL_TOL = 1e-9


def _potential_side_files_ok(job, prefix: str, problems: list) -> bool:
    s = job.spec
    _, _, dens = _read_csv(prefix + "_density.csv")
    _, _, rt = _read_csv(prefix + "_roundtrip.csv")
    if dens.get("x") is None or dens["x"].size != 401 or rt.get("x") is None:
        problems.append(f"{prefix}: malformed density or round-trip file")
        return False
    ref = np.array([oracles.transported_density(s["potential"], s["gamma"], s["omega0"], x)
                    for x in dens["x"]])
    ok = np.max(np.abs(dens["density"] - ref)) <= DENSITY_REL_TOL * np.max(ref)
    ok &= bool(np.all(rt["roundtrip_residual"] <= ROUNDTRIP_REL_TOL * np.maximum(1.0, np.abs(rt["x"]))))
    fit_rate = float(_read_csv(prefix + "_factor.csv")[0].get("fit_rate", "nan"))
    ok &= abs(fit_rate - s["gamma"] / 2.0) <= 1e-6 * s["gamma"]
    return bool(ok)


def check_job(job, directory: str, rc: int) -> Outcome:
    """Failed points of one finished job, plus any problem with its files."""
    digest = digest_dir(directory)
    problems: list = []
    if rc != 0 and rc != 3:
        return Outcome(job.points, problems, digest)
    out = output_path(job, directory)
    try:
        if job.kind == "potential":
            failed = _point_misses(job, out + "_factor.csv", problems)
            if not _potential_side_files_ok(job, out, problems):
                failed = job.points
        elif job.kind.startswith("pw"):
            if rc == 3:
                failed = _point_misses(job, out, problems)
            elif not _pw_report_ok(job, out, problems):
                failed = job.points
            else:
                failed = 0
        else:
            failed = _point_misses(job, out, problems)
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
        failed = job.points
    return Outcome(failed, problems, digest)

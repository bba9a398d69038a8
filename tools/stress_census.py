"""Stress census: the known accuracy defects of decaylab as counts per grid.

    python3 tools/stress_census.py              # one line per grid
    python3 tools/stress_census.py --detail     # and every point that is not within
    python3 tools/stress_census.py --json       # the counts as STRESS.json holds them
    python3 tools/stress_census.py --check STRESS.json

Run from the root of a checkout; decaylab is imported from its src/.  Each
point of a grid is one public call at one tolerance, compared with a
reference computed independently: closed forms whose phase (omega0 * t, which
a double cannot carry at narrow lines) is taken in mpmath at 40 digits, and
exact masses from the Lorentzian's distribution function in mpmath.  mpmath
is a test dependency; decaylab does not import it.  A point is

- within: it returns, and its error is at most cfg.target(reference);
- silent: it returns, and its error is above that target (a silent miss);
- covered: it raises, and the failure's error bound is at least the error of
  its best estimate;
- under: it raises, and its bound is below that error.

One CLI point, a potential unbounded below, is within when it exits 2 with
no file written and silent otherwise.

Everything is deterministic.  --check FILE exits 1 when any grid's count of
silent misses or of under-bound raises exceeds the one in FILE (a JSON
object {grid: {"within": n, "silent": n, "covered": n, "under": n}}), or
when a grid of FILE is missing from the census; lower counts pass and are
printed, for the file to be lowered with the change that lowers them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

from decaylab import cli, oscint, potential  # noqa: E402
from decaylab.oscint import QuadratureConfig, QuadratureFailure  # noqa: E402
from decaylab.spectral import DephasingParams, SpectralDensity, lorentzian_density  # noqa: E402

mp.mp.dps = 40
KINDS = ("within", "silent", "covered", "under")


def lorentzian_reference(gamma: float, omega0: float, t: float) -> complex:
    """exp(-gamma |t|/2 - i omega0 t), the product omega0 * t taken exactly."""
    return complex(mp.exp(-mp.mpf(gamma) * abs(mp.mpf(t)) / 2 - 1j * mp.mpf(omega0) * mp.mpf(t)))


def judged(call, reference, cfg):
    """(kind, error, bound or None) of one point: call() against reference."""
    try:
        value = call()
    except QuadratureFailure as failure:
        error = abs(complex(failure.estimate) - reference)
        return ("covered" if failure.error_bound >= error else "under"), error, failure.error_bound
    error = abs(value - reference)
    return ("within" if error <= cfg.target(reference) else "silent"), error, None


def narrow_lines(tol):
    """The Lorentzian with gamma = 1 and omega0 = 1e6..1e10 at t = 1e-3..30,
    and omega0 = 1e10 at t = 1e7."""
    cfg = QuadratureConfig(tol, tol)
    points = [(w, t) for w in (1e6, 1e7, 1e8, 1e9, 1e10)
              for t in (1e-3, 0.1, 1.0, 3.0, 10.0, 30.0)] + [(1e10, 1e7)]
    for omega0, t in points:
        d = lorentzian_density(DephasingParams(1.0, omega0))
        yield (f"omega0={omega0:g} t={t:g}",
               *judged(lambda: oscint.fourier_amplitude(d, t, cfg),
                       lorentzian_reference(1.0, omega0, t), cfg))


def decayed_lorentzian():
    """A Lorentzian at gamma t = 4.2e5, whose amplitude is 0 to double precision."""
    cfg = QuadratureConfig(1e-12, 1e-12)
    gamma, omega0, t = 0.0020812575081219135, 0.0017767630020604091, 407013195.94597548
    d = lorentzian_density(DephasingParams(gamma, omega0))
    yield (f"gamma={gamma:g} t={t:g}",
           *judged(lambda: oscint.fourier_amplitude(d, t, cfg),
                   lorentzian_reference(gamma, omega0, t), cfg))


def mass_corner():
    """Masses of the Lorentzian gamma = 1e-3, omega0 = 1e3 without its cdf
    (everything else of the density kept)."""
    cfg = QuadratureConfig(1e-12, 1e-12)
    gamma, omega0 = 1e-3, 1e3
    d = lorentzian_density(DephasingParams(gamma, omega0))
    bare = dataclasses.replace(d, cdf=None)
    inf = math.inf
    ranges = [(-inf, inf), (-inf, 0.0), (0.0, inf), (-inf, omega0), (omega0, inf)]
    ranges += [(omega0 + sign * k * gamma, inf) for k in (1, 3, 10) for sign in (-1, 1)]

    def cdf(x):
        return mp.mpf(1) if x == inf else mp.mpf(0) if x == -inf else (
            mp.mpf(1) / 2 + mp.atan((mp.mpf(x) - omega0) / (mp.mpf(gamma) / 2)) / mp.pi)

    for lo, hi in ranges:
        yield (f"[{lo:.10g}, {hi:.10g}]",
               *judged(lambda: oscint.mass_integral(bare, lo, hi, cfg),
                       complex(float(cdf(hi) - cdf(lo))), cfg))


def potential_factors(label, p, points):
    """The Lorentzian factor of a potential, (gamma, omega0, t) at 1e-12."""
    cfg = QuadratureConfig(1e-12, 1e-12)
    for gamma, omega0, t in points:
        params = DephasingParams(gamma, omega0)
        yield (f"{label} gamma={gamma:g} omega0={omega0:g} gamma*t={gamma * t:g}",
               *judged(lambda: potential.generalized_dephasing_factor(p, params, t, cfg),
                       lorentzian_reference(gamma, omega0, t), cfg))


def transported_exponential():
    """The half-line exponential of rate r transported through ramp and exp
    (state W'(x) r exp(-r W(x)) on x > 0), in x with the monotone phase W,
    against r/(r + i t)."""
    for p in (potential.ramp_potential(), potential.exp_potential()):
        for rate in (1e-2, 1.0, 1e2):
            def dens(x, p=p, rate=rate):
                w = p.W(np.maximum(x, 0.0))
                return np.where(x >= 0, p.W_prime(np.maximum(x, 0.0)) * rate * np.exp(-rate * w),
                                0.0)

            feature = float(p.W_inverse(np.array(1.0 / rate)))

            def cdf(x, p=p, rate=rate):
                return -math.expm1(-rate * float(p.W(np.array(max(x, 0.0)))))

            d = SpectralDensity(dens, (0.0, math.inf), 0.0, cdf, (feature,),
                                "transported-exponential")
            for tol in (1e-9, 1e-12):
                cfg = QuadratureConfig(tol, tol)
                for rt in (0.1, 1.0, 10.0, 100.0):
                    t = rt / rate
                    yield (f"{p.label} rate={rate:g} rate*t={rt:g} tol={tol:g}",
                           *judged(lambda: oscint.restricted_amplitude(
                               d, 0.0, math.inf, t, cfg, phase=p.W, phase_inv=p.W_inverse),
                               rate / (rate + 1j * t), cfg))


def unbounded_below():
    """expr:x+31, non-negative on the check grid but not bounded below by 0:
    the potential command must exit 2 and write nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["potential", "--potential", "expr:x+31",
                           "--out", os.path.join(tmp, "p")])
        written = os.listdir(tmp)
    kind = "within" if rc == 2 and not written else "silent"
    yield f"exit {rc}, {len(written)} files", kind, 0.0, None


GRIDS = {
    "narrow-line 1e-9": lambda: narrow_lines(1e-9),
    "narrow-line 1e-12": lambda: narrow_lines(1e-12),
    "decayed-lorentzian": decayed_lorentzian,
    "mass-corner": mass_corner,
    "exp gamma=1e-3": lambda: potential_factors(
        "exp", potential.exp_potential(), [(1e-3, 0.0, 1e7), (1e-3, 0.7e-3, 1e7),
                                           (1e-3, 0.7e-3, 1e8)]),
    "exp+fd far": lambda: potential_factors(
        "exp+fd", potential.exp_potential(fd_derivative=True), [(1e3, 1e4, 1e-3), (1e3, 1e4, 1e-2)]),
    "transported-exponential": transported_exponential,
    "unbounded-below": unbounded_below,
}


def census(detail: bool) -> dict:
    counts = {}
    for name, grid in GRIDS.items():
        start = time.perf_counter()
        tally = dict.fromkeys(KINDS, 0)
        lines = []
        for where, kind, error, bound in grid():
            tally[kind] += 1
            if kind != "within":
                lines.append(f"    {kind:7s} {where}: error {error:.3e}"
                             + (f", bound {bound:.3e}" if bound is not None else ""))
        counts[name] = tally
        print(f"{name:26s} " + " ".join(f"{k}={tally[k]}" for k in KINDS)
              + f"  ({time.perf_counter() - start:.2f} s)", file=sys.stderr)
        if detail and lines:
            print("\n".join(lines), file=sys.stderr)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--detail", action="store_true", help="list every point that is not within")
    ap.add_argument("--json", action="store_true", help="print the counts as JSON on stdout")
    ap.add_argument("--check", metavar="FILE",
                    help="exit 1 if a grid's silent or under count exceeds FILE's")
    args = ap.parse_args(argv)
    counts = census(args.detail)
    if args.json:
        print(json.dumps(counts, indent=1))
    if not args.check:
        return 0
    with open(args.check) as fh:
        committed = json.load(fh)
    worse = []
    for name, want in committed.items():
        got = counts.get(name)
        if got is None:
            worse.append(f"{name}: missing from the census")
            continue
        for kind in ("silent", "under"):
            if got[kind] > want[kind]:
                worse.append(f"{name}: {kind} {want[kind]} -> {got[kind]}")
            elif got[kind] < want[kind]:
                print(f"lower than {args.check}: {name}: {kind} {want[kind]} -> {got[kind]}",
                      file=sys.stderr)
    for line in worse:
        print(f"worse than {args.check}: {line}", file=sys.stderr)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

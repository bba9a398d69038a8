"""Oscillatory Fourier integrals of spectral densities with controlled error.

The central object is a(t) = int exp(-i t W(E)) p(E) dE over full-line,
half-line, and compact supports, with W the identity (the plain Fourier
transform of a density) or a strictly increasing phase of range R (the
generalized potentials).  One transform, restricted_amplitude, serves both:
t = 0 is the mass integral, t < 0 the conjugate of the transform at -t,
tables have an exact transform and finite windows use QUADPACK's oscillatory
weights.  Infinite pieces are integrated over half-periods of the kernel
(cells of phase length pi), with adaptive Gauss-Kronrod quadrature inside
each cell and Wynn epsilon acceleration of the alternating cell sums; the
piece below the split point is reflected onto an upward one.  This gives
uniform accuracy in t without Filon-type weight tables; heavy algebraic
tails converge through the acceleration instead of an (infeasibly large)
explicit cutoff, and the analytic tail mass only enters the error bound
when a sum is truncated without convergence.

Everything here is pure and deterministic: identical inputs and config
produce bit-identical results, so concurrent and sequential evaluation of
batches agree exactly.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .spectral import SpectralDensity


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail handling for the cell sums.

    max_cells caps the number of half-period cells; min_cells delays the
    convergence checks until the sum has seen a few oscillations (and passed
    all density feature points); negligible_factor * abs_tol is the size
    below which consecutive cell contributions are treated as a truncated
    tail, bounded and folded into the error estimate.
    """

    max_cells: int = 400
    min_cells: int = 6
    negligible_factor: float = 0.02
    stable_steps: int = 2

    def __post_init__(self):
        if self.max_cells < self.min_cells or self.min_cells < 1:
            raise ValueError("need max_cells >= min_cells >= 1")


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 200
    truncation_policy: TruncationPolicy = TruncationPolicy()

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def target(self, value: complex) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


class QuadratureFailure(RuntimeError):
    """Non-convergence signal carrying the best estimate and its error bound."""

    def __init__(self, detail: str, estimate, error_bound: float, t: float | None = None):
        self.detail = detail
        self.estimate = estimate
        self.error_bound = float(error_bound)
        self.t = t
        where = f" at t={t:g}" if t is not None else ""
        super().__init__(
            f"quadrature failure{where}: {detail} "
            f"(best estimate {estimate}, error bound {error_bound:.3e})"
        )


class SeriesFailure(RuntimeError):
    """Batch evaluation failed at one or more time points.

    Carries the full series (failed points hold their best estimates) plus
    the per-point failures, so diagnostic pipelines can keep partial data.
    """

    def __init__(self, series: "ComplexTimeSeries", failures: Sequence[QuadratureFailure]):
        self.series = series
        self.failures = tuple(failures)
        times = ", ".join(f"{f.t:g}" for f in self.failures[:8])
        super().__init__(
            f"{len(self.failures)} of {len(series.times)} time points failed "
            f"(t = {times}{', ...' if len(self.failures) > 8 else ''})"
        )


@dataclass(frozen=True)
class ComplexTimeSeries:
    """Strictly increasing sample times with one complex value per time."""

    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.times.size

    def window(self, t_min: float, t_max: float) -> "ComplexTimeSeries":
        sel = (self.times >= t_min) & (self.times <= t_max)
        return ComplexTimeSeries(self.times[sel], self.values[sel], dict(self.meta))


# ---------------------------------------------------------------------------
# scalar quadrature helpers


def _quad(f, a, b, epsabs, epsrel, limit, points=None, complex_valued=False):
    """scipy quad with warnings silenced; returns (value, abserr, converged)."""
    res = quad(
        f,
        a,
        b,
        epsabs=epsabs,
        epsrel=epsrel,
        limit=limit,
        points=points,
        complex_func=complex_valued,
        full_output=1,
    )
    val, err = res[0], res[1]
    if complex_valued:
        err = abs(err.real) + abs(err.imag)
    converged = len(res) == 3
    return val, float(err), converged


def _interior_points(points, a, b):
    pts = sorted(p for p in points if a < p < b)
    return pts or None


def mass_integral(d: SpectralDensity, lo: float, hi: float, cfg: QuadratureConfig) -> float:
    """Non-oscillatory integral of the density over [lo, hi] (within support)."""
    slo, shi = d.support
    lo, hi = max(lo, slo), min(hi, shi)
    if not lo < hi:
        return 0.0
    if d.table is not None:
        return _table_mass(d, lo, hi)
    if d.change_of_variable is not None:
        ch = d.change_of_variable
        ulo = ch.u_lo if lo == slo else ch.u_of_x(lo)
        uhi = ch.u_hi if hi == shi else ch.u_of_x(hi)

        def g(u):
            return d.density(ch.x_of_u(u)) * ch.dxdu(u)

        pts = _interior_points((ch.u_of_x(p) for p in d.feature_points), ulo, uhi)
        val, err, ok = _quad(g, ulo, uhi, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions, pts)
    else:
        pts = None
        if math.isfinite(lo) and math.isfinite(hi):
            pts = _interior_points(d.feature_points, lo, hi)
        val, err, ok = _quad(d.density, lo, hi, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions, pts)
    if not ok and err > cfg.target(val):
        raise QuadratureFailure("mass integral did not converge", val, err)
    return val


# ---------------------------------------------------------------------------
# exact Fourier transform of piecewise-linear tables


def _phi1(w: complex) -> complex:
    # (e^w - 1)/w, stable near 0
    if abs(w) < 1e-3:
        return 1 + w / 2 + w**2 / 6 + w**3 / 24 + w**4 / 120 + w**5 / 720
    return (cmath.exp(w) - 1.0) / w


def _phi2(w: complex) -> complex:
    # int_0^1 v e^{w v} dv = (w e^w - e^w + 1)/w^2, stable near 0
    if abs(w) < 1e-3:
        return 0.5 + w / 3 + w**2 / 8 + w**3 / 30 + w**4 / 144 + w**5 / 840
    ew = cmath.exp(w)
    return (w * ew - ew + 1.0) / (w * w)


def _clipped_knots(d: SpectralDensity, lo: float, hi: float):
    e, p = d.table
    lo, hi = max(lo, float(e[0])), min(hi, float(e[-1]))
    if not lo < hi:
        return None
    inner = (e > lo) & (e < hi)
    ec = np.concatenate(([lo], e[inner], [hi]))
    pc = np.interp(ec, e, p)
    return ec, pc


def _table_mass(d: SpectralDensity, lo: float, hi: float) -> float:
    clipped = _clipped_knots(d, lo, hi)
    if clipped is None:
        return 0.0
    ec, pc = clipped
    return float(np.trapezoid(pc, ec))


def _table_transform(d: SpectralDensity, lo: float, hi: float, t: float) -> complex:
    """int_lo^hi p(E) e^{-iEt} dE for a piecewise-linear p, in closed form."""
    clipped = _clipped_knots(d, lo, hi)
    if clipped is None:
        return 0.0 + 0.0j
    ec, pc = clipped
    total = 0.0 + 0.0j
    for i in range(len(ec) - 1):
        dl = float(ec[i + 1] - ec[i])
        slope = (pc[i + 1] - pc[i]) / dl
        w = -1j * t * dl
        seg = dl * pc[i] * _phi1(w) + slope * dl * dl * _phi2(w)
        total += cmath.exp(-1j * t * ec[i]) * seg
    return total


# ---------------------------------------------------------------------------
# half-period cells + Wynn epsilon acceleration


def _wynn_row(prev_row: list, s_new: complex) -> list:
    """Append one partial sum to the progressive epsilon table; returns new row."""
    cur = [s_new]
    for k in range(1, len(prev_row) + 1):
        denom = cur[k - 1] - prev_row[k - 1]
        if abs(denom) < 1e-300 or not cmath.isfinite(denom):
            break
        prior = prev_row[k - 2] if k >= 2 else 0.0
        nxt = prior + 1.0 / denom
        if not cmath.isfinite(nxt):
            break
        cur.append(nxt)
    return cur


def _wynn_estimate(row: list) -> complex:
    n = len(row) - 1
    if n % 2 == 1:
        n -= 1
    return row[n]


def _qawo(weight, a, b, t, epsabs, epsrel, limit):
    """int_a^b weight(x) exp(-i t x) dx by QUADPACK's cos/sin weight kernels;
    returns (value, abserr, converged)."""
    re = quad(weight, a, b, weight="cos", wvar=t, epsabs=epsabs,
              epsrel=epsrel, limit=limit, full_output=1)
    im = quad(weight, a, b, weight="sin", wvar=t, epsabs=epsabs,
              epsrel=epsrel, limit=limit, full_output=1)
    return complex(re[0], -im[0]), re[1] + im[1], len(re) == 3 and len(im) == 3


def _linear_head(weight, t, x0, boundary, cfg, points):
    """[x0, boundary] for the linear phase: QUADPACK oscillatory weights,
    segmented at the feature points (QAWO handles any oscillation count but
    takes no break-point hints)."""
    head_tol = max(cfg.abs_tol / 8.0, 1e-15)
    cuts = [x0] + (_interior_points(points, x0, boundary) or []) + [boundary]
    total = 0.0 + 0.0j
    err_sum = 0.0
    seg_tol = head_tol / (2 * (len(cuts) - 1))
    for a, b in zip(cuts, cuts[1:]):
        val, err, _ = _qawo(weight, a, b, t, seg_tol, 1e-12, cfg.max_subdivisions)
        total += val
        err_sum += err
    return total, err_sum


def _semi_infinite_osc(
    weight: Callable[[float], float],
    t: float,
    x0: float,
    cfg: QuadratureConfig,
    phase: Callable[[float], float] | None = None,
    phase_inv: Callable[[float], float] | None = None,
    points: Sequence[float] = (),
    tail_mass: Callable[[float], float] | None = None,
):
    """int_{x0}^{inf} weight(x) exp(-i t phase(x)) dx for t > 0, increasing phase.

    The range up to the last feature point (the density bulk) is integrated
    as a single head piece; only the clean alternating tail beyond it feeds
    the epsilon table, so a far-off peak cannot poison the extrapolation.
    Returns (value, error_bound).  Raises QuadratureFailure when the tail sum
    does not stabilize within the truncation policy's cell budget.
    """
    pin = phase_inv if phase is not None else (lambda u: u)
    pol = cfg.truncation_policy
    u0 = phase(x0) if phase is not None else x0
    h = math.pi / t
    cell_tol = max(cfg.abs_tol / 64.0, 1e-15)

    def f(x):
        px = phase(x) if phase is not None else x
        return weight(x) * cmath.exp(-1j * t * px)

    partial = 0.0 + 0.0j
    quad_err = 0.0
    a = x0
    x_clear = max([x0] + list(points))
    if x_clear > x0:
        u_clear = phase(x_clear) if phase is not None else x_clear
        k_clear = int(math.ceil((u_clear - u0) / h))
        if k_clear > 0:
            if k_clear > (200_000 if phase is None else 20_000):
                raise QuadratureFailure(
                    f"head region spans {k_clear} oscillations", 0.0, math.inf, t=t
                )
            boundary = pin(u0 + k_clear * h)
            if phase is None:
                partial, quad_err = _linear_head(weight, t, x0, boundary, cfg, points)
            else:
                # nonlinear phase: sum the head cells plainly (they stay out
                # of the epsilon table, which only extrapolates the tail)
                cell_tol_head = max(cfg.abs_tol / (8.0 * k_clear), 1e-15)
                for k in range(k_clear):
                    b = pin(u0 + (k + 1) * h)
                    pts = _interior_points(points, a, b)
                    val, err, _ = _quad(f, a, b, cell_tol_head, 1e-12,
                                        cfg.max_subdivisions, pts, complex_valued=True)
                    partial += val
                    quad_err += err
                    a = b
            a = boundary
            u0 = u0 + k_clear * h

    row: list = [partial] if partial != 0 else []
    est_prev = None
    stable = 0
    negligible = 0
    for k in range(pol.max_cells):
        b = pin(u0 + (k + 1) * h)
        val, err, _ = _quad(
            f, a, b, cell_tol, 1e-12, cfg.max_subdivisions, None, complex_valued=True
        )
        quad_err += err
        partial += val
        row = _wynn_row(row, partial)
        est = _wynn_estimate(row)
        if not cmath.isfinite(est):
            est = partial
        # truncated-tail stop: consecutive negligible cells
        if abs(val) < pol.negligible_factor * cfg.abs_tol:
            negligible += 1
            if negligible >= 2 and k + 1 >= pol.min_cells:
                return partial, quad_err + 3.0 * abs(val)
        else:
            negligible = 0
        if est_prev is not None and k + 1 >= pol.min_cells:
            delta = abs(est - est_prev)
            if delta <= max(0.1 * cfg.abs_tol, 0.1 * cfg.rel_tol * abs(est), 5e-15):
                stable += 1
                if stable >= pol.stable_steps:
                    return est, quad_err + delta
            else:
                stable = 0
        est_prev = est
        a = b
    best = est_prev if est_prev is not None else partial
    bound = quad_err + abs(best - partial)
    if tail_mass is not None:
        try:
            bound += abs(tail_mass(a))
        except Exception:
            bound = math.inf
    raise QuadratureFailure(
        f"oscillatory cell sum did not stabilize within {pol.max_cells} cells",
        best,
        bound,
        t=t,
    )


# ---------------------------------------------------------------------------
# density-facing operations


def restricted_amplitude(
    d: SpectralDensity,
    lo: float,
    hi: float,
    t: float,
    cfg: QuadratureConfig,
    phase: Callable[[float], float] | None = None,
    phase_inv: Callable[[float], float] | None = None,
) -> complex:
    """int_lo^hi exp(-i t phase(E)) d(E) dE, clipped to the density's support.

    phase must be strictly increasing with range R and phase_inv its inverse;
    omitted, the phase is the identity (the plain Fourier transform, exact
    for tables and by QUADPACK weights on finite windows).  t = 0 is the
    mass integral and t < 0 the conjugate of the transform at -t.  Infinite
    ranges are summed in half-period cells from a split point (the finite
    end, or d.center on the full line); the piece below it is integrated
    reflected, x -> -x, and conjugated.
    """
    slo, shi = d.support
    lo, hi = max(lo, slo), min(hi, shi)
    if not lo < hi:
        return 0.0 + 0.0j
    if t == 0:
        return complex(mass_integral(d, lo, hi, cfg))
    if t < 0:
        return complex(restricted_amplitude(d, lo, hi, -t, cfg, phase, phase_inv)).conjugate()
    if d.table is not None and phase is None:
        return _table_transform(d, lo, hi, t)
    if math.isfinite(lo) and math.isfinite(hi):
        if phase is not None:
            raise ValueError("a nonlinear phase needs an infinite range")
        val, err, ok = _qawo(d.density, lo, hi, t, cfg.abs_tol / 2, cfg.rel_tol,
                             cfg.max_subdivisions)
        if not ok and err > cfg.target(val):
            raise QuadratureFailure(
                "finite-window oscillatory integral did not converge", val, err, t=t
            )
        return val

    def tail_mass(x):
        loose = QuadratureConfig(1e-6, 1e-6, cfg.max_subdivisions)
        return mass_integral(d, x, math.inf, loose)

    def upward(x0):
        return _semi_infinite_osc(d.density, t, x0, cfg, phase, phase_inv,
                                  d.feature_points, tail_mass)[0]

    def reflected(x0):
        # int_{-inf}^{x0} w(x) e^{-it phase(x)} dx
        #   = conj(int_{-x0}^{inf} w(-y) e^{-it r(y)} dy),  r(y) = -phase(-y)
        r_phase = r_inv = None
        if phase is not None:
            r_phase = lambda y: -phase(-y)
            r_inv = lambda u: -phase_inv(-u)
        refl = lambda y: d.density(-y)
        pts = tuple(-p for p in d.feature_points)
        val, _ = _semi_infinite_osc(refl, t, -x0, cfg, r_phase, r_inv, pts)
        return complex(val).conjugate()

    if math.isfinite(lo):
        return upward(lo)
    if math.isfinite(hi):
        return reflected(hi)
    return reflected(d.center) + upward(d.center)


def fourier_amplitude(d: SpectralDensity, t: float, cfg: QuadratureConfig) -> complex:
    """Survival amplitude a(t) = int exp(-i E t) d(E) dE over the full support.

    a(0) = 1 for a normalized density; |a(t)| <= 1 up to the quadrature
    tolerance; a(-t) is the conjugate of a(t) by construction.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return restricted_amplitude(d, -math.inf, math.inf, t, cfg)


def amplitude_series(
    d: SpectralDensity, times, cfg: QuadratureConfig, meta: dict | None = None
) -> ComplexTimeSeries:
    """fourier_amplitude evaluated on a strictly increasing time grid.

    Per-point quadrature failures are collected (with the failing time
    attached) and re-raised as a SeriesFailure that still carries the full
    series with best estimates in place.
    """
    return _batch(lambda t: fourier_amplitude(d, t, cfg), times, d, cfg, "fourier_amplitude", meta)


def _batch(f, times, d, cfg, op, meta=None):
    t = np.asarray(list(times), dtype=float)
    vals = np.zeros(t.shape, dtype=complex)
    failures = []
    for i, ti in enumerate(t):
        try:
            vals[i] = f(float(ti))
        except QuadratureFailure as exc:
            failures.append(
                QuadratureFailure(exc.detail, exc.estimate, exc.error_bound, t=float(ti))
            )
            vals[i] = complex(exc.estimate)
    info = {
        "density": d.label,
        "operation": op,
        "abs_tol": cfg.abs_tol,
        "rel_tol": cfg.rel_tol,
    }
    info.update(meta or {})
    series = ComplexTimeSeries(t, vals, info)
    if failures:
        raise SeriesFailure(series, failures)
    return series


def halfline_amplitude(
    d: SpectralDensity, ramp_side: str, t: float, cfg: QuadratureConfig
) -> complex:
    """Expectation of exp(-i t q_side) where q_side multiplies by the ramp
    max(+-x, 0): one half-line is frozen at phase 1, the other contributes the
    Fourier integral of the density in the ramp's eigenvalue coordinate.
    """
    if ramp_side == "positive":
        frozen = mass_integral(d, -math.inf, 0.0, cfg)
        active = restricted_amplitude(d, 0.0, math.inf, t, cfg)
        return frozen + active
    if ramp_side == "negative":
        frozen = mass_integral(d, 0.0, math.inf, cfg)
        # eigenvalue of the negative-side ramp is -x >= 0 on the active side:
        # int_{-inf}^0 e^{-i(-x)t} d(x) dx is the restricted transform at -t
        return frozen + restricted_amplitude(d, -math.inf, 0.0, -t, cfg)
    raise ValueError(f"ramp_side must be 'positive' or 'negative', got {ramp_side!r}")


def global_survival(
    chi_weights: tuple[float, float], d: SpectralDensity, t: float, cfg: QuadratureConfig
) -> complex:
    """Survival amplitude of the factorized pure state chi (x) phi:
    w0 <exp(-i t q_+)> + w1 <exp(-i t q_-)>."""
    w0, w1 = chi_weights
    if w0 < 0 or w1 < 0 or abs(w0 + w1 - 1.0) > 1e-12:
        raise ValueError(f"spin weights must be non-negative and sum to 1, got {chi_weights}")
    out = 0.0 + 0.0j
    if w0:
        out += w0 * halfline_amplitude(d, "positive", t, cfg)
    if w1:
        out += w1 * halfline_amplitude(d, "negative", t, cfg)
    return out


def global_survival_series(
    chi_weights, d: SpectralDensity, times, cfg: QuadratureConfig
) -> ComplexTimeSeries:
    """global_survival on a time grid, with SeriesFailure semantics."""
    return _batch(
        lambda t: global_survival(chi_weights, d, t, cfg),
        times,
        d,
        cfg,
        "global_survival",
        {"weights": tuple(chi_weights)},
    )

"""Oscillatory Fourier integrals of spectral densities with controlled error.

The central object is a(t) = int exp(-i t W(E)) p(E) dE over full-line,
half-line, and compact supports, with W the identity (the plain Fourier
transform of a density) or a strictly increasing phase of range R (the
generalized potentials).  One transform, restricted_amplitude, serves both:
t = 0 is the mass integral, t < 0 the conjugate of the transform at -t,
and tables have an exact transform.  The head of a half-line, the stretch
before its extrapolated cells, has one rule for both phases, in the phase
coordinate u: it reaches as far from u0 as the farthest feature point's
phase, and _head_cuts cuts it at the feature points and geometrically
beyond.  One QAWO routine, _linear_head (QUADPACK's oscillatory weights),
integrates every finite interval of the linear phase between those cuts:
a finite window, and the linear head however many oscillations it spans.
The monotone head is one block of half-period cells whose edges include
its cuts.  _quad, the one call of scipy's quad, holds the one convergence
rule.  Infinite pieces are integrated over half-periods of the kernel
(cells of phase length pi), with Wynn epsilon acceleration of the
alternating cell sums; the piece below the split point is reflected onto
an upward one.  Each tail cell, and each head cell of a monotone phase,
gets QUADPACK's 21-point Gauss-Kronrod rule (dqk21) in numpy, tail cells
eight per pass by default (min_cells + 2).  Both phases evaluate a block's
integrand as one float64 array of its nodes, the density and the phase
each called once; adaptive quad, which calls them on floats, runs only on
first-pass misses, the cells where QUADPACK's own first-pass test
(dqagse's) fails.  The rule's sums
are matrix-vector products, so a cell's value agrees with quad's to
rounding.  This gives uniform accuracy in t without Filon-type weight
tables; heavy algebraic tails converge through the acceleration instead
of an (infeasibly large) explicit cutoff, and the analytic tail mass only
enters the error bound of a failure.

A mass is exact when the density has a cdf (the difference of two of its
values) or a table (the trapezoid); only a density without either has its
masses integrated by adaptive quad.

Every piece (a half-line's cell sum, a mass, a ramp side) gives a (value,
error bound, detail) triple; detail is None on success and otherwise names
the failure, whose value is the best estimate.  Parts combine by one rule: values add with their conjugations
and weights, all bounds add, and the first failed part's detail is kept.
Each public function raises the one QuadratureFailure of its combined
triple, carrying its t; batches collect those failures as raised.

Everything here is pure and deterministic: identical inputs and config
produce bit-identical results, so concurrent and sequential evaluation of
batches agree exactly.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .spectral import SpectralDensity


# fixed settings of the engine, described in QuadratureConfig
_MAX_SUBDIVISIONS = 200
_NEGLIGIBLE_FACTOR = 0.02
_STABLE_STEPS = 2


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and the cell budget of every integral.

    abs_tol and rel_tol are the target accuracy.  max_cells caps the number
    of half-period cells in an infinite piece's tail; min_cells delays the
    convergence checks until the sum has seen a few oscillations.

    Fixed, not settable: every adaptive QUADPACK call gets at most
    _MAX_SUBDIVISIONS (200) subintervals; a tail sum stops as truncated after
    two consecutive cells below _NEGLIGIBLE_FACTOR (0.02) * abs_tol, and as
    converged after _STABLE_STEPS (2) consecutive Wynn-stable estimates.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_cells: int = 400
    min_cells: int = 6

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_cells < self.min_cells or self.min_cells < 1:
            raise ValueError("need max_cells >= min_cells >= 1")

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
        return ComplexTimeSeries(self.times[sel], self.values[sel])


# ---------------------------------------------------------------------------
# scalar quadrature helpers


def _quad(f, a, b, epsabs, epsrel, cfg, what, points=None, complex_valued=False,
          weight=None, wvar=None):
    """scipy's quad (QAWO for weight 'cos' or 'sin') as a (value, error,
    detail) triple under the engine's one convergence rule: it fails, "<what>
    did not converge", when QUADPACK did not converge (on either part of a
    complex integrand) and its error exceeds cfg.target(value)."""
    res = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=_MAX_SUBDIVISIONS, points=points,
               complex_func=complex_valued, weight=weight, wvar=wvar, full_output=1)
    val, err = res[0], res[1]
    # full_output appends a message unless QUADPACK converged, per part if complex
    converged = len(res) == 3
    if complex_valued:
        err = abs(err.real) + abs(err.imag)
        converged = converged and all(len(part) == 1 for part in res[2].values())
    failed = not converged and err > cfg.target(val)
    return val, float(err), (f"{what} did not converge" if failed else None)


def _checked(t, value, bound, detail):
    """value, or the one QuadratureFailure that carries it, its error bound
    and the time t when detail names a failure (detail is None on success)."""
    if detail is not None:
        raise QuadratureFailure(detail, value, bound, t=t)
    return value


def _combine(parts):
    """One (value, error bound, detail) triple from the triples of parts whose
    values are already conjugated and weighted: values add in order, all
    bounds add, and the first failed part's detail is kept."""
    values, bounds, details = zip(*parts)
    failed = [detail for detail in details if detail is not None]
    return sum(values[1:], values[0]), sum(bounds), (failed[0] if failed else None)


def mass_integral(d: SpectralDensity, lo: float, hi: float, cfg: QuadratureConfig) -> float:
    """Non-oscillatory integral of the density over [lo, hi] (within support)."""
    return _checked(None, *_mass(d, lo, hi, cfg))


def _mass(d, lo, hi, cfg):
    """mass_integral as a (value, error bound, detail) triple: exact from a
    table or a cdf (bound 0), otherwise adaptive quad."""
    slo, shi = d.support
    lo, hi = max(lo, slo), min(hi, shi)
    if not lo < hi:
        return 0.0, 0.0, None
    if d.table is not None:
        return _table_mass(d, lo, hi), 0.0, None
    if d.cdf is not None:
        return d.cdf(hi) - d.cdf(lo), 0.0, None
    pts = sorted(p for p in d.feature_points if lo < p < hi)
    if not (pts and math.isfinite(lo) and math.isfinite(hi)):
        pts = None  # quad takes break points on finite ranges only
    return _quad(d.density, lo, hi, cfg.abs_tol, cfg.rel_tol, cfg, "mass integral", pts)


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
# 21-point Gauss-Kronrod cells in blocks (QUADPACK dqk21 + dqagse first pass)

# Kronrod abscissae on [0, 1], descending; the odd entries are the 10-point
# Gauss abscissae, the last is the centre
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
]
# the 21 nodes in ascending order, and the Kronrod (row 0) and Gauss (row 1)
# weights on them, the Gauss weights zero at the Kronrod-only nodes
_GK21_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_GK21_WEIGHTS = np.array([np.concatenate((w, w[-2::-1])) for w in (_WGK, _WG)])
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _qk21_cells(values, half_lengths, epsabs, epsrel):
    """QUADPACK's dqk21 rule and dqagse's first-pass test on a block of cells.

    values[:, i] is the complex integrand at centre_i + half_lengths[i] *
    _GK21_NODES.  As quad(complex_func=True) does, the real and imaginary
    parts are integrated as two real integrals, with dqk21's error estimate
    and dqagse's acceptance test as array expressions; the sums are plain
    matrix-vector products, so a cell's value agrees with quad's to rounding
    and its error estimate to the cancellation in the Kronrod-Gauss
    difference.  Returns one (value, error, accepted) per cell: the Kronrod
    value, the summed error estimates of both parts, and whether both parts'
    first pass passes dqagse's test (ier = 0 with no refinement); other cells
    need the adaptive quad.
    """
    n = len(half_lengths)
    f = np.concatenate((values.real, values.imag), axis=1)
    hlgth = np.tile(half_lengths, 2)
    dhlgth = np.abs(hlgth)
    kronrod = _GK21_WEIGHTS[0]
    resk, resg = _GK21_WEIGHTS @ f
    resabs = (kronrod @ np.abs(f)) * dhlgth
    resasc = (kronrod @ np.abs(f - 0.5 * resk)) * dhlgth
    result = resk * hlgth
    abserr = np.abs((resk - resg) * hlgth)
    ratio = np.divide(200.0 * abserr, resasc, out=np.zeros_like(resasc), where=resasc != 0)
    abserr = np.where(resasc != 0, resasc * np.minimum(1.0, ratio**1.5), abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
    errbnd = np.maximum(epsabs, epsrel * np.abs(result))
    roundoff = (abserr <= (100.0 * _EPMACH) * resabs) & (abserr > errbnd)
    ok = ~roundoff & (((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0))
    value = result[:n] + 1j * result[n:]
    return list(zip(value.tolist(), (abserr[:n] + abserr[n:]).tolist(),
                    (ok[:n] & ok[n:]).tolist()))


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


def _head_cuts(a, b, points):
    """The cuts of a head [a, b]: the points inside (a, b) and a + 4^k s below
    b, s the distance from a to the farthest point, in ascending order."""
    cuts = {p for p in points if a < p < b}
    s = max([abs(p - a) for p in points], default=0.0)
    while s and a + s < b:
        cuts.add(a + s)
        s *= 4.0
    return sorted(cuts)


def _linear_head(weight, t, a, b, cfg, points, what):
    """int_a^b weight(x) exp(-i t x) dx for t > 0 by QUADPACK's oscillatory
    weights (QAWO), a cos and a sin solve per segment.  QAWO takes no
    break-point hints but any number of oscillations, so the range is cut by
    _head_cuts, lest one segment span many density scales.  Serves the linear
    head and the finite window; returns a (value, error bound, detail) triple."""
    head_tol = max(cfg.abs_tol / 8.0, 1e-15)
    cuts = [a] + _head_cuts(a, b, points) + [b]
    seg_tol = head_tol / (2 * (len(cuts) - 1))
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        for kind, unit in (("cos", 1.0), ("sin", -1j)):
            val, err, detail = _quad(weight, lo, hi, seg_tol, 1e-12, cfg, what,
                                     weight=kind, wvar=t)
            parts.append((unit * val, err, detail))
    return _combine(parts)


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

    The density bulk is integrated as a single head piece; only the clean
    alternating tail beyond it feeds the epsilon table, so a far-off peak
    cannot poison the extrapolation.  One head rule serves both phases: the
    head reaches from u0 = phase(x0) as far as the farthest feature point's
    phase on either side, rounded up to whole half-periods, and is cut by
    _head_cuts in u.  The linear head is one _linear_head call; the monotone
    head is one block of at most 20,000 half-period cells plus its cuts as
    further cell edges, mapped to x by phase_inv, with the head tolerance
    split over its cells.  Cells are evaluated in blocks (_qk21_cells):
    weight and phase each take the block's nodes as one float64 array and
    return its values elementwise (SpectralDensity's array contract); only
    first-pass misses reach adaptive quad, which calls them on floats.
    Returns (value, error bound, detail).  A head or cell that did not
    converge (_quad's rule), a monotone head over the cap, or a tail sum not
    stable within cfg.max_cells cells leaves by the one failure exit: the
    best estimate, its bound plus the tail mass beyond the last cell summed.
    A sum that stops with a bound above cfg.target(value) fails, naming
    its bound.
    """
    identity = lambda u: u
    ph, pin = phase or identity, phase_inv or identity
    # the phase of the split point and of the feature points, one array call
    u0, *upoints = ph(np.array([x0, *points], dtype=float)).tolist()
    h = math.pi / t
    cell_tol = max(cfg.abs_tol / 64.0, 1e-15)

    def f(x):
        return weight(x) * cmath.exp(-1j * t * ph(x))

    def cells(a, us, tol):
        """The cells from a, the j-th ending at pin(us[j]), by the block rule;
        yields (end, value, error, detail).  A cell that fails the rule's
        first-pass test goes to adaptive quad."""
        edges = np.array([a] + [pin(u) for u in us])
        centr = 0.5 * (edges[1:] + edges[:-1])
        hlgth = 0.5 * (edges[1:] - edges[:-1])
        x = centr + hlgth * _GK21_NODES[:, None]
        values = weight(x) * np.exp(-1j * t * ph(x))
        for b, (val, err, ok) in zip(edges[1:].tolist(), _qk21_cells(values, hlgth, tol, 1e-12)):
            detail = None
            if not ok:
                val, err, detail = _quad(f, a, b, tol, 1e-12, cfg, "half-period cell",
                                         complex_valued=True)
            yield b, val, err, detail
            a = b

    def settled(value, bound):
        """A stopped sum's triple: it succeeds only within cfg.target(value)."""
        if bound <= cfg.target(value):
            return value, bound, None
        return value, bound, f"oscillatory cell sum's error bound {bound:.3e} exceeds its tolerance"

    partial, quad_err, detail = 0.0 + 0.0j, 0.0, None
    a = x0
    # the head reaches as far from u0 as the farthest feature point's phase
    u_clear = u0 + max([abs(u - u0) for u in upoints], default=0.0)
    k_clear = int(math.ceil((u_clear - u0) / h))
    if phase is not None and k_clear > 20_000:
        detail = f"head region spans {k_clear} oscillations"
    elif k_clear > 0:
        u_end = u0 + k_clear * h
        if phase is None:
            partial, quad_err, detail = _linear_head(weight, t, x0, u_end, cfg, points,
                                                     "oscillatory head integral")
            a = u_end
        else:
            # one block of half-periods and head cuts, summed plainly (the
            # head stays out of the epsilon table, which only extrapolates
            # the tail); a ends at the last edge, pin(u_end)
            us = sorted({u0 + (j + 1) * h for j in range(k_clear)}
                        | set(_head_cuts(u0, u_end, upoints)))
            head_tol = max(cfg.abs_tol / (8.0 * len(us)), 1e-15)
            for a, val, err, cell_detail in cells(x0, us, head_tol):
                partial += val
                quad_err += err
                detail = detail or cell_detail
        u0 = u_end

    row: list = [partial] if partial != 0 else []
    est_prev = None
    stable = 0
    negligible = 0
    k = 0
    while detail is None and k < cfg.max_cells:
        # blocks of min_cells + _STABLE_STEPS cells: the first one reaches
        # the earliest Wynn-stable stop; cells past a stop are discarded
        m = min(cfg.min_cells + _STABLE_STEPS, cfg.max_cells - k)
        for b, val, err, detail in cells(a, [u0 + (k + j + 1) * h for j in range(m)], cell_tol):
            quad_err += err
            partial += val
            a = b
            if detail is not None:
                break
            row = _wynn_row(row, partial)
            est = _wynn_estimate(row)
            if not cmath.isfinite(est):
                est = partial
            # truncated-tail stop: consecutive negligible cells
            if abs(val) < _NEGLIGIBLE_FACTOR * cfg.abs_tol:
                negligible += 1
                if negligible >= 2 and k + 1 >= cfg.min_cells:
                    return settled(partial, quad_err + 3.0 * abs(val))
            else:
                negligible = 0
            if est_prev is not None and k + 1 >= cfg.min_cells:
                delta = abs(est - est_prev)
                if delta <= max(0.1 * cfg.abs_tol, 0.1 * cfg.rel_tol * abs(est), 5e-15):
                    stable += 1
                    if stable >= _STABLE_STEPS:
                        return settled(est, quad_err + delta)
                else:
                    stable = 0
            est_prev = est
            k += 1
    best = est_prev if est_prev is not None else partial
    bound = quad_err + abs(best - partial)
    if tail_mass is not None:
        try:
            bound += abs(tail_mass(a))
        except Exception:
            bound = math.inf
    return best, bound, (detail or
                         f"oscillatory cell sum did not stabilize within {cfg.max_cells} cells")


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

    phase must be strictly increasing with range R and take a float or a
    float64 array (elementwise), and phase_inv is its inverse on floats;
    omitted, the phase is the identity (the plain Fourier transform, exact
    for tables and by QUADPACK weights on finite windows).  t = 0 is the
    mass integral and t < 0 the conjugate of the transform at -t.  Infinite
    ranges are summed in half-period cells from a split point (the finite
    end, or d.center on the full line); the piece below it is integrated
    reflected, x -> -x, and conjugated.  When a piece fails, the one
    QuadratureFailure raised carries the sum of both pieces' estimates, with
    the same conjugations, under the sum of their error bounds.
    """
    return _checked(t, *_amplitude(d, lo, hi, t, cfg, phase, phase_inv))


def _amplitude(d, lo, hi, t, cfg, phase=None, phase_inv=None):
    """restricted_amplitude as a (value, error bound, detail) triple."""
    slo, shi = d.support
    lo, hi = max(lo, slo), min(hi, shi)
    if not lo < hi:
        return 0.0 + 0.0j, 0.0, None
    if t == 0:
        val, err, detail = _mass(d, lo, hi, cfg)
        return complex(val), err, detail
    if t < 0:
        val, err, detail = _amplitude(d, lo, hi, -t, cfg, phase, phase_inv)
        return val.conjugate(), err, detail
    if d.table is not None and phase is None:
        return _table_transform(d, lo, hi, t), 0.0, None
    if math.isfinite(lo) and math.isfinite(hi):
        if phase is not None:
            raise ValueError("a nonlinear phase needs an infinite range")
        return _linear_head(d.density, t, lo, hi, cfg, d.feature_points,
                            "finite-window oscillatory integral")

    loose = QuadratureConfig(1e-6, 1e-6)

    def half(x0, lower):
        """The triple of the piece above x0, or below it when lower."""
        weight, ph, inv, pts = d.density, phase, phase_inv, d.feature_points
        tail_mass = lambda x: mass_integral(d, x, math.inf, loose)
        if lower:
            # int_{-inf}^{x0} w(x) e^{-it phase(x)} dx
            #   = conj(int_{-x0}^{inf} w(-y) e^{-it r(y)} dy),  r(y) = -phase(-y)
            weight = lambda y: d.density(-y)
            if phase is not None:
                ph = lambda y: -phase(-y)
                inv = lambda u: -phase_inv(-u)
            pts = tuple(-p for p in d.feature_points)
            tail_mass = lambda y: mass_integral(d, -math.inf, -y, loose)
            x0 = -x0
        val, err, detail = _semi_infinite_osc(weight, t, x0, cfg, ph, inv, pts, tail_mass)
        val = complex(val)
        return (val.conjugate() if lower else val), err, detail

    if math.isfinite(lo):
        return half(lo, False)
    if math.isfinite(hi):
        return half(hi, True)
    return _combine([half(d.center, True), half(d.center, False)])


def fourier_amplitude(d: SpectralDensity, t: float, cfg: QuadratureConfig) -> complex:
    """Survival amplitude a(t) = int exp(-i E t) d(E) dE over the full support.

    a(0) = 1 for a normalized density; |a(t)| <= 1 up to the quadrature
    tolerance; a(-t) is the conjugate of a(t) by construction.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return restricted_amplitude(d, -math.inf, math.inf, t, cfg)


def amplitude_series(d: SpectralDensity, times, cfg: QuadratureConfig) -> ComplexTimeSeries:
    """fourier_amplitude evaluated on a strictly increasing time grid.

    Per-point quadrature failures are collected (with the failing time
    attached) and re-raised as a SeriesFailure that still carries the full
    series with best estimates in place.
    """
    return _batch(lambda t: fourier_amplitude(d, t, cfg), times)


def _batch(f, times):
    t = np.asarray(list(times), dtype=float)
    vals = np.zeros(t.shape, dtype=complex)
    failures = []
    for i, ti in enumerate(t):
        try:
            vals[i] = f(float(ti))
        except QuadratureFailure as exc:
            failures.append(exc)
            vals[i] = complex(exc.estimate)
    series = ComplexTimeSeries(t, vals)
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
    return _checked(t, *_halfline_amplitude(d, ramp_side, t, cfg))


def _halfline_amplitude(d, ramp_side, t, cfg):
    """halfline_amplitude as a (value, error bound, detail) triple, the frozen
    half-line mass one of its parts."""
    # (frozen half, active half, time of the active transform): the
    # negative-side ramp's eigenvalue is -x >= 0 on the active side, so
    # int_{-inf}^0 e^{-i(-x)t} d(x) dx is the restricted transform at -t
    sides = {
        "positive": ((-math.inf, 0.0), (0.0, math.inf), t),
        "negative": ((0.0, math.inf), (-math.inf, 0.0), -t),
    }
    if ramp_side not in sides:
        raise ValueError(f"ramp_side must be 'positive' or 'negative', got {ramp_side!r}")
    still, active, t_active = sides[ramp_side]
    return _combine([_mass(d, *still, cfg), _amplitude(d, *active, t_active, cfg)])


def global_survival(
    chi_weights: tuple[float, float], d: SpectralDensity, t: float, cfg: QuadratureConfig
) -> complex:
    """Survival amplitude of the factorized pure state chi (x) phi:
    w0 <exp(-i t q_+)> + w1 <exp(-i t q_-)>.  When a side fails, the one
    QuadratureFailure raised carries the weighted sum of both sides' values
    or estimates under the weighted sum of their error bounds."""
    w0, w1 = chi_weights
    if w0 < 0 or w1 < 0 or abs(w0 + w1 - 1.0) > 1e-12:
        raise ValueError(f"spin weights must be non-negative and sum to 1, got {chi_weights}")
    parts = []
    for w, side in ((w0, "positive"), (w1, "negative")):
        if w:
            value, bound, detail = _halfline_amplitude(d, side, t, cfg)
            parts.append((w * value, w * bound, detail))
    return _checked(t, *_combine(parts))


def global_survival_series(
    chi_weights, d: SpectralDensity, times, cfg: QuadratureConfig
) -> ComplexTimeSeries:
    """global_survival on a time grid, with SeriesFailure semantics."""
    return _batch(lambda t: global_survival(chi_weights, d, t, cfg), times)

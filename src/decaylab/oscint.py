"""Oscillatory Fourier integrals of spectral densities with controlled error.

The central object is a(t) = int exp(-i t W(E)) p(E) dE over full-line,
half-line, and compact supports, with W the identity (the plain Fourier
transform of a density) or a strictly increasing phase of range R (the
generalized potentials).  One transform, restricted_amplitude, serves both:
t = 0 is the mass integral and t < 0 the conjugate of the transform at -t.
The head of a half-line, the stretch before its extrapolated cells, has one
rule for both phases, in the phase coordinate u: it reaches as far from u0
as the farthest feature point's phase, and _head_cuts cuts it at the
feature points and geometrically beyond; a finite window is a head with a
finite end and no tail.  Each cell of a linear head, however many
oscillations it spans, gets QUADPACK's dqc25f rule (_cc25_cells), exact for
a table, whose cuts are its knots.  The monotone head is one block of
half-period cells whose edges include its cuts.  _judged holds the one
convergence rule, of quad and the cells.
Infinite pieces are integrated over half-periods of the kernel (cells of
phase length pi), with Wynn epsilon acceleration of the alternating cell
sums; every piece walks outward from its split point, the piece below it
downward, and the two pieces of the full line are one batch.  Each tail
cell, and each head cell of a monotone phase, gets QUADPACK's 21-point
Gauss-Kronrod rule (dqk21) in numpy, tail cells eight per pass
(_MIN_CELLS + _STABLE_STEPS).

A time grid is one batch: every public amplitude maps a grid to one triple
per time, and the single-time functions are the batch of one.  On each
pass, the next cells of every t still summing are evaluated together: the
density and the phase each take their nodes as one float64 array, and one
call of each rule sums them.  The rules sum each cell in a fixed order, so
a cell's bits do not depend on its block, and a series is bit-identical to
its pointwise values.  Each t keeps its own head, Wynn table and stop
rules, run in order over its own cells.  A cell that misses its rule's
first-pass test is bisected in the passes that follow until its parts meet
dqagse's test; others agree with QUADPACK's to rounding.  This gives uniform
accuracy in t; heavy algebraic tails converge through the acceleration
instead of an (infeasibly large) explicit cutoff, and the analytic tail
mass only enters a failure's bound.

A mass is exact when the density has a cdf (a difference of two values);
only a density without one has its masses integrated by quad, cut at its
feature points.  quad, the one adaptive integrator of what is not
oscillatory (those masses and diagnostics.pw_sweep), is built from the
cells' parts: each of its pieces is a dqk21 cell, and a first-pass miss,
of a piece or of a half-period or head cell, is bisected by one
refinement, _ruled.

Every piece (a half-line's cell sum, a mass, a ramp side) gives a (value,
error bound, detail) triple; detail is None on success and otherwise names
the failure, whose value is the best estimate.  Parts combine by one
rule: values add with their weights, all bounds add, and the first failed
part's detail is kept.
A single-time function raises the one QuadratureFailure of its combined
triple, carrying its t; a series raises one SeriesFailure holding each
failed time's QuadratureFailure, the same one that time raises alone.
Every entry checks its times first: finite, and for a series a 1-d,
strictly increasing grid.

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

from .spectral import SpectralDensity


# fixed settings of the engine, described in QuadratureConfig
_MAX_SUBDIVISIONS = 200
# the bisections of a refined cell that gain nothing but roundoff before it stops
_ROUNDOFF_BISECTIONS = 10
_NEGLIGIBLE_FACTOR = 0.02
_STABLE_STEPS = 2
# the most half-period cells of an infinite piece's tail, and the cells
# before its first convergence check
_MAX_CELLS = 400
_MIN_CELLS = 6
# the most half-period cells of a monotone head
_MAX_HEAD_CELLS = 20_000
# the most cells of one evaluation of the integrand and the block rule,
# unless one block alone has more: larger evaluations gain no speed and
# cost memory
_BLOCK_CELLS = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of every integral.

    abs_tol and rel_tol, positive and finite, are the target accuracy.

    Fixed, not settable: a refined cell or piece of quad gets at most
    _MAX_SUBDIVISIONS (200) parts, and stops after _ROUNDOFF_BISECTIONS (10)
    bisections that gain only roundoff; an infinite piece's tail sums at most
    _MAX_CELLS (400) half-period cells and checks convergence from its
    _MIN_CELLS-th (6th) on; it stops as truncated after two consecutive
    cells below _NEGLIGIBLE_FACTOR (0.02) * abs_tol, and as converged after
    _STABLE_STEPS (2) consecutive Wynn-stable estimates.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        for name, tol in (("abs_tol", self.abs_tol), ("rel_tol", self.rel_tol)):
            if not 0 < tol < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {tol}")

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


def _judged(value, error, converged, cfg, what):
    """(value, error, detail) under the one convergence rule: "<what> did not
    converge" when it did not and its error exceeds cfg.target(value)."""
    failed = not converged and error > cfg.target(value)
    return value, float(error), (f"{what} did not converge" if failed else None)


def _summed(pieces, cfg, what):
    """One _judged triple of pieces of quad: their values and errors add,
    and it converged when every piece did."""
    values, errors, converged = zip(*pieces)
    return _judged(sum(values), sum(errors), all(converged), cfg, what)


def _quad(f, a, b, epsabs, epsrel, cfg, what, points=()):
    """quad over [a, b] as one _summed triple."""
    return _summed(quad(f, a, b, epsabs, epsrel, points), cfg, what)


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
    cdf (bound 0), otherwise quad's, cut at the feature points."""
    slo, shi = d.support
    lo, hi = max(lo, slo), min(hi, shi)
    if not lo < hi:
        return 0.0, 0.0, None
    if d.cdf is not None:
        return d.cdf(hi) - d.cdf(lo), 0.0, None
    return _quad(d.density, lo, hi, cfg.abs_tol, cfg.rel_tol, cfg, "mass integral",
                 d.feature_points)


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
    _GK21_NODES, and epsabs a float or one per cell.  As scipy's
    quad(complex_func=True) does, the real and imaginary parts are
    integrated as two real integrals, with dqk21's error estimate and
    dqagse's acceptance test as array expressions.  The node sums are
    einsum's, column by column in a fixed order, so a cell's value and
    verdict do not depend on the block it is evaluated in (a BLAS product's
    bits depend on a column's position); a cell's value agrees with
    QUADPACK's to rounding and its error estimate to the cancellation in the
    Kronrod-Gauss difference.  Returns one (value, error, accepted) per
    cell: the Kronrod value, the summed error estimates of both parts, and
    whether both parts' first pass passes dqagse's test (ier = 0 with no
    refinement); other cells are refined.
    """
    n = len(half_lengths)
    f = np.concatenate((values.real, values.imag), axis=1)
    hlgth = np.tile(half_lengths, 2)
    dhlgth = np.abs(hlgth)
    kronrod = _GK21_WEIGHTS[0]
    resk, resg = np.einsum("ik,kn->in", _GK21_WEIGHTS, f)
    resabs = np.einsum("k,kn->n", kronrod, np.abs(f)) * dhlgth
    resasc = np.einsum("k,kn->n", kronrod, np.abs(f - 0.5 * resk)) * dhlgth
    result = resk * hlgth
    abserr = np.abs((resk - resg) * hlgth)
    ratio = np.divide(200.0 * abserr, resasc, out=np.zeros_like(resasc), where=resasc != 0)
    abserr = np.where(resasc != 0, resasc * np.minimum(1.0, ratio**1.5), abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
    errbnd = np.maximum(np.tile(np.broadcast_to(epsabs, n), 2), epsrel * np.abs(result))
    roundoff = (abserr <= (100.0 * _EPMACH) * resabs) & (abserr > errbnd)
    ok = ~roundoff & (((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0))
    value = result[:n] + 1j * result[n:]
    return list(zip(value.tolist(), (abserr[:n] + abserr[n:]).tolist(),
                    (ok[:n] & ok[n:]).tolist()))


# ---------------------------------------------------------------------------
# 25-point Clenshaw-Curtis cells of the linear phase (QUADPACK dqc25f)


def _chebyshev_interpolation(n):
    """Values at the 25 nodes to the Chebyshev coefficients (rows) of their
    interpolant on every (24/n)-th node, cos(pi jk/n) as an exact odd sine."""
    k, full = np.arange(n + 1), np.zeros((25, 25))
    halved = np.where(k % n, 1.0, 0.5)  # the end terms of both sums count half
    cos = np.sin(np.pi * (n - 2 * (np.outer(k, k) % (2 * n))) / (2 * n))
    full[:n + 1, ::24 // n] = (2.0 / n) * np.outer(halved, halved) * cos
    return full


# the nodes cos(j pi/24) from 1 to -1; the maps of the 25- and 13-point rules
_CC25_NODES = np.sin(np.pi * np.arange(12, -13, -1) / 24.0)
_CC25_COEFFICIENTS = np.array([_chebyshev_interpolation(24), _chebyshev_interpolation(12)])
# the 64-point Gauss-Legendre rule's positive nodes, and its weights times
# T_k there, doubled: T_k has k's parity, so each moment sums a mirror pair
_GL64_NODES, _gl64_weights = (x[32:] for x in np.polynomial.legendre.leggauss(64))
_GL64_CHEBYSHEV = 2.0 * np.polynomial.chebyshev.chebvander(_GL64_NODES, 24).T * _gl64_weights


def _chebyshev_moments(omega):
    """int_{-1}^{1} T_k(y) exp(-i omega y) dy for each omega of an array
    (rows) and k = 0..24 (columns): by the 64-point Gauss-Legendre rule for
    |omega| <= 24, above by the forward recursion (Piessens & Branders, J.
    Comput. Appl. Math. 1 (1975) 153-164), which is stable for k < |omega|."""
    moments = np.empty((omega.size, 25), dtype=complex)
    near = np.abs(omega) <= 24.0
    # the moments are real for even k (cos) and imaginary for odd k (sin)
    theta = np.outer(omega[near], _GL64_NODES)
    moments[near, 0::2] = np.einsum("km,nm->nk", _GL64_CHEBYSHEV[0::2], np.cos(theta))
    moments[near, 1::2] = -1j * np.einsum("km,nm->nk", _GL64_CHEBYSHEV[1::2], np.sin(theta))
    if near.all():
        return moments
    # with a = -omega and the moments m_k, i m_k: integrating T_k by parts
    # (2 T_k = T'_{k+1}/(k+1) - T'_{k-1}/(k-1)) gives, in v_k = m_k/k,
    # v_{k+1} = (-1)^k 2k v_k/a + v_{k-1} + c_k/(k^2 - 1), c_k from T_{k+1}'s
    # end values: 4 cos(a)/a for even k, -4 sin(a)/a for odd k
    a, k = -omega[~near], np.arange(2.0, 24.0)[:, None]
    inv, sin, cos = 1.0 / a, np.sin(a), np.cos(a)
    m0 = 2.0 * sin * inv
    m1 = (m0 - 2.0 * cos) * inv
    rows = [m0, m1, 0.5 * (m0 - 4.0 * m1 * inv)]
    step = ((-1.0) ** k * 2 * k) * inv
    ends = np.where(k % 2 == 0, 4.0 * cos * inv, -4.0 * sin * inv) / (k * k - 1)
    for j in range(22):
        rows.append(step[j] * rows[-1] + rows[-2] + ends[j])
    far = np.array(rows).T * np.arange(25.0).clip(1.0)
    moments[~near, 0::2], moments[~near, 1::2] = far[:, 0::2], 1j * far[:, 1::2]
    return moments


def _cc25_cells(values, centres, half_lengths, t, epsabs, epsrel):
    """QUADPACK's dqc25f rule on a block of cells of the linear phase: one
    (value, error, accepted) per cell of int weight(x) exp(-i t x) dx, from
    the real weight at centres[i] + half_lengths[i] * _CC25_NODES (values[i]),
    t and epsabs one per cell.  The weight's 25-point Clenshaw-Curtis
    interpolant times exact Chebyshev moments of the kernel is the value,
    however many oscillations the cell spans, its difference from the
    13-point rule the error, accepted within max(epsabs, epsrel |value|).
    Each sum is einsum's over a contiguous last axis, whose bits do not
    depend on the block (over the first axis, a block of one cell's do)."""
    coefficients = np.einsum("rkj,nj->rnk", _CC25_COEFFICIENTS, values)
    moments = _chebyshev_moments(t * half_lengths)
    result = (np.einsum("rnk,nk->rn", coefficients, moments)
              * (half_lengths * np.exp(-1j * t * centres)))
    value, error = result[0], np.abs(result[0] - result[1])
    accepted = error <= np.maximum(epsabs, epsrel * np.abs(value))
    return list(zip(value.tolist(), error.tolist(), accepted.tolist()))


# ---------------------------------------------------------------------------
# adaptive bisection of cells, and quad

def _ruled(edges, tol, rel, cc=False):
    """The cells between consecutive edges as (end, (value, error,
    converged)) by a generator of requests (lo, hi, tol, cc) to rule, by
    _cc25_cells when cc, else by _qk21_cells, each at the relative
    tolerance rel.  A first-pass miss is refined breadth first: each pass
    bisects its parts whose errors exceed their length share of tol, the
    largest first, until their summed error meets max(tol, rel |value|)
    (dqagse's test), _MAX_SUBDIVISIONS, or _ROUNDOFF_BISECTIONS bisections
    whose halves sum to within 1e-5 of the part's value with at least 0.99
    of its error (dqagse's roundoff test, iroff1); converged says whether the
    first pass or the refined parts met the test."""
    lo, hi = edges[:-1], edges[1:]
    cells = yield lo, hi, tol, cc
    # each missed cell's parts (a, b, value, error), in order from its start
    parts = {j: [(lo[j], hi[j], val, err)] for j, (val, err, ok) in enumerate(cells) if not ok}
    roundoff = dict.fromkeys(parts, 0)

    def total(ps):
        value, error = sum((p[2] for p in ps[1:]), ps[0][2]), sum(p[3] for p in ps)
        return value, error, error <= max(tol, rel * abs(value))

    def to_bisect(j, ps):
        above = [p for p in ps if p[3] > tol * (p[1] - p[0]) / (hi[j] - lo[j])]
        return sorted(above, key=lambda p: -p[3])[:_MAX_SUBDIVISIONS - len(ps)]

    while split := [(j, p, 0.5 * (p[0] + p[1])) for j, ps in parts.items()
                    if not total(ps)[2] and roundoff[j] < _ROUNDOFF_BISECTIONS
                    for p in to_bisect(j, ps)]:
        halves = iter((yield [e for _, p, m in split for e in (p[0], m)],
                             [e for _, p, m in split for e in (m, p[1])], tol, cc))
        halved = {(j, p[0]): [(p[0], m, *next(halves)[:2]), (m, p[1], *next(halves)[:2])]
                  for j, p, m in split}
        for j, p, _ in split:
            (_, _, v1, e1), (_, _, v2, e2) = halved[j, p[0]]
            roundoff[j] += (abs(p[2] - (v1 + v2)) <= 1e-5 * abs(v1 + v2)
                            and e1 + e2 >= 0.99 * p[3])
        parts = {j: [q for p in ps for q in halved.get((j, p[0]), [p])]
                 for j, ps in parts.items()}
    return zip(hi, [total(parts[j]) if j in parts else (val, err, True)
                    for j, (val, err, _) in enumerate(cells)])


def quad(f, a, b, epsabs, epsrel, points=()):
    """int_a^b f(x) dx by adaptive 21-point Gauss-Kronrod quadrature, f
    called on one float at a time: one (value, error, converged) per piece
    between a, the points strictly inside and b, converged when the piece
    meets max(epsabs, epsrel |value|).

    Each piece is a cell of _ruled, ruled by _qk21_cells and bisected in its
    own coordinate: x between the outermost finite edges, and an infinite
    end beyond its outermost edge c in s in (0, 1], x = c +- L (1 - s)/s with
    L = max(1, |c|) (QUADPACK dqagie's map, scaled to c).  The full line
    without points is one piece split at 0.  A reversed range is minus the
    ascending one, piece by piece.
    """
    if b < a:
        ascending = quad(f, b, a, epsabs, epsrel, points)
        return [(-value, error, ok) for value, error, ok in reversed(ascending)]
    if a == b:  # an empty range, at an infinite end too
        return [(0.0, 0.0, True)]
    edges = [a, *sorted({p for p in points if a < p < b}), b]

    def ruled(cell_edges, x_of):
        """The triples of the cells between cell_edges, each node u at x_of(u)
        = (x, dx/du)."""
        walk = _ruled(cell_edges, epsabs, epsrel)
        lo, hi, tol, _ = next(walk)
        while True:
            lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
            half = 0.5 * (hi - lo)
            x, dx = x_of(0.5 * (hi + lo) + half * _GK21_NODES[:, None])
            values = np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
            try:
                lo, hi, tol, _ = walk.send(_qk21_cells(values * dx, half, tol, epsrel))
            except StopIteration as stop:
                return [(value.real, error, ok) for _, (value, error, ok) in stop.value]

    def beyond(c, way):
        scale = max(1.0, abs(c))
        return lambda s: (c + way * scale * (1.0 - s) / s, scale / (s * s))

    span = [e for e in edges if math.isfinite(e)] or [0.0]
    pieces = [*(ruled([0.0, 1.0], beyond(span[0], -1.0)) if a == -math.inf else ()),
              *ruled(span, lambda x: (x, 1.0)),
              *(ruled([0.0, 1.0], beyond(span[-1], 1.0)) if b == math.inf else ())]
    if len(pieces) < len(edges):
        return pieces
    # the full line without points: its two halves are one piece
    (v1, e1, ok1), (v2, e2, ok2) = pieces
    return [(v1 + v2, e1 + e2, ok1 and ok2)]


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
    """The cuts of a head from a to b, a range in either order: the points
    strictly between a and b, and a +- 4^k s short of b, s the distance from
    a to the farthest point, ordered from a."""
    way = 1.0 if b > a else -1.0
    cuts = {p for p in points if a < p < b or b < p < a}
    s = max([abs(p - a) for p in points], default=0.0)
    while s and way * (b - (a + way * s)) > 0:
        cuts.add(a + way * s)
        s *= 4.0
    return sorted(cuts, reverse=way < 0)


def _semi_infinite_osc(
    weight: Callable[[float], float],
    sums: Sequence[tuple[float, int]],
    x0: float,
    cfg: QuadratureConfig,
    phase: Callable[[float], float] | None = None,
    phase_inv: Callable[[float], float] | None = None,
    points: Sequence[float] = (),
    mass: Callable[[float, float], float] | None = None,
    end: float | None = None,
):
    """int_{x0}^{way*inf} weight(x) exp(-i t phase(x)) dx for each (t, way) of
    sums, t > 0 and way = +1 or -1, for an increasing phase: one (value,
    error bound, detail) triple per sum; with a finite end (way = +1, the
    linear phase), int_{x0}^{end}, a head with no tail.

    A sum walks away from x0 in signed half-periods h = way*pi/t: its cells
    end at pin(u0 + (k+1)h), u0 = phase(x0), so a downward sum is minus the
    integral until its triple is negated, once, when it stops.  The density
    bulk is integrated as a single head piece; only the clean alternating
    tail beyond it feeds the epsilon table, so a far-off peak cannot poison
    the extrapolation.  One head rule serves both phases: the head reaches
    from u0 as far as the farthest feature point's phase on either side,
    rounded up to whole half-periods (or to a window's end), and is cut by
    _head_cuts in u into cells, the head tolerance split over them: the
    linear head's cells are ruled by _cc25_cells; the monotone head adds at
    most _MAX_HEAD_CELLS half-period edges, mapped to x by phase_inv.

    Each sum is a scalar loop (cell_sum) that asks for its cells, as
    x-intervals, a block at a time: the head, then _MIN_CELLS + _STABLE_STEPS
    tail cells per pass, and the halves of a block's first-pass misses in
    the passes between (_ruled).  A pass gathers the requests of every sum
    still running, by rule, into evaluations of at most _BLOCK_CELLS cells:
    weight and phase each take all their nodes as one float64 array
    (SpectralDensity's array contract), and one rule call rules on all their
    cells, whose values do not depend on the block, so each sum gets the
    bits it would get alone.  Each sum then runs its Wynn update and stop
    rules over its own cells in order.  A head or cell that did not converge
    (_judged's rule), a monotone head over the cap, or a tail sum not stable
    within _MAX_CELLS cells leaves by the one failure exit: the best
    estimate, its bound plus mass(lo, hi), the mass beyond the last cell
    summed.  A sum that stops with a bound above cfg.target(value) fails,
    naming its bound.
    """
    identity = lambda u: u
    ph, pin = phase or identity, phase_inv or identity
    # the phase of the split point and of the feature points, one array call
    u0, *upoints = ph(np.array([x0, *points], dtype=float)).tolist()
    # the head reaches as far from u0 as the farthest feature point's phase
    reach = max([abs(u - u0) for u in upoints], default=0.0)
    cell_tol = max(cfg.abs_tol / 64.0, 1e-15)
    head_name = ("half-period cell" if phase is not None else "oscillatory head integral"
                 if end is None else "finite-window oscillatory integral")  # of its failures

    def settled(value, bound):
        """A stopped sum's triple: it succeeds only within cfg.target(value)."""
        if bound <= cfg.target(value):
            return value, bound, None
        return value, bound, f"oscillatory cell sum's error bound {bound:.3e} exceeds its tolerance"

    def cell_sum(t, way):
        """The sum at (t, way) as a generator of _ruled's requests for each
        block of cells it needs; returns its triple."""
        h = way * math.pi / t
        partial, quad_err, detail = 0.0 + 0.0j, 0.0, None
        a = x0
        k_clear = int(math.ceil((u0 + way * reach - u0) / h)) if end is None else 0
        u_start = u0 + k_clear * h if end is None else end
        if phase is not None and k_clear > _MAX_HEAD_CELLS:
            detail = f"head region spans {k_clear} oscillations"
        elif k_clear > 0 or end is not None:
            # cuts and a monotone head's half-periods, ordered from u0, summed
            # plainly (the epsilon table extrapolates the tail only)
            us = {u0 + (j + 1) * h for j in range(k_clear)} if phase is not None else {u_start}
            us = sorted(us | set(_head_cuts(u0, u_start, upoints)), reverse=way < 0)
            head_tol = max(cfg.abs_tol / (8.0 * len(us)), 1e-15)
            for a, cell in (yield from _ruled([x0, *map(pin, us)], head_tol, 1e-12,
                                              phase is None)):
                val, err, cell_detail = _judged(*cell, cfg, head_name)
                partial += val
                quad_err += err
                detail = detail or cell_detail
        if end is not None:
            return partial, quad_err, detail

        row: list = [partial] if partial != 0 else []
        est_prev = None
        stable = 0
        negligible = 0
        k = 0
        while detail is None and k < _MAX_CELLS:
            # blocks of _MIN_CELLS + _STABLE_STEPS cells: the first one reaches
            # the earliest Wynn-stable stop; cells past a stop are discarded
            m = min(_MIN_CELLS + _STABLE_STEPS, _MAX_CELLS - k)
            edges = [a] + [pin(u_start + (k + j + 1) * h) for j in range(m)]
            for b, cell in (yield from _ruled(edges, cell_tol, 1e-12)):
                val, err, detail = _judged(*cell, cfg, "half-period cell")
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
                    if negligible >= 2 and k + 1 >= _MIN_CELLS:
                        return settled(partial, quad_err + 3.0 * abs(val))
                else:
                    negligible = 0
                if est_prev is not None and k + 1 >= _MIN_CELLS:
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
        if mass is not None:
            try:
                bound += abs(mass(*sorted((a, way * math.inf))))
            except Exception:
                bound = math.inf
        return best, bound, (detail or
                             f"oscillatory cell sum did not stabilize within {_MAX_CELLS} cells")

    def rule(requests):
        """The block rule on the cells lo[j] to hi[j] of every request (t, lo,
        hi, tol, cc), all of one rule, from one evaluation of the integrand on
        all their nodes: per request, its cells' (value, error, accepted)."""
        ts, los, his, tols, ccs = zip(*requests)
        sizes = [len(lo) for lo in los]
        lo, hi = np.concatenate(los), np.concatenate(his)
        t, tol = np.repeat([ts, tols], sizes, axis=1)
        centr, hlgth = 0.5 * (hi + lo), 0.5 * (hi - lo)
        if ccs[0]:
            x = centr[:, None] + hlgth[:, None] * _CC25_NODES
            cells = _cc25_cells(weight(x), centr, hlgth, t, tol, 1e-12)
        else:
            x = centr + hlgth * _GK21_NODES[:, None]
            cells = _qk21_cells(weight(x) * np.exp(-1j * t * ph(x)), hlgth, tol, 1e-12)
        return [cells[stop - n:stop] for n, stop in zip(sizes, np.cumsum(sizes).tolist())]

    walks = [cell_sum(t, way) for t, way in sums]
    results = [None] * len(walks)
    requests = {}  # sum index -> its pending (lo, hi, tol, cc)

    def advance(i, block):
        try:
            requests[i] = walks[i].send(block)
        except StopIteration as stop:
            requests.pop(i, None)
            value, bound, detail = stop.value
            results[i] = (-value if sums[i][1] < 0 else value), bound, detail

    def run(group):
        for i, block in zip(group, rule([(sums[i][0], *requests[i]) for i in group])):
            advance(i, block)

    for i in range(len(walks)):
        advance(i, None)
    while requests:
        # one pass: the next block of every running sum, by rule, in
        # evaluations of at most _BLOCK_CELLS cells (a larger block alone)
        group, size = [], 0
        for i in sorted(requests, key=lambda i: requests[i][3]):
            n = len(requests[i][1])
            if group and (size + n > _BLOCK_CELLS or requests[i][3] != requests[group[0]][3]):
                run(group)
                group, size = [], 0
            group.append(i)
            size += n
        run(group)
    return results


# ---------------------------------------------------------------------------
# density-facing operations


def _time_grid(times) -> np.ndarray:
    """times as a float array, checked before any quadrature runs: 1-d,
    finite and strictly increasing, or a ValueError naming t."""
    t = np.asarray(list(times), dtype=float)
    if t.ndim != 1:
        raise ValueError(f"t must be a 1-d grid, got shape {t.shape}")
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise ValueError(f"t must be finite, got {bad[0]}")
    steps = np.flatnonzero(np.diff(t) <= 0)
    if steps.size:
        i = steps[0]
        raise ValueError(f"t must be strictly increasing, got {t[i]:g} before {t[i + 1]:g}")
    return t


def _point(amplitudes, t):
    """The batch of one: amplitudes, a map from a time grid to one triple
    per time, at t alone; raises the QuadratureFailure of a failed triple."""
    [triple] = amplitudes(_time_grid([t]))
    return _checked(t, *triple)


def _series(amplitudes, times) -> ComplexTimeSeries:
    """amplitudes on the checked grid times as a series.  Failed points keep
    their best estimates; their failures, each with its t, are raised
    together as one SeriesFailure that carries the series."""
    t = _time_grid(times)
    triples = amplitudes(t)
    failures = [QuadratureFailure(detail, value, bound, t=ti)
                for ti, (value, bound, detail) in zip(t.tolist(), triples) if detail is not None]
    series = ComplexTimeSeries(t, np.array([value for value, _, _ in triples], dtype=complex))
    if failures:
        raise SeriesFailure(series, failures)
    return series


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
    omitted, the phase is the identity (the plain Fourier transform, the
    only phase of a finite window).  t must be finite; t = 0 is the mass
    integral and t < 0 the conjugate of the transform at -t.  Infinite
    ranges are summed in half-period cells walking outward from a split
    point (the finite end, or d.center on the full line, both ways in one
    batch).  When a piece fails, the one QuadratureFailure raised carries
    the sum of both pieces' estimates under the sum of their error bounds.
    """
    return _point(lambda ts: _amplitudes(d, lo, hi, ts, cfg, phase, phase_inv), t)


def restricted_amplitude_series(
    d: SpectralDensity,
    lo: float,
    hi: float,
    times,
    cfg: QuadratureConfig,
    phase: Callable[[float], float] | None = None,
    phase_inv: Callable[[float], float] | None = None,
) -> ComplexTimeSeries:
    """restricted_amplitude on a time grid, in one batch, with SeriesFailure
    semantics."""
    return _series(lambda ts: _amplitudes(d, lo, hi, ts, cfg, phase, phase_inv), times)


def _amplitudes(d, lo, hi, times, cfg, phase=None, phase_inv=None):
    """restricted_amplitude at each t of times (a float array) as a list of
    (value, error bound, detail) triples.  On an infinite range the
    half-line sums of every t != 0, at |t| and in both directions on the
    full line, run as one batch."""
    times = times.tolist()
    slo, shi = d.support
    lo, hi = max(lo, slo), min(hi, shi)
    if not lo < hi:
        return [(0.0 + 0.0j, 0.0, None)] * len(times)
    triples, moving = [None] * len(times), []
    for i, t in enumerate(times):
        if t == 0:
            val, err, detail = _mass(d, lo, hi, cfg)
            triples[i] = (complex(val), err, detail)
        else:
            moving.append(i)
    if moving:
        # a window or a half-line walks from its finite end, the full line both
        # ways from the centre, in one batch; a line's pieces combine lower first
        end = hi if math.isfinite(lo) and math.isfinite(hi) else None
        if end is not None and phase is not None:
            raise ValueError("a nonlinear phase needs an infinite range")
        if math.isfinite(lo):
            x0, ways = lo, (1,)
        elif math.isfinite(hi):
            x0, ways = hi, (-1,)
        else:
            x0, ways = d.center, (-1, 1)
        loose = QuadratureConfig(1e-6, 1e-6)
        sums = [(abs(times[i]), way) for way in ways for i in moving]
        pieces = _semi_infinite_osc(d.density, sums, x0, cfg, phase, phase_inv, d.feature_points,
                                    lambda a, b: mass_integral(d, a, b, loose), end)
        for j, i in enumerate(moving):
            triples[i] = _combine(pieces[j::len(moving)])
    return [(value.conjugate(), bound, detail) if t < 0 else (value, bound, detail)
            for t, (value, bound, detail) in zip(times, triples)]


def fourier_amplitude(d: SpectralDensity, t: float, cfg: QuadratureConfig) -> complex:
    """Survival amplitude a(t) = int exp(-i E t) d(E) dE over the full support.

    a(0) = 1 for a normalized density; |a(t)| <= 1 up to the quadrature
    tolerance; a(-t) is the conjugate of a(t) by construction.
    """
    return _point(lambda ts: _amplitudes(d, -math.inf, math.inf, ts, cfg), t)


def amplitude_series(d: SpectralDensity, times, cfg: QuadratureConfig) -> ComplexTimeSeries:
    """fourier_amplitude on a strictly increasing, finite time grid, every
    point's half-line cells summed in one batch; each value is bit-identical
    to fourier_amplitude's.

    Per-point quadrature failures are collected (with the failing time
    attached) and raised as a SeriesFailure that still carries the full
    series with best estimates in place.
    """
    return _series(lambda ts: _amplitudes(d, -math.inf, math.inf, ts, cfg), times)


def halfline_amplitude(
    d: SpectralDensity, ramp_side: str, t: float, cfg: QuadratureConfig
) -> complex:
    """Expectation of exp(-i t q_side) where q_side multiplies by the ramp
    max(+-x, 0): one half-line is frozen at phase 1, the other contributes the
    Fourier integral of the density in the ramp's eigenvalue coordinate.
    """
    return _point(lambda ts: _halfline_amplitudes(d, ramp_side, ts, cfg), t)


def _halfline_amplitudes(d, ramp_side, times, cfg):
    """halfline_amplitude at each t of times as (value, error bound, detail)
    triples, the frozen half-line mass one part of each."""
    # (frozen half, active half, sign of the active transform's time): the
    # negative-side ramp's eigenvalue is -x >= 0 on the active side, so
    # int_{-inf}^0 e^{-i(-x)t} d(x) dx is the restricted transform at -t
    sides = {
        "positive": ((-math.inf, 0.0), (0.0, math.inf), 1.0),
        "negative": ((0.0, math.inf), (-math.inf, 0.0), -1.0),
    }
    if ramp_side not in sides:
        raise ValueError(f"ramp_side must be 'positive' or 'negative', got {ramp_side!r}")
    still, active, sign = sides[ramp_side]
    frozen = _mass(d, *still, cfg)
    return [_combine([frozen, part]) for part in _amplitudes(d, *active, sign * times, cfg)]


def global_survival(
    chi_weights: tuple[float, float], d: SpectralDensity, t: float, cfg: QuadratureConfig
) -> complex:
    """Survival amplitude of the factorized pure state chi (x) phi:
    w0 <exp(-i t q_+)> + w1 <exp(-i t q_-)>.  When a side fails, the one
    QuadratureFailure raised carries the weighted sum of both sides' values
    or estimates under the weighted sum of their error bounds."""
    return _point(lambda ts: _global_survivals(chi_weights, d, ts, cfg), t)


def _global_survivals(chi_weights, d, times, cfg):
    """global_survival at each t of times as (value, error bound, detail)
    triples."""
    w0, w1 = chi_weights
    if not (w0 >= 0 and w1 >= 0 and abs(w0 + w1 - 1.0) <= 1e-12):
        raise ValueError(f"spin weights must be non-negative and sum to 1, got {chi_weights}")
    sides = [[(w * value, w * bound, detail)
              for value, bound, detail in _halfline_amplitudes(d, side, times, cfg)]
             for w, side in ((w0, "positive"), (w1, "negative")) if w]
    return [_combine(parts) for parts in zip(*sides)]


def global_survival_series(
    chi_weights, d: SpectralDensity, times, cfg: QuadratureConfig
) -> ComplexTimeSeries:
    """global_survival on a time grid, in one batch, with SeriesFailure
    semantics."""
    return _series(lambda ts: _global_survivals(chi_weights, d, ts, cfg), times)

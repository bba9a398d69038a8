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
half-period cells whose edges include its cuts.  _missed holds the one
convergence rule, of quad, the cells and the sums, over arrays.
Infinite pieces are integrated over half-periods of the kernel (cells of
phase length pi), with Wynn epsilon acceleration of the alternating cell
sums; every piece walks outward from its split point, the piece below it
downward, and the two pieces of the full line are one batch.  Each tail
cell, and each head cell of a monotone phase, gets QUADPACK's 21-point
Gauss-Kronrod rule (dqk21) in numpy, tail cells eight per pass
(_MIN_CELLS + _STABLE_STEPS).

A time grid is one batch: every public amplitude maps a grid to three
arrays, its values, error bounds and details (None on success), and the
single-time functions are the batch of one.  On each
pass, the next cells of every t still summing are evaluated together: one
phase_inv call maps the edges of every block they start (the heads' call
maps the first tail blocks too), the density and
the phase each take their nodes as one float64 array, and one call of each
rule gives their values, errors and verdicts as arrays, at most
_BLOCK_CELLS cells an evaluation.  Each edge and each cell is computed
elementwise, so its bits do not depend on its array, and a series is
bit-identical to its pointwise values.  Each t keeps its own head, but
each way's cuts are made once and one mask judges every head cell; the
tail is array-wide: every running sum's cells are summed, its Wynn table
extended column by column and its stop rules applied as masks over all the
sums together, in Python's complex arithmetic bit for bit.  Every stage,
the heads of all sums or one tail pass, has dqagse's structure: a first
pass, then _refine bisects all its misses together, one rule call per
level, until their parts meet dqagse's test; others agree with QUADPACK's
to rounding.  This gives uniform accuracy in t; heavy algebraic
tails converge through the acceleration instead of an (infeasibly large)
explicit cutoff, and the analytic tail mass only enters a failure's bound.

A mass is exact when the density has a cdf (a difference of two values);
only a density without one has its masses integrated by quad, cut at its
feature points.  quad, the one adaptive integrator of what is not
oscillatory (those masses and diagnostics.pw_sweep), is built from the
cells' parts: each of its pieces is a dqk21 cell, and first-pass misses,
of pieces or of half-period or head cells, are bisected by one
refinement, _refine, its integrand called on a level's nodes as one array.

Every part (a batch of half-line cell sums, a mass, a ramp side) gives a
value, an error bound and a detail, None on success and otherwise naming the
failure, whose value is the best estimate.  Parts combine by one rule, time
by time as arrays: values add with their weights, all bounds add, and the
first failed part's detail is kept.
A single-time function raises the one QuadratureFailure of its combined
value, carrying its t; a series raises one SeriesFailure holding each
failed time's QuadratureFailure, the same one that time raises alone.
Every entry checks its times first: finite, and for a series a 1-d,
strictly increasing grid.

Everything here is pure and deterministic: identical inputs and config
produce bit-identical results, so concurrent and sequential evaluation of
batches agree exactly.
"""

from __future__ import annotations

import bisect
import itertools
import math
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
# the most half-period cells of a monotone head (31,831 at gamma*t = 1e5):
# the edges of every head, with every sum's first tail block, are one
# phase_inv call, their cells one stage of first pass and refinement
_MAX_HEAD_CELLS = 65_536
# the most cells of one evaluation of the integrand and the block rule, a
# larger block's taken in slices: larger evaluations gain no speed and cost
# memory
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


def _missed(values, errors, converged, cfg):
    """The one convergence rule over arrays (or scalars): the mask of results
    that did not converge with an error above cfg.target(value), or NaN."""
    failed = ~converged
    if failed.any():
        with np.errstate(all="ignore"):
            failed &= ~(errors <= np.fmax(cfg.abs_tol, cfg.rel_tol * _modulus(values)))
    return failed


def _summed(pieces, cfg, what):
    """One (value, error, detail) triple of pieces of quad: values and errors
    add, converged when every piece did, "<what> did not converge" by _missed."""
    values, errors, converged = zip(*pieces)
    value, error = sum(values), float(sum(errors))
    return value, error, (f"{what} did not converge"
                          if _missed(value, error, np.bool_(all(converged)), cfg) else None)


def _quad(f, a, b, epsabs, epsrel, cfg, what, points=()):
    """quad over [a, b] as one _summed triple."""
    return _summed(quad(f, a, b, epsabs, epsrel, points), cfg, what)


def _checked(t, value, bound, detail):
    """value, or the one QuadratureFailure that carries it, its error bound
    and the time t when detail names a failure (detail is None on success)."""
    if detail is not None:
        raise QuadratureFailure(detail, value, bound, t=t)
    return value


def mass_integral(d: SpectralDensity, lo: float, hi: float, cfg: QuadratureConfig) -> float:
    """Non-oscillatory integral of the density over [lo, hi] (within support)."""
    return _checked(None, *_mass(d, lo, hi, cfg))


def _mass(d, lo, hi, cfg):
    """mass_integral as a (value, error bound, detail) triple: exact from a
    cdf (bound 0), otherwise quad's of d.density, cut at the feature points
    (its nodes lie inside [lo, hi], already clipped to the support)."""
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
_DBL_MAX = np.finfo(float).max
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
    Kronrod-Gauss difference.  Returns three arrays, one entry a cell: the
    Kronrod values, the summed error estimates of both parts, and whether
    both parts' first pass passes dqagse's test (ier = 0 with no
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
    return result[:n] + 1j * result[n:], abserr[:n] + abserr[n:], ok[:n] & ok[n:]


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
    """QUADPACK's dqc25f rule on a block of cells of the linear phase: the
    arrays (values, errors, accepted), one entry a cell, of int weight(x)
    exp(-i t x) dx, from the real weight at centres[i] + half_lengths[i] *
    _CC25_NODES (values[i]), t and epsabs one per cell.  The weight's 25-point
    Clenshaw-Curtis interpolant times exact Chebyshev moments of the kernel is
    the value, however many oscillations the cell spans, its difference from
    the 13-point rule the error, accepted within max(epsabs, epsrel |value|).
    Each sum is einsum's over a contiguous last axis, whose bits do not depend
    on the block (over the first axis, a block of one cell's do)."""
    coefficients = np.einsum("rkj,nj->rnk", _CC25_COEFFICIENTS, values)
    moments = _chebyshev_moments(t * half_lengths)
    result = (np.einsum("rnk,nk->rn", coefficients, moments)
              * (half_lengths * np.exp(-1j * t * centres)))
    value, error = result[0], np.abs(result[0] - result[1])
    return value, error, error <= np.maximum(epsabs, epsrel * np.abs(value))


# ---------------------------------------------------------------------------
# adaptive bisection of cells, and quad

def _refine(rule, lo, hi, cells, tol, rel):
    """The refinement of the cells lo[j] to hi[j] (float arrays) from cells,
    the (values, errors, accepted) arrays of their first pass: their (values,
    errors, converged) arrays, cells itself when every cell was accepted.
    rule(which, a, b) gives the arrays of the parts a[i] to b[i] of the cells
    which[i], and tol is a float or one per cell.

    Every missed cell is refined at once, breadth first: each level bisects,
    in one rule call, the parts of every cell still refining whose errors
    exceed their length share of its tol, the largest first, until the
    cell's summed error meets max(tol, rel |value|) (dqagse's test),
    _MAX_SUBDIVISIONS parts, or _ROUNDOFF_BISECTIONS bisections whose halves
    sum to within 1e-5 of the part's value with at least 0.99 of its error
    (dqagse's roundoff test, iroff1).  The parts of the cells still refining
    are flat arrays, each cell's in order from its start, summed in that
    order one part at a time, so a cell's bits do not depend on the others;
    converged says whether the first pass or the refined parts met the
    test."""
    values, errors, accepted = cells
    owner = np.flatnonzero(~accepted)
    if not owner.size:
        return cells
    values, errors, converged = values.copy(), errors.copy(), accepted.copy()
    tol = np.broadcast_to(tol, lo.shape)
    # the cells still refining (ids, ascending), each cell's count of parts
    # and bisections that gained only roundoff, and the parts (owner, a, b,
    # value, error) of the cells still refining, each cell's in order
    ids, (count, roundoff) = owner, np.zeros((2, lo.size), dtype=int)
    count[ids] = 1
    a, b, value, error = lo[owner], hi[owner], values[owner], errors[owner]
    while True:
        # each cell's parts summed in order, one add per part rank
        n = count[ids]
        first = np.cumsum(n) - n
        total, summed = value[first], 0.0 + error[first]
        if n.max() > 1:
            by_size = np.argsort(-n, kind="stable")
            more = ids.size - np.cumsum(np.bincount(n))  # the cells of more than r parts
            for r in range(1, more.size - 1):
                c = by_size[:more[r]]
                total[c] += value[first[c] + r]
                summed[c] += error[first[c] + r]
        met = summed <= np.fmax(tol[ids], rel * _modulus(total))
        values[ids], errors[ids], converged[ids] = total, summed, met
        going = ~met & (roundoff[ids] < _ROUNDOFF_BISECTIONS)
        if not going.any():
            return values, errors, converged
        # the parts above their length share of tol of the cells going on, the
        # largest first in each cell (a stable sort), up to _MAX_SUBDIVISIONS
        above = np.flatnonzero(np.repeat(going, n)
                               & (error > tol[owner] * (b - a) / (hi[owner] - lo[owner])))
        above = above[np.lexsort((-error[above], owner[above]))]
        held = owner[above]
        rank = np.arange(above.size) - np.searchsorted(held, held)
        split = np.sort(above[rank < _MAX_SUBDIVISIONS - count[held]])
        if not split.size:
            return values, errors, converged
        # the halves of every split part in order, in one rule call
        which, mid = owner[split], 0.5 * (a[split] + b[split])
        halves, half_errors, _ = rule(which.repeat(2), np.stack((a[split], mid), axis=1).ravel(),
                                      np.stack((mid, b[split]), axis=1).ravel())
        v1, v2, e1, e2 = halves[0::2], halves[1::2], half_errors[0::2], half_errors[1::2]
        pair = v1 + v2
        roundoff += np.bincount(which[(_modulus(value[split] - pair) <= 1e-5 * _modulus(pair))
                                      & (e1 + e2 >= 0.99 * error[split])], minlength=lo.size)
        count += np.bincount(which, minlength=lo.size)
        # the parts of the cells split, each split part in its two halves
        kept = np.zeros(lo.size, dtype=bool)
        kept[which] = True
        ids, copies = ids[kept[ids]], kept[owner].astype(int)
        copies[split] = 2
        at = np.cumsum(copies)[split] - 2
        owner, a, b, value, error = [np.repeat(x, copies) for x in (owner, a, b, value, error)]
        b[at] = a[at + 1] = mid
        value[at], value[at + 1], error[at], error[at + 1] = v1, v2, e1, e2


def quad(f, a, b, epsabs, epsrel, points=()):
    """int_a^b f(x) dx by adaptive 21-point Gauss-Kronrod quadrature, f
    mapping a float64 array of nodes to their values elementwise: one
    (value, error, converged) per piece between a, the points strictly
    inside and b, converged when the piece meets max(epsabs, epsrel |value|).

    Each piece is a cell in its own coordinate: x between the outermost
    finite edges (way 0), and s in (0, 1] on an infinite end beyond its
    outermost edge c, x = c + way L (1 - s)/s with L = max(1, |c|) (QUADPACK
    dqagie's map, scaled to c).  One _qk21_cells call is every piece's first
    pass and _refine bisects all their misses, one f call a level.  The full
    line without points is one piece split at 0.  A reversed range is minus
    the ascending one, piece by piece.
    """
    if b < a:
        ascending = quad(f, b, a, epsabs, epsrel, points)
        return [(-value, error, ok) for value, error, ok in reversed(ascending)]
    if a == b:  # an empty range, at an infinite end too
        return [(0.0, 0.0, True)]
    edges = [a, *sorted({p for p in points if a < p < b}), b]
    span = [e for e in edges if math.isfinite(e)] or [0.0]
    # each piece's cell lo to hi in u, its way and its edge c
    lo, hi, way, c = np.array([*[(0.0, 1.0, -1.0, span[0])] * (a == -math.inf),
                               *[(x, y, 0.0, 0.0) for x, y in zip(span, span[1:])],
                               *[(0.0, 1.0, 1.0, span[-1])] * (b == math.inf)]).T
    scale = np.maximum(1.0, np.abs(c))

    def rule(which, lo, hi):
        half = 0.5 * (hi - lo)
        x = 0.5 * (hi + lo) + half * _GK21_NODES[:, None]
        dx = np.ones_like(x)
        j = np.flatnonzero(way[which])  # the cells of an infinite end, in s
        s, k = x[:, j], which[j]
        x[:, j], dx[:, j] = c[k] + way[k] * scale[k] * (1.0 - s) / s, scale[k] / (s * s)
        return _qk21_cells(f(x) * dx, half, epsabs, epsrel)

    values, errors, converged = _refine(rule, lo, hi, rule(np.arange(lo.size), lo, hi),
                                        epsabs, epsrel)
    pieces = list(zip(values.real.tolist(), errors.tolist(), converged.tolist()))
    if len(pieces) < len(edges):
        return pieces
    # the full line without points: its two halves are one piece
    (v1, e1, ok1), (v2, e2, ok2) = pieces
    return [(v1 + v2, e1 + e2, ok1 and ok2)]


# ---------------------------------------------------------------------------
# half-period cells + Wynn epsilon acceleration


def _modulus(z):
    """abs(z) of a complex array as CPython computes it, bit for bit (hypot);
    numpy's abs differs in the last bit."""
    return np.hypot(z.real, z.imag)


def _wynn_block(rows, partials):
    """The epsilon tables (Wynn, MTAC 10 (1956) 91-96) of many sums, each
    extended by a block of partial sums, column by column over all of them.

    Row i of partials holds sum i's next partial sums in order, and row i of
    rows the last row of its table so far, not finite past its end.  A new
    row starts with its partial sum and appends entry k = prev[k-2] +
    1/(cur[k-1] - prev[k-1]), prev[-1] = 0, while k <= len(prev); it ends at
    a difference of modulus below 1e-300 or not finite, or at an entry not
    finite.  Returns each new row's estimate, its last entry of even index,
    and the last new rows, not finite past their ends.

    The arithmetic is the scalar table's, Python's complex numbers': the
    modulus by hypot (_modulus), and 1/z by np.reciprocal, which is Smith's
    algorithm as CPython's complex division computes it (_Py_c_quot), bit
    for bit but for the sign of a zero part.  That sign cannot reach an
    entry: x + 0.0 and x - 0.0 are x but for x = -0.0, and no entry has a
    part -0.0 when no partial sum has (a running sum from 0.0 never has), as
    an IEEE sum is -0.0 only of two parts -0.0.  A difference that ends a
    row is replaced by nan, so that the entry, and every entry it reaches,
    is not finite."""
    n, m = partials.shape
    width = rows.shape[1]
    estimates, last = partials, [partials[:, -1]]
    # column k of the tables: the previous row's entry, then the new rows'
    col = np.concatenate((rows[:, :1], partials), axis=1)
    before = 0.0
    for k in range(1, width + m):
        denom = col[:, 1:] - col[:, :-1]
        size = _modulus(denom)
        denom = np.where((size >= 1e-300) & (size <= _DBL_MAX), denom, np.nan)
        entry = before + np.reciprocal(denom)
        finite = np.isfinite(entry)
        if not finite.any():
            break
        if k % 2 == 0:
            estimates = np.where(finite, entry, estimates)
        last.append(entry[:, -1])
        before = col[:, :-1]
        col = np.concatenate((rows[:, k:k + 1] if k < width else np.full((n, 1), np.nan),
                              entry), axis=1)
    return estimates, np.stack(last, axis=1)


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
    weight: Callable[[np.ndarray], np.ndarray],
    sums: Sequence[tuple[float, int]],
    x0: float,
    cfg: QuadratureConfig,
    phase: Callable[[np.ndarray], np.ndarray] | None = None,
    phase_inv: Callable[[np.ndarray], np.ndarray] | None = None,
    points: Sequence[float] = (),
    mass: Callable[[float, float], float] | None = None,
    end: float | None = None,
):
    """int_{x0}^{way*inf} weight(x) exp(-i t phase(x)) dx for each (t, way) of
    sums, t > 0 and way = +1 or -1, for an increasing phase, as three arrays
    written in place, one entry a sum: values, error bounds and details
    (None on success); with a finite end (way = +1, the linear phase),
    int_{x0}^{end}, a head with no tail.

    A sum walks away from x0 in signed half-periods h = way*pi/t: its cells
    end at phase_inv(u0 + (k+1)h), u0 = phase(x0), so a downward sum is
    minus the integral until the values are negated, once, at the end.  The density
    bulk is integrated as a single head piece; only the clean alternating
    tail beyond it feeds the epsilon table, so a far-off peak cannot poison
    the extrapolation.  One head rule serves both phases: the head reaches
    from u0 as far as the farthest feature point's phase on either side,
    rounded up to whole half-periods (or to a window's end), and is cut by
    _head_cuts in u into cells, the head tolerance split over them: the
    linear head's cells are ruled by _cc25_cells; the monotone head adds at
    most _MAX_HEAD_CELLS half-period edges, mapped to x by phase_inv.

    The sums run in stages, each one call of ruled: the first pass of its
    cells and the refinement of their misses together (_refine).  The heads
    of all sums are the first stage: one _head_cuts call per way, to its
    farthest end, whose prefix strictly short of a head's end is that
    head's own cuts (_head_cuts keeps a point or a rung only short of its
    end, and the rungs run away from u0 monotonically); their edges in u
    mapped to x by one phase_inv call (the linear phase's edges are x
    already), which also maps the first tail block of every sum not over
    the cap (a sum whose head fails never uses its block); _missed one
    mask over every head cell, each head then summed plainly in cell
    order.  Then each pass of the tail loop is a stage: the next
    _MIN_CELLS + _STABLE_STEPS cells of every sum still in its tail as one
    (sums x cells) block, its edges mapped by one phase_inv call from the
    second pass on.  A stage's rule calls take at most
    _BLOCK_CELLS cells, however large a block: weight and phase each take
    all their nodes as one float64 array (SpectralDensity's array
    contract), and one rule call gives their arrays.  Neither the inverse
    of an edge nor the value of a cell depends on the others in its array,
    and _refine refines each cell on its own, so each sum gets the bits it
    would get alone.  A tail block, refined, goes to the array stage (tail):
    cumulative sums of the values and errors, every sum's epsilon table
    extended column by column (_wynn_block), and _missed and the stop
    rules as masks, in the arithmetic of Python's complex numbers (hypot for
    abs), so each sum stops at the first cell where a rule fires and the
    cells after it are discarded.  The sums that stop take their results by
    mask: a truncated sum its partial sum, under errsum + 3 |cell|, any
    other its Wynn estimate, under errsum + delta, failing, named by its
    bound, when _missed finds the bound above its target.  A head or cell
    that did not converge (_missed), a monotone head over the cap, or a tail
    sum not stable within _MAX_CELLS cells leaves by the one failure exit,
    the only per-sum path: the best estimate, its bound plus mass(lo, hi),
    the mass beyond the last cell summed.
    """
    ph = phase or (lambda u: u)
    # the phase of the split point and of the feature points, one array call
    u0, *upoints = ph(np.array([x0, *points], dtype=float)).tolist()
    # the head reaches as far from u0 as the farthest feature point's phase
    reach = max([abs(u - u0) for u in upoints], default=0.0)
    cell_tol = max(cfg.abs_tol / 64.0, 1e-15)
    head_name = ("half-period cell" if phase is not None else "oscillatory head integral"
                 if end is None else "finite-window oscillatory integral")  # of its failures
    # the stop constants, read at each call; a tail block has m cells
    m, max_cells, min_cells = _MIN_CELLS + _STABLE_STEPS, _MAX_CELLS, _MIN_CELLS
    stable_steps, negligible = _STABLE_STEPS, _NEGLIGIBLE_FACTOR * cfg.abs_tol
    # the floor of a Wynn-stable step, max(0.1 abs_tol, 0.1 rel_tol |est|, 5e-15)
    least = max(0.1 * cfg.abs_tol, 5e-15)

    def unsettled(i, best, partial, quad_err, a, detail=None):
        """The failure exit of sum i, written to its result: its best
        estimate, under its bound plus the mass beyond a, the end of the last
        cell summed."""
        bound = quad_err + abs(best - partial)
        if mass is not None:
            try:
                bound += abs(mass(*sorted((a, sums[i][1] * math.inf))))
            except Exception:
                bound = math.inf
        values[i], bounds[i], details[i] = best, bound, (
            detail or f"oscillatory cell sum did not stabilize within {max_cells} cells")

    def ruled(t, lo, hi, tol, cc):
        """The cells lo[j] to hi[j] at t[j] and tol[j] (flat float arrays),
        their first pass and its refinement (_refine) by the block rule:
        _cc25_cells when cc, else _qk21_cells, in evaluations of at most
        _BLOCK_CELLS cells (larger ones gain no speed and cost memory).
        Returns the cells' (values, errors, converged) arrays."""
        def rule(which, a, b):
            cells = []
            for start in range(0, len(a), _BLOCK_CELLS):
                cut = slice(start, start + _BLOCK_CELLS)
                centr, hlgth = 0.5 * (b[cut] + a[cut]), 0.5 * (b[cut] - a[cut])
                tc, tolc = t[which[cut]], tol[which[cut]]
                if cc:
                    x = centr[:, None] + hlgth[:, None] * _CC25_NODES
                    cells.append(_cc25_cells(weight(x), centr, hlgth, tc, tolc, 1e-12))
                else:
                    x = centr + hlgth * _GK21_NODES[:, None]
                    cells.append(_qk21_cells(weight(x) * np.exp(-1j * tc * ph(x)), hlgth,
                                             tolc, 1e-12))
            return cells[0] if len(cells) == 1 else [np.concatenate(part) for part in zip(*cells)]

        return _refine(rule, lo, hi, rule(np.arange(lo.size), lo, hi), tol, 1e-12)

    # each sum's tail: where it stands after its head and its cells so far
    # (partial, quad_err, a_of, k cells), its last estimate and epsilon row,
    # whether its last cell was negligible, its count of consecutive stable
    # estimates, and the x edges of its current block
    n = len(sums)
    # each sum's result, written in place: value, error bound, detail
    values, bounds, details = np.zeros(n, dtype=complex), np.zeros(n), [None] * n
    t_of = np.array([t for t, _ in sums], dtype=float)
    u_start, h, a_of, quad_err = np.zeros((4, n))
    partial, est_prev = np.zeros((2, n), dtype=complex)
    k, stable_run, row_len = np.zeros((3, n), dtype=int)
    was_small = np.zeros(n, dtype=bool)
    rows, block_hi = np.full((n, 1), np.nan, dtype=complex), np.zeros((n, m))
    j = np.arange(m)
    due = []  # the sums whose next tail block is due

    def tail(ids, vals, errs, converged):
        """The array stage: each block of cells (rows of vals, errs and
        converged) of the sums ids summed in order, their epsilon tables
        extended, and the one convergence rule and the stop rules applied
        cell by cell as masks (cells past _MAX_CELLS never stop a sum)."""
        nonlocal rows
        kk = k[ids]
        kj = kk[:, None] + j  # each cell's index in its tail
        with np.errstate(all="ignore"):
            size, failed = _modulus(vals), _missed(vals, errs, converged, cfg)
            sums_, errsum = (np.add.accumulate(np.concatenate((x[ids, None], y), axis=1),
                                               axis=1)[:, 1:]
                             for x, y in ((partial, vals), (quad_err, errs)))
            est, last = _wynn_block(rows[ids, :max(1, row_len[ids].max())], sums_)
            # truncated-tail stop: two consecutive negligible cells
            small = size < negligible
            small_before = np.concatenate((was_small[ids, None], small[:, :-1]), axis=1)
            truncated = small & small_before & (kj >= min_cells - 1)
            # Wynn-stable stop: consecutive estimates within the target, from
            # the second estimate on
            delta = _modulus(est - np.concatenate((est_prev[ids, None], est[:, :-1]), axis=1))
            stable = ((delta <= np.fmax(0.1 * cfg.rel_tol * _modulus(est), least))
                      & (kj >= max(1, min_cells - 1)))
        stables = j - np.maximum.accumulate(np.where(stable, -1 - stable_run[ids, None], j),
                                            axis=1)
        stops = (failed | truncated | (stable & (stables >= stable_steps))) & (kj < max_cells)
        stopped = stops.any(axis=1)
        r = np.flatnonzero(stopped)
        if r.size:
            c = stops.argmax(axis=1)[r]
            i, cut, missed = ids[r], truncated[r, c], failed[r, c]
            values[i] = value = np.where(cut, sums_[r, c], est[r, c])
            bounds[i] = bound = errsum[r, c] + np.where(cut, 3.0 * size[r, c], delta[r, c])
            over = _missed(value, bound, missed, cfg)  # a missed cell's sum fails below
            for s in i[over].tolist() if over.any() else ():
                details[s] = (f"oscillatory cell sum's error bound {bounds[s]:.3e} "
                              "exceeds its tolerance")
            for q, cq in zip(r[missed].tolist(), c[missed].tolist()) if missed.any() else ():
                s, value = int(ids[q]), complex(sums_[q, cq])
                best = complex(est[q, cq - 1] if cq else est_prev[s] if k[s] else value)
                unsettled(s, best, value, float(errsum[q, cq]), float(block_hi[s, cq]),
                          "half-period cell did not converge")
        if r.size == ids.size:
            return
        # the others go on from their block's last cell, or leave by the
        # failure exit after _MAX_CELLS cells
        going = np.flatnonzero(~stopped)
        ids, c = ids[going], np.minimum(m, max_cells - kk[going]) - 1
        partial[ids], quad_err[ids] = sums_[going, c], errsum[going, c]
        est_prev[ids] = est[going, c]
        a_of[ids], k[ids] = block_hi[ids, c], kk[going] + c + 1
        was_small[ids], stable_run[ids] = small[going, c], stables[going, c]
        if last.shape[1] > rows.shape[1]:
            rows = np.concatenate((rows, np.full((n, last.shape[1] - rows.shape[1]), np.nan,
                                                 dtype=complex)), axis=1)
        rows[ids, :last.shape[1]], row_len[ids] = last[going], np.isfinite(last[going]).sum(axis=1)
        over = k[ids] >= max_cells
        due.extend(ids[~over].tolist())
        for i in ids[over].tolist():
            unsettled(i, complex(est_prev[i]), complex(partial[i]), float(quad_err[i]),
                      float(a_of[i]))

    # each sum's head: over the cap it fails at once, without cells its
    # tail starts at x0, else (i, way, step, k_clear, u_end) joins heads
    heads = []
    for i, (t, way) in enumerate(sums):
        h[i] = step = way * math.pi / t
        k_clear = int(math.ceil((u0 + way * reach - u0) / step)) if end is None else 0
        u_start[i] = u_end = u0 + k_clear * step if end is None else end
        if phase is not None and k_clear > _MAX_HEAD_CELLS:
            unsettled(i, 0j, 0j, 0.0, x0, f"head region spans {k_clear} oscillations")
        elif k_clear > 0 or end is not None:
            heads.append((i, way, step, k_clear, u_end))
        else:
            a_of[i] = x0
            due.append(i)
    # each head's edges in u, ordered from u0: its way's cuts short of its
    # end, then its end or a monotone head's half-periods
    cuts = {}
    for way in {way for _, way, *_ in heads}:
        cs = _head_cuts(u0, way * max(way * u for _, w, *_, u in heads if w == way), upoints)
        cuts[way] = cs, [way * c for c in cs]
    edges = []
    for _, way, step, k_clear, u_end in heads:
        cs, keys = cuts[way]
        short = cs[:bisect.bisect_left(keys, way * u_end)]
        edges.append([*short, u_end] if phase is None else sorted(
            {u0 + (c + 1) * step for c in range(k_clear)}.union(short), reverse=way < 0))
    # every monotone head's edges, and the first tail block's of every sum
    # that may reach its tail (those due and those with a head, in that
    # order), mapped to x by one phase_inv call
    hi = np.array([u for us in edges for u in us])
    mapped = phase_inv is not None and bool(due or heads)
    if mapped:
        firsts = np.array([*due, *(i for i, *_ in heads)], dtype=int)
        tails = (u_start[firsts, None] + (j + 1) * h[firsts, None]).ravel()
        xs = phase_inv(np.concatenate((hi, tails)))
        block_hi[firsts] = xs[hi.size:].reshape(-1, m)
        hi = xs[:hi.size]
    if heads:
        # one stage, each head's tolerance split over its cells, summed in
        # cell order: a window is its result, a failed head takes the failure
        # exit, any other starts its tail (the epsilon table extrapolates
        # the tail only)
        sizes = [len(us) for us in edges]
        counts = np.array(sizes)
        stops = np.cumsum(counts)
        starts = stops - counts
        lo = np.concatenate(([x0], hi[:-1]))
        lo[starts] = x0
        t = t_of[[i for i, *_ in heads]].repeat(counts)
        tol = np.maximum(cfg.abs_tol / (8.0 * counts), 1e-15).repeat(counts)
        cell_values, errors, converged = ruled(t, lo, hi, tol, phase is None)
        verdicts = np.logical_or.reduceat(_missed(cell_values, errors, converged, cfg),
                                          starts).tolist()
        cells = zip(cell_values.tolist(), errors.tolist())
        for (i, *_), size, bad, x_end in zip(heads, sizes, verdicts, hi[stops - 1].tolist()):
            value, bound = 0j, 0.0
            for val, err in itertools.islice(cells, size):
                value += val
                bound += err
            detail = f"{head_name} did not converge" if bad else None
            if end is not None:
                values[i], bounds[i], details[i] = value, bound, detail
            elif bad:
                unsettled(i, value, value, bound, x_end, detail)
            else:
                partial[i], quad_err[i], a_of[i] = value, bound, x_end
                if value != 0:  # the epsilon table starts with a nonzero head
                    rows[i, 0], row_len[i] = value, 1
                due.append(i)
    while due:
        # one pass: the next tail block of every sum due one, its edges in u
        # mapped to x by one phase_inv call (its cells past _MAX_CELLS are
        # not valid; the first pass's were mapped with the heads), ruled, and
        # as a block of value 0, converged cells past its valid ones, to the
        # array stage
        ids = np.array(due)
        due.clear()
        kk = k[ids, None]
        valid = kk + j < max_cells
        if mapped:
            xs, mapped = block_hi[ids], False
        else:
            xs = u_start[ids, None] + (kk + j + 1) * h[ids, None]
            if phase_inv is not None:
                xs[valid] = phase_inv(xs[valid])
            block_hi[ids] = xs
        lo = np.concatenate((a_of[ids, None], xs[:, :-1]), axis=1)[valid]
        cells = ruled(t_of[ids].repeat(valid.sum(axis=1)), lo, xs[valid],
                      np.full(lo.size, cell_tol), False)
        stage = [np.zeros(valid.shape, dtype=complex), np.zeros(valid.shape), ~valid]
        for part, column in zip(stage, cells):
            part[valid] = column
        tail(ids, *stage)
    # a downward sum is minus its integral: negated once, as Python negates a
    # complex (a product with -1 would change signed zeros)
    np.negative(values, out=values, where=h < 0)
    return values, bounds, details


# ---------------------------------------------------------------------------
# density-facing operations


def _time_grid(times) -> np.ndarray:
    """times as a float array, checked before any quadrature runs: 1-d,
    finite and strictly increasing, or a ValueError naming t."""
    t = np.array(times, dtype=float)
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
    """The batch of one: amplitudes, a map from a time grid to its (values,
    bounds, details) arrays, at t alone; raises the QuadratureFailure of a
    failed value."""
    values, bounds, [detail] = amplitudes(_time_grid([t]))
    return _checked(t, complex(values[0]), float(bounds[0]), detail)


def _series(amplitudes, times) -> ComplexTimeSeries:
    """amplitudes on the checked grid times as a series.  Failed points keep
    their best estimates; their failures, each with its t, are raised
    together as one SeriesFailure that carries the series."""
    t = _time_grid(times)
    values, bounds, details = amplitudes(t)
    failures = [QuadratureFailure(detail, complex(values[i]), float(bounds[i]), t=float(t[i]))
                for i, detail in enumerate(details) if detail is not None]
    series = ComplexTimeSeries(t, values)
    if failures:
        raise SeriesFailure(series, failures)
    return series


def restricted_amplitude(
    d: SpectralDensity,
    lo: float,
    hi: float,
    t: float,
    cfg: QuadratureConfig,
    phase: Callable[[np.ndarray], np.ndarray] | None = None,
    phase_inv: Callable[[np.ndarray], np.ndarray] | None = None,
) -> complex:
    """int_lo^hi exp(-i t phase(E)) d(E) dE, clipped to the density's support.

    phase must be strictly increasing with range R, and it and its inverse
    phase_inv, given together or not at all (a ValueError names the one
    missing), take a float64 array, elementwise; one phase_inv call per pass
    maps every cell edge the pass needs, the heads' call the first tail
    pass's too.  Omitted, the phase is the identity
    (the plain Fourier transform, the only phase of a finite window).  t
    must be finite; t = 0 is the mass integral and t < 0 the conjugate of
    the transform at -t.  Infinite ranges are summed in half-period cells
    walking outward from a split point (the finite end, or d.center on the
    full line, both ways in one batch).  When a piece fails, the one QuadratureFailure raised carries
    the sum of both pieces' estimates under the sum of their error bounds.
    """
    return _point(lambda ts: _amplitudes(d, lo, hi, ts, cfg, phase, phase_inv), t)


def restricted_amplitude_series(
    d: SpectralDensity,
    lo: float,
    hi: float,
    times,
    cfg: QuadratureConfig,
    phase: Callable[[np.ndarray], np.ndarray] | None = None,
    phase_inv: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ComplexTimeSeries:
    """restricted_amplitude on a time grid, in one batch, with SeriesFailure
    semantics."""
    return _series(lambda ts: _amplitudes(d, lo, hi, ts, cfg, phase, phase_inv), times)


def _amplitudes(d, lo, hi, times, cfg, phase=None, phase_inv=None):
    """restricted_amplitude at each t of times (a strictly monotone float
    array) as (values, error bounds, details) arrays.  On an infinite range
    the half-line sums of every t != 0, at |t| and in both directions on the
    full line, run as one batch."""
    if (phase is None) != (phase_inv is None):
        given, missing = ("phase", "phase_inv") if phase_inv is None else ("phase_inv", "phase")
        raise ValueError(f"{given} needs {missing}: give both or neither")
    n = times.size
    slo, shi = d.support
    lo, hi = max(lo, slo), min(hi, shi)
    if not lo < hi:
        return np.zeros(n, dtype=complex), np.zeros(n), [None] * n
    ts = times.tolist()
    moving = [abs(t) for t in ts if t]
    if moving:
        # a window or a half-line walks from its finite end, the full line both
        # ways from the centre, in one batch; a line's lower piece comes first
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
        values, bounds, details = _semi_infinite_osc(
            d.density, [(t, way) for way in ways for t in moving], x0, cfg, phase, phase_inv,
            d.feature_points, lambda a, b: mass_integral(d, a, b, loose), end)
        if len(ways) == 2:
            m = len(moving)
            values, bounds = values[:m] + values[m:], bounds[:m] + bounds[m:]
            details = [low if low is not None else up for low, up in zip(details, details[m:])]
    else:
        values, bounds, details = np.zeros(0, dtype=complex), np.zeros(0), []
    if len(moving) < n:  # the one t = 0 of a monotone grid: the mass
        i = ts.index(0.0)
        mass, error, detail = _mass(d, lo, hi, cfg)
        values, bounds = np.insert(values, i, mass), np.insert(bounds, i, error)
        details.insert(i, detail)
    if n and min(ts[0], ts[-1]) < 0:
        np.conjugate(values, out=values, where=times < 0)
    return values, bounds, details


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
    """halfline_amplitude at each t of times as (values, error bounds,
    details) arrays, the frozen half-line mass the first part of each."""
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
    mass, error, detail = _mass(d, *still, cfg)
    values, bounds, details = _amplitudes(d, *active, sign * times, cfg)
    return (mass + values, error + bounds,
            details if detail is None else [detail] * len(details))


def global_survival(
    chi_weights: tuple[float, float], d: SpectralDensity, t: float, cfg: QuadratureConfig
) -> complex:
    """Survival amplitude of the factorized pure state chi (x) phi:
    w0 <exp(-i t q_+)> + w1 <exp(-i t q_-)>.  When a side fails, the one
    QuadratureFailure raised carries the weighted sum of both sides' values
    or estimates under the weighted sum of their error bounds."""
    return _point(lambda ts: _global_survivals(chi_weights, d, ts, cfg), t)


def _global_survivals(chi_weights, d, times, cfg):
    """global_survival at each t of times as (values, error bounds, details)
    arrays, the w0 side first in each."""
    w0, w1 = chi_weights
    if not (w0 >= 0 and w1 >= 0 and abs(w0 + w1 - 1.0) <= 1e-12):
        raise ValueError(f"spin weights must be non-negative and sum to 1, got {chi_weights}")
    (w, (values, bounds, details)), *other = [
        (w, _halfline_amplitudes(d, side, times, cfg))
        for w, side in ((w0, "positive"), (w1, "negative")) if w]
    values, bounds = w * values, w * bounds
    for w, (more, more_bounds, more_details) in other:
        values, bounds = values + w * more, bounds + w * more_bounds
        details = [a if a is not None else b for a, b in zip(details, more_details)]
    return values, bounds, details


def global_survival_series(
    chi_weights, d: SpectralDensity, times, cfg: QuadratureConfig
) -> ComplexTimeSeries:
    """global_survival on a time grid, in one batch, with SeriesFailure
    semantics."""
    return _series(lambda ts: _global_survivals(chi_weights, d, ts, cfg), times)

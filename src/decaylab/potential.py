"""Generalized monotone potentials and the transported exponential state.

Replacing the ramp couplings by multiplication with V(x) and V(-x), for any
absolutely continuous non-negative V that is non-decreasing and strictly
increasing on the positive half-line, leaves the reduced dynamics an exact
phase-damping channel with factor f(t) = int exp(-i t W(x)) |phi(x)|^2 dx,
where W(x) = V(x) - V(-x) is strictly increasing and odd.

Choosing the continuum state so that W pushes its density forward onto the
Cauchy-Lorentz density, i.e.

    |phi(x)|^2 = W'(x) * p_C(W(x)),

the substitution u = W(x) reduces f(t) to the plain Lorentzian transform and
the factor is again the pure exponential exp(-gamma|t|/2 - i omega0 t).
(The other transport direction, p_C(W^{-1}(x)) / W'(W^{-1}(x)), is sometimes
quoted for this construction but does not reproduce the exponential: under
u = W(x) it leaves exp(-i t W(W(y))) in the integrand.)

W has range R only when V is unbounded on the positive half-line; bounded
potentials are rejected (by build_initial_state, and by W_inverse at
bracket-expansion failure) rather than silently truncated, since the
construction needs a global inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oscint
from .oscint import QuadratureConfig
from .spectral import DephasingParams, InitialStateSpec, SpectralDensity, lorentzian_density

_CHECK_GRID = np.linspace(-30.0, 30.0, 1001)
_FD_STEP = 1e-3
_BISECT_TOL = 1e-12
_MAX_DOUBLINGS = 200


class MonotonicityError(ValueError):
    """V violates non-negativity or monotonicity; carries the violating pair."""

    def __init__(self, message: str, pair: tuple[float, float] | None = None):
        super().__init__(message)
        self.pair = pair


class RangeError(ValueError):
    """W does not reach the requested value: bracket expansion exhausted."""


@dataclass(frozen=True)
class MonotonePotential:
    """A validated potential V with its induced odd map W and inverse.

    V, V_prime, W, W_prime and W_inverse each take a float64 array, 0-d
    included, and return their values elementwise (see induced_map).
    Immutable after construction; all evaluations are pure, so instances
    are safe for unrestricted concurrent use.
    """

    V: Callable[[np.ndarray], np.ndarray]
    V_prime: Callable[[np.ndarray], np.ndarray] | None
    W: Callable[[np.ndarray], np.ndarray]
    W_prime: Callable[[np.ndarray], np.ndarray]
    W_inverse: Callable[[np.ndarray], np.ndarray]
    label: str = "potential"


def _elementwise(fn: Callable) -> Callable:
    """fn as a function of a float64 array, elementwise.

    fn is kept when it maps the check grid to an array of its shape; a fn
    that takes floats only (math.exp, or a max of floats) is lifted once to
    loop over an array's elements, an OverflowError counting as +inf (V and
    V' are non-negative, so they leave the float range upward only).
    """
    try:
        probe = fn(_CHECK_GRID)
    except (TypeError, ValueError, ArithmeticError):
        # a float-only fn on an array: lifted below, where a genuine error recurs
        probe = None
    if np.shape(probe) == _CHECK_GRID.shape:
        return fn

    def one(v):
        try:
            return fn(v)
        except OverflowError:
            return math.inf

    def lifted(x):
        return np.array([one(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)

    return lifted


def _finite_targets(y) -> np.ndarray:
    """y as a float64 array, or a ValueError naming its first target that is
    not finite."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"W_inverse needs a finite target, got {y[~np.isfinite(y)][0]}")
    return y


def induced_map(
    V: Callable[[np.ndarray], np.ndarray],
    V_prime: Callable[[np.ndarray], np.ndarray] | None = None,
    label: str = "potential",
    W_inverse: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MonotonePotential:
    """Validate V on a 1001-point grid over [-30, 30] and build the bundle.

    Rejects negative values (and a V(-inf) that is NaN or negative), any
    decrease, and non-strict growth on the positive half-line, reporting
    the violating pair.  W' comes from the
    analytic V' when supplied and otherwise from the order-4 central
    difference with step h = 1e-3 * max(1, |x|), whose truncation error
    (h^4 W^(5) / 30) and roundoff (eps W / h) both stay near 1e-13 relative
    for smooth W of unit scale.  The inverse is W_inverse when supplied (an
    exact closed form); otherwise each target runs the same scalar steps,
    the array's targets side by side: doubling bracket expansion from
    [-1, 1] (at most 200 doublings), bisection to 1e-12 (at most 200
    levels), and one Newton step on W'.  W is evaluated once per step, on
    the targets still stepping, so an array's inverses equal each target's
    alone bit for bit; the bisection keeps the brackets still moving as
    compact arrays, in the targets' order, compacted only at a level where
    some stop.  An empty array returns at once.  A target W never reaches
    raises RangeError naming the first such one, and a W that is NaN at a
    node raises RangeError naming the first such node.

    V and V_prime take float64 arrays, or floats only, in which case they
    are lifted here (see _elementwise); every callable of the bundle takes
    a float64 array.
    """
    V = _elementwise(V)
    vals = V(_CHECK_GRID)
    nonfinite = np.flatnonzero(~np.isfinite(vals))
    if nonfinite.size:
        raise MonotonicityError(f"V({_CHECK_GRID[nonfinite[0]]:g}) is not finite")
    if np.any(vals < 0):
        i = int(np.argmin(vals))
        raise MonotonicityError(
            f"V must be non-negative: V({_CHECK_GRID[i]:g}) = {vals[i]:g}",
            pair=(float(_CHECK_GRID[i]), float(vals[i])),
        )
    diffs = np.diff(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    bad = np.where(diffs < -1e-12 * scale)[0]
    if bad.size:
        i = int(bad[0])
        raise MonotonicityError(
            f"V must be non-decreasing: V({_CHECK_GRID[i]:g}) = {vals[i]:g} "
            f"> V({_CHECK_GRID[i+1]:g}) = {vals[i+1]:g}",
            pair=(float(_CHECK_GRID[i]), float(_CHECK_GRID[i + 1])),
        )
    pos = _CHECK_GRID[:-1] >= 0
    flat = np.where(pos & (diffs <= 0))[0]
    if flat.size:
        i = int(flat[0])
        raise MonotonicityError(
            f"V must be strictly increasing on the positive half-line: "
            f"V({_CHECK_GRID[i]:g}) = V({_CHECK_GRID[i+1]:g}) = {vals[i]:g}",
            pair=(float(_CHECK_GRID[i]), float(_CHECK_GRID[i + 1])),
        )
    # beyond the grid too: a non-decreasing V is least at -inf
    with np.errstate(all="ignore"):
        bottom = float(V(np.array(-math.inf)))
    if not bottom >= 0:
        raise MonotonicityError(f"V must be non-negative: V(-inf) = {bottom:g}",
                                pair=(-math.inf, bottom))

    def W(x):
        return V(x) - V(-x)

    if V_prime is not None:
        V_prime = _elementwise(V_prime)

        def W_prime(x):
            return V_prime(x) + V_prime(-x)

    else:

        def W_prime(x):
            h = _FD_STEP * np.maximum(1.0, np.abs(x))
            return (8.0 * (W(x + h) - W(x - h)) - (W(x + 2.0 * h) - W(x - 2.0 * h))) / (12.0 * h)

    def _w_guarded(x):
        # a fast-growing V saturates to +inf, and W = V(x) - V(-x) to the
        # infinity of x's sign (monotonicity), so brackets stay usable
        with np.errstate(over="ignore"):
            w = W(x)
        if np.isnan(w).any():
            raise RangeError(f"W({x[np.isnan(w)][0]:g}) evaluated to NaN")
        return w

    def bisect_inverse(y):
        y = _finite_targets(y)
        if not y.size:
            return np.zeros(y.shape)
        targets = y.ravel()
        lo, hi = np.full(targets.size, -1.0), np.full(targets.size, 1.0)
        doublings = np.zeros(targets.size, dtype=int)
        # double each upper end while W(hi) < y, then each lower end while
        # W(lo) > y, which is -W(lo) < -y; past 200 doublings in all, a
        # target is out of W's range
        for end, sign in ((hi, 1.0), (lo, -1.0)):
            i = np.flatnonzero(doublings <= _MAX_DOUBLINGS)
            while i.size:
                i = i[sign * _w_guarded(end[i]) < sign * targets[i]]
                end[i] *= 2.0
                doublings[i] += 1
                i = i[doublings[i] <= _MAX_DOUBLINGS]
        if (doublings > _MAX_DOUBLINGS).any():
            raise RangeError(
                f"W never reaches {targets[doublings > _MAX_DOUBLINGS][0]:g}: bracket expansion "
                f"failed after {_MAX_DOUBLINGS} doublings (bounded potential?)"
            )
        # bisect each bracket until its midpoint is an end, W hits the target
        # there, or it is 1e-12 narrow; the brackets still bisecting are the
        # compact arrays (ids, L, H, Y) with their next midpoints, written
        # back to lo and hi and compacted only at a level where some stop
        ids, L, H, Y = np.arange(targets.size), lo.copy(), hi.copy(), targets
        mid = 0.5 * (L + H)
        going = (mid != L) & (mid != H)
        for _ in range(200):
            if not going.all():
                lo[ids], hi[ids] = L, H
                ids, L, H, Y, mid = ids[going], L[going], H[going], Y[going], mid[going]
                if not ids.size:
                    break
            w_mid = _w_guarded(mid)
            hit, below = w_mid == Y, w_mid < Y
            L = np.where(below | hit, mid, L)
            H = np.where(below, H, mid)
            wide = H - L > _BISECT_TOL * np.maximum(1.0, np.maximum(np.abs(L), np.abs(H)))
            mid = 0.5 * (L + H)
            going = wide & ~hit & (mid != L) & (mid != H)
        lo[ids], hi[ids] = L, H
        x = 0.5 * (lo + hi)
        # one Newton step where W' is positive and finite (a difference
        # stencil may reach past the float range) and the step is shorter
        # than max(1, |x|)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slope = W_prime(x)
            i = np.flatnonzero((slope > 0) & np.isfinite(slope))
            step = (_w_guarded(x[i]) - targets[i]) / slope[i]
        short = np.isfinite(step) & (np.abs(step) < np.maximum(1.0, np.abs(x[i])))
        x[i[short]] -= step[short]
        return x.reshape(y.shape)

    return MonotonePotential(V, V_prime, W, W_prime, W_inverse or bisect_inverse, label)


def _ramp(x):
    return np.maximum(x, 0.0)


def _ramp_prime(x):
    # symmetric subgradient at 0 keeps W' = 1 everywhere
    return 0.5 + 0.5 * np.sign(x)


def _ramp_inverse(y):
    # W(x) = x exactly; + 0.0 maps -0.0 to 0.0, as bisecting W does
    return _finite_targets(y) + 0.0


def ramp_potential(fd_derivative: bool = False) -> MonotonePotential:
    """V(x) = max(x, 0); the induced map is the identity, and so is its
    inverse.  fd_derivative takes W' from the difference instead of V'."""
    return induced_map(_ramp, None if fd_derivative else _ramp_prime,
                       label="ramp+fd" if fd_derivative else "ramp", W_inverse=_ramp_inverse)


def exp_potential(fd_derivative: bool = False) -> MonotonePotential:
    """V(x) = exp(x); the induced map is W(x) = 2 sinh(x).  fd_derivative
    takes W' from the difference instead of V'."""
    return induced_map(np.exp, None if fd_derivative else np.exp,
                       label="exp+fd" if fd_derivative else "exp")


def build_initial_state(p: MonotonePotential, params: DephasingParams) -> InitialStateSpec:
    """Continuum state whose density W pushes forward onto the Lorentzian:
    |phi(x)|^2 = W'(x) * p_C(W(x)).

    Normalization is inherited from the change-of-variables identity, and so
    is every mass: the cdf is the Lorentzian's at W(x), however fast V grows
    (at x = -inf or +inf it is the Lorentzian's there, since W is).  That
    needs V(+inf) = +inf (an overflow counts as +inf); a bounded V, whose W
    stays inside a finite range, raises RangeError.
    """
    top = float(p.V(np.array(math.inf)))
    if top != math.inf:
        # V(-inf) lies in [0, V(0)] (induced_map checks it), so W = V(x) - V(-x)
        # is unbounded exactly when V(+inf) is
        raise RangeError(f"V(+inf) = {top:g}: a bounded potential cannot carry the Lorentzian")
    lor = lorentzian_density(params)
    w, w_prime = p.W, p.W_prime

    def dens(x):
        # a float64 array elementwise, like W and W'; it falls like W'/W^2,
        # so it is 0 where W or W^2 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            wx, slope = w(x), w_prime(x)
            values = np.maximum(slope, 0.0) * lor.density(wx)
        finite = np.isfinite(wx)
        bad = finite & (~np.isfinite(slope) | (slope < -1e-9))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise ValueError(f"W'({x.flat[i]:g}) = {slope.flat[i]} is not a usable Jacobian")
        return np.where(finite, values, 0.0)

    center, *features = p.W_inverse(np.array([params.omega0, *lor.feature_points])).tolist()
    return InitialStateSpec(
        density=SpectralDensity(
            density=dens,
            support=(-math.inf, math.inf),
            center=center,
            cdf=lambda x: lor.cdf(float(w(np.array(x))) if math.isfinite(x) else x),
            feature_points=tuple(features),
            label=f"transported({p.label}, gamma={params.gamma:g}, omega0={params.omega0:g})",
        )
    )


def generalized_dephasing_factor(
    p: MonotonePotential,
    params: DephasingParams,
    t: float,
    cfg: QuadratureConfig,
    state: InitialStateSpec | None = None,
) -> complex:
    """f(t) = int exp(-i t W(x)) |phi(x)|^2 dx by direct x-space quadrature.

    The oscillation cells are half-periods of the phase t*W(x), located via
    W^{-1}; the integrand is evaluated entirely in x.  Equals the pure
    exponential exp(-gamma|t|/2 - i omega0 t) within the quadrature
    tolerance when phi is the transported state.
    """
    state = state or build_initial_state(p, params)
    return oscint.restricted_amplitude(
        state.density, -math.inf, math.inf, t, cfg, phase=p.W, phase_inv=p.W_inverse
    )


def generalized_factor_series(
    p: MonotonePotential,
    params: DephasingParams,
    times,
    cfg: QuadratureConfig,
    state: InitialStateSpec | None = None,
):
    """generalized_dephasing_factor on a time grid, in one batch, with
    SeriesFailure semantics."""
    state = state or build_initial_state(p, params)
    return oscint.restricted_amplitude_series(
        state.density, -math.inf, math.inf, times, cfg, phase=p.W, phase_inv=p.W_inverse)

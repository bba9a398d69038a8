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

    V, V_prime, W and W_prime take a float or a float64 array, the array
    elementwise (see induced_map); W_inverse takes a float.  Immutable
    after construction (the inverse's bracket ladder is prepared eagerly);
    all evaluations are pure, so instances are safe for unrestricted
    concurrent use.
    """

    V: Callable[[float], float]
    V_prime: Callable[[float], float] | None
    W: Callable[[float], float]
    W_prime: Callable[[float], float]
    W_inverse: Callable[[float], float]
    label: str = "potential"


def _elementwise(fn: Callable) -> Callable:
    """fn as a function of a float or a float64 array, elementwise.

    fn is kept when it maps the check grid to an array of its shape; a fn
    that takes floats only (math.exp, or a max of floats) is lifted to loop
    over an array's elements.
    """
    try:
        probe = fn(_CHECK_GRID)
    except (TypeError, ValueError, ArithmeticError):
        # a float-only fn on an array: retried float by float below, where
        # a genuine error recurs
        probe = None
    if isinstance(probe, np.ndarray) and probe.shape == _CHECK_GRID.shape:
        return fn

    def lifted(x):
        if isinstance(x, np.ndarray):
            return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
        return fn(x)

    return lifted


def induced_map(
    V: Callable[[float], float],
    V_prime: Callable[[float], float] | None = None,
    label: str = "potential",
    W_inverse: Callable[[float], float] | None = None,
) -> MonotonePotential:
    """Validate V on a 1001-point grid over [-30, 30] and build the bundle.

    Rejects negative values, any decrease, and non-strict growth on the
    positive half-line, reporting the violating pair.  W' comes from the
    analytic V' when supplied and otherwise from the order-4 central
    difference with step h = 1e-3 * max(1, |x|), whose truncation error
    (h^4 W^(5) / 30) and roundoff (eps W / h) both stay near 1e-13 relative
    for smooth W of unit scale.  The inverse is W_inverse when supplied (an
    exact closed form); otherwise doubling bracket expansion from [-1, 1]
    (at most 200 doublings) followed by bisection to 1e-12, polished by one
    Newton step on W'.

    V and V_prime may take floats only; the bundle's V, V_prime, W and W'
    take a float or a float64 array (elementwise, to an ulp or two of the
    float calls; W and a differenced W' to an ulp or two of the terms they
    subtract), with V and V_prime lifted here when they take floats only.
    W_inverse takes floats.
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

    def W(x: float) -> float:
        return V(x) - V(-x)

    if V_prime is not None:
        V_prime = _elementwise(V_prime)

        def W_prime(x: float) -> float:
            return V_prime(x) + V_prime(-x)

    else:

        def W_prime(x: float) -> float:
            if isinstance(x, np.ndarray):
                h = _FD_STEP * np.maximum(1.0, np.abs(x))
            else:
                h = _FD_STEP * max(1.0, abs(x))
            return (8.0 * (W(x + h) - W(x - h)) - (W(x + 2.0 * h) - W(x - 2.0 * h))) / (12.0 * h)

    def _w_guarded(x: float) -> float:
        # fast-growing potentials overflow the float range; the sign of the
        # overflow is pinned by monotonicity, so brackets stay usable
        try:
            v = W(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
        if math.isnan(v):
            raise RangeError(f"W({x:g}) evaluated to NaN")
        return v

    def bisect_inverse(y: float) -> float:
        if not math.isfinite(y):
            raise ValueError(f"W_inverse needs a finite target, got {y}")
        bracket = [-1.0, 1.0]
        doublings = 0
        # double the upper end while W(hi) < y, then the lower end while
        # W(lo) > y, which is -W(lo) < -y
        for end, sign in ((1, 1.0), (0, -1.0)):
            while sign * _w_guarded(bracket[end]) < sign * y:
                bracket[end] *= 2.0
                doublings += 1
                if doublings > _MAX_DOUBLINGS:
                    raise RangeError(
                        f"W never reaches {y:g}: bracket expansion failed after "
                        f"{_MAX_DOUBLINGS} doublings (bounded potential?)"
                    )
        lo, hi = bracket
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            w_mid = _w_guarded(mid)
            if w_mid == y:
                lo = hi = mid
                break
            if w_mid < y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _BISECT_TOL * max(1.0, abs(lo), abs(hi)):
                break
        x = 0.5 * (lo + hi)
        try:
            slope = W_prime(x)
        except OverflowError:  # a difference stencil past the float range
            return x
        if slope > 0 and math.isfinite(slope):
            step = (_w_guarded(x) - y) / slope
            if math.isfinite(step) and abs(step) < max(1.0, abs(x)):
                x -= step
        return x

    return MonotonePotential(V, V_prime, W, W_prime, W_inverse or bisect_inverse, label)


def _ramp(x):
    return np.maximum(x, 0.0) if isinstance(x, np.ndarray) else max(x, 0.0)


def _ramp_prime(x):
    # symmetric subgradient at 0 keeps W' = 1 everywhere
    if isinstance(x, np.ndarray):
        return np.where(x > 0, 1.0, np.where(x == 0, 0.5, 0.0))
    return 1.0 if x > 0 else (0.5 if x == 0 else 0.0)


def _ramp_inverse(y: float) -> float:
    if not math.isfinite(y):
        raise ValueError(f"W_inverse needs a finite target, got {y}")
    # W(x) = x exactly; + 0.0 maps -0.0 to 0.0, as bisecting W does
    return y + 0.0


def _exp(x):
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):  # saturates to inf, as _w_guarded does
            return np.exp(x)
    return math.exp(x)


def ramp_potential(fd_derivative: bool = False) -> MonotonePotential:
    """V(x) = max(x, 0); the induced map is the identity, and so is its
    inverse.  fd_derivative takes W' from the difference instead of V'."""
    return induced_map(_ramp, None if fd_derivative else _ramp_prime,
                       label="ramp+fd" if fd_derivative else "ramp", W_inverse=_ramp_inverse)


def exp_potential(fd_derivative: bool = False) -> MonotonePotential:
    """V(x) = exp(x); the induced map is W(x) = 2 sinh(x).  fd_derivative
    takes W' from the difference instead of V'."""
    return induced_map(_exp, None if fd_derivative else _exp,
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
    try:
        top = float(p.V(math.inf))
    except OverflowError:
        top = math.inf
    if top != math.inf:
        # V(-inf) lies in [0, V(0)], so W = V(x) - V(-x) is unbounded exactly
        # when V(+inf) is
        raise RangeError(f"V(+inf) = {top:g}: a bounded potential cannot carry the Lorentzian")
    lor = lorentzian_density(params)
    w, w_prime, w_inv = p.W, p.W_prime, p.W_inverse

    def unusable(x, slope):
        return ValueError(f"W'({x:g}) = {slope} is not a usable Jacobian")

    def dens(x):
        # a float, or a float64 array elementwise, like W and W'; it falls
        # like W'/W^2, so it is 0 where W overflows
        if isinstance(x, np.ndarray):
            wx = w(x)
            overflow = np.isinf(wx)
            if overflow.any():
                out = np.zeros(x.shape)
                out[~overflow] = dens(x[~overflow])
                return out
            slope = w_prime(x)
            bad = np.flatnonzero(~np.isfinite(slope) | (slope < -1e-9))
            if bad.size:
                raise unusable(x.flat[bad[0]], slope.flat[bad[0]])
            return np.maximum(slope, 0.0) * lor.density(wx)
        try:
            wx = w(x)
        except OverflowError:  # a float V past the float range
            return 0.0
        if math.isinf(wx):
            return 0.0
        slope = w_prime(x)
        if not math.isfinite(slope) or slope < -1e-9:
            raise unusable(x, slope)
        return max(slope, 0.0) * lor.density(wx)

    center = w_inv(params.omega0)
    features = tuple(w_inv(e) for e in lor.feature_points)
    return InitialStateSpec(
        density=SpectralDensity(
            density=dens,
            support=(-math.inf, math.inf),
            center=center,
            cdf=lambda x: lor.cdf(w(x) if math.isfinite(x) else x),
            feature_points=features,
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

"""Energy spectral densities and the Cauchy-Lorentz family.

A spectral density is the probability density of energy in a given state.
All densities here are absolutely continuous and carry enough metadata
(support, center, feature points) for the quadrature engine to integrate
them reliably on infinite supports.  Each density built here also knows its
masses exactly: a closed-form distribution function (cdf), piecewise
quadratic for tables, so none of their masses is a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

@dataclass(frozen=True)
class DephasingParams:
    """Decay rate gamma > 0 (1/time) and center frequency omega0 (1/time).

    omega0 - gamma and omega0 + gamma must be finite floats that differ from
    omega0; a narrower Lorentzian has no resolvable width at its centre.
    """

    gamma: float
    omega0: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and strictly positive, got {self.gamma}")
        if not math.isfinite(self.omega0):
            raise ValueError(f"omega0 must be finite, got {self.omega0}")
        # the Lorentzian's width must show at its centre: the cells between
        # its feature points omega0 +- gamma need distinct, finite edges
        edges = (self.omega0 - self.gamma, self.omega0 + self.gamma)
        if any(e == self.omega0 or not math.isfinite(e) for e in edges):
            raise ValueError(f"gamma = {self.gamma:g} cannot be resolved at "
                             f"omega0 = {self.omega0:g}: omega0 +- gamma must be finite "
                             "and differ from omega0")


@dataclass(frozen=True)
class SpectralDensity:
    """Probability density of energy with declared support.

    Immutable after construction; evaluation is pure, so instances are safe
    for unrestricted concurrent use.

    density takes a float64 array of any shape and returns its values
    elementwise, to an ulp or two: every transform's cells, first-pass misses
    included, evaluate it only on arrays, once per block of nodes, and so a
    monotone phase W with it (see potential.induced_map).  It takes a float
    too: floats reach it only through __call__ and, by oscint.quad, the
    masses of a density without a cdf.

    cdf, when given, is the exact mass below an energy: cdf(hi) - cdf(lo) is
    the mass on [lo, hi] within the support, and cdf must be defined at
    -inf and +inf.  Masses then cost two calls and carry no error; a density
    without one has its masses integrated by adaptive quadrature.
    """

    density: Callable[[float], float]
    support: tuple[float, float] = (-math.inf, math.inf)
    center: float = 0.0
    cdf: Callable[[float], float] | None = None
    feature_points: tuple[float, ...] = ()
    label: str = "density"

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise ValueError(f"empty support {self.support}")

    def __call__(self, energy: float) -> float:
        """Evaluate the density at one energy; zero outside the declared support."""
        lo, hi = self.support
        e = float(energy)
        return float(self.density(e)) if lo <= e <= hi else 0.0


@dataclass(frozen=True)
class InitialStateSpec:
    """A density plus an arbitrary real phase profile alpha(E).

    The wave function sqrt(density) * exp(i alpha) has unit norm whenever the
    density is normalized.  The phase is stored but never consumed by any
    model computation: the dephasing factor and the reduced state depend on
    the density alone, which makes phase invariance a testable property.
    """

    density: SpectralDensity
    phase: Callable[[float], float] = lambda energy: 0.0


def lorentzian_density(params: DephasingParams) -> SpectralDensity:
    """Cauchy-Lorentz density (gamma/2pi) / ((E - omega0)^2 + gamma^2/4) on the line.

    Its Fourier transform is the pure exponential exp(-gamma|t|/2 - i omega0 t)
    and its cdf 1/2 + arctan((E - omega0)/(gamma/2))/pi.
    """
    gamma, omega0 = params.gamma, params.omega0
    coef = gamma / (2.0 * math.pi)
    qsq = gamma * gamma / 4.0
    half = gamma / 2.0

    def dens(e):
        delta = e - omega0
        return coef / (delta * delta + qsq)

    return SpectralDensity(
        density=dens,
        support=(-math.inf, math.inf),
        center=omega0,
        cdf=lambda e: 0.5 + math.atan2(e - omega0, half) / math.pi,
        feature_points=(omega0 - gamma, omega0, omega0 + gamma),
        label=f"lorentzian(gamma={params.gamma:g}, omega0={params.omega0:g})",
    )


def exponential_density(rate: float = 1.0) -> SpectralDensity:
    """Half-line density rate * exp(-rate * E) on [0, inf), cdf 1 - exp(-rate E)."""
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be finite and strictly positive, got {rate}")

    def dens(e):
        return rate * np.exp(-rate * e)

    return SpectralDensity(
        density=dens,
        support=(0.0, math.inf),
        center=0.0,
        cdf=lambda e: -math.expm1(-rate * max(e, 0.0)),
        feature_points=(1.0 / rate,),
        label=f"exponential(rate={rate:g})",
    )


def table_density(
    energies, values, support: tuple[float, float] | None = None
) -> SpectralDensity:
    """Piecewise-linear density from (E, p(E)) knots on a compact support.

    Knots must be strictly increasing with non-negative values.  Outside the
    declared support the density is zero.  Its cdf, the trapezoid up to an
    energy, is piecewise quadratic; its knots inside the support are its
    feature points, so each cell of a transform is linear and its rule exact.
    """
    e = np.asarray(energies, dtype=float)
    p = np.asarray(values, dtype=float)
    if e.ndim != 1 or e.shape != p.shape or e.size < 2:
        raise ValueError("need matching 1-d arrays with at least two knots")
    if not np.all(np.diff(e) > 0):
        raise ValueError("knot energies must be strictly increasing")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("knot values must be finite and non-negative")
    if support is None:
        support = (float(e[0]), float(e[-1]))
    lo, hi = support
    if lo > e[0] or hi < e[-1]:
        raise ValueError("declared support must contain all knots")

    below = np.concatenate(([0.0], np.cumsum(np.diff(e) * (p[1:] + p[:-1]) / 2)))  # at each knot

    def dens(x):
        return np.interp(x, e, p, left=0.0, right=0.0)

    def cdf(x):
        y = min(max(x, e[0]), e[-1])  # the trapezoid up to x, clamped to the knots
        i = max(int(np.searchsorted(e, y)) - 1, 0)
        return float(below[i] + 0.5 * (y - e[i]) * (p[i] + np.interp(y, e, p)))

    return SpectralDensity(
        density=dens,
        support=(lo, hi),
        center=float(0.5 * (e[0] + e[-1])),
        cdf=cdf,
        feature_points=tuple(float(x) for x in e if lo < x < hi),
        label="user-table",
    )


def normalize_check(d: SpectralDensity, cfg=None) -> float:
    """Integral of the density over its support, via the quadrature module
    (exact for a density with a cdf).

    Callers assert |result - 1| <= 1e-10 for valid densities.  A quadrature
    non-convergence surfaces as a QuadratureFailure, never as a value.
    """
    from . import oscint

    cfg = cfg or oscint.QuadratureConfig()
    lo, hi = d.support
    return oscint.mass_integral(d, lo, hi, cfg)


def half_line_mass(d: SpectralDensity, side: str, cfg=None) -> float:
    """Mass of the density on the negative or positive half-line.

    For the Lorentzian this equals 1/2 -+ arctan(2 omega0/gamma)/pi on the
    negative/positive side; the two sides always sum to one.
    """
    from . import oscint

    cfg = cfg or oscint.QuadratureConfig()
    lo, hi = d.support
    if side == "negative":
        lo, hi = lo, min(hi, 0.0)
    elif side == "positive":
        lo, hi = max(lo, 0.0), hi
    else:
        raise ValueError(f"side must be 'negative' or 'positive', got {side!r}")
    if not lo < hi:
        return 0.0
    return oscint.mass_integral(d, lo, hi, cfg)

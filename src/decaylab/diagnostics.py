"""Decay-law analysis: truncated Paley-Wiener integrals, growth
classification, and exponential fitting.

For a survival amplitude with |a| <= 1 the integrand -ln|a(t)|/(1+t^2) is
non-negative, so the truncated integral pw(T) over [-T, T] is non-decreasing
in T.  A purely exponential amplitude gives pw(T) = (gamma/2) ln(1+T^2)
exactly (unbounded, logarithmically divergent), while amplitudes of
half-line-supported densities give pw(T) converging to a finite limit.
The classifier turns that asymptotic statement into a finite decision on a
T-sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import oscint
from .oscint import ComplexTimeSeries, QuadratureConfig, _checked, _summed

# classifier thresholds, calibrated on the two closed-form reference cases:
# the pure exponential fits c0 + c1 ln(1+T^2) to machine precision and keeps
# a constant slope in ln(1+T^2) across decades, while a converging sweep's
# slope collapses geometrically (the tail vanishes like ln(T)/T, so each
# decade contributes ~5x less than the one before).  Boundedness is decided
# by the last decade's slope dropping below half of the previous decade's;
# the reference cases sit at slope ratios 1.0 (divergent) vs <= 0.18
# (half-line exponential to T=1000; quadrature global amplitude to T=200).
DIVERGENT_RESIDUAL = 1e-3
BOUNDED_SLOPE_RATIO = 0.5
# the fewest samples exponential_fit accepts
MIN_FIT_SAMPLES = 8

_LOG_FLOOR = 1e-300


class ExponentialFit(NamedTuple):
    rate: float
    amplitude: float
    residual: float


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of pw(T) against c0 + c1 ln(1+T^2) over a sweep."""

    growth_class: str
    c0: float
    c1: float
    rel_residual: float
    pw_values: tuple


def _pw_segment(t0: float, t1: float, l0: float, l1: float) -> float:
    """int_{t0}^{t1} L(t)/(1+t^2) dt for L linear with L(t0)=l0, L(t1)=l1."""
    if t1 == t0:
        return 0.0
    beta = (l1 - l0) / (t1 - t0)
    alpha = l0 - beta * t0
    return alpha * (math.atan(t1) - math.atan(t0)) + 0.5 * beta * math.log1p(t1 * t1) - 0.5 * beta * math.log1p(t0 * t0)


def _neglog(mag: float) -> float:
    # |a| above 1 is quadrature noise; below the floor it is a hard zero
    return -math.log(min(max(mag, _LOG_FLOOR), 1.0))


def paley_wiener_integral(amplitude, T: float, cfg: QuadratureConfig | None = None) -> float:
    """Truncated integral int_{-T}^{T} -ln|a(t)| / (1+t^2) dt.

    `amplitude` is either a callable t -> a(t) (complex or real) or a
    ComplexTimeSeries covering [0, T].  Conjugate symmetry is used to
    integrate over [0, T] and double.  Series input is integrated exactly
    on each sample interval with log-linear interpolation of |a|; callable
    input goes through adaptive quadrature.
    """
    return pw_sweep(amplitude, [T], cfg)[-1][1]


def _pw_from_series(series: ComplexTimeSeries, t_lo: float, t_hi: float) -> float:
    t = series.times
    if t[0] > t_lo + 1e-12 or t[-1] < t_hi - 1e-12:
        raise ValueError(
            f"series covers [{t[0]:g}, {t[-1]:g}], need [{t_lo:g}, {t_hi:g}]"
        )
    neglog = np.array([_neglog(abs(v)) for v in series.values])
    total = 0.0
    for i in range(t.size - 1):
        a, b = float(t[i]), float(t[i + 1])
        if b <= t_lo or a >= t_hi:
            continue
        la, lb = float(neglog[i]), float(neglog[i + 1])
        if a < t_lo:
            la += (lb - la) * (t_lo - a) / (b - a)
            a = t_lo
        if b > t_hi:
            lb = la + (lb - la) * (t_hi - a) / (b - a)
            b = t_hi
        total += _pw_segment(a, b, la, lb)
    return 2.0 * total


def pw_sweep(amplitude, Ts, cfg: QuadratureConfig | None = None) -> list[tuple[float, float]]:
    """(T, pw(T)) along an increasing sweep, computed incrementally.  An
    increment that does not converge raises the QuadratureFailure of its
    integral over [previous T, T], with t = T."""
    cfg = cfg or QuadratureConfig()
    Ts = [float(T) for T in Ts]
    for T in Ts:
        if not 0 < T < math.inf:
            raise ValueError(f"sweep values must be positive and finite, got {T}")
    if any(b <= a for a, b in zip(Ts, Ts[1:])):
        raise ValueError("sweep values must be strictly increasing")
    out = []
    if isinstance(amplitude, ComplexTimeSeries):
        for T in Ts:
            out.append((T, _pw_from_series(amplitude, 0.0, T)))
        return out

    def integrand(t: float) -> float:
        return _neglog(abs(amplitude(t))) / (1.0 + t * t)

    # one walk over [0, max T], cut at every T and at the decades, which keep
    # the adaptive subdivision shallow on long ranges: the right end of each
    # piece, in order; an increment is judged on its own pieces.  quad is
    # looked up in oscint at each call, as _quad does, so that perfbench's
    # tracer, which replaces oscint.quad, counts the sweep
    ends = sorted({p for p in (*Ts, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5) if p <= Ts[-1]})
    acc, parts = 0.0, []
    for end, piece in zip(ends, oscint.quad(integrand, 0.0, Ts[-1], cfg.abs_tol / 2,
                                            cfg.rel_tol, ends)):
        parts.append(piece)
        if end in Ts:
            acc += 2.0 * _checked(end, *_summed(parts, cfg, "Paley-Wiener sweep increment"))
            out.append((end, acc))
            parts = []
    return out


def fit_pw_growth(amplitude, Ts, cfg: QuadratureConfig | None = None) -> GrowthFit:
    """Fit the pw sweep and classify its growth.

    Logarithmic divergence: positive slope c1 with relative fit residual
    below 1e-3 (the pure exponential case is exact).  Boundedness: the slope
    of pw against ln(1+T^2) over the last decade falls below half the slope
    over the decade before it.  Anything else is undetermined.
    """
    Ts = [float(T) for T in Ts]
    if len(Ts) < 4:
        raise ValueError(f"need at least 4 sweep values, got {len(Ts)}")
    if Ts[-1] / Ts[0] < 100.0 * (1.0 - 1e-12):
        raise ValueError(f"sweep must span at least two decades, got {Ts[0]:g}..{Ts[-1]:g}")
    values = pw_sweep(amplitude, Ts, cfg)
    pw = np.array([v for _, v in values])
    x = np.log1p(np.square(Ts))
    c1, c0 = np.polyfit(x, pw, 1)
    resid = pw - (c0 + c1 * x)
    scale = math.sqrt(float(np.mean(pw**2)))
    rel_residual = math.sqrt(float(np.mean(resid**2))) / scale if scale > 0 else 0.0

    if float(np.max(pw)) <= 1e-12:
        cls = "bounded"
    elif c1 > 0 and rel_residual < DIVERGENT_RESIDUAL:
        cls = "logarithmic-divergent"
    else:
        j10 = max(i for i, T in enumerate(Ts) if T <= Ts[-1] / 10.0 * (1.0 + 1e-9))
        j100 = max(i for i, T in enumerate(Ts) if T <= Ts[-1] / 100.0 * (1.0 + 1e-9))
        slope_last = (pw[-1] - pw[j10]) / (x[-1] - x[j10])
        slope_prev = (pw[j10] - pw[j100]) / (x[j10] - x[j100]) if j10 > j100 else 0.0
        if slope_prev <= 0:
            cls = "bounded" if slope_last <= 0 else "undetermined"
        else:
            cls = "bounded" if slope_last < BOUNDED_SLOPE_RATIO * slope_prev else "undetermined"
    return GrowthFit(cls, float(c0), float(c1), float(rel_residual), tuple(values))


def classify_growth(amplitude, Ts, cfg: QuadratureConfig | None = None) -> str:
    """Growth class of the truncated Paley-Wiener integral along a T-sweep."""
    return fit_pw_growth(amplitude, Ts, cfg).growth_class


def exponential_fit(series: ComplexTimeSeries, window: tuple[float, float]) -> ExponentialFit:
    """Least squares of ln|value| against -rate*t + ln(amplitude).

    Requires at least 8 samples with |value| > 1e-14 inside the window; the
    residual is the root-mean-square misfit in log space, so a residual well
    above zero certifies that the windowed data is not a single exponential.
    """
    t_min, t_max = window
    if not t_min < t_max:
        raise ValueError(f"empty window {window}")
    sel = (series.times >= t_min) & (series.times <= t_max)
    t = series.times[sel]
    v = np.abs(series.values[sel])
    keep = v > 1e-14
    t, v = t[keep], v[keep]
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"need at least {MIN_FIT_SAMPLES} samples with |value| > 1e-14 in the window, "
            f"got {t.size}"
        )
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    resid = logv - (intercept + slope * t)
    residual = math.sqrt(float(np.mean(resid**2)))
    return ExponentialFit(rate=float(-slope), amplitude=float(math.exp(intercept)), residual=residual)

"""The linear phase in offset coordinates: the fixed half-period kernel, its
phase slip, the exact phase factor exp(-i t x0), and the narrow lines and
masses that absolute coordinates got wrong.

Every reference phase is computed in mpmath at 40 digits, because a double
closed form carries the same ulp(omega0 t) error as the code it checks.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from decaylab import (
    DephasingParams,
    QuadratureConfig,
    SpectralDensity,
    fourier_amplitude,
    lorentzian_density,
    mass_integral,
    oscint,
)


@pytest.fixture(autouse=True)
def _forty_digits():
    # other tests set mpmath's global precision lower; every reference here
    # is taken at 40 digits whatever ran before
    with mp.workdps(40):
        yield


# the largest slip |t |h| - pi| of h = fl(pi/t): the rounding of the
# division, pi 2^-53, and of pi itself, pi - fl(pi) = 1.2246e-16
SLIP = math.pi * 2.0 ** -53 + 1.2246467991473532e-16


def _lorentzian_reference(gamma, omega0, t):
    """exp(-gamma |t|/2 - i omega0 t) with omega0 t taken exactly."""
    return complex(mp.exp(-mp.mpf(gamma) * abs(mp.mpf(t)) / 2 - 1j * mp.mpf(omega0) * mp.mpf(t)))


def _explicit_cell(weight, K, h, time):
    """The half-period [K h, (K+1) h] by dqk21 at the nodes of
    _half_period_cells, its kernel exp(-i time y) taken in mpmath at the
    cell's exact nodes y = (K + (1 + xi)/2) h: (value, sum of |f w| |h|/2)."""
    x = (K + 0.5 * (1.0 + oscint._GK21_NODES)) * h
    kernel = np.array([complex(mp.exp(-1j * mp.mpf(time) * (K + (1 + mp.mpf(xi)) / 2) * mp.mpf(h)))
                       for xi in oscint._GK21_NODES.tolist()])
    f = weight(x)
    [value], _, _ = oscint._qk21_cells((f * kernel)[:, None], np.array([0.5 * h]), 1e-15, 1e-15)
    return value, float(np.sum(oscint._GK21_WEIGHTS[0] * np.abs(f)) * abs(0.5 * h))


_LORENTZ = lorentzian_density(DephasingParams(1.0, 0.0)).offset_density
# t = 1e5 has a slip above pi 2^-53 (the rounding of pi adds to it)
_CELLS = [(K, t, way) for K in (0, 1, 2, 7, 1000, 123457, 10**6)
          for t in (0.37, 3.0, 1e3, 1e5) for way in (1, -1)]


@pytest.mark.parametrize("K, t, way", _CELLS)
def test_fixed_kernel_matches_the_explicit_kernel(K, t, way):
    # a tail cell of the linear phase by (-1)^K times the fixed 21-vector is
    # the same cell with exp(-i t y) taken exactly, at the time pi/|h| of
    # the float h = way pi/t, to 1e-15 relative
    h = way * math.pi / t
    [got], _, _ = oscint._half_period_cells(_LORENTZ, np.array([float(K)]), np.array([h]),
                                            1e-15, 1e-15)
    want, _ = _explicit_cell(_LORENTZ, K, h, mp.pi / abs(mp.mpf(h)))
    assert abs(got - want) <= 1e-15 * abs(want), (K, t, way)


@pytest.mark.parametrize("K, t, way", _CELLS)
def test_phase_slip_is_bounded(K, t, way):
    # against exp(-i t y) at the user's t itself, the fixed kernel is off by
    # the phase slip: at most (K + 1) |t |h| - pi| at a node, and
    # |t |h| - pi| <= SLIP for h = fl(pi/t)
    h = way * math.pi / t
    slip = abs(float(mp.mpf(t) * abs(mp.mpf(h)) - mp.pi))
    assert slip <= SLIP
    [got], _, _ = oscint._half_period_cells(_LORENTZ, np.array([float(K)]), np.array([h]),
                                            1e-15, 1e-15)
    want, size = _explicit_cell(_LORENTZ, K, h, t)
    assert abs(got - want) <= (K + 1) * slip * size + 1e-15 * abs(want), (K, t, way)


@pytest.mark.parametrize("product, tol", [(1e2, 1e-15), (1e10, 1e-15), (1e17, 4e-15)])
def test_phase_factor_matches_mpmath(product, tol):
    # exp(-i t x0) from the exact product t x0, reduced mod 2 pi: a double
    # product is off by |t x0| 2^-53, all of the phase at 1e17
    rng = np.random.default_rng(int(math.log10(product)))
    for x0 in (10.0 ** rng.uniform(-3.0, 15.0, 12) * rng.choice([-1.0, 1.0], 12)).tolist():
        t = product / abs(x0) * rng.uniform(0.5, 2.0, 5)
        got = oscint._phase_factors(t, x0)
        for ti, value in zip(t.tolist(), got.tolist()):
            want = complex(mp.exp(-1j * mp.mpf(ti) * mp.mpf(x0)))
            assert abs(value - want) <= tol, (ti, x0)


# the narrow-line grid of the stress census: gamma = 1, omega0 = 1e6..1e10 at
# t = 1e-3..30, and omega0 = 1e10 at t = 1e7.  In absolute coordinates 8 of
# its 62 points missed silently and 34 raised (one with a bound below its
# error); in offsets every point is within its tolerance
_NARROW = [(w, t) for w in (1e6, 1e7, 1e8, 1e9, 1e10)
           for t in (1e-3, 0.1, 1.0, 3.0, 10.0, 30.0)] + [(1e10, 1e7)]


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("omega0, t", _NARROW)
def test_narrow_lines_are_within_tolerance(omega0, t, tol):
    cfg = QuadratureConfig(tol, tol)
    want = _lorentzian_reference(1.0, omega0, t)
    got = fourier_amplitude(lorentzian_density(DephasingParams(1.0, omega0)), t, cfg)
    assert abs(got - want) <= cfg.target(want), (omega0, t, tol)


@pytest.mark.parametrize("omega0", [1e15, -3e12])
def test_narrowest_resolvable_lines_are_within_tolerance(omega0):
    cfg = QuadratureConfig(1e-12, 1e-12)
    d = lorentzian_density(DephasingParams(1.0, omega0))
    for t in (1e-3, 0.7, 5.0):
        want = _lorentzian_reference(1.0, omega0, t)
        assert abs(fourier_amplitude(d, t, cfg) - want) <= cfg.target(want), t


def test_decayed_lorentzian_is_within_tolerance():
    # gamma t = 8.5e5: the amplitude is 0 to double precision, and it
    # returned 1.28e-12 at 1e-12 in absolute coordinates
    gamma, omega0, t = 0.0020812575081219135, 0.0017767630020604091, 407013195.94597548
    cfg = QuadratureConfig(1e-12, 1e-12)
    got = fourier_amplitude(lorentzian_density(DephasingParams(gamma, omega0)), t, cfg)
    assert abs(got) <= cfg.abs_tol


_CORNER = [(-math.inf, math.inf), (-math.inf, 0.0), (0.0, math.inf), (-math.inf, 1e3),
           (1e3, math.inf)] + [(1e3 + s * k * 1e-3, math.inf) for k in (1, 3, 10) for s in (-1, 1)]


@pytest.mark.parametrize("lo, hi", _CORNER)
def test_masses_without_a_cdf_at_a_narrow_line(lo, hi):
    # gamma = 1e-3, omega0 = 1e3 without the cdf: quad integrates the offset
    # density around the centre; in x, every one of these ranges but three
    # missed 1e-12 silently (the full line by 1.39e-11)
    gamma, omega0 = 1e-3, 1e3
    d = replace(lorentzian_density(DephasingParams(gamma, omega0)), cdf=None)
    cfg = QuadratureConfig(1e-12, 1e-12)

    def cdf(x):
        if math.isinf(x):
            return mp.mpf(x > 0)
        return mp.mpf(1) / 2 + mp.atan((mp.mpf(x) - omega0) / (mp.mpf(gamma) / 2)) / mp.pi

    want = float(cdf(hi) - cdf(lo))
    assert abs(mass_integral(d, lo, hi, cfg) - want) <= cfg.target(want), (lo, hi)


def test_linear_tail_first_pass_takes_no_complex_exp(monkeypatch):
    # the first pass of the tail cells is the fixed kernel: the only complex
    # exp calls left are the head's, one element per Clenshaw-Curtis cell,
    # and the phase factor's, one per sum (no cell of this case is refined)
    calls, exp = [], np.exp

    def counting(x, *args, **kwargs):
        if np.iscomplexobj(x):
            calls.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    d = lorentzian_density(DephasingParams(1.0, 0.3))
    got = fourier_amplitude(d, 2.0, QuadratureConfig())
    assert abs(got - _lorentzian_reference(1.0, 0.3, 2.0)) <= 1e-9
    assert calls and all(len(shape) == 1 for shape in calls), calls


def test_lorentzian_offset_density_is_its_density_at_the_offset():
    # dyadic centre and offsets make omega0 + y exact, so the offset form
    # and the density agree bit for bit there
    d = lorentzian_density(DephasingParams(1.5, 3.25))
    y = np.arange(-8.0, 8.0, 0.125)
    assert np.array_equal(d.offset_density(y), d.density(3.25 + y))


def test_offset_weight_defaults_to_the_density_at_x0_plus_y():
    base = lorentzian_density(DephasingParams(1.0, 2.0))
    plain = SpectralDensity(base.density, center=2.0)
    assert plain.offset_density is None
    y = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(oscint._offset_weight(plain, 0.5)(y), base.density(0.5 + y))
    assert np.array_equal(oscint._offset_weight(base, 0.5)(y), base.offset_density(-1.5 + y))
    assert oscint._offset_weight(base, 2.0) is base.offset_density

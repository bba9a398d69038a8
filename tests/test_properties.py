"""Seeded properties of the public amplitudes over random densities and grids.

Every series is its single-time function's values bit for bit, failures
included, and a(-t) is exactly conj a(t).  The densities are Lorentzians
(gamma in 1e-3..1e3, |omega0/gamma| up to 1e6), exponentials and triangle
tables; each grid mixes t = 0, negative t and |width * t| from 1e-8 to 1e6,
width the density's energy scale, at tolerances 1e-9 and 1e-12.  The
examples are derandomized, so every run draws the same ones.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decaylab import (
    DephasingParams,
    QuadratureConfig,
    SeriesFailure,
    amplitude_series,
    exponential_density,
    fourier_amplitude,
    global_survival,
    global_survival_series,
    lorentzian_density,
    oscint,
    restricted_amplitude,
    restricted_amplitude_series,
    table_density,
)
from test_oscint import _assert_series_equals_points

SEEDED = settings(derandomize=True, max_examples=40, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
TOLERANCES = st.sampled_from([QuadratureConfig(1e-9, 1e-9), QuadratureConfig(1e-12, 1e-12)])


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def densities(draw):
    """(density, width): a Lorentzian, an exponential or a triangle table
    and its energy scale, the width of its bulk."""
    kind = draw(st.sampled_from(["lorentzian", "exponential", "triangle"]))
    width = draw(_decades(-3.0, 3.0))
    if kind == "lorentzian":
        ratio = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(_decades(-3.0, 6.0))
        return lorentzian_density(DephasingParams(width, ratio * width)), width
    if kind == "exponential":
        return exponential_density(1.0 / width), width
    start, peak = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 0.95))
    knots = [start * width, (start + peak) * width, (start + 1.0) * width]
    return table_density(knots, [0.0, 2.0 / width, 0.0]), width


@st.composite
def grids(draw, width, symmetric=False):
    """A strictly increasing grid of times t, |width * t| over 1e-8..1e6:
    of either sign and with or without t = 0, or, symmetric, each t with -t
    and without 0."""
    scaled = draw(st.lists(_decades(-8.0, 6.0), min_size=1, max_size=4))
    if symmetric:
        return sorted({s * x / width for x in scaled for s in (-1.0, 1.0)})
    times = {x / width * draw(st.sampled_from([-1.0, 1.0])) for x in scaled}
    return sorted(times | ({0.0} if draw(st.booleans()) else set()))


def _series_outcome(call, grid):
    """The series' values and failures, raised or not."""
    try:
        return call(grid).values, ()
    except SeriesFailure as exc:
        return exc.series.values, exc.failures


@SEEDED
@given(st.data(), densities(), TOLERANCES)
def test_series_equal_their_points(data, density, cfg):
    # some tails are capped short of the default _MAX_CELLS, so that some
    # points fail: a failure is the one its point raises alone
    d, width = density
    grid = data.draw(grids(width))
    max_cells = data.draw(st.sampled_from([oscint._MAX_CELLS, 4, 9]))
    lo, hi = d.center - width, d.center + 2.0 * width
    w0 = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    cases = [
        (lambda ts: amplitude_series(d, ts, cfg), lambda t: fourier_amplitude(d, t, cfg)),
        (lambda ts: restricted_amplitude_series(d, lo, hi, ts, cfg),
         lambda t: restricted_amplitude(d, lo, hi, t, cfg)),
        (lambda ts: restricted_amplitude_series(d, d.center, math.inf, ts, cfg),
         lambda t: restricted_amplitude(d, d.center, math.inf, t, cfg)),
        (lambda ts: global_survival_series((w0, 1.0 - w0), d, ts, cfg),
         lambda t: global_survival((w0, 1.0 - w0), d, t, cfg)),
    ]
    with pytest.MonkeyPatch.context() as capped:
        capped.setattr(oscint, "_MAX_CELLS", max_cells)
        for series, point in cases:
            _assert_series_equals_points(series, point, grid)


@SEEDED
@given(st.data(), densities(), TOLERANCES)
def test_negative_times_are_exact_conjugates(data, density, cfg):
    # the grid holds each t with -t: the value at -t is conj a(t) bit for
    # bit, and a failure at -t is the one at t, its estimate conjugated
    d, width = density
    grid = data.draw(grids(width, symmetric=True))
    for call in (lambda ts: amplitude_series(d, ts, cfg),
                 lambda ts: restricted_amplitude_series(d, d.center - width, math.inf, ts, cfg)):
        values, failures = _series_outcome(call, grid)
        mirrored = values[::-1].conj()
        assert np.array_equal(values.view(np.int64), mirrored.view(np.int64))
        by_t = {f.t: f for f in failures}
        for t, f in by_t.items():
            g = by_t[-t]
            assert (f.detail, f.estimate, f.error_bound) == (g.detail, g.estimate.conjugate(),
                                                             g.error_bound)

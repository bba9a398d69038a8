import math

import numpy as np
import pytest

from decaylab import (
    ComplexTimeSeries,
    DephasingParams,
    QuadratureConfig,
    amplitude_series,
    classify_growth,
    exponential_fit,
    fit_pw_growth,
    lorentzian_density,
    paley_wiener_integral,
    pw_sweep,
)

CFG = QuadratureConfig()
SWEEP = [10.0, 31.6, 100.0, 316.0, 1000.0]

PI_LN2 = math.pi * math.log(2.0)

# frozen with mpmath at 30 digits: int_{-T}^{T} (1/2) ln(1+t^2)/(1+t^2) dt
PW_HALFLINE_EXP = {
    10.0: 1.5184860503586375577,
    100.0: 2.0654856454239906559,
    1000.0: 2.1617705842396943882,
}


def exp_amp(gamma):
    return lambda t: math.exp(-gamma * abs(t) / 2.0)


def halfline_exp_amp(t):
    # amplitude of the unit-rate half-line exponential density
    return 1.0 / math.sqrt(1.0 + t * t)


def test_pw_closed_form_for_exponential():
    # exact antiderivative: int_0^T t/(1+t^2) dt = ln(1+T^2)/2
    got = paley_wiener_integral(exp_amp(1.0), 10.0, CFG)
    assert got == pytest.approx(0.5 * math.log(101.0), rel=1e-12)


def test_pw_zero_for_constant():
    assert paley_wiener_integral(lambda t: 1.0, 50.0, CFG) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("T", sorted(PW_HALFLINE_EXP))
def test_pw_halfline_exponential_frozen(T):
    got = paley_wiener_integral(halfline_exp_amp, T, CFG)
    assert got == pytest.approx(PW_HALFLINE_EXP[T], abs=1e-8)


def test_pw_monotone_in_T():
    values = pw_sweep(halfline_exp_amp, [1.0, 5.0, 20.0, 80.0, 400.0], CFG)
    pws = [v for _, v in values]
    assert all(b >= a for a, b in zip(pws, pws[1:]))


def test_pw_requires_positive_T():
    with pytest.raises(ValueError):
        paley_wiener_integral(exp_amp(1.0), 0.0, CFG)


@pytest.mark.parametrize("Ts,bad", [
    ([-1.0, 10.0], "-1.0"),
    ([math.nan], "nan"),
    ([1.0, math.inf], "inf"),
    ([10.0, 31.6, 100.0, 316.0, math.nan], "nan"),
])
def test_pw_sweep_rejects_non_positive_or_non_finite_T(Ts, bad):
    # before any quadrature or fit: a NaN once reached np.polyfit (LAPACK
    # errors, "SVD did not converge"), an inf scipy's break points
    with pytest.raises(ValueError, match=f"positive and finite, got {bad}$"):
        pw_sweep(exp_amp(1.0), Ts, CFG)
    if len(Ts) >= 4:
        with pytest.raises(ValueError, match=f"positive and finite, got {bad}$"):
            fit_pw_growth(exp_amp(1.0), Ts, CFG)


def test_pw_series_segments_match_quadrature():
    # -ln|a| is piecewise linear for the exponential, so the segment formula
    # is exact and must agree with the adaptive-quadrature route
    ts = np.linspace(0.0, 40.0, 81)
    series = ComplexTimeSeries(ts, np.array([exp_amp(1.0)(t) for t in ts], dtype=complex))
    got = paley_wiener_integral(series, 40.0, CFG)
    want = paley_wiener_integral(exp_amp(1.0), 40.0, CFG)
    assert got == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError):
        paley_wiener_integral(series, 50.0, CFG)  # series does not cover [0, 50]


def test_classifier_exponential_is_log_divergent():
    fit = fit_pw_growth(exp_amp(1.0), SWEEP, CFG)
    assert fit.growth_class == "logarithmic-divergent"
    assert fit.c1 == pytest.approx(0.5, abs=1e-3)
    assert fit.rel_residual < 1e-3


def test_classifier_halfline_exponential_is_bounded():
    fit = fit_pw_growth(halfline_exp_amp, SWEEP, CFG)
    assert fit.growth_class == "bounded"
    # the sweep approaches but has not reached pi ln 2
    assert dict(fit.pw_values)[1000.0] < PI_LN2


def test_classifier_constant_is_bounded():
    assert classify_growth(lambda t: 1.0, [1.0, 10.0, 100.0, 1000.0], CFG) == "bounded"


def test_classifier_time_rescaling_invariance():
    # t -> s t with gamma -> gamma/s leaves the class and fitted slope family
    s = 2.0
    base = fit_pw_growth(exp_amp(1.0), SWEEP, CFG)
    scaled = fit_pw_growth(exp_amp(1.0 / s), [s * T for T in SWEEP], CFG)
    assert base.growth_class == scaled.growth_class == "logarithmic-divergent"


def test_classifier_preconditions():
    with pytest.raises(ValueError):
        fit_pw_growth(exp_amp(1.0), [10.0, 100.0, 1000.0], CFG)  # fewer than 4
    with pytest.raises(ValueError):
        fit_pw_growth(exp_amp(1.0), [10.0, 20.0, 40.0, 80.0], CFG)  # < 2 decades


def test_exponential_fit_recovers_rate():
    ts = np.linspace(0.25, 10.0, 40)
    series = ComplexTimeSeries(
        ts, np.array([np.exp(-0.5 * t - 0.3j * t) for t in ts], dtype=complex)
    )
    fit = exponential_fit(series, (0.0, 10.0))
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.amplitude == pytest.approx(1.0, abs=1e-12)
    assert fit.residual < 1e-12


def test_exponential_fit_on_quadrature_dephasing_series():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    ts = np.linspace(0.25, 10.0, 40)
    series = amplitude_series(d, ts, CFG)
    fit = exponential_fit(series, (0.0, 10.0))
    assert fit.rate == pytest.approx(0.5, abs=1e-7)
    assert fit.residual < 1e-6


def test_exponential_fit_constant_series():
    ts = np.linspace(0.0, 5.0, 11)
    series = ComplexTimeSeries(ts, np.ones(ts.shape, dtype=complex))
    fit = exponential_fit(series, (0.0, 5.0))
    assert fit.rate == 0.0
    assert fit.amplitude == 1.0
    assert fit.residual == 0.0


def test_exponential_fit_rejects_thin_or_zero_windows():
    ts = np.linspace(0.0, 5.0, 11)
    series = ComplexTimeSeries(ts, np.zeros(ts.shape, dtype=complex))
    with pytest.raises(ValueError):
        exponential_fit(series, (0.0, 5.0))  # all values below the floor
    small = ComplexTimeSeries(ts[:5], np.ones(5, dtype=complex))
    with pytest.raises(ValueError):
        exponential_fit(small, (0.0, 5.0))  # fewer than 8 samples
    with pytest.raises(ValueError):
        exponential_fit(small, (3.0, 1.0))  # empty window


def test_global_survival_classified_bounded():
    # the central contrast: the subsystem factor diverges logarithmically
    # (see the exponential cases above) while the global survival amplitude
    # of the equal-weight product state is classified bounded from
    # quadrature data on [0, 200]
    from decaylab import global_survival_series

    d = lorentzian_density(DephasingParams(1.0, 0.0))
    series = global_survival_series((0.5, 0.5), d, np.linspace(0.0, 200.0, 201), CFG)
    fit = fit_pw_growth(series, [2.0, 6.3, 20.0, 63.0, 200.0], CFG)
    assert fit.growth_class == "bounded"
    pw = dict(fit.pw_values)
    assert pw[200.0] < PI_LN2  # stays under the half-line-exponential budget
    assert pw[200.0] == pytest.approx(0.7858, abs=2e-3)


def test_non_exponential_series_has_large_residual():
    # a plateau plus a transient is far from a single exponential in log space
    ts = np.linspace(1.0, 50.0, 60)
    vals = 0.5 + 0.5 * np.exp(-ts)
    series = ComplexTimeSeries(ts, vals.astype(complex))
    fit = exponential_fit(series, (1.0, 50.0))
    assert fit.residual > 1e-3

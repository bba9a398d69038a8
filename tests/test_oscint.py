import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from scipy.integrate import quad
from scipy.special import exp1

from decaylab import (
    ComplexTimeSeries,
    DephasingParams,
    QuadratureConfig,
    QuadratureFailure,
    SeriesFailure,
    amplitude_series,
    exponential_density,
    fourier_amplitude,
    generalized_dephasing_factor,
    generalized_factor_series,
    global_survival,
    global_survival_series,
    half_line_mass,
    halfline_amplitude,
    lorentzian_density,
    mass_integral,
    pw_sweep,
    restricted_amplitude,
    restricted_amplitude_series,
    table_density,
)
from decaylab import build_initial_state, exp_potential, induced_map, oscint, ramp_potential
from decaylab.expressions import parse_expression

CFG = QuadratureConfig()
TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)


def lorentz_exact(gamma, omega0, t):
    return np.exp(-gamma * abs(t) / 2.0 - 1j * omega0 * t)


# frozen with mpmath.quadosc at 30 significant digits:
# int_0^inf exp(-i E t) p_C(E) dE for (gamma, omega0, t)
HALFLINE_REFS = {
    (1.0, 0.0, 1.0): 0.3032653298563167118 - 0.19073270521969466345j,
    (1.0, 0.0, 5.0): 0.041042499311949397585 - 0.1407209650808694804j,
    (1.0, 0.0, 200.0): 0.0 - 0.0031837362478587836344j,
    (2.0, 1.0, 1.0): 0.12979422379093662702 - 0.39359163154552591744j,
    (2.0, 1.0, 3.0): -0.064849219862141294971 - 0.053905985960816617612j,
    (0.5, -1.0, 2.0): 0.015130540885630384562 - 0.022327362347789606254j,
}

# density peak far inside the integration range (many oscillations before the
# bulk): frozen at 40 digits from the exponential-integral closed form
# (partial fractions 1/(E - z) with z = omega0 + i gamma/2, each piece
# e^w E1(w) with w = -i t z, plus the pole term e^{-gamma t/2 - i omega0 t}
# restored where the principal branch drops it, omega0 > 0).  The closed form
# reproduces every value in HALFLINE_REFS to 1e-20.
HALFLINE_FAR_PEAK_REFS = {
    (0.5, 12.0, 31.0): 0.00011841632209317473411 - 0.0004319363598123350081j,
    (1.0, 5.0, 200.0): -6.2406858009942070586e-8 - 3.1515645567621542515e-5j,
    (1.0, 20.0, 50.0): -1.5887617903252443812e-8 - 7.952740506642389697e-6j,
    (1.0, 5.0, 7.3): 0.0093931559609295880396 + 0.023356672146624733186j,
    (0.5, 3.0, 100.0): -5.8128468084135114475e-7 - 8.7803850993266006078e-5j,
    (1.0, 8.0, 2.0): -0.35245099591565560197 + 0.10470198712847531955j,
}


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega0", [0.0, 1.0])
def test_lorentzian_transform_matches_closed_form(gamma, omega0):
    d = lorentzian_density(DephasingParams(gamma, omega0))
    for t in np.linspace(-20.0, 20.0, 21):
        got = fourier_amplitude(d, float(t), CFG)
        assert abs(got - lorentz_exact(gamma, omega0, t)) <= 1e-8


def test_target_exponential_value_at_t2():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    assert fourier_amplitude(d, 2.0, CFG) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_amplitude_at_zero_is_one():
    for d in (
        lorentzian_density(DephasingParams(1.0, 0.0)),
        exponential_density(1.0),
        table_density([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
    ):
        assert fourier_amplitude(d, 0.0, CFG) == pytest.approx(1.0, abs=CFG.abs_tol)


def test_exponential_density_closed_form_and_oracle():
    # closed form 1/(1 + i t / rate); independent high-precision quadrature
    import mpmath as mp

    d = exponential_density(1.0)
    got = fourier_amplitude(d, 1.0, TIGHT)
    assert abs(got - (0.5 - 0.5j)) <= 1e-12
    mp.mp.dps = 25
    re = mp.quadosc(lambda e: mp.e**-e * mp.cos(e), [0, mp.inf], period=2 * mp.pi)
    im = -mp.quadosc(lambda e: mp.e**-e * mp.sin(e), [0, mp.inf], period=2 * mp.pi)
    assert abs(got - complex(float(re), float(im))) <= 1e-12
    got2 = fourier_amplitude(d, 2.0, TIGHT)
    assert abs(got2 - 1.0 / (1.0 + 2.0j)) <= 1e-12


def test_series_matches_pointwise_and_phase_factor():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    times = [0.0, 1.0, 2.0]
    series = amplitude_series(d, times, CFG)
    for t, v in zip(series.times, series.values):
        assert v == fourier_amplitude(d, float(t), CFG)  # bit-identical batch
    want = [1.0, math.exp(-0.5), math.exp(-1.0)]
    assert np.allclose(series.values, want, atol=1e-9)

    d3 = lorentzian_density(DephasingParams(1.0, 3.0))
    s3 = amplitude_series(d3, [1.0], CFG)
    assert abs(s3.values[0] - math.exp(-0.5) * np.exp(-3.0j)) <= 1e-9


def test_series_conjugate_pairs():
    # value(-t) must be the conjugate of value(t) whenever both are sampled
    d = lorentzian_density(DephasingParams(1.0, 2.0))
    series = amplitude_series(d, [-2.0, -1.0, 0.0, 1.0, 2.0], CFG)
    v = series.values
    assert v[0] == v[4].conjugate()
    assert v[1] == v[3].conjugate()
    assert abs(v[2].imag) <= 1e-9


def test_empty_series():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    series = amplitude_series(d, [], CFG)
    assert len(series) == 0


def test_conjugate_symmetry():
    d = lorentzian_density(DephasingParams(1.0, 2.0))
    for t in (0.5, 3.0, 11.0):
        plus = fourier_amplitude(d, t, CFG)
        minus = fourier_amplitude(d, -t, CFG)
        assert minus == plus.conjugate()  # negative times evaluate by conjugation
        assert abs(minus - plus.conjugate()) <= 1e-10


def test_contractivity():
    d = lorentzian_density(DephasingParams(0.5, 1.0))
    for t in np.linspace(0.0, 30.0, 16):
        assert abs(fourier_amplitude(d, float(t), CFG)) <= 1.0 + 1e-9


@pytest.mark.parametrize("key", sorted(HALFLINE_REFS))
def test_halfline_restricted_against_frozen_oracle(key):
    gamma, omega0, t = key
    d = lorentzian_density(DephasingParams(gamma, omega0))
    got = restricted_amplitude(d, 0.0, math.inf, t, TIGHT)
    assert abs(got - HALFLINE_REFS[key]) <= 1e-11


@pytest.mark.parametrize("key", sorted(HALFLINE_FAR_PEAK_REFS))
def test_halfline_with_far_off_peak(key):
    # regression: the head region up to the density bulk is integrated apart
    # from the accelerated tail, so hundreds of pre-peak oscillations cannot
    # poison the extrapolation
    gamma, omega0, t = key
    d = lorentzian_density(DephasingParams(gamma, omega0))
    got = restricted_amplitude(d, 0.0, math.inf, t, CFG)
    assert abs(got - HALFLINE_FAR_PEAK_REFS[key]) <= 1e-9


def test_halfline_amplitude_positive_side():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    for t in (1.0, 5.0):
        want = 0.5 + HALFLINE_REFS[(1.0, 0.0, t)]
        assert abs(halfline_amplitude(d, "positive", t, TIGHT) - want) <= 1e-10
    assert halfline_amplitude(d, "positive", 0.0, CFG) == pytest.approx(1.0, abs=1e-9)


def test_halfline_amplitude_negative_side_via_reflection():
    # <e^{-i t q_-}> = mass(positive) + int_0^inf e^{-iEt} d(-E) dE, and the
    # reflected Lorentzian flips the sign of omega0
    d = lorentzian_density(DephasingParams(0.5, 1.0))
    t = 2.0
    mass_pos = half_line_mass(d, "positive", TIGHT)
    want = mass_pos + HALFLINE_REFS[(0.5, -1.0, 2.0)]
    assert abs(halfline_amplitude(d, "negative", t, TIGHT) - want) <= 1e-10


def test_halfline_longtime_limit():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    assert abs(halfline_amplitude(d, "positive", 200.0, CFG) - 0.5) <= 0.01


def test_split_identity_against_analytic_full_line():
    # disjoint-domain additivity: the two restricted transforms must add up
    # to the analytic full-line Lorentzian result
    for gamma, omega0 in [(1.0, 0.0), (2.0, 1.0)]:
        d = lorentzian_density(DephasingParams(gamma, omega0))
        for t in (0.7, 2.0, 9.0):
            lower = restricted_amplitude(d, -math.inf, 0.0, t, CFG)
            upper = restricted_amplitude(d, 0.0, math.inf, t, CFG)
            assert abs(lower + upper - lorentz_exact(gamma, omega0, t)) <= 2 * CFG.abs_tol


def test_restricted_amplitude_phase_is_rescaled_time():
    # the phase 2x at time t is the identity phase at time 2t, on each range
    d = lorentzian_density(DephasingParams(1.0, 0.5))
    doubled = dict(phase=lambda x: 2.0 * x, phase_inv=lambda u: u / 2.0)
    for lo, hi in [(-math.inf, math.inf), (0.2, math.inf), (-math.inf, 0.2)]:
        for t in (-1.3, 0.0, 0.7, 4.0):
            got = restricted_amplitude(d, lo, hi, t, CFG, **doubled)
            assert abs(got - restricted_amplitude(d, lo, hi, 2.0 * t, CFG)) <= 2 * CFG.abs_tol
    with pytest.raises(ValueError):
        restricted_amplitude(d, -1.0, 1.0, 1.0, CFG, **doubled)


def test_global_survival_basics():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    assert global_survival((1.0, 0.0), d, 0.0, CFG) == pytest.approx(1.0, abs=1e-9)
    only_plus = global_survival((1.0, 0.0), d, 3.0, CFG)
    assert only_plus == halfline_amplitude(d, "positive", 3.0, CFG)
    with pytest.raises(ValueError):
        global_survival((0.6, 0.6), d, 1.0, CFG)
    with pytest.raises(ValueError):
        global_survival((-0.2, 1.2), d, 1.0, CFG)


@pytest.mark.parametrize("weights", [(0.6, 0.6), (-0.2, 1.2), (math.nan, math.nan),
                                     (1.0, math.nan), (math.inf, -math.inf), (math.inf, 0.0)])
def test_global_survival_rejects_bad_spin_weights(weights):
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    for call in (lambda: global_survival(weights, d, 1.0, CFG),
                 lambda: global_survival_series(weights, d, [0.0, 1.0], CFG)):
        with pytest.raises(ValueError, match="spin weights") as exc_info:
            call()
        assert str(weights) in str(exc_info.value)


def test_global_survival_longtime_value():
    # |a(200)| frozen from the mpmath half-line transform: 0.50001013607375594
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    a = global_survival((0.5, 0.5), d, 200.0, CFG)
    assert abs(abs(a) - 0.50001013607375594) <= 1e-8


def test_riemann_lebesgue_envelope():
    for gamma in (0.5, 1.0):
        d = lorentzian_density(DephasingParams(gamma, 0.0))
        mags = [abs(fourier_amplitude(d, t, CFG)) for t in (50.0, 100.0, 200.0)]
        assert mags[0] >= mags[1] - 2e-9
        assert mags[1] >= mags[2] - 2e-9
        assert mags[2] < 0.05


def test_determinism_bit_identical():
    d = lorentzian_density(DephasingParams(1.3, 0.4))
    a = fourier_amplitude(d, 3.21, CFG)
    b = fourier_amplitude(d, 3.21, CFG)
    assert a == b


def test_mass_integral_subinterval():
    d = lorentzian_density(DephasingParams(1.0, 2.0))
    assert mass_integral(d, 2.0, math.inf, CFG) == pytest.approx(0.5, abs=1e-10)


def test_finite_window_oscillatory():
    # frozen with mpmath at 30 digits: int_{-5}^{5} e^{-2iE} p_C(E) dE
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    got = restricted_amplitude(d, -5.0, 5.0, 2.0, CFG)
    assert abs(got - 0.36557200323307280294) <= 1e-9


@pytest.mark.parametrize("gamma", [0.1, 1.0, 3.0])
def test_finite_window_with_feature_points_matches_split_identity(gamma):
    # window = full closed form minus the two half-line tails, with windows
    # that hold some, all or none of the feature points omega0 +- gamma, omega0
    d = lorentzian_density(DephasingParams(gamma, 0.0))
    for lo, hi in ((-5.0, 5.0), (-0.2, 2.0), (0.5, 40.0)):
        for t in (0.3, 2.0, 17.0, 250.0):
            tails = (restricted_amplitude(d, -math.inf, lo, t, TIGHT)
                     + restricted_amplitude(d, hi, math.inf, t, TIGHT))
            want = lorentz_exact(gamma, 0.0, t) - tails
            assert abs(restricted_amplitude(d, lo, hi, t, TIGHT) - want) <= 1e-12


_LONG_HEADS = [
    (f"lorentzian-gamma{gamma:g}-omega0_{ratio:g}gamma-t{t:g}",
     lorentzian_density(DephasingParams(gamma, ratio * gamma)),
     t, lorentz_exact(gamma, ratio * gamma, t))
    for gamma, t in ((1.0, 1e6), (1000.0, 1000.0)) for ratio in (0.0, 0.7, -2.5)
] + [
    (f"exponential-t{t:g}", exponential_density(1.0), t, 1.0 / complex(1.0, t))
    for t in (1e6, 1e7)
]


@pytest.mark.parametrize("cfg", [CFG, TIGHT], ids=["1e-9", "1e-12"])
@pytest.mark.parametrize("d,t,want", [case[1:] for case in _LONG_HEADS],
                         ids=[case[0] for case in _LONG_HEADS])
def test_linear_head_spanning_many_oscillations(cfg, d, t, want):
    # the head up to the last feature point spans up to 1.6e6 oscillations;
    # each Clenshaw-Curtis cell between its cuts takes its share whole, with
    # no cap on their number
    assert abs(fourier_amplitude(d, t, cfg) - want) <= cfg.target(want)


# gamma, omega0/gamma and gamma*t spanning twelve decades around every
# density scale: tiny gamma*t puts the whole bulk inside one half-period
_STRESS_GAMMAS = (1e-3, 1.0, 1e3)
_STRESS_RATIOS = (-100.0, -10.0, -2.5, -1.0, 0.0, 0.7, 2.5, 10.0, 100.0)
_STRESS_GAMMA_T = [10.0**k for k in range(-10, 7)]


@pytest.mark.parametrize("cfg", [CFG, TIGHT], ids=["1e-9", "1e-12"])
@pytest.mark.parametrize("gamma", _STRESS_GAMMAS)
def test_full_line_closed_forms_over_the_stress_grid(cfg, gamma):
    # the Lorentzian exponential and the exponential density's rate/(rate+it)
    cases = [(exponential_density(gamma), lambda t: gamma / complex(gamma, t))] + [
        (lorentzian_density(DephasingParams(gamma, r * gamma)),
         lambda t, r=r: lorentz_exact(gamma, r * gamma, t))
        for r in _STRESS_RATIOS
    ]
    misses = []
    for d, exact in cases:
        for t in (gt / gamma for gt in _STRESS_GAMMA_T):
            got, want = fourier_amplitude(d, t, cfg), exact(t)
            if not abs(got - want) <= cfg.target(want):
                misses.append((d.label, t, abs(got - want)))
    assert misses == []


def _exp_e1(w):
    """e^w E1(w) on the principal branch; the asymptotic series where e^w
    or E1 would overflow (|w| > 600, exact to rounding there)."""
    if abs(w.real) < 600.0:
        return cmath.exp(w) * complex(exp1(w))
    total, term = 0.0 + 0.0j, 1.0 / w
    for k in range(1, 60):
        total += term
        nxt = -term * k / w
        if abs(nxt) >= abs(term):
            break
        term = nxt
    return total


def _pole_transform(z, t):
    """J(z) = int_0^inf e^{-iEt} / (E - z) dE for t > 0, w = -izt."""
    w = -1j * z * t
    val = _exp_e1(w)
    if z.imag < 0 and w.real < 0 and w.imag < 0:
        # the principal branch of E1 drops the pole term in the third quadrant
        val -= 2j * math.pi * cmath.exp(w)
    return val


def lorentz_positive_half(gamma, omega0, t):
    """int_0^inf e^{-iEt} p_C(E) dE = (J(z+) - J(z-)) / (2 pi i), t > 0,
    z+- = omega0 +- i gamma/2."""
    zp, zm = complex(omega0, gamma / 2.0), complex(omega0, -gamma / 2.0)
    return (_pole_transform(zp, t) - _pole_transform(zm, t)) / (2j * math.pi)


def _half_line_cases(d, gamma, omega0, t, cfg):
    """(piece, computed, closed form) for both half-lines of a Lorentzian,
    both ramp sides (the frozen half's mass plus the active half's
    transform) and the global survival with spin weights (0.3, 0.7)."""
    mass_neg = 0.5 - math.atan(2.0 * omega0 / gamma) / math.pi
    pos = lorentz_positive_half(gamma, omega0, t)
    # int_{-inf}^0 e^{+iEt} p_C(E) dE: the positive half of the mirror image
    mirrored = lorentz_positive_half(gamma, -omega0, t)
    side_pos, side_neg = mass_neg + pos, (1.0 - mass_neg) + mirrored
    return [
        ("[0, inf)", restricted_amplitude(d, 0.0, math.inf, t, cfg), pos),
        ("(-inf, 0]", restricted_amplitude(d, -math.inf, 0.0, t, cfg), mirrored.conjugate()),
        ("positive ramp", halfline_amplitude(d, "positive", t, cfg), side_pos),
        ("negative ramp", halfline_amplitude(d, "negative", t, cfg), side_neg),
        ("global survival", global_survival((0.3, 0.7), d, t, cfg),
         0.3 * side_pos + 0.7 * side_neg),
    ]


@pytest.mark.parametrize("cfg", [CFG, TIGHT], ids=["1e-9", "1e-12"])
@pytest.mark.parametrize("gamma", _STRESS_GAMMAS)
def test_half_line_closed_forms_over_the_stress_grid(cfg, gamma):
    misses = []
    for r in _STRESS_RATIOS:
        d = lorentzian_density(DephasingParams(gamma, r * gamma))
        for t in (gt / gamma for gt in _STRESS_GAMMA_T):
            for piece, got, want in _half_line_cases(d, gamma, r * gamma, t, cfg):
                if not abs(got - want) <= cfg.target(want):
                    misses.append((d.label, piece, t, abs(got - want)))
    assert misses == []


def test_half_line_with_its_bulk_beyond_the_finite_end():
    # every feature point lies below 0, beyond the finite end of [0, inf),
    # whose transform at t = 1e-8 is still its whole mass, 0.063
    d = lorentzian_density(DephasingParams(1.0, -2.5))
    mass_neg = 0.5 - math.atan(-5.0) / math.pi
    want = mass_neg + lorentz_positive_half(1.0, -2.5, 1e-8)
    assert abs(halfline_amplitude(d, "positive", 1e-8, CFG) - want) <= CFG.target(want)
    # symmetric: each ramp side is 1/2 + the half-line transform
    d0 = lorentzian_density(DephasingParams(1.0, 0.0))
    want = 0.5 + lorentz_positive_half(1.0, 0.0, 1e-7)
    assert abs(global_survival((0.5, 0.5), d0, 1e-7, CFG) - want) <= CFG.target(want)


def test_table_transform_exact_triangle():
    d = table_density([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    for t in (0.05, 0.3, 2.0, 10.0, 100.0):
        want = 2.0 * (1.0 - math.cos(t)) / t**2
        assert abs(fourier_amplitude(d, t, CFG) - want) <= 1e-13


def test_table_transform_asymmetric_frozen():
    # frozen with mpmath at 30 digits over the exact knot intervals
    d = table_density([0.0, 0.5, 1.25, 2.0], [0.1, 0.9, 0.3, 0.0])
    got = fourier_amplitude(d, 3.7, CFG)
    want = -0.17545101577386216057 - 0.19839670225059614299j
    assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("t", [1.5e-3, 2e-3, 3e-3, 5e-3, 1e-2])
def test_ramp_table_at_small_t_matches_its_series(t):
    # p(E) = 2E on [0, 1]: a(t) = sum_k 2 (-it)^k / (k! (k + 2)); the table's
    # closed form once cancelled to 6e-11 relative at t = 2e-3
    d = table_density([0.0, 1.0], [0.0, 2.0])
    want = sum(2.0 * (-1j * t) ** k / (math.factorial(k) * (k + 2)) for k in range(20))
    assert abs(fourier_amplitude(d, t, TIGHT) - want) <= TIGHT.target(want)


def test_table_restricted_window():
    import mpmath as mp

    mp.mp.dps = 25
    e = [0.0, 0.5, 1.25, 2.0]
    p = [0.1, 0.9, 0.3, 0.0]
    d = table_density(e, p)
    got = restricted_amplitude(d, 0.3, 1.5, 3.7, CFG)

    def lin(x):
        return float(np.interp(float(x), e, p))

    pts = [0.3, 0.5, 1.25, 1.5]
    re = mp.quad(lambda x: lin(x) * mp.cos(mp.mpf("3.7") * x), pts)
    im = -mp.quad(lambda x: lin(x) * mp.sin(mp.mpf("3.7") * x), pts)
    assert abs(got - complex(float(re), float(im))) <= 1e-12


def _starve(monkeypatch, max_cells, min_cells):
    """Cap every tail at max_cells half-period cells, checked from the
    min_cells-th on."""
    monkeypatch.setattr(oscint, "_MAX_CELLS", max_cells)
    monkeypatch.setattr(oscint, "_MIN_CELLS", min_cells)


def test_quadrature_failure_carries_estimate(monkeypatch):
    _starve(monkeypatch, 3, 1)
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    with pytest.raises(QuadratureFailure) as exc_info:
        fourier_amplitude(d, 5.0, CFG)
    failure = exc_info.value
    assert math.isfinite(abs(complex(failure.estimate)))
    assert failure.error_bound > 0


def test_series_failure_keeps_partial_data(monkeypatch):
    _starve(monkeypatch, 3, 1)
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    with pytest.raises(SeriesFailure) as exc_info:
        amplitude_series(d, [0.0, 5.0], CFG)
    failure = exc_info.value
    assert len(failure.series) == 2
    assert failure.series.values[0] == pytest.approx(1.0, abs=1e-8)  # t=0 still fine
    assert failure.failures[0].t == 5.0


def test_time_series_validation():
    with pytest.raises(ValueError):
        ComplexTimeSeries(np.array([0.0, 0.0]), np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        ComplexTimeSeries(np.array([0.0, 1.0]), np.array([1.0], dtype=complex))
    s = ComplexTimeSeries(np.array([0.0, 1.0, 2.0]), np.array([1, 2, 3], dtype=complex))
    w = s.window(0.5, 2.0)
    assert list(w.times) == [1.0, 2.0]


@pytest.mark.parametrize("kwargs", [
    {"abs_tol": 0.0}, {"abs_tol": -1e-9}, {"rel_tol": 0.0}, {"rel_tol": -1e-9},
    {"abs_tol": -math.inf}, {"rel_tol": math.nan},
    {"abs_tol": math.inf}, {"rel_tol": math.inf}, {"abs_tol": math.nan},
])
def test_quadrature_config_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureConfig(**kwargs)


def test_quadrature_config_defaults():
    cfg = QuadratureConfig()
    assert (cfg.abs_tol, cfg.rel_tol) == (1e-9, 1e-9)


def test_failure_estimate_sums_both_halves_under_their_bounds(monkeypatch):
    # six cells per half cannot stabilize; the failure must still bracket
    # the true value: conjugated lower estimate + upper estimate, under the
    # sum of both halves' bounds including the truncated tail masses
    _starve(monkeypatch, 6, 6)
    d = lorentzian_density(DephasingParams(1.0, 0.5))
    for t in (1.0, -1.0):
        with pytest.raises(QuadratureFailure) as exc_info:
            fourier_amplitude(d, t, CFG)
        failure = exc_info.value
        assert abs(failure.estimate - lorentz_exact(1.0, 0.5, t)) <= failure.error_bound


def test_halfline_and_global_failures_bracket_the_value():
    # starved halves fail; the raised estimate must still include the frozen
    # half-line mass, the spin weights and the other ramp side
    d = lorentzian_density(DephasingParams(1.0, 0.5))
    for t in (0.5, 1.0, 3.0):
        cases = [(lambda c, w=w: global_survival(w, d, t, c))
                 for w in ((0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.3, 0.7))]
        cases += [(lambda c, side=side: halfline_amplitude(d, side, t, c))
                  for side in ("positive", "negative")]
        for amplitude in cases:
            want = amplitude(TIGHT)
            with pytest.MonkeyPatch.context() as starved:
                _starve(starved, 6, 6)
                with pytest.raises(QuadratureFailure) as exc_info:
                    amplitude(CFG)
            failure = exc_info.value
            assert failure.t == t
            assert abs(failure.estimate - want) <= failure.error_bound


def test_global_survival_series_integrates_frozen_masses_once():
    # the frozen half-line masses are closed-form cdf differences (that no
    # mass reaches quadrature is test_masses_with_a_cdf_never_reach_quad's),
    # so a repeated series is bit-identical
    d = lorentzian_density(DephasingParams(1.0, 0.3))
    times = np.linspace(0.5, 20.0, 25)
    first = global_survival_series((0.3, 0.7), d, times, CFG)
    second = global_survival_series((0.3, 0.7), d, times, CFG)
    assert list(first.values) == list(second.values)


def test_global_survival_series_integrates_frozen_parts_once():
    # each point's triple holds the frozen half-line masses as parts, and the
    # series is bit-identical to the pointwise values
    d = lorentzian_density(DephasingParams(1.0, 0.3))
    times = np.linspace(0.5, 20.0, 25)
    pointwise = [global_survival((0.3, 0.7), d, float(t), CFG) for t in times]
    series = global_survival_series((0.3, 0.7), d, times, CFG)
    assert list(series.values) == pointwise


def _not_converged(monkeypatch):
    """Make every adaptive quad call report non-convergence."""
    adaptive = oscint._quad

    def failing(*args, **kwargs):
        val, _, _ = adaptive(*args, **kwargs)
        return val, 1.0, f"{args[6]} did not converge"

    monkeypatch.setattr(oscint, "_quad", failing)


def test_point_failure_carries_its_time(monkeypatch):
    # a mass-integral failure at t = 0 reports that t; without its cdf the
    # Lorentzian's mass is integrated
    d = replace(lorentzian_density(DephasingParams(1.0, 0.0)), cdf=None)
    _not_converged(monkeypatch)
    with pytest.raises(QuadratureFailure) as exc_info:
        fourier_amplitude(d, 0.0, CFG)
    failure = exc_info.value
    assert failure.t == 0.0
    assert failure.detail == "mass integral did not converge"
    assert failure.error_bound == 1.0
    assert failure.estimate == pytest.approx(1.0, abs=1e-8)


def test_series_failure_holds_the_raised_failures(monkeypatch):
    # a series is one batch, not a loop over fourier_amplitude; each of its
    # failures is the one its point raises alone: detail, estimate, bound, t
    d = replace(lorentzian_density(DephasingParams(1.0, 0.0)), cdf=None)
    _not_converged(monkeypatch)
    raised = []
    for t in (0.0, 1.0):
        try:
            fourier_amplitude(d, t, CFG)
        except QuadratureFailure as exc:
            raised.append(exc)
    with pytest.raises(SeriesFailure) as exc_info:
        amplitude_series(d, [0.0, 1.0], CFG)
    failures = exc_info.value.failures
    assert raised and len(failures) == len(raised)
    fields = lambda f: (f.detail, f.estimate, f.error_bound, f.t)
    assert [fields(got) for got in failures] == [fields(want) for want in raised]
    assert failures[0].t == 0.0


def _quadpack_not_converged(monkeypatch, error):
    """Make every piece of every quad call report non-convergence, with the
    given error estimate."""
    real = oscint.quad

    def failing(*args, **kwargs):
        return [(value, error, False) for value, _, _ in real(*args, **kwargs)]

    monkeypatch.setattr(oscint, "quad", failing)


# (integral named in the failure, its time, the call, the rule that fails:
# quad, or the cell rule of the linear head and the window)
_ONE_RULE = {
    # without its cdf, so that the mass is integrated
    "mass_integral": ("mass integral", None, lambda: mass_integral(
        replace(lorentzian_density(DephasingParams(1.0, 0.3)), cdf=None), 0.0, math.inf, CFG),
        "quad"),
    "fourier_amplitude": ("oscillatory head integral", 2.0, lambda: fourier_amplitude(
        lorentzian_density(DephasingParams(1.0, 0.3)), 2.0, CFG), "_cc25_cells"),
    "finite_window": ("finite-window oscillatory integral", 3.0, lambda: restricted_amplitude(
        lorentzian_density(DephasingParams(1.0, 0.3)), -1.0, 2.0, 3.0, CFG), "_cc25_cells"),
    # the first increment, [0, 1], fails, named by its T
    "pw_sweep": ("Paley-Wiener sweep increment", 1.0, lambda: pw_sweep(
        lambda t: cmath.exp(-0.5 * t), [1.0, 10.0], CFG), "quad"),
}


@pytest.mark.parametrize("name", list(_ONE_RULE))
def test_one_convergence_rule(monkeypatch, name):
    # a rule's flag fails a result only when its error estimate also
    # exceeds cfg.target(value); the failure names the integral and its t
    what, t, call, rule = _ONE_RULE[name]
    want = call()
    if rule == "quad":
        # a faked error small enough that a point's summed bound stays within
        # abs_tol (no case has 64 pieces), since a half-line sum whose bound
        # exceeds its tolerance fails whatever quad's flag says
        _quadpack_not_converged(monkeypatch, CFG.abs_tol / 64)
        assert call() == want
        _quadpack_not_converged(monkeypatch, 1.0)
    else:
        # no cell is accepted and none meets its share of abs_tol, however it
        # is bisected: within cfg.target(value) a cell passes, beyond it fails
        _block_rule_not_converged(monkeypatch, CFG.rel_tol / 10, rule)
        assert call() == pytest.approx(want, abs=CFG.abs_tol)
        _block_rule_not_converged(monkeypatch, CFG.rel_tol * 10, rule)
    with pytest.raises(QuadratureFailure) as exc_info:
        call()
    assert exc_info.value.detail == f"{what} did not converge"
    assert exc_info.value.t == t


def _block_rule_not_converged(monkeypatch, rel_error, name="_qk21_cells"):
    """Make the block rule name (the half-period cells' by default) miss
    every cell's first-pass test and report an error of rel_error times the
    cell's magnitude, so that a refinement whose parts carry weight never
    meets its cell's tolerance."""
    block_rule = getattr(oscint, name)

    def missing(*args):
        return [(val, rel_error * abs(val), False) for val, _, _ in block_rule(*args)]

    monkeypatch.setattr(oscint, name, missing)


def test_capped_cell_refinement_fails_only_beyond_its_target(monkeypatch):
    # a narrow Lorentzian inside one half-period: the head cell that holds
    # its peak stops refining without meeting its share of abs_tol (the faked
    # errors never shrink, so every bisection counts as roundoff); that alone
    # does not fail the cell, an error above cfg.target(value) does, naming
    # the cell and its t
    call = lambda: generalized_dephasing_factor(exp_potential(), DephasingParams(1e-3, 0.0),
                                                5.0, CFG)
    want = call()
    _block_rule_not_converged(monkeypatch, CFG.rel_tol / 10)
    assert call() == pytest.approx(want, abs=CFG.abs_tol)
    _block_rule_not_converged(monkeypatch, CFG.rel_tol * 10)
    with pytest.raises(QuadratureFailure) as exc_info:
        call()
    assert exc_info.value.detail == "half-period cell did not converge"
    assert exc_info.value.t == 5.0


def test_monotone_head_over_the_cap_bounds_its_estimate():
    # 1e5 / pi half-periods between the centre and the feature points on
    # each side: the failure's bound is the tail mass it left out
    params = DephasingParams(1.0, 0.3)
    t = 1e5
    with pytest.raises(QuadratureFailure) as exc_info:
        generalized_dephasing_factor(exp_potential(), params, t, CFG)
    failure = exc_info.value
    assert failure.detail == "head region spans 31831 oscillations"
    assert math.isfinite(failure.error_bound)
    assert abs(failure.estimate - lorentz_exact(1.0, 0.3, t)) <= failure.error_bound


def _gk21_cell_values(f, a, b):
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    return f(centre + half * oscint._GK21_NODES[:, None]), half


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_qk21_cells_match_quad_first_pass(tol):
    # cells as the tail sums them: cell_tol = abs_tol / 64, epsrel 1e-12
    cell_tol = tol / 64.0
    clean_cells = 0
    for d in (lorentzian_density(DephasingParams(1.0, 0.5)), exponential_density(2.0)):
        for t in (0.3, 1.0, 4.0, 17.0):
            edges = 0.1 + (math.pi / t) * np.arange(13)
            a, b = edges[:-1], edges[1:]

            def f(x):
                return d.density(x) * np.exp(-1j * t * x)

            cells = oscint._qk21_cells(*_gk21_cell_values(f, a, b), cell_tol, 1e-12)
            for i, (val, err, accepted) in enumerate(cells):
                parts = [
                    quad(lambda x, g=g: g(f(x)), a[i], b[i], epsabs=cell_tol, epsrel=1e-12,
                         limit=200, full_output=1)
                    for g in (np.real, np.imag)
                ]
                clean = all(len(r) == 3 and r[2]["neval"] == 21 for r in parts)
                assert accepted == clean
                if clean:
                    clean_cells += 1
                    # the same rule summed in another order: equal to rounding;
                    # the error estimate carries the Kronrod-Gauss cancellation
                    assert val == pytest.approx(parts[0][0] + 1j * parts[1][0], rel=1e-15)
                    assert err == pytest.approx(parts[0][1] + parts[1][1], rel=1e-9)
    assert clean_cells >= 48  # most of the 96 cells pass on the first try


def test_subdivided_cell_falls_back_to_adaptive_quad(monkeypatch):
    # a narrow peak inside the first (wide) cell: QUADPACK subdivides it, so
    # the block rule must hand that cell to quad
    d = lorentzian_density(DephasingParams(1e-3, 2.0))
    t, h = 0.5, 2.0 * math.pi
    values, half = _gk21_cell_values(lambda x: d.density(x) * np.exp(-1j * t * x),
                                     np.array([0.0]), np.array([h]))
    [(_, _, accepted)] = oscint._qk21_cells(values, half, CFG.abs_tol / 64.0, 1e-12)
    assert not accepted
    [(got, _, _)] = oscint._semi_infinite_osc(d.density, [(t, 1)], 0.0, CFG)

    # reference: every cell through adaptive quad
    block_rule = oscint._qk21_cells

    def reject_all(*args):
        return [(val, err, False) for val, err, _ in block_rule(*args)]

    monkeypatch.setattr(oscint, "_qk21_cells", reject_all)
    [(want, _, _)] = oscint._semi_infinite_osc(d.density, [(t, 1)], 0.0, CFG)
    assert got == want  # accepted cells are quad's to the bit


def test_monotone_head_cells_match_adaptive_quad(monkeypatch):
    # exp potential, x0 below the feature points: the feature points are
    # edges of the head cells, which all pass the block rule's first pass
    p = exp_potential()
    d = build_initial_state(p, DephasingParams(1.0, 0.5)).density
    x0, t = -1.5, 5.0
    quad_calls = []
    adaptive = oscint._quad

    def counting(*args, **kwargs):
        quad_calls.append(args[1:3])
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(oscint, "_quad", counting)
    [(got, got_err, _)] = oscint._semi_infinite_osc(d.density, [(t, 1)], x0, CFG, p.W,
                                                    p.W_inverse, d.feature_points)
    # no cell, head or tail, needed adaptive quad
    assert quad_calls == []

    block_rule = oscint._qk21_cells

    def reject_all(*args):
        return [(val, err, False) for val, err, _ in block_rule(*args)]

    monkeypatch.setattr(oscint, "_qk21_cells", reject_all)
    [(want, want_err, _)] = oscint._semi_infinite_osc(d.density, [(t, 1)], x0, CFG, p.W,
                                                      p.W_inverse, d.feature_points)
    # accepted cells are quad's to rounding, their error estimates to the
    # Kronrod-Gauss cancellation
    assert got == pytest.approx(want, rel=1e-15)
    assert got_err == pytest.approx(want_err, rel=1e-9)


def test_quad_over_a_reversed_range_is_minus_the_ascending_one():
    f = lambda x: math.exp(-x) * math.cos(5.0 * x)
    up = oscint._quad(f, 0.0, 3.0, 1e-12, 1e-12, CFG, "test")
    down = oscint._quad(f, 3.0, 0.0, 1e-12, 1e-12, CFG, "test")
    assert down == (-up[0], up[1], up[2])


# (a, b, points): quad's pieces run between a, the points strictly inside
# and b, each compared with scipy's quad over the same piece
_QUAD_CASES = {
    "finite-with-points": (-1.0, 6.0, (0.3, -3.0, 2.5, 9.0, 2.5)),
    "reversed": (6.0, -1.0, (0.3, 2.5)),
    "upper-end": (0.3, math.inf, (2.5,)),
    "lower-end": (-math.inf, 2.5, (0.3,)),
    "full-line": (-math.inf, math.inf, ()),
    "full-line-with-points": (-math.inf, math.inf, (-4.0, 0.3, 2.5)),
}


@pytest.mark.parametrize("name", list(_QUAD_CASES))
def test_quad_matches_scipy_piece_by_piece(name):
    a, b, points = _QUAD_CASES[name]
    f = lambda x: 1.0 / (1.0 + (x - 0.3) ** 2) + math.exp(-x * x) * math.cos(3.0 * x)
    inside = sorted({p for p in points if min(a, b) < p < max(a, b)}, reverse=b < a)
    edges = [a, *inside, b]
    pieces = oscint.quad(f, a, b, 1e-12, 1e-12, points)
    assert len(pieces) == len(edges) - 1
    for lo, hi, (value, error, converged) in zip(edges, edges[1:], pieces):
        want, want_error = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert converged and error <= max(1e-12, 1e-12 * abs(value)), (lo, hi)
        assert abs(value - want) <= 1e-12 + want_error, (lo, hi)


def _mirrored(d, phase=None, phase_inv=None):
    """d reflected, y = -x: the density d(-y) with its points negated, and
    the phase -phase(-y) with its inverse -phase_inv(-u)."""
    mirror = replace(d, density=lambda y: d.density(-y), center=-d.center,
                     cdf=lambda y: 1.0 - d.cdf(-y),
                     feature_points=tuple(-p for p in d.feature_points))
    if phase is None:
        return mirror, {}
    return mirror, dict(phase=lambda y: -phase(-y), phase_inv=lambda u: -phase_inv(-u))


_REFLECTION_TIMES = [-2.0, 0.05, 0.3, 1.0, 3.0, 10.0, 40.0]


def test_lower_half_line_equals_the_conjugated_mirror_image():
    # int_{-inf}^{x0} w(x) e^{-it W(x)} dx = conj(int_{-x0}^{inf} w(-y) e^{-it r(y)} dy)
    # with r(y) = -W(-y): the reflection the lower piece was summed by.  Each
    # downward cell's nodes are the negated nodes of its mirror cell, and a
    # linear head cell's moments the conjugated moments of its mirror cell,
    # so both phases match bit for bit
    params = DephasingParams(1.0, 0.3)
    p = exp_potential()
    d = build_initial_state(p, params).density
    mirror, mirrored_phase = _mirrored(d, p.W, p.W_inverse)
    for cfg in (CFG, TIGHT):
        for x0 in (d.center, 1.2, -0.7):
            got = restricted_amplitude_series(d, -math.inf, x0, _REFLECTION_TIMES, cfg,
                                              phase=p.W, phase_inv=p.W_inverse)
            want = restricted_amplitude_series(mirror, -x0, math.inf, _REFLECTION_TIMES, cfg,
                                               **mirrored_phase)
            assert np.array_equal(got.values, want.values.conj()), (cfg, x0)

    d = lorentzian_density(params)
    mirror, _ = _mirrored(d)
    for cfg in (CFG, TIGHT):
        for x0 in (d.center, 2.5, -4.0):
            got = restricted_amplitude_series(d, -math.inf, x0, _REFLECTION_TIMES, cfg)
            want = restricted_amplitude_series(mirror, -x0, math.inf, _REFLECTION_TIMES, cfg)
            assert np.array_equal(got.values, want.values.conj()), (cfg, x0)


def _reject_first_block(monkeypatch):
    """Make the block rule's first call miss every cell, with an error of 1,
    so that each is bisected.  Returns weight_of, which wraps a weight to
    record its nodes, and the list of every call's (centres, signed half
    lengths, results), the centres read off the recorded nodes (None when
    no weight was wrapped)."""
    block_rule, nodes, calls = oscint._qk21_cells, [], []

    def weight_of(density):
        return lambda x: (nodes.append(x), density(x))[1]

    def reject_first(values, half, *args):
        cells = block_rule(values, half, *args)
        calls.append((nodes[-1][10] if nodes else None, half, cells))  # node 10: the centre
        if len(calls) <= 1:
            cells = [(val, 1.0, False) for val, _, _ in cells]
        return cells

    monkeypatch.setattr(oscint, "_qk21_cells", reject_first)
    return weight_of, calls


def test_downward_missed_cells_are_refined_over_reversed_limits(monkeypatch):
    # the first block of the lower piece's tail cells misses the rule's
    # first-pass test: its cells are bisected, downward, in the next call;
    # the lower piece, f(t) minus the frozen upper half-line, stays within
    # its tolerance
    gamma, omega0, t = 2.0, 1.0, 3.0
    d = lorentzian_density(DephasingParams(gamma, omega0))
    want = lorentz_exact(gamma, omega0, t) - HALFLINE_REFS[(gamma, omega0, t)]
    _, calls = _reject_first_block(monkeypatch)
    got = restricted_amplitude(d, -math.inf, 0.0, t, TIGHT)
    block = oscint._MIN_CELLS + oscint._STABLE_STEPS
    assert [len(cells) for _, _, cells in calls[:2]] == [block, 2 * block]
    assert all(half < 0 for _, halves, _ in calls[:2] for half in halves)
    assert abs(got - want) <= 2 * TIGHT.abs_tol


@pytest.mark.parametrize("way", [1, -1], ids=["upward", "downward"])
def test_missed_cells_are_refined_to_quad_without_quad(monkeypatch, way):
    # one block of cells misses the first-pass test; each cell is refined
    # through the block rule alone, no adaptive quad, and matches scipy's
    # adaptive quad over the same cell within the cell tolerance
    d = lorentzian_density(DephasingParams(1.0, 0.5))
    t, x0 = 2.0, 0.3
    cell_tol = CFG.abs_tol / 64.0

    def no_quad(*args, **kwargs):
        raise AssertionError("a missed cell reached adaptive quad")

    monkeypatch.setattr(oscint, "_quad", no_quad)
    weight_of, calls = _reject_first_block(monkeypatch)
    [(got, _, detail)] = oscint._semi_infinite_osc(weight_of(d.density), [(t, way)], x0, CFG)
    assert detail is None
    (centres, halves, _), (_, _, parts) = calls[:2]
    assert len(parts) == 2 * len(centres)  # each missed cell in two halves
    for j, (centre, half) in enumerate(zip(centres, halves)):
        refined = parts[2 * j][0] + parts[2 * j + 1][0]
        lo, hi = sorted((centre - half, centre + half))
        want, _ = quad(lambda x: d.density(x) * cmath.exp(-1j * t * x), lo, hi,
                       epsabs=cell_tol, epsrel=1e-12, complex_func=True)
        assert abs(refined - (want if way > 0 else -want)) <= cell_tol, j


def test_cells_call_the_transported_density_only_on_arrays():
    # the narrow Lorentzian's head cells miss the first-pass test at 1e-12:
    # their refinement evaluates the density on arrays too, as every cell does
    p, params = exp_potential(), DephasingParams(1e-3, 0.0)
    state = build_initial_state(p, params)
    density, ndims = state.density.density, []

    def recording(x):
        ndims.append(np.ndim(x))
        return density(x)

    state = replace(state, density=replace(state.density, density=recording))
    generalized_factor_series(p, params, [0.5, 5.0, 50.0], TIGHT, state)
    assert ndims and min(ndims) >= 1


@pytest.mark.parametrize("name", ["linear", "monotone"])
def test_a_cell_that_never_converges_fails_with_a_covering_bound(monkeypatch, name):
    # no cell is accepted, and a cell with weight never meets its tolerance
    # however it is bisected: the point raises at its t, its bound at least
    # its error
    params, t = DephasingParams(1.0, 0.3), 2.0
    call = {"linear": lambda: fourier_amplitude(lorentzian_density(params), t, CFG),
            "monotone": lambda: generalized_dephasing_factor(exp_potential(), params, t, CFG)}
    _block_rule_not_converged(monkeypatch, 1e-3)
    with pytest.raises(QuadratureFailure) as exc_info:
        call[name]()
    failure = exc_info.value
    assert failure.detail == "half-period cell did not converge"
    assert failure.t == t
    assert abs(failure.estimate - lorentz_exact(1.0, 0.3, t)) <= failure.error_bound


@pytest.mark.parametrize("a,b,points", [
    (0.3, -50.0, (-1.0, 0.1, 2.0, -7.0)),
    (0.0, -1.0, (0.5,)),
    (-2.0, -2.5, (-2.2, 3.0)),
    (1.0, -1e6, ()),
    (5.0, 4.0, (4.0, 5.0, 6.0)),
])
def test_head_cuts_downward_are_the_negated_upward_cuts(a, b, points):
    down = oscint._head_cuts(a, b, points)
    assert down == [-c for c in oscint._head_cuts(-a, -b, [-p for p in points])]
    assert down == sorted(down, reverse=True)  # ordered from a
    assert all(b < c < a for c in down)


def test_a_full_line_grid_is_one_engine_call(monkeypatch):
    # both halves of every time point in one batch
    engine, calls = oscint._semi_infinite_osc, []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return engine(*args, **kwargs)

    monkeypatch.setattr(oscint, "_semi_infinite_osc", counting)
    params = DephasingParams(1.0, 0.3)
    amplitude_series(lorentzian_density(params), [-1.0, 0.0, 0.5, 2.0], CFG)
    assert calls == [[(1.0, -1), (0.5, -1), (2.0, -1), (1.0, 1), (0.5, 1), (2.0, 1)]]
    calls.clear()
    generalized_factor_series(exp_potential(), params, [0.5, 2.0], CFG)
    assert len(calls) == 1


def test_cell_value_does_not_depend_on_its_block():
    # a series sums the cells of all its times in one block; each cell's
    # value, error and verdict must be bit for bit those of the same cell in
    # any other block, so that a series equals its pointwise values
    d = lorentzian_density(DephasingParams(0.7, 0.4))
    t = np.repeat([0.3, 2.0, 9.0], 5)
    edges = -3.0 + np.concatenate(([0.0], np.cumsum(np.linspace(0.1, 1.7, 15))))
    a, b = edges[:-1], edges[1:]
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    x = centre + half * oscint._GK21_NODES[:, None]
    values = d.density(x) * np.exp(-1j * t * x)
    tols = CFG.abs_tol / np.arange(1.0, 16.0)
    whole = oscint._qk21_cells(values, half, tols, 1e-12)
    for size in range(1, 10):
        for start in range(0, 16 - size):
            cut = slice(start, start + size)
            part = oscint._qk21_cells(np.ascontiguousarray(values[:, cut]), half[cut],
                                      tols[cut], 1e-12)
            assert part == whole[cut], (size, start)
    # so must a Clenshaw-Curtis cell's, its moments by the Gauss-Legendre rule
    # or by the recursion (|t h| on both sides of 24)
    t = np.repeat([0.3, 40.0, 900.0], 5)
    weights = d.density(centre[:, None] + half[:, None] * oscint._CC25_NODES)
    whole = oscint._cc25_cells(weights, centre, half, t, tols, 1e-12)
    for size in range(1, 10):
        for start in range(0, 16 - size):
            cut = slice(start, start + size)
            part = oscint._cc25_cells(weights[cut], centre[cut], half[cut], t[cut], tols[cut],
                                      1e-12)
            assert part == whole[cut], (size, start)


_NON_FINITE = [math.nan, math.inf, -math.inf]


def _every_public_amplitude():
    """(name, point call, series call or None) of every public amplitude."""
    d = lorentzian_density(DephasingParams(1.0, 0.3))
    p, params = exp_potential(), DephasingParams(1.0, 0.3)
    return [
        ("fourier_amplitude", lambda t: fourier_amplitude(d, t, CFG),
         lambda ts: amplitude_series(d, ts, CFG)),
        ("global_survival", lambda t: global_survival((0.3, 0.7), d, t, CFG),
         lambda ts: global_survival_series((0.3, 0.7), d, ts, CFG)),
        ("halfline_amplitude+", lambda t: halfline_amplitude(d, "positive", t, CFG), None),
        ("halfline_amplitude-", lambda t: halfline_amplitude(d, "negative", t, CFG), None),
        ("restricted_amplitude", lambda t: restricted_amplitude(d, 0.0, math.inf, t, CFG),
         lambda ts: restricted_amplitude_series(d, 0.0, math.inf, ts, CFG)),
        ("finite_window", lambda t: restricted_amplitude(d, -1.0, 2.0, t, CFG), None),
        ("table", lambda t: fourier_amplitude(table_density([0.0, 1.0], [1.0, 1.0]), t, CFG),
         None),
        ("generalized_dephasing_factor",
         lambda t: generalized_dephasing_factor(p, params, t, CFG),
         lambda ts: generalized_factor_series(p, params, ts, CFG)),
    ]


def _no_quadrature(monkeypatch):
    """Make any quadrature an error: nothing may be integrated."""
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran before the time grid was checked")

    for name in ("_quad", "_qk21_cells", "_cc25_cells", "_mass"):
        monkeypatch.setattr(oscint, name, refuse)


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
def test_every_public_amplitude_rejects_a_non_finite_t(monkeypatch, bad):
    cases = _every_public_amplitude()
    _no_quadrature(monkeypatch)
    for name, point, series in cases:
        with pytest.raises(ValueError, match="t must be finite"):
            point(bad)
        if series is not None:
            with pytest.raises(ValueError, match="t must be finite"):
                series([0.0, 1.0, bad] if bad > 0 else [bad, 0.0, 1.0])


@pytest.mark.parametrize("grid,message", [
    ([2.0, 1.0], "strictly increasing"),
    ([0.0, 1.0, 1.0], "strictly increasing"),
    ([[0.0, 1.0], [2.0, 3.0]], "1-d"),
])
def test_series_grid_is_checked_before_any_quadrature(monkeypatch, grid, message):
    cases = _every_public_amplitude()
    _no_quadrature(monkeypatch)
    for name, _, series in cases:
        if series is not None:
            with pytest.raises(ValueError, match=message):
                series(grid)


def _outcome(call):
    """(value, None), or (the failure's estimate, the failure)."""
    try:
        return call(), None
    except QuadratureFailure as exc:
        return exc.estimate, exc


def _assert_series_equals_points(series_call, point_call, grid):
    points = [_outcome(lambda t=t: point_call(float(t))) for t in grid]
    try:
        series, failures = series_call(grid), ()
    except SeriesFailure as exc:
        series, failures = exc.series, exc.failures
    want = np.array([complex(value) for value, _ in points])
    # bit for bit, signed zeros included
    assert np.array_equal(series.values.view(np.int64), want.view(np.int64))
    fields = lambda f: (f.detail, f.estimate, f.error_bound, f.t)
    assert [fields(f) for f in failures] == [fields(f) for _, f in points if f is not None]
    return len(failures)


# t = 0, negative t, and gamma*t over 1e-8..1e5 (gamma = 1); a monotone head
# at t = 1e5 spans more half-periods than the cap and fails
_MIXED_GRID = [-3.0, -0.5, -1e-3, 0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 100.0,
               1e3, 1e5]


@pytest.mark.parametrize("cfg,min_cells", [(CFG, 6), (CFG, 3), (TIGHT, 6)],
                         ids=["default", "min_cells=3", "tight"])
def test_series_equal_their_points_failures_included(monkeypatch, cfg, min_cells):
    monkeypatch.setattr(oscint, "_MIN_CELLS", min_cells)
    params = DephasingParams(1.0, 0.3)
    d = lorentzian_density(params)
    failed = _assert_series_equals_points(
        lambda ts: amplitude_series(d, ts, cfg), lambda t: fourier_amplitude(d, t, cfg),
        _MIXED_GRID)
    failed += _assert_series_equals_points(
        lambda ts: global_survival_series((0.3, 0.7), d, ts, cfg),
        lambda t: global_survival((0.3, 0.7), d, t, cfg), _MIXED_GRID)
    # the expression has no V', so its W' is the finite difference
    for p in (ramp_potential(), exp_potential(),
              induced_map(parse_expression("max(x,0)^3+max(x,0)"), label="cubic")):
        state = build_initial_state(p, params)
        failed += _assert_series_equals_points(
            lambda ts: generalized_factor_series(p, params, ts, cfg, state),
            lambda t: generalized_dephasing_factor(p, params, t, cfg, state), _MIXED_GRID)
    assert failed >= 3  # at least every potential's head over the cap

import bisect
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
    SpectralDensity,
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


@pytest.mark.parametrize("given,missing", [("phase", "phase_inv"), ("phase_inv", "phase")])
def test_phase_without_its_inverse_is_named_before_any_quadrature(monkeypatch, given, missing):
    # alone, either one would make the engine take u-edges for x-edges
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(oscint, "_mass", no_quadrature)
    monkeypatch.setattr(oscint, "_semi_infinite_osc", no_quadrature)
    p = exp_potential()
    d = build_initial_state(p, DephasingParams(1.0, 0.3)).density
    one = {"phase": p.W, "phase_inv": p.W_inverse}[given]
    for call in (lambda: restricted_amplitude(d, -math.inf, math.inf, 2.0, CFG, **{given: one}),
                 lambda: restricted_amplitude_series(d, -math.inf, math.inf, [0.0, 2.0], CFG,
                                                     **{given: one})):
        with pytest.raises(ValueError, match=f"^{given} needs {missing}:"):
            call()


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
        values, _, accepted = block_rule(*args)
        return values, rel_error * np.abs(values), np.zeros_like(accepted)

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
    # 1e6 / pi half-periods between the centre and the feature points on
    # each side: the failure's bound is the tail mass it left out
    params = DephasingParams(1.0, 0.3)
    t = 1e6
    with pytest.raises(QuadratureFailure) as exc_info:
        generalized_dephasing_factor(exp_potential(), params, t, CFG)
    failure = exc_info.value
    assert failure.detail == "head region spans 318310 oscillations"
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
            for i, (val, err, accepted) in enumerate(zip(*cells)):
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
    _, _, [accepted] = oscint._qk21_cells(values, half, CFG.abs_tol / 64.0, 1e-12)
    assert not accepted
    [got], _, _ = oscint._semi_infinite_osc(d.density, [(t, 1)], 0.0, CFG)

    # reference: every cell through adaptive quad
    block_rule = oscint._qk21_cells

    def reject_all(*args):
        values, errors, accepted = block_rule(*args)
        return values, errors, np.zeros_like(accepted)

    monkeypatch.setattr(oscint, "_qk21_cells", reject_all)
    [want], _, _ = oscint._semi_infinite_osc(d.density, [(t, 1)], 0.0, CFG)
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
    [got], [got_err], _ = oscint._semi_infinite_osc(d.density, [(t, 1)], x0, CFG, p.W,
                                                    p.W_inverse, d.feature_points)
    # no cell, head or tail, needed adaptive quad
    assert quad_calls == []

    block_rule = oscint._qk21_cells

    def reject_all(*args):
        values, errors, accepted = block_rule(*args)
        return values, errors, np.zeros_like(accepted)

    monkeypatch.setattr(oscint, "_qk21_cells", reject_all)
    [want], [want_err], _ = oscint._semi_infinite_osc(d.density, [(t, 1)], x0, CFG, p.W,
                                                      p.W_inverse, d.feature_points)
    # accepted cells are quad's to rounding, their error estimates to the
    # Kronrod-Gauss cancellation
    assert got == pytest.approx(want, rel=1e-15)
    assert got_err == pytest.approx(want_err, rel=1e-9)


def test_nan_integrand_fails_its_mass():
    # a NaN error is not within any tolerance: the one convergence rule
    # fails it instead of returning nan
    d = SpectralDensity(lambda e: np.where((0.2 < e) & (e < 0.3), np.nan, np.exp(-e)),
                        support=(0.0, math.inf))
    with pytest.raises(QuadratureFailure):
        mass_integral(d, 0.0, math.inf, QuadratureConfig())


def test_quad_over_a_reversed_range_is_minus_the_ascending_one():
    f = lambda x: np.exp(-x) * np.cos(5.0 * x)
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


def _lorentzian_and_wave(x, lib=np):
    """quad's integrand on a float64 array, or on one float with lib = math
    (scipy's)."""
    return 1.0 / (1.0 + (x - 0.3) ** 2) + lib.exp(-x * x) * lib.cos(3.0 * x)


@pytest.mark.parametrize("name", list(_QUAD_CASES))
def test_quad_matches_scipy_piece_by_piece(name):
    a, b, points = _QUAD_CASES[name]
    inside = sorted({p for p in points if min(a, b) < p < max(a, b)}, reverse=b < a)
    edges = [a, *inside, b]
    pieces = oscint.quad(_lorentzian_and_wave, a, b, 1e-12, 1e-12, points)
    assert len(pieces) == len(edges) - 1
    for lo, hi, (value, error, converged) in zip(edges, edges[1:], pieces):
        want, want_error = quad(lambda x: _lorentzian_and_wave(x, math), lo, hi,
                                epsabs=1e-13, epsrel=1e-13, limit=200)
        assert converged and error <= max(1e-12, 1e-12 * abs(value)), (lo, hi)
        assert abs(value - want) <= 1e-12 + want_error, (lo, hi)


@pytest.mark.parametrize("end", [0.0, 2.5, -math.inf, math.inf])
def test_quad_over_an_empty_range_never_calls_f(end):
    def never(x):
        raise AssertionError("f called on an empty range")

    assert oscint.quad(never, end, end, 1e-12, 1e-12, (1.0,)) == [(0.0, 0.0, True)]


def test_quad_calls_f_once_per_level_over_every_piece():
    # the first pass is one call on the 21 nodes of each of the line's four
    # pieces; each later call is one refinement level of every piece still
    # refining: each piece gets the bits it gets alone, the calls are as many
    # as the longest refinement's, and call r holds the nodes of level r of
    # every piece
    points, edges = (-4.0, 0.3, 2.5), [-math.inf, -4.0, 0.3, 2.5, math.inf]

    def spied(calls):
        def f(x):
            calls.append(x.copy())
            return _lorentzian_and_wave(x)
        return f

    calls, alone = [], [[] for _ in edges[1:]]
    pieces = oscint.quad(spied(calls), -math.inf, math.inf, 1e-12, 1e-12, points)
    first = calls[0]
    assert isinstance(first, np.ndarray) and first.dtype == np.float64
    assert first.shape == (21, 4)
    want = [oscint.quad(spied(piece_calls), lo, hi, 1e-12, 1e-12)[0]
            for lo, hi, piece_calls in zip(edges, edges[1:], alone)]
    assert pieces == want
    assert sum(len(piece_calls) > 1 for piece_calls in alone) >= 2  # several pieces refine
    assert len(calls) == max(map(len, alone))
    for r, x in enumerate(calls):
        level = [piece_calls[r] for piece_calls in alone if r < len(piece_calls)]
        assert sorted(x.ravel().tolist()) == sorted(np.concatenate(level, axis=1).ravel().tolist())


def test_failure_bound_is_inf_when_the_remaining_mass_cannot_be_integrated():
    # without a cdf, the mass beyond a failed sum's last cell is integrated;
    # where the density is NaN that mass fails too, and the bound is inf
    # instead of a finite number that would understate the error
    base = lorentzian_density(DephasingParams(1.0, 0.0))
    d = SpectralDensity(lambda e: np.where(e > 3.0, np.nan, base.density(e)),
                        feature_points=base.feature_points)
    with pytest.raises(QuadratureFailure) as exc_info:
        fourier_amplitude(d, 1.0, CFG)
    assert exc_info.value.error_bound == math.inf


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
            values, errors, accepted = cells
            cells = values, np.ones_like(errors), np.zeros_like(accepted)
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
    assert [len(values) for _, _, (values, _, _) in calls[:2]] == [block, 2 * block]
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
    [got], _, [detail] = oscint._semi_infinite_osc(weight_of(d.density), [(t, way)], x0, CFG)
    assert detail is None
    (centres, halves, _), (_, _, (parts, _, _)) = calls[:2]
    assert len(parts) == 2 * len(centres)  # each missed cell in two halves
    for j, (centre, half) in enumerate(zip(centres, halves)):
        refined = parts[2 * j] + parts[2 * j + 1]
        lo, hi = sorted((centre - half, centre + half))
        want, _ = quad(lambda x: d.density(x) * cmath.exp(-1j * t * x), lo, hi,
                       epsabs=cell_tol, epsrel=1e-12, complex_func=True)
        assert abs(refined - (want if way > 0 else -want)) <= cell_tol, j


def test_refine_bisects_only_the_missed_cells():
    # _refine starts from the cells' first pass: with every cell accepted it
    # returns those cells and calls no rule; with one cell missed, its error
    # above tol, its one call holds only that cell's halves, whose sum it is
    f = lambda x: np.exp(-x * x - 3j * x)
    edges, tol, calls = np.array([-2.0, -0.5, 0.4, 1.0, 2.5]), 1e-9, []
    lo, hi = edges[:-1], edges[1:]

    def rule(which, a, b):
        calls.append((which, a, b))
        return oscint._qk21_cells(*_gk21_cell_values(f, a, b), tol, 1e-12)

    cells = oscint._qk21_cells(*_gk21_cell_values(f, lo, hi), tol, 1e-12)
    assert cells[2].all()
    assert _same_bits(oscint._refine(rule, lo, hi, cells, tol, 1e-12), cells)
    assert calls == []

    values, errors, accepted = (array.copy() for array in cells)
    errors[2], accepted[2] = 1.0, False
    got_values, got_errors, converged = oscint._refine(rule, lo, hi, (values, errors, accepted),
                                                       tol, 1e-12)
    middle = 0.5 * (edges[2] + edges[3])
    [(which, a, b)] = calls
    assert which.tolist() == [2, 2]
    assert a.tolist() == [edges[2], middle] and b.tolist() == [middle, edges[3]]
    # the refined cell converges on its halves; the others are the first pass
    halves = oscint._qk21_cells(*_gk21_cell_values(f, a, b), tol, 1e-12)
    assert converged.all()
    assert got_values[2] == halves[0][0] + halves[0][1]
    assert got_errors[2] == halves[1][0] + halves[1][1]
    others = [0, 1, 3]
    assert _same_bits([got_values[others], got_errors[others]],
                      [cells[0][others], cells[1][others]])


# integrands on [0, 1] whose cells, at tol 1e-10, are accepted, converge
# after a few levels, stop on the roundoff test (noise below every scale),
# and reach _MAX_SUBDIVISIONS parts (57 jumps)
_REFINED_KINDS = {
    "accepted": lambda x: np.exp(-x * x),
    "converges": lambda x: 1.0 / (1e-2 + (x - 0.3) ** 2),
    "roundoff": lambda x: 1.0 + 1e-9 * np.sin(1e12 * x),
    "capped": lambda x: np.floor(57.3 * x + 0.1),
}


def test_refine_gives_each_cell_of_a_batch_its_bits_alone(monkeypatch):
    # each cell's parts are bisected, summed and tested on their own, so a
    # cell refined with others gets the bits it gets alone, however it stops
    kinds, tol = list(_REFINED_KINDS.values()), 1e-10

    def refined(cells):
        calls = []

        def rule(which, a, b):
            x = 0.5 * (a + b) + 0.5 * (b - a) * oscint._GK21_NODES[:, None]
            values = np.empty(x.shape)
            for k, f in enumerate(kinds):
                values[:, cells[which] == k] = f(x[:, cells[which] == k])
            calls.append(which)
            return oscint._qk21_cells(values, 0.5 * (b - a), tol, 1e-12)

        lo, hi = np.zeros(cells.size), np.ones(cells.size)
        first = rule(np.arange(cells.size), lo, hi)
        return first, oscint._refine(rule, lo, hi, first, tol, 1e-12), calls[1:]

    _, batch, _ = refined(np.arange(len(kinds)))
    parts = {}
    for j, name in enumerate(_REFINED_KINDS):
        (_, _, [accepted]), alone, calls = refined(np.array([j]))
        assert _same_bits([part[j:j + 1] for part in batch], alone), name
        parts[name] = (accepted, bool(alone[2][0]), 1 + sum(len(which) for which in calls) // 2)
    assert parts["accepted"] == (True, True, 1)
    assert parts["converges"][:2] == (False, True) and parts["converges"][2] > 2
    assert parts["roundoff"][:2] == (False, False)
    assert 2 < parts["roundoff"][2] < oscint._MAX_SUBDIVISIONS
    assert parts["capped"] == (False, False, oscint._MAX_SUBDIVISIONS)
    # without the roundoff test, the noisy cell is bisected further
    monkeypatch.setattr(oscint, "_ROUNDOFF_BISECTIONS", oscint._MAX_SUBDIVISIONS)
    *_, calls = refined(np.array([2]))
    assert 1 + sum(len(which) for which in calls) // 2 > parts["roundoff"][2]


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


_HEAD_CUT_CASES = [
    (0.3, -50.0, (-1.0, 0.1, 2.0, -7.0)),
    (0.0, -1.0, (0.5,)),
    (-2.0, -2.5, (-2.2, 3.0)),
    (1.0, -1e6, ()),
    (5.0, 4.0, (4.0, 5.0, 6.0)),
]


@pytest.mark.parametrize("a,b,points", _HEAD_CUT_CASES)
def test_head_cuts_downward_are_the_negated_upward_cuts(a, b, points):
    down = oscint._head_cuts(a, b, points)
    assert down == [-c for c in oscint._head_cuts(-a, -b, [-p for p in points])]
    assert down == sorted(down, reverse=True)  # ordered from a
    assert all(b < c < a for c in down)


@pytest.mark.parametrize("a,b,points", [
    *_HEAD_CUT_CASES,
    *((-a, -b, tuple(-p for p in points)) for a, b, points in _HEAD_CUT_CASES),
    (0.0, 40.0, (1.0, 2.5)),  # points on the way's side only
    (0.0, -40.0, (1.0, 2.5)),  # points on the other side only
    (0.0, 16.0, (1.0,)),  # b on a rung of the ladder 0 + 4^k
    (0.0, 2.0, (0.5, 2.0, 3.0)),  # b a feature point
    (0.3, 1e3, (-0.7, 0.2, 0.9, 5.3)),
])
def test_a_ways_heads_share_the_cuts_to_its_farthest_end(a, b, points):
    # the engine cuts each way's heads once, to the farthest end b: the cuts
    # strictly short of a nearer end are that end's own cuts, at the cuts
    # themselves (rungs and feature points), between them and at b
    way = 1.0 if b > a else -1.0
    far = oscint._head_cuts(a, b, points)
    keys = [way * c for c in far]
    assert keys == sorted(keys)
    ends = [*far, b, *(0.5 * (c + d) for c, d in zip([a, *far], [*far, b])), *points]
    for end in (e for e in ends if way * e > way * a and way * e <= way * b):
        assert far[:bisect.bisect_left(keys, way * end)] == oscint._head_cuts(a, end, points)


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


def _same_bits(got, want):
    """Whether the arrays of got and want have equal dtypes, shapes and bits."""
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))


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
            assert _same_bits(part, [array[cut] for array in whole]), (size, start)
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
            assert _same_bits(part, [array[cut] for array in whole]), (size, start)


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
    (0.5, "1-d"),
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


# t = 0, negative t, and gamma*t over 1e-8..1e6 (gamma = 1); a monotone head
# at t = 1e6 spans more half-periods than the cap and fails
_MIXED_GRID = [-3.0, -0.5, -1e-3, 0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 100.0,
               1e3, 1e5, 1e6]


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


_LORENTZIAN = lorentzian_density(DephasingParams(1.0, 0.3))
_TRIANGLE = table_density([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
_EXPONENTIAL = exponential_density(2.0)
_HEADLESS = replace(_LORENTZIAN, feature_points=())
_LOPSIDED = replace(_LORENTZIAN, feature_points=(-0.7, 0.3, 5.3))
# each branch of the heads' stage, as (series, point) calls: a window (a
# triangle table), a finite window of the full line, a half-line whose head
# takes the ladder at small t, a line without a head, and a line whose two
# ways have different cut lists
_HEAD_BRANCHES = {
    "triangle": (lambda ts, cfg: amplitude_series(_TRIANGLE, ts, cfg),
                 lambda t, cfg: fourier_amplitude(_TRIANGLE, t, cfg)),
    "window": (lambda ts, cfg: restricted_amplitude_series(_LORENTZIAN, -1.0, 2.0, ts, cfg),
               lambda t, cfg: restricted_amplitude(_LORENTZIAN, -1.0, 2.0, t, cfg)),
    "half_line": (lambda ts, cfg: amplitude_series(_EXPONENTIAL, ts, cfg),
                  lambda t, cfg: fourier_amplitude(_EXPONENTIAL, t, cfg)),
    "no_head": (lambda ts, cfg: amplitude_series(_HEADLESS, ts, cfg),
                lambda t, cfg: fourier_amplitude(_HEADLESS, t, cfg)),
    "two_ways": (lambda ts, cfg: amplitude_series(_LOPSIDED, ts, cfg),
                 lambda t, cfg: fourier_amplitude(_LOPSIDED, t, cfg)),
}


@pytest.mark.parametrize("failing", [False, True], ids=["converging", "failing"])
@pytest.mark.parametrize("name", list(_HEAD_BRANCHES))
def test_head_stage_series_equal_their_points(monkeypatch, name, failing):
    # the heads of a series are one stage, their cuts shared per way: each
    # point keeps the bits and the failure it has alone; failing, no cell
    # meets its tolerance, so the heads (or, without one, the tails) fail
    series, point = _HEAD_BRANCHES[name]
    if failing:
        for rule in ("_cc25_cells", "_qk21_cells"):
            _block_rule_not_converged(monkeypatch, CFG.rel_tol * 10, rule)
    failed = _assert_series_equals_points(lambda ts: series(ts, CFG), lambda t: point(t, CFG),
                                          _MIXED_GRID)
    # failing, most points fail; converging, only the line without a head
    # at t = 1e-8, whose peak no cut resolves
    assert failed >= 10 if failing else failed == (name == "no_head")


# ---------------------------------------------------------------------------
# the array tail's epsilon table, against the scalar table it replaced


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


def _bits(values):
    """The bit patterns of complex values, to compare them bit for bit."""
    return np.asarray(values, dtype=complex).reshape(-1).view(np.int64).reshape(-1, 2).tolist()


def _partial_sums(terms):
    """The running sums of terms from 0.0 + 0.0j, as the tail sums its cells."""
    partial, sums = 0.0 + 0.0j, []
    for term in terms:
        partial += term
        sums.append(partial)
    return sums


def _wynn_batches():
    """(name, partial sums of each sum, how many of them each sum's table
    has before the first block), seeded."""
    rng = np.random.default_rng(21)
    n = 9 + 4 * 8

    def alternating(count):
        # complex terms of alternating sign and geometric decay, as tail cells
        ratio = rng.uniform(0.3, 0.95, count) * np.exp(1j * rng.uniform(-0.4, 0.4, count))
        first = rng.normal(size=count) + 1j * rng.normal(size=count)
        return [(first[i] * (-ratio[i]) ** np.arange(n)).tolist() for i in range(count)]

    mixed = [_partial_sums(terms) for terms in alternating(7)]
    repeated = []
    for terms in alternating(6):
        zero = rng.random(n) < 0.4  # exactly zero cells: repeated partial sums
        repeated.append(_partial_sums([0j if z else term for z, term in zip(zero, terms)]))
    repeated.append([1.5 + 0.5j] * n)
    odd = [complex(math.inf, 1.0), complex(math.nan, 0.0), complex(-math.inf, math.inf),
           complex(2.0, math.nan), complex(0.0, -math.inf)]
    non_finite = []
    for terms in alternating(6):
        at = rng.choice(n, size=2, replace=False)
        for spot in at:
            terms[spot] = odd[rng.integers(len(odd))]
        non_finite.append(_partial_sums(terms))
    leibniz = _partial_sums([(-1.0) ** k / (2 * k + 1) + 0.0j for k in range(n + 12)])
    imaginary = _partial_sums([1j * (-0.5) ** k for k in range(n + 12)])
    series = [leibniz[s:s + n] for s in (0, 3, 12)] + [imaginary[s:s + n] for s in (0, 7)]
    return [
        ("mixed lengths", mixed, rng.integers(0, 10, len(mixed)).tolist()),
        ("repeated partial sums", repeated, rng.integers(0, 10, len(repeated)).tolist()),
        ("inf and nan", non_finite, rng.integers(0, 10, len(non_finite)).tolist()),
        ("Leibniz and imaginary", series, [0, 1, 9, 0, 5]),
    ]


@pytest.mark.parametrize("name,partials,before", _wynn_batches(),
                         ids=[batch[0] for batch in _wynn_batches()])
def test_array_epsilon_table_equals_the_scalar_table(name, partials, before):
    # every sum's table first takes its first `before` partial sums one by
    # one (the scalar table), then blocks of 8 all together; each new row's
    # estimate and each block's last row are the scalar table's bit for bit
    # (a last row is not finite past its end)
    m = 8
    tables = [[] for _ in partials]
    for table, sums, count in zip(tables, partials, before):
        for s in sums[:count]:
            table[:] = _wynn_row(table, s)
    rows = np.full((len(tables), max(1, *map(len, tables))), np.nan, dtype=complex)
    for row, table in zip(rows, tables):
        row[:len(table)] = table
    for start in range(0, 4 * m, m):
        block = np.array([sums[count + start:count + start + m]
                          for sums, count in zip(partials, before)])
        with np.errstate(all="ignore"):
            estimates, rows = oscint._wynn_block(rows, block)
        for i, (table, row) in enumerate(zip(tables, rows)):
            want = []
            for s in block[i].tolist():
                table[:] = _wynn_row(table, s)
                want.append(_wynn_estimate(table))
            assert _bits(estimates[i]) == _bits(want), (name, i, start)
            assert _bits(row[:len(table)]) == _bits(table), (name, i, start)
            assert not np.isfinite(row[len(table):]).any(), (name, i, start)


def test_reciprocal_and_modulus_are_pythons():
    # the table's 1/z is np.reciprocal, Smith's algorithm as CPython's 1.0/z
    # computes it: bit for bit, but for the sign of a zero part, which cannot
    # reach the table (no entry has a part -0.0); its |z| is _modulus, Python's
    # abs(z) bit for bit.  Signed zeros, subnormals and infinities, over the
    # vector loop of a long array and the short loop of a short one
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1.0, 3.0,
               1e300, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
    signs = rng.choice([-1.0, 1.0], (2, 20_000))
    random = signs * 10.0 ** rng.uniform(-323, 308, (2, 20_000))
    zs = [complex(a, b) for a in special for b in special] + [complex(a, b) for a, b in random.T]
    zs = [z for z in zs if z != 0]  # 1.0/0j raises ZeroDivisionError
    for batch in (zs, zs[:3], zs[-5:]):
        with np.errstate(all="ignore"):
            reciprocals = np.reciprocal(np.array(batch)).tolist()
            moduli = oscint._modulus(np.array(batch)).tolist()
        for z, got, size in zip(batch, reciprocals, moduli):
            want = 1.0 / z
            for x, y in ((want.real, got.real), (want.imag, got.imag)):
                if math.isnan(x) or x == 0:
                    assert math.isnan(y) if math.isnan(x) else y == 0, z
                else:
                    assert _bits(complex(x)) == _bits(complex(y)), z
            try:
                want = abs(z)
            except OverflowError:  # Python raises where hypot is inf
                want = math.inf
            assert _bits(complex(size)) == _bits(complex(want)) or math.isnan(want), z


def test_evaluations_are_sliced_to_block_cells(monkeypatch):
    # a monotone head of hundreds of half-periods per sum: with _BLOCK_CELLS
    # at 16, weight never takes more than 16 cells of nodes, and every value
    # and failure (t = 1e6: the head over the cap) is the same, bit for bit
    p, params = exp_potential(), DephasingParams(1.0, 0.3)
    state = build_initial_state(p, params)
    density, sizes = state.density.density, []

    def outcomes():
        sizes.clear()
        recording = lambda x: (sizes.append(np.size(x)), density(x))[1]
        watched = replace(state, density=replace(state.density, density=recording))
        return [_outcome(lambda t=t: generalized_dephasing_factor(p, params, t, TIGHT, watched))
                for t in (0.5, 50.0, 1e3, 1e6)]

    want = outcomes()
    assert max(sizes) > 16 * 21  # an evaluation of more than 16 cells
    monkeypatch.setattr(oscint, "_BLOCK_CELLS", 16)
    got = outcomes()
    assert max(sizes) <= 16 * 21
    assert _bits([value for value, _ in got]) == _bits([value for value, _ in want])
    fields = lambda f: None if f is None else (f.detail, f.estimate, f.error_bound, f.t)
    assert [fields(f) for _, f in got] == [fields(f) for _, f in want]
    assert want[-1][1] is not None


# ---------------------------------------------------------------------------
# the exits of a sum and the combination of its parts, time by time


def _block_rule_within_target(monkeypatch, share):
    """Make the half-period cells' block rule accept every cell with an error
    of share times the cell's own target at CFG, max(abs_tol, rel_tol
    |value|): each cell passes the one convergence rule, and a sum's errors
    add up past its target."""
    block_rule = oscint._qk21_cells

    def within(*args):
        values, _, accepted = block_rule(*args)
        errors = share * np.fmax(CFG.abs_tol, CFG.rel_tol * np.abs(values))
        return values, errors, np.ones_like(accepted)

    monkeypatch.setattr(oscint, "_qk21_cells", within)


def test_a_sum_whose_bound_exceeds_its_target_fails_naming_it(monkeypatch):
    # every tail cell within its target, the half-line's summed bound over
    # it: the sum fails, named by its bound, with its estimate within it
    d = lorentzian_density(DephasingParams(1.0, 0.3))
    point = lambda t: restricted_amplitude(d, 0.0, math.inf, t, CFG)
    times = [0.5, 2.0]
    want = [point(t) for t in times]
    _block_rule_within_target(monkeypatch, 0.9)
    for t, value in zip(times, want):
        with pytest.raises(QuadratureFailure) as exc_info:
            point(t)
        failure = exc_info.value
        assert failure.detail == (f"oscillatory cell sum's error bound {failure.error_bound:.3e} "
                                  "exceeds its tolerance")
        assert failure.error_bound > CFG.abs_tol
        assert abs(failure.estimate - value) <= failure.error_bound
    assert _assert_series_equals_points(
        lambda ts: restricted_amplitude_series(d, 0.0, math.inf, ts, CFG), point, times) == 2


def test_a_sum_at_max_cells_fails_with_the_mass_it_left_out(monkeypatch):
    # three tail cells, before any stop rule may fire: the half-line sum is
    # not stable, and its bound holds the mass beyond its last cell, at 4
    # half-periods (the head's one, up to the feature point 1.3, and three)
    d = lorentzian_density(DephasingParams(1.0, 0.3))
    t, masses = 2.0, []
    _starve(monkeypatch, 3, 6)

    def mass(d, a, b, cfg):
        masses.append((a, b, mass_integral(d, a, b, cfg)))
        return masses[-1][-1]

    monkeypatch.setattr(oscint, "mass_integral", mass)
    with pytest.raises(QuadratureFailure) as exc_info:
        restricted_amplitude(d, 0.0, math.inf, t, CFG)
    failure = exc_info.value
    assert failure.detail == "oscillatory cell sum did not stabilize within 3 cells"
    [(a, b, unsummed)] = masses
    assert (a, b) == (pytest.approx(4 * math.pi / t), math.inf)
    assert unsummed > 0.01
    assert failure.error_bound >= unsummed
    assert abs(failure.estimate - lorentz_positive_half(1.0, 0.3, t)) <= failure.error_bound


def _every_sum_failing(monkeypatch):
    """Make every half-line sum fail, its value kept, with a detail naming
    its way and a bound of 0.25 downward and 0.5 upward."""
    engine = oscint._semi_infinite_osc

    def failing(weight, sums, *args):
        values, _, _ = engine(weight, sums, *args)
        return (values, np.array([0.25 if way < 0 else 0.5 for _, way in sums]),
                ["downward sum failed" if way < 0 else "upward sum failed" for _, way in sums])

    monkeypatch.setattr(oscint, "_semi_infinite_osc", failing)


def test_a_full_line_keeps_its_lower_pieces_detail_and_adds_the_bounds(monkeypatch):
    d = lorentzian_density(DephasingParams(1.0, 0.3))
    times = [-2.0, 0.5, 3.0]
    want = [fourier_amplitude(d, t, CFG) for t in times]
    _every_sum_failing(monkeypatch)
    for t, value in zip(times, want):
        with pytest.raises(QuadratureFailure) as exc_info:
            fourier_amplitude(d, t, CFG)
        failure = exc_info.value
        assert (failure.detail, failure.error_bound, failure.t) == ("downward sum failed", 0.75, t)
        assert failure.estimate == value
    assert _assert_series_equals_points(lambda ts: amplitude_series(d, ts, CFG),
                                        lambda t: fourier_amplitude(d, t, CFG), times) == 3


@pytest.mark.parametrize("side,bound", [("positive", 1.5), ("negative", 1.25)])
def test_a_ramp_side_keeps_its_frozen_mass_detail(monkeypatch, side, bound):
    # without a cdf the frozen half's mass is integrated: it fails (bound
    # 1.0), and so does the active half's sum (upward 0.5, downward 0.25)
    d = replace(lorentzian_density(DephasingParams(1.0, 0.3)), cdf=None)
    want = halfline_amplitude(d, side, 2.0, CFG)
    _not_converged(monkeypatch)
    _every_sum_failing(monkeypatch)
    with pytest.raises(QuadratureFailure) as exc_info:
        halfline_amplitude(d, side, 2.0, CFG)
    failure = exc_info.value
    assert (failure.detail, failure.error_bound) == ("mass integral did not converge", bound)
    assert failure.estimate == want


@pytest.mark.parametrize("weights,detail", [((0.3, 0.7), "upward sum failed"),
                                            ((1.0, 0.0), "upward sum failed"),
                                            ((0.0, 1.0), "downward sum failed")])
def test_a_global_survival_keeps_its_w0_sides_detail_and_weights_the_bounds(
        monkeypatch, weights, detail):
    # the w0 side's ramp walks up from 0 (bound 0.5), the w1 side's down
    # (bound 0.25); a side of weight 0 is left out
    d = lorentzian_density(DephasingParams(1.0, 0.3))
    want = global_survival(weights, d, 2.0, CFG)
    _every_sum_failing(monkeypatch)
    with pytest.raises(QuadratureFailure) as exc_info:
        global_survival(weights, d, 2.0, CFG)
    failure = exc_info.value
    w0, w1 = weights
    assert (failure.detail, failure.error_bound) == (detail, w0 * 0.5 + w1 * 0.25)
    assert failure.estimate == want

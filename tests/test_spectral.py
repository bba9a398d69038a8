import math
from dataclasses import replace

import numpy as np
import pytest

from decaylab import (
    DephasingParams,
    InitialStateSpec,
    QuadratureConfig,
    build_initial_state,
    exp_potential,
    exponential_density,
    fourier_amplitude,
    global_survival,
    half_line_mass,
    induced_map,
    lorentzian_density,
    mass_integral,
    normalize_check,
    ramp_potential,
    table_density,
)
from decaylab import oscint
from decaylab.expressions import parse_expression
from decaylab.spectral import SpectralDensity

CFG = QuadratureConfig()
TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)


def test_lorentzian_peak_values():
    # direct substitution: (gamma/2pi)/(gamma^2/4) = 2/(pi gamma)
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    assert d(0.0) == pytest.approx(2.0 / math.pi, abs=1e-15)
    d2 = lorentzian_density(DephasingParams(2.0, 0.0))
    assert d2(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)


@pytest.mark.parametrize(
    "d",
    [lorentzian_density(DephasingParams(0.7, -1.5)), exponential_density(2.5)],
    ids=["lorentzian", "exponential"],
)
def test_density_on_array_equals_elementwise_scalar_calls(d):
    # the half-period cells evaluate the density once per block of nodes;
    # numpy's exp and libm's may differ by an ulp, which the product with the
    # rate can round to two (exponential(2.5) at x = 25.5)
    x = np.concatenate((np.linspace(0.0, 40.0, 401), [1e-300, 3.7e5]))
    np.testing.assert_array_max_ulp(d.density(x), np.array([d.density(float(xi)) for xi in x]),
                                    maxulp=2)


def test_gamma_validation():
    with pytest.raises(ValueError):
        DephasingParams(0.0, 0.0)
    with pytest.raises(ValueError):
        DephasingParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        DephasingParams(1.0, math.inf)


@pytest.mark.parametrize("gamma, omega0", [(1.0, 1e17), (1.0, 1e16), (1.0, -1e308),
                                           (1e308, 1e308), (1e-300, 1.0)])
def test_width_must_be_resolvable_at_the_centre(gamma, omega0):
    # omega0 +- gamma equal to omega0, or past the float range, leaves the
    # cells nothing to resolve; the message names both parameters
    with pytest.raises(ValueError, match="gamma = .* omega0 = "):
        DephasingParams(gamma, omega0)


def test_narrow_width_within_float_resolution_is_allowed():
    DephasingParams(1.0, 1e15)
    DephasingParams(1e-300, 0.0)


@pytest.mark.parametrize("omega0", [0.0, 1.0, -2.5])
def test_lorentzian_even_about_center_exactly(omega0):
    # dyadic offsets make omega0 +- x exact, so the same floating-point
    # expression must give bit-equal values on both sides
    d = lorentzian_density(DephasingParams(1.5, omega0))
    for x in np.arange(0.125, 8.0, 0.125):
        assert d(omega0 + x) == d(omega0 - x)


@pytest.mark.parametrize("gamma,omega0", [(1.0, 0.0), (3.0, 5.0), (0.5, -2.0)])
def test_lorentzian_normalization(gamma, omega0):
    d = lorentzian_density(DephasingParams(gamma, omega0))
    assert abs(normalize_check(d, CFG) - 1.0) <= 1e-10


def test_unnormalized_density_integrates_to_its_mass(monkeypatch):
    # no cdf: the mass is the adaptive quadrature's, one call over the line
    base = lorentzian_density(DephasingParams(1.0, 0.0))
    doubled = SpectralDensity(
        density=lambda e: 2.0 * base.density(e),
        support=base.support,
        center=base.center,
        feature_points=base.feature_points,
    )
    calls, adaptive = [], oscint._quad
    monkeypatch.setattr(oscint, "_quad", lambda *args, **kw: calls.append(args[1:3])
                        or adaptive(*args, **kw))
    assert normalize_check(doubled, CFG) == pytest.approx(2.0, abs=1e-9)
    assert calls == [(-math.inf, math.inf)]


def test_half_line_mass_symmetric():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    assert half_line_mass(d, "negative", CFG) == pytest.approx(0.5, abs=1e-10)
    assert half_line_mass(d, "positive", CFG) == pytest.approx(0.5, abs=1e-10)


def test_half_line_mass_cauchy_cdf_oracle():
    # closed-form Cauchy CDF: mass below 0 is 1/2 - arctan(2 omega0/gamma)/pi,
    # cross-checked by high-precision quadrature
    import mpmath as mp

    d = lorentzian_density(DephasingParams(1.0, 1.0))
    want = 0.5 - math.atan(2.0) / math.pi
    got = half_line_mass(d, "negative", CFG)
    assert got == pytest.approx(want, abs=1e-12)
    mp.mp.dps = 25
    hp = mp.quad(lambda e: (1 / (2 * mp.pi)) / ((e - 1) ** 2 + mp.mpf(1) / 4), [-mp.inf, 0])
    assert got == pytest.approx(float(hp), abs=1e-12)


@pytest.mark.parametrize(
    "make",
    [
        lambda: lorentzian_density(DephasingParams(0.7, 0.3)),
        lambda: exponential_density(1.3),
        lambda: table_density([-1.0, 0.0, 2.0], [0.0, 0.75, 0.0]),
    ],
)
def test_half_line_masses_sum_to_total(make):
    d = make()
    total = normalize_check(d, CFG)
    neg = half_line_mass(d, "negative", CFG)
    pos = half_line_mass(d, "positive", CFG)
    assert neg + pos == pytest.approx(total, abs=1e-9)


def test_half_line_mass_side_validation():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    with pytest.raises(ValueError):
        half_line_mass(d, "left", CFG)


def test_non_negativity_random_sampling():
    rng = np.random.default_rng(20240811)
    densities = [
        lorentzian_density(DephasingParams(0.5, -1.0)),
        exponential_density(2.0),
        table_density([0.0, 1.0, 3.0], [0.2, 0.4, 0.0]),
    ]
    for d in densities:
        lo, hi = d.support
        if math.isinf(lo) or math.isinf(hi):
            # heavy support: sample through the Cauchy angle map
            u = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, size=10_000)
            xs = d.center + 20.0 * np.tan(u)
        else:
            xs = rng.uniform(lo, hi, size=10_000)
        vals = np.array([d(float(x)) for x in xs])
        assert np.all(vals >= 0.0)


def test_exponential_density_basics():
    with pytest.raises(ValueError):
        exponential_density(0.0)
    d = exponential_density(2.0)
    assert d(-0.5) == 0.0
    assert abs(normalize_check(d, CFG) - 1.0) <= 1e-10
    assert half_line_mass(d, "negative", CFG) == 0.0
    assert half_line_mass(d, "positive", CFG) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
def test_exponential_rate_must_be_finite_and_positive(rate):
    # an infinite rate once gave nan amplitudes, the t = 0 mass without a failure
    with pytest.raises(ValueError, match=f"rate must be finite and strictly positive, got {rate}"):
        exponential_density(rate)


def test_table_density_validation():
    with pytest.raises(ValueError):
        table_density([0.0, 0.0, 1.0], [0.1, 0.2, 0.1])  # not strictly increasing
    with pytest.raises(ValueError):
        table_density([0.0, 1.0], [0.5, -0.1])  # negative value
    with pytest.raises(ValueError):
        table_density([0.0, 1.0], [0.5, 0.5], support=(0.5, 1.0))  # support too small
    d = table_density([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert d(-0.1) == 0.0 and d(2.3) == 0.0
    assert d(0.5) == pytest.approx(0.5)


def test_initial_state_spec_defaults_to_zero_phase():
    spec = InitialStateSpec(lorentzian_density(DephasingParams(1.0, 0.0)))
    assert spec.phase(3.7) == 0.0


def test_tail_class_validation():
    with pytest.raises(ValueError):
        SpectralDensity(density=lambda e: 1.0, support=(1.0, 1.0))


def _transported(potential):
    def case(params):
        p = potential()
        return build_initial_state(p, params).density, p.W_inverse
    return case


def _cubic_exact():
    # V = max(x,0)^3 + max(x,0) with its exact V' (symmetric subgradient at 0)
    def v_prime(x):
        return 3.0 * max(x, 0.0) ** 2 + (1.0 if x > 0 else (0.5 if x == 0 else 0.0))

    return induced_map(parse_expression("max(x,0)^3+max(x,0)"), v_prime, label="cubic")


# density with a cdf at (gamma, omega0), and the map from an energy to the
# density's coordinate (W^{-1} for a state transported by a potential);
# finite-difference potentials stay out: their W' is not the derivative of
# the W their cdf uses to a 1e-12
_CDF_CASES = {
    "lorentzian": lambda params: (lorentzian_density(params), lambda e: e),
    "exponential": lambda params: (exponential_density(1.0 / params.gamma), lambda e: e),
    "ramp": _transported(ramp_potential),
    "exp": _transported(exp_potential),
    "cubic-exact": _transported(_cubic_exact),
}


def _table(params):
    # knots omega0 + (-3, -1, 0, 2, 5) gamma, unnormalized
    knots = params.omega0 + params.gamma * np.array([-3.0, -1.0, 0.0, 2.0, 5.0])
    return table_density(knots, np.array([0.0, 1.0, 3.0, 0.5, 0.0]) / params.gamma), lambda e: e


@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("kind", [*_CDF_CASES, "table"])
def test_cdf_masses_match_quadrature(kind, gamma):
    # exact masses against adaptive quad of the same density without its
    # cdf, on every window between -inf, omega0 + k gamma for k in ks (in
    # energy) and +inf
    ks = (-40, -3, -1, 0, 1, 3, 40)
    for ratio in (-2.5, 0.0, 0.7, 1e3):
        omega0 = ratio * gamma
        d, x_of = {**_CDF_CASES, "table": _table}[kind](DephasingParams(gamma, omega0))
        integrated = replace(d, cdf=None)
        ends = [-math.inf, *(x_of(omega0 + k * gamma) for k in ks), math.inf]
        for i, lo in enumerate(ends):
            for hi in ends[i + 1:]:
                assert abs(mass_integral(d, lo, hi, TIGHT)
                           - mass_integral(integrated, lo, hi, TIGHT)) <= 1e-12


@pytest.mark.parametrize("kind", list(_CDF_CASES))
def test_masses_with_a_cdf_never_reach_quad(monkeypatch, kind):
    def no_quad(*args, **kwargs):
        raise AssertionError(f"{args[6]} reached quad")

    monkeypatch.setattr(oscint, "_quad", no_quad)
    d, _ = _CDF_CASES[kind](DephasingParams(1.0, 0.7))
    assert normalize_check(d, CFG) == 1.0
    assert fourier_amplitude(d, 0.0, CFG) == 1.0
    assert global_survival((0.3, 0.7), d, 0.0, CFG) == pytest.approx(1.0, abs=1e-15)
    neg, pos = half_line_mass(d, "negative", CFG), half_line_mass(d, "positive", CFG)
    assert neg + pos == pytest.approx(1.0, abs=1e-15)
    if kind != "exponential":
        # W is odd, so every transported state keeps the Lorentzian's masses
        assert neg == pytest.approx(0.5 - math.atan(1.4) / math.pi, abs=1e-15)

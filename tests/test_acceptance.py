"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them).  Tolerances are pinned here, not configurable.

Criterion 3b's first clause asserts that the truncated integral at T = 1000
reaches pi ln 2 within 1e-3; the truncation gap there is
2 eps (1 - ln eps) with eps = pi/2 - arctan(T), which is 1.58e-2 at T = 1000
and only drops below 1e-3 for T >~ 2.5e4.  The assertion is kept as stated
and marked xfail: the tolerance is unreachable at that truncation, not a
defect of the integrator (the same sweep matches the exact truncated values
to 1e-8, see test_diagnostics).
"""

import math

import numpy as np
import pytest

from decaylab import (
    DephasingParams,
    PocketModel,
    QuadratureConfig,
    QubitState,
    build_initial_state,
    cli,
    compare_exact_vs_semigroup,
    dephasing_factor,
    exp_potential,
    exponential_fit,
    fit_pw_growth,
    fourier_amplitude,
    generalized_factor_series,
    generator_from_params,
    global_survival,
    global_survival_series,
    induced_map,
    lorentzian_density,
    normalize_check,
    positivity_check,
    propagate,
    restricted_amplitude,
    sigma_x_expectation,
    symmetric_graded_grid,
)
from decaylab.pocket import ramp_values

CFG = QuadratureConfig()
TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
PI_LN2 = math.pi * math.log(2.0)


def _report(label, ok=True):
    print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_exponential_subsystem_decay():
    times = np.linspace(0.0, 20.0, 41)
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for omega0 in (0.0, 1.0):
            m = PocketModel(DephasingParams(gamma, omega0))
            for t in times:
                f = dephasing_factor(m, float(t), CFG)
                worst = max(worst, abs(abs(f) - math.exp(-gamma * t / 2.0)))
    assert worst <= 1e-6, f"|f| deviates from the exponential by {worst:.3e}"

    plus = QubitState.plus()
    worst_sx = 0.0
    for gamma in (0.5, 1.0, 2.0):
        m = PocketModel(DephasingParams(gamma, 0.0))
        for t in times:
            sx = sigma_x_expectation(m, plus, float(t), CFG)
            worst_sx = max(worst_sx, abs(sx - math.exp(-gamma * t / 2.0)))
    assert worst_sx <= 1e-6, f"<sigma_x> deviates by {worst_sx:.3e}"
    _report("criterion 1 (exponential subsystem decay, max err "
            f"|f|: {worst:.2e}, sigma_x: {worst_sx:.2e})")


def test_criterion_2_gkls_equivalence():
    params = DephasingParams(1.0, 0.0)
    m = PocketModel(params)
    plus = QubitState.plus()
    times = np.linspace(0.0, 20.0, 41)

    matched = generator_from_params(params, "matched")
    comp = compare_exact_vs_semigroup(m, matched, plus, times, CFG)
    assert comp.max_distance <= 1e-6

    # closed form vs closed form: semigroup coherence against the analytic map
    worst = 0.0
    for gamma, omega0 in [(0.5, 0.0), (1.0, 1.0), (2.0, -0.5)]:
        g = generator_from_params(DephasingParams(gamma, omega0), "matched")
        for t in times:
            rho_t = propagate(g, plus, float(t))
            want = 0.5 * np.exp(-(gamma / 2.0 + 1j * omega0) * t)
            worst = max(worst, abs(rho_t.rho01 - want))
    assert worst <= 1e-12

    literal = generator_from_params(params, "literal")
    lit = compare_exact_vs_semigroup(m, literal, plus, [0.0, 1.0], CFG)
    want = abs(math.exp(-0.5) - math.exp(-2.0)) / 2.0
    assert lit.distances[1] == pytest.approx(want, abs=1e-8)
    assert lit.distances[1] == pytest.approx(0.2356, abs=1e-4)
    _report(f"criterion 2 (semigroup equivalence: matched max {comp.max_distance:.2e}, "
            f"closed-form gap {worst:.2e}, literal t=1 distance {lit.distances[1]:.4f})")


def test_criterion_3a_paley_wiener_exponential():
    amp = lambda t: math.exp(-abs(t) / 2.0)
    sweep = [10.0, 31.6, 100.0, 316.0, 1000.0]
    fit = fit_pw_growth(amp, sweep, CFG)
    pw = dict(fit.pw_values)
    for T in (10.0, 100.0, 1000.0):
        want = 0.5 * math.log1p(T * T)
        assert abs(pw[T] - want) / want <= 1e-4
    assert fit.growth_class == "logarithmic-divergent"
    assert abs(fit.c1 - 0.5) <= 1e-3
    _report(f"criterion 3a (Paley-Wiener log divergence, c1 = {fit.c1:.6f})")


@pytest.mark.xfail(
    strict=True,
    reason="pw(1000) = pi ln 2 - 1.58e-2 exactly (truncation tail "
    "2 eps (1 - ln eps), eps = pi/2 - arctan 1000); the 1e-3 target "
    "requires T >~ 2.5e4 and cannot be met at T = 1000",
)
def test_criterion_3b_pw_limit_at_T1000():
    amp = lambda t: 1.0 / math.sqrt(1.0 + t * t)
    fit = fit_pw_growth(amp, [10.0, 31.6, 100.0, 316.0, 1000.0], CFG)
    pw1000 = dict(fit.pw_values)[1000.0]
    ok = abs(pw1000 - PI_LN2) <= 1e-3
    _report(f"criterion 3b-i (pw(1000) = {pw1000:.6f} vs pi ln 2 = {PI_LN2:.6f} "
            "within 1e-3)", ok)
    assert ok


def test_criterion_3b_halfline_exponential_bounded():
    amp = lambda t: 1.0 / math.sqrt(1.0 + t * t)
    fit = fit_pw_growth(amp, [10.0, 31.6, 100.0, 316.0, 1000.0], CFG)
    assert fit.growth_class == "bounded"
    # the sweep value is exact for the truncated integral (frozen oracle)
    assert dict(fit.pw_values)[1000.0] == pytest.approx(2.1617705842396944, abs=1e-8)
    _report("criterion 3b-ii (half-line exponential amplitude classified bounded)")


def test_criterion_4_global_survival_non_decay():
    d = lorentzian_density(DephasingParams(1.0, 0.0))
    weights = (0.5, 0.5)
    a200 = global_survival(weights, d, 200.0, CFG)
    assert abs(abs(a200) - 0.5) <= 0.01

    times = np.linspace(10.0, 100.0, 46)
    series = global_survival_series(weights, d, times, CFG)
    fit = exponential_fit(series, (10.0, 100.0))
    assert fit.residual > 1e-3
    _report(f"criterion 4 (global survival: |a(200)| = {abs(a200):.5f}, "
            f"fit residual {fit.residual:.2e} > 1e-3)")


def test_criterion_5_positivity():
    grid = symmetric_graded_grid()  # 2001 nodes on [-50, 50]
    m = PocketModel(DephasingParams(1.0, 0.0), grid=grid)
    rng = np.random.default_rng(20240815)
    n = grid.nodes.size
    states = []
    for _ in range(100):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        norm = math.sqrt(grid.norm(a, b))
        states.append((a / norm, b / norm))
    values = positivity_check(m, states)
    assert min(values) >= -1e-12

    dense = np.diag(np.concatenate([ramp_values(grid.nodes, "positive"),
                                    ramp_values(grid.nodes, "negative")]))
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() >= -1e-10
    _report(f"criterion 5 (positivity: min form {min(values):.3e}, "
            f"min dense eigenvalue {eigs.min():.3e})")


def test_criterion_6_generalized_potentials():
    params = DephasingParams(1.0, 0.0)

    def closed_form(gamma, omega0, x):
        w = 2.0 * math.sinh(x)
        return (gamma * math.cosh(x) / math.pi) / ((w - omega0) ** 2 + gamma**2 / 4.0)

    for pot, label in ((exp_potential(), "analytic"),
                       (induced_map(math.exp, None, label="exp-fd"), "fd")):
        state = build_initial_state(pot, params)
        assert abs(normalize_check(state.density, CFG) - 1.0) <= 1e-8
        xs = np.linspace(-6.0, 6.0, 101)
        for x, got in zip(xs.tolist(), state.density.density(xs).tolist()):
            want = closed_form(1.0, 0.0, x)
            assert abs(got - want) <= 1e-10 * max(1.0, want)
        xs = np.linspace(-20.0, 20.0, 81)
        for x, back in zip(xs.tolist(), pot.W_inverse(pot.W(xs)).tolist()):
            assert abs(back - x) <= 1e-9
        ts = np.linspace(0.25, 10.0, 40)
        series = generalized_factor_series(pot, params, ts, TIGHT, state)
        fit = exponential_fit(series, (0.0, 10.0))
        assert abs(fit.rate - 0.5) <= 1e-5, f"{label}: rate {fit.rate}"
        assert fit.residual < 1e-6, f"{label}: residual {fit.residual}"
    _report("criterion 6 (generalized exponential potential: density, round trip, "
            "and factor fit on both derivative paths)")


def test_criterion_7_property_suite(tmp_path):
    d = lorentzian_density(DephasingParams(1.0, 1.0))

    # conjugate symmetry
    for t in (0.5, 3.0, 12.0):
        assert abs(fourier_amplitude(d, -t, CFG) - fourier_amplitude(d, t, CFG).conjugate()) <= 1e-10

    # contractivity
    for t in np.linspace(0.0, 40.0, 21):
        assert abs(fourier_amplitude(d, float(t), CFG)) <= 1.0 + 1e-9

    # split identity against the analytic full-line transform
    for t in (0.7, 2.0, 9.0):
        split = restricted_amplitude(d, -math.inf, 0.0, t, CFG) + restricted_amplitude(
            d, 0.0, math.inf, t, CFG)
        want = np.exp(-abs(t) / 2.0 - 1j * t)
        assert abs(split - want) <= 2 * CFG.abs_tol

    # semigroup law and state invariants along the flow
    g = generator_from_params(DephasingParams(1.3, 0.7), "matched")
    rho = QubitState(0.4, 0.6, 0.3 - 0.2j)
    for s, t in [(0.5, 1.0), (2.0, 7.0)]:
        a = propagate(g, propagate(g, rho, s), t)
        b = propagate(g, rho, s + t)
        assert abs(a.rho01 - b.rho01) <= 1e-12
    for t in np.linspace(0.0, 15.0, 16):
        out = propagate(g, rho, float(t))
        assert out.rho00 + out.rho11 == pytest.approx(1.0, abs=1e-12)
        assert abs(out.rho01) ** 2 <= out.rho00 * out.rho11 + 1e-12

    # phase invariance: outputs depend on the density alone
    from decaylab import InitialStateSpec

    params = DephasingParams(1.0, 0.0)
    base = lorentzian_density(params)
    rng = np.random.default_rng(11)
    c = rng.normal(size=2)
    m0 = PocketModel(params, InitialStateSpec(base))
    m1 = PocketModel(params, InitialStateSpec(base, phase=lambda e: c[0] * e + c[1]))
    for t in (0.5, 2.0, 8.0):
        assert dephasing_factor(m0, t, CFG) == dephasing_factor(m1, t, CFG)

    # CLI byte reproducibility
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["survival", "--gamma", "1", "--omega0", "1",
            "--t-start", "0", "--t-end", "5", "--n-points", "11"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")
    _report("criterion 7 (property suite: symmetry, contractivity, split identity, "
            "semigroup law, state invariants, phase invariance, reproducibility)")

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from decaylab import (
    DephasingParams,
    GKLSGenerator,
    PocketModel,
    QuadratureConfig,
    QubitState,
    compare_exact_vs_semigroup,
    generator_from_params,
    propagate,
    trace_distance,
)

CFG = QuadratureConfig()
PLUS = QubitState.plus()


def test_generator_coefficients():
    g = generator_from_params(DephasingParams(1.0, 2.0), "literal")
    assert (g.hamiltonian_coeff, g.dissipator_coeff) == (2.0, 0.5)
    g = generator_from_params(DephasingParams(1.0, 2.0), "matched")
    assert (g.hamiltonian_coeff, g.dissipator_coeff) == (1.0, 0.125)
    with pytest.raises(ValueError):
        generator_from_params(DephasingParams(1.0, 0.0), "exact")


def test_generator_limits_to_zero():
    # gamma -> 0 is outside DephasingParams; the generator type itself admits it
    for mode in ("matched", "literal"):
        g = GKLSGenerator(0.0, 0.0, mode)
        assert (g.hamiltonian_coeff, g.dissipator_coeff) == (0.0, 0.0)


def test_dissipator_must_be_cp():
    with pytest.raises(ValueError):
        GKLSGenerator(1.0, -0.1)


def test_propagate_closed_forms():
    params = DephasingParams(1.0, 0.0)
    out = propagate(generator_from_params(params, "matched"), PLUS, 2.0)
    assert abs(out.rho01 - math.exp(-1.0) / 2.0) <= 1e-15
    out = propagate(generator_from_params(params, "literal"), PLUS, 2.0)
    assert abs(out.rho01 - math.exp(-4.0) / 2.0) <= 1e-15
    assert out.rho01.real == pytest.approx(0.0091578, abs=1e-7)


def test_propagate_identity_and_direction():
    g = generator_from_params(DephasingParams(1.0, 3.0), "matched")
    out = propagate(g, PLUS, 0.0)
    assert out.rho01 == PLUS.rho01 and out.rho00 == PLUS.rho00
    with pytest.raises(ValueError):
        propagate(g, PLUS, -0.5)


def test_semigroup_law():
    g = generator_from_params(DephasingParams(0.8, 1.7), "matched")
    for s, t in [(0.3, 1.1), (2.0, 5.0)]:
        once = propagate(g, propagate(g, PLUS, s), t)
        joint = propagate(g, PLUS, s + t)
        assert abs(once.rho01 - joint.rho01) <= 1e-12
        assert once.rho00 == joint.rho00


def test_trace_and_hermiticity_preserved():
    g = generator_from_params(DephasingParams(1.0, 0.5), "matched")
    rho = QubitState(0.3, 0.7, 0.25 - 0.3j)
    for t in np.linspace(0.0, 12.0, 7):
        out = propagate(g, rho, float(t))
        mat = out.as_matrix()
        assert abs(np.trace(mat) - 1.0) <= 1e-12
        assert np.allclose(mat, mat.conj().T)


def test_trace_distance_matches_eigenvalues():
    # reference: half the summed |eigenvalues| of the difference matrix
    rng = np.random.default_rng(3)

    def state():
        p = rng.uniform()
        r = rng.uniform() * math.sqrt(p * (1.0 - p))
        return QubitState(p, 1.0 - p, r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    for _ in range(500):
        a, b = state(), state()
        eigs = np.linalg.eigvalsh(a.as_matrix() - b.as_matrix())
        want = 0.5 * float(np.sum(np.abs(eigs)))
        assert trace_distance(a, b) == pytest.approx(want, rel=1e-14, abs=1e-16)


def test_distance_contractive_in_time():
    g = generator_from_params(DephasingParams(1.0, 0.0), "matched")
    a = QubitState(0.5, 0.5, 0.5)
    b = QubitState(0.5, 0.5, -0.5)
    dists = [trace_distance(propagate(g, a, t), propagate(g, b, t)) for t in np.linspace(0, 8, 9)]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(dists, dists[1:]))


def test_matched_equals_analytic_map():
    # closed form vs closed form: exp(-(gamma/2 + i omega0) t) on the coherence
    for gamma, omega0 in [(0.5, 0.0), (2.0, 1.0), (1.0, -3.0)]:
        g = generator_from_params(DephasingParams(gamma, omega0), "matched")
        rho = QubitState(0.4, 0.6, 0.2 + 0.1j)
        for t in (0.0, 0.7, 4.0, 15.0):
            out = propagate(g, rho, t)
            want = cmath.exp(-(gamma / 2.0 + 1j * omega0) * t) * rho.rho01
            assert abs(out.rho01 - want) <= 1e-12


def _master_equation_oracle(g: GKLSGenerator, rho0: QubitState, t: float) -> np.ndarray:
    # independent route: integrate d rho/dt = -i c_H [sz, rho] - c_D [sz,[sz,rho]]
    sz = np.diag([1.0, -1.0]).astype(complex)

    def rhs(_t, y):
        rho = y.reshape(2, 2)
        comm = sz @ rho - rho @ sz
        dbl = sz @ comm - comm @ sz
        return (-1j * g.hamiltonian_coeff * comm - g.dissipator_coeff * dbl).reshape(-1)

    sol = solve_ivp(rhs, (0.0, t), rho0.as_matrix().reshape(-1), rtol=1e-12, atol=1e-14)
    return sol.y[:, -1].reshape(2, 2)


@pytest.mark.parametrize("mode", ["matched", "literal"])
def test_propagate_against_integrated_master_equation(mode):
    g = generator_from_params(DephasingParams(1.0, 0.6), mode)
    rho0 = QubitState(0.35, 0.65, 0.2 - 0.25j)
    t = 1.7
    closed = propagate(g, rho0, t).as_matrix()
    numeric = _master_equation_oracle(g, rho0, t)
    assert np.max(np.abs(closed - numeric)) <= 1e-8


def test_compare_matched_is_exact():
    params = DephasingParams(1.0, 0.0)
    m = PocketModel(params)
    g = generator_from_params(params, "matched")
    comp = compare_exact_vs_semigroup(m, g, PLUS, [0.0, 1.0, 2.0, 5.0, 10.0], CFG)
    assert comp.max_distance <= 1e-6
    assert comp.distances[0] == 0.0


def test_compare_literal_distance_value():
    # closed-form difference |e^{-1/2} - e^{-2}|/2 at t=1
    params = DephasingParams(1.0, 0.0)
    m = PocketModel(params)
    g = generator_from_params(params, "literal")
    comp = compare_exact_vs_semigroup(m, g, PLUS, [0.0, 1.0], CFG)
    want = abs(math.exp(-0.5) - math.exp(-2.0)) / 2.0
    assert comp.distances[1] == pytest.approx(want, abs=1e-8)
    assert comp.distances[1] == pytest.approx(0.2356, abs=1e-4)


def test_compare_validates_times():
    params = DephasingParams(1.0, 0.0)
    m = PocketModel(params)
    g = generator_from_params(params, "matched")
    with pytest.raises(ValueError):
        compare_exact_vs_semigroup(m, g, PLUS, [-1.0, 0.0], CFG)
    with pytest.raises(ValueError):
        compare_exact_vs_semigroup(m, g, PLUS, [1.0, 1.0], CFG)

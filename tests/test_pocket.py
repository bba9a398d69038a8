import math

import numpy as np
import pytest

from decaylab import (
    DephasingParams,
    InitialStateSpec,
    PocketModel,
    PositivityGrid,
    QuadratureConfig,
    QubitState,
    dephasing_factor,
    lorentzian_density,
    positivity_check,
    reduced_state,
    sigma_x_expectation,
    symmetric_graded_grid,
)
from decaylab.pocket import ramp_values

CFG = QuadratureConfig()


def model(gamma=1.0, omega0=0.0, **kw):
    return PocketModel(DephasingParams(gamma, omega0), **kw)


def test_qubit_state_validation():
    QubitState(0.5, 0.5, 0.5)  # |+><+| saturates the psd bound
    with pytest.raises(ValueError):
        QubitState(0.7, 0.3, 0.5)  # |rho01|^2 > rho00 rho11
    with pytest.raises(ValueError):
        QubitState(0.6, 0.5, 0.0)  # trace != 1
    with pytest.raises(ValueError):
        QubitState(-0.1, 1.1, 0.0)
    s = QubitState(0.25, 0.75, 0.1 + 0.2j)
    assert s.rho10 == (0.1 - 0.2j)
    assert np.allclose(s.as_matrix(), [[0.25, 0.1 + 0.2j], [0.1 - 0.2j, 0.75]])


@pytest.mark.parametrize("rho00,rho11,rho01,name", [
    (math.nan, math.nan, 0.0, "rho00"),
    (0.5, math.nan, 0.0, "rho11"),
    (math.inf, -math.inf, 0.0, "rho00"),
    (0.5, 0.5, complex(math.nan, 0.0), "rho01"),
    (0.5, 0.5, complex(0.0, -math.inf), "rho01"),
])
def test_qubit_state_rejects_non_finite_entries(rho00, rho11, rho01, name):
    with pytest.raises(ValueError, match=f"{name} must be finite, got"):
        QubitState(rho00, rho11, rho01)


def test_dephasing_factor_values():
    assert dephasing_factor(model(), 0.0, CFG) == pytest.approx(1.0, abs=1e-9)
    assert dephasing_factor(model(), 2.0, CFG) == pytest.approx(math.exp(-1.0), abs=1e-9)
    # closed form with a phase: e^{-1} e^{-i}
    got = dephasing_factor(model(2.0, 1.0), 1.0, CFG)
    want = math.exp(-1.0) * np.exp(-1.0j)
    assert abs(got - want) <= 1e-9
    assert got.real == pytest.approx(0.1987661, abs=1e-6)
    assert got.imag == pytest.approx(-0.3095599, abs=1e-6)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_dephasing_magnitude_matches_exponential(gamma):
    m = model(gamma)
    for t in np.linspace(0.0, 20.0, 21):
        f = dephasing_factor(m, float(t), CFG)
        assert abs(abs(f) - math.exp(-gamma * t / 2.0)) <= 1e-6


def test_reduced_state_plus_state():
    rho = QubitState.plus()
    out = reduced_state(model(), rho, 2.0, CFG)
    assert out.rho00 == 0.5 and out.rho11 == 0.5
    assert abs(out.rho01 - math.exp(-1.0) / 2.0) <= 1e-9
    assert out.rho00 + out.rho11 == pytest.approx(1.0, abs=1e-12)


def test_reduced_state_identity_at_t0():
    rho = QubitState(0.3, 0.7, 0.2 - 0.1j)
    assert reduced_state(model(), rho, 0.0, CFG) is rho


def test_reduced_state_fixes_diagonal_states():
    rho = QubitState(1.0, 0.0, 0.0)
    for t in (0.5, 4.0):
        out = reduced_state(model(), rho, t, CFG)
        assert out.rho00 == 1.0 and out.rho11 == 0.0 and out.rho01 == 0.0


def test_coherence_never_grows():
    rho = QubitState.plus()
    m = model(0.5, 1.0)
    prev = abs(rho.rho01)
    for t in np.linspace(0.5, 15.0, 15):
        out = reduced_state(m, rho, float(t), CFG)
        assert abs(out.rho01) <= prev + 1e-12
        assert abs(out.rho01) ** 2 <= out.rho00 * out.rho11 + 1e-12
        prev = abs(out.rho01)


def test_purity_monotone_decreasing():
    rho = QubitState(0.4, 0.6, 0.3 + 0.2j)
    m = model(1.0, 0.5)
    purities = [reduced_state(m, rho, float(t), CFG).purity() for t in np.linspace(0.0, 10.0, 11)]
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))


def test_factor_composition_semigroup_fingerprint():
    m = model(1.0, 0.7)
    for t, s in [(0.5, 1.5), (2.0, 3.0), (1.0, 7.0)]:
        f_ts = dephasing_factor(m, t + s, CFG)
        f_t = dephasing_factor(m, t, CFG)
        f_s = dephasing_factor(m, s, CFG)
        assert abs(f_ts - f_t * f_s) <= 1e-8


def test_sigma_x_expectation():
    rho = QubitState.plus()
    assert sigma_x_expectation(model(), rho, 2.0, CFG) == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert sigma_x_expectation(model(2.0, 1.0), rho, 0.0, CFG) == 1.0
    ground = QubitState(1.0, 0.0, 0.0)
    assert sigma_x_expectation(model(), ground, 3.0, CFG) == 0.0


def test_phase_profile_never_enters():
    # identical densities with different alpha(E) must give bit-identical output
    params = DephasingParams(1.0, 0.0)
    d = lorentzian_density(params)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=3)

    def alpha(e):
        return coeffs[0] * e + coeffs[1] * math.sin(coeffs[2] * e)

    m_zero = PocketModel(params, InitialStateSpec(d))
    m_rand = PocketModel(params, InitialStateSpec(d, phase=alpha))
    for t in (0.7, 2.0, 13.0):
        assert dephasing_factor(m_zero, t, CFG) == dephasing_factor(m_rand, t, CFG)


# --- positivity -------------------------------------------------------------


def test_grid_construction():
    g = symmetric_graded_grid()
    assert g.nodes.size == 2001
    assert g.nodes[0] == -g.nodes[-1]
    assert abs(g.nodes[-1] - 50.0) < 1e-9
    spacings = np.diff(g.nodes)
    # finer near 0, geometric growth outward
    mid = g.nodes.size // 2
    assert spacings[mid] < spacings[-1]
    with pytest.raises(ValueError):
        symmetric_graded_grid(n_nodes=2000)
    with pytest.raises(ValueError):
        PositivityGrid(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0]))


def small_grid():
    return symmetric_graded_grid(x_max=30.0, n_nodes=501)


def random_states(grid, count, seed):
    rng = np.random.default_rng(seed)
    n = grid.nodes.size
    out = []
    for _ in range(count):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        norm = math.sqrt(grid.norm(a, b))
        out.append((a / norm, b / norm))
    return out


def test_positivity_random_states_nonnegative():
    g = small_grid()
    m = model(grid=g)
    values = positivity_check(m, random_states(g, 100, seed=1234))
    assert min(values) >= -1e-12


def test_positivity_dense_matrix_oracle():
    # oracle: the grid Hamiltonian in the weight-normalized basis is
    # diag(ramp(x), ramp(-x)); its smallest eigenvalue must be >= 0
    g = small_grid()
    h = np.diag(np.concatenate([ramp_values(g.nodes, "positive"), ramp_values(g.nodes, "negative")]))
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() >= -1e-10
    # and the quadratic form agrees with the matrix form on a random state
    m = model(grid=g)
    (a, b), = random_states(g, 1, seed=99)
    direct = positivity_check(m, [(a, b)])[0]
    sq = np.sqrt(g.weights)
    vec = np.concatenate([sq * a, sq * np.asarray(b)])
    assert direct == pytest.approx(float(np.real(vec.conj() @ h @ vec)), abs=1e-12)


def test_positivity_vanishes_off_the_ramps():
    # component 1 supported on x < 0 and component 2 on x > 0: both ramps vanish
    g = small_grid()
    n = g.nodes.size
    a = np.where(g.nodes < -0.5, 1.0, 0.0).astype(complex)
    b = np.where(g.nodes > 0.5, 1.0, 0.0).astype(complex)
    norm = math.sqrt(g.norm(a, b))
    val = positivity_check(model(grid=g), [(a / norm, b / norm)])[0]
    assert val == 0.0


def test_positivity_point_mass_near_three():
    g = small_grid()
    n = g.nodes.size
    i = int(np.argmin(np.abs(g.nodes - 3.0)))
    a = np.zeros(n, dtype=complex)
    a[i] = 1.0 / math.sqrt(g.weights[i])
    val = positivity_check(model(grid=g), [(a, np.zeros(n, dtype=complex))])[0]
    assert val == pytest.approx(3.0, abs=0.1)


def test_positivity_rejects_unnormalized():
    g = small_grid()
    n = g.nodes.size
    a = np.ones(n, dtype=complex)
    with pytest.raises(ValueError):
        positivity_check(model(grid=g), [(a, a)])

"""Ramp-coupled qubit (x) continuum model with exact reduced dephasing.

The Hamiltonian couples level |0> to multiplication by max(x, 0) and level
|1> to multiplication by max(-x, 0), so every matrix element of H is a
positive expectation, yet the reduced qubit state undergoes exact phase
damping: populations are frozen and the coherence is multiplied by
f(t) = int exp(-i x t) |phi(x)|^2 dx.

The partial trace is evaluated analytically through the scalar f(t); the
discretized continuum survives only inside the positivity check, where the
quadratic form of H is evaluated on a symmetric graded grid.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import oscint
from .oscint import QuadratureConfig
from .spectral import DephasingParams, InitialStateSpec, lorentzian_density

_TOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """2x2 density matrix: real populations and one complex coherence."""

    rho00: float
    rho11: float
    rho01: complex

    def __post_init__(self):
        for name, value in (("rho00", self.rho00), ("rho11", self.rho11), ("rho01", self.rho01)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rho00 < 0 or self.rho11 < 0:
            raise ValueError(f"populations must be non-negative: {self.rho00}, {self.rho11}")
        if abs(self.rho00 + self.rho11 - 1.0) > _TOL:
            raise ValueError(f"trace must be 1 within {_TOL}: {self.rho00 + self.rho11}")
        if abs(self.rho01) ** 2 > self.rho00 * self.rho11 + _TOL:
            raise ValueError(
                f"not positive semidefinite: |rho01|^2 = {abs(self.rho01)**2} "
                f"> rho00*rho11 = {self.rho00 * self.rho11}"
            )
        object.__setattr__(self, "rho01", complex(self.rho01))

    @property
    def rho10(self) -> complex:
        return self.rho01.conjugate()

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.rho00, self.rho01], [self.rho10, self.rho11]], dtype=complex)

    def purity(self) -> float:
        return self.rho00**2 + self.rho11**2 + 2.0 * abs(self.rho01) ** 2

    @staticmethod
    def plus() -> "QubitState":
        """|+><+|: equal populations, maximal real coherence."""
        return QubitState(0.5, 0.5, 0.5 + 0.0j)


@dataclass(frozen=True)
class PositivityGrid:
    """Symmetric node/weight discretization of the line for quadratic forms."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if x.ndim != 1 or x.shape != w.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not np.all(np.diff(x) > 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if not np.allclose(x, -x[::-1], atol=1e-12):
            raise ValueError("grid must be symmetric about 0")
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "weights", w)

    def norm(self, psi1: np.ndarray, psi2: np.ndarray) -> float:
        return float(np.sum(self.weights * (np.abs(psi1) ** 2 + np.abs(psi2) ** 2)))


def symmetric_graded_grid(
    x_max: float = 50.0, n_nodes: int = 2001, growth: float = 1.005
) -> PositivityGrid:
    """Symmetric grid on [-x_max, x_max]: spacings grow geometrically away
    from 0, so the grid is finest where the environment density peaks."""
    if n_nodes % 2 == 0 or n_nodes < 3:
        raise ValueError("n_nodes must be odd and >= 3")
    half = (n_nodes - 1) // 2
    steps = growth ** np.arange(half)
    pos = x_max * np.cumsum(steps) / np.sum(steps)
    nodes = np.concatenate((-pos[::-1], [0.0], pos))
    w = np.empty_like(nodes)
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    return PositivityGrid(nodes, w)


@dataclass(frozen=True)
class PocketModel:
    """Dephasing model: rate/frequency parameters plus the continuum state.

    The default environment is the Cauchy-Lorentz state whose ramp-difference
    evolution is the pure exponential exp(-gamma|t|/2 - i omega0 t).
    """

    params: DephasingParams
    environment_state: InitialStateSpec | None = None
    grid: PositivityGrid | None = None

    def __post_init__(self):
        if self.environment_state is None:
            object.__setattr__(
                self, "environment_state", InitialStateSpec(lorentzian_density(self.params))
            )

    @property
    def environment_density(self):
        return self.environment_state.density


def dephasing_factor(m: PocketModel, t: float, cfg: QuadratureConfig) -> complex:
    """f(t) = int exp(-i x t) |phi(x)|^2 dx, the coherence multiplier.

    Depends on the environment density only, never on its phase profile.
    For the Lorentzian environment equals exp(-gamma|t|/2 - i omega0 t)
    within the quadrature tolerance.
    """
    return oscint.fourier_amplitude(m.environment_density, t, cfg)


def apply_dephasing(rho0: QubitState, f: complex) -> QubitState:
    """Phase-damping channel: populations fixed, coherence multiplied by f.

    |f| is clamped at 1 so quadrature noise of order abs_tol cannot push a
    maximal-coherence state past the positivity tolerance of QubitState.
    """
    mag = abs(f)
    if mag > 1.0:
        f /= mag
    return QubitState(rho0.rho00, rho0.rho11, f * rho0.rho01)


def reduced_state(m: PocketModel, rho0: QubitState, t: float, cfg: QuadratureConfig) -> QubitState:
    """Partial trace of the evolved product state: populations unchanged,
    coherence multiplied by f(t).  t = 0 returns rho0 exactly (the evolution
    is the identity).
    """
    if t == 0:
        return rho0
    return apply_dephasing(rho0, dephasing_factor(m, t, cfg))


def dephased_states(rho0: QubitState, series: oscint.ComplexTimeSeries) -> list[QubitState]:
    """Reduced states along a series of dephasing factors f(t); the point
    t = 0 returns rho0 exactly, as in reduced_state."""
    return [rho0 if t == 0 else apply_dephasing(rho0, f)
            for t, f in zip(series.times, series.values)]


def sigma_x_expectation(m: PocketModel, rho0: QubitState, t: float, cfg: QuadratureConfig) -> float:
    """<sigma_x(t)> = 2 Re(f(t) rho01(0)); decays as exp(-gamma t/2) when omega0 = 0."""
    if rho0.rho01 == 0:
        return 0.0
    if t == 0:
        return 2.0 * rho0.rho01.real
    f = dephasing_factor(m, t, cfg)
    return 2.0 * (f * rho0.rho01).real


def positivity_check(m: PocketModel, trial_states) -> list[float]:
    """Quadratic form <psi|H psi> for two-component grid wave functions.

    Only nodes x > 0 contribute: x * (|psi1(x)|^2 + |psi2(-x)|^2) * weight.
    Trial states must be grid-normalized to 1 within 1e-8.  Every returned
    value is non-negative up to round-off, which is the discrete witness of
    the positivity of H.
    """
    grid = m.grid or symmetric_graded_grid()
    x, w = grid.nodes, grid.weights
    n = x.size
    pos = x > 0
    out = []
    for k, (psi1, psi2) in enumerate(trial_states):
        psi1 = np.asarray(psi1, dtype=complex)
        psi2 = np.asarray(psi2, dtype=complex)
        if psi1.shape != x.shape or psi2.shape != x.shape:
            raise ValueError(f"trial state {k} does not match the grid ({n} nodes)")
        norm = grid.norm(psi1, psi2)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"trial state {k} is not normalized: <psi|psi> = {norm}")
        # psi2 evaluated at -x: reflect indices on the symmetric grid
        psi2_reflected = psi2[::-1]
        val = np.sum(x[pos] * w[pos] * (np.abs(psi1[pos]) ** 2 + np.abs(psi2_reflected[pos]) ** 2))
        out.append(float(val))
    return out


def ramp_values(x: np.ndarray, side: str) -> np.ndarray:
    """max(x, 0) or max(-x, 0) on the grid; the diagonal of the grid Hamiltonian."""
    if side == "positive":
        return np.maximum(x, 0.0)
    if side == "negative":
        return np.maximum(-x, 0.0)
    raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")

"""Two-level dephasing semigroup: generator conventions and closed-form flow.

The generator is L(rho) = -i c_H [sz, rho] - c_D [sz, [sz, rho]] with
sz = |0><0| - |1><1|.  Commutator algebra gives [sz, rho]_01 = 2 rho01 and
[sz, [sz, rho]]_01 = 4 rho01, so the coherence obeys
d rho01/dt = -(2 i c_H + 4 c_D) rho01 exactly; propagation therefore uses
the closed-form solution, never a generic matrix exponential (that route is
reserved for test oracles).

Two coefficient conventions are first-class:

* "matched"  -- (c_H, c_D) = (omega0/2, gamma/8), the unique pair whose
                semigroup reproduces the exact reduced dynamics with
                coherence factor exp(-gamma t/2 - i omega0 t);
* "literal"  -- (c_H, c_D) = (omega0, gamma/2), the rate pair inserted
                directly as commutator prefactors, which doubles the
                precession and quadruples the decay exponent (coherence
                factor exp(-2 gamma t - 2 i omega0 t)).

"matched" is the default; the comparison report quantifies the difference
instead of silently correcting either convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import cmath
import math

import numpy as np

from . import oscint, pocket
from .oscint import ComplexTimeSeries, QuadratureConfig
from .pocket import PocketModel, QubitState
from .spectral import DephasingParams

CONVENTIONS = ("matched", "literal")


@dataclass(frozen=True)
class GKLSGenerator:
    """Dephasing generator: commutator coefficient c_H, double-commutator
    coefficient c_D >= 0 (complete positivity), and the convention tag."""

    hamiltonian_coeff: float
    dissipator_coeff: float
    convention: str = "matched"

    def __post_init__(self):
        if self.dissipator_coeff < 0:
            raise ValueError(
                f"dissipator coefficient must be >= 0 for complete positivity, "
                f"got {self.dissipator_coeff}"
            )
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")

    @property
    def coherence_decay_rate(self) -> float:
        """Decay rate of |rho01|: 4 c_D."""
        return 4.0 * self.dissipator_coeff

    @property
    def coherence_frequency(self) -> float:
        """Precession rate of arg rho01: 2 c_H."""
        return 2.0 * self.hamiltonian_coeff


def generator_from_params(params: DephasingParams, mode: str = "matched") -> GKLSGenerator:
    """Build the generator for a given (gamma, omega0) in the chosen convention."""
    if mode == "matched":
        return GKLSGenerator(params.omega0 / 2.0, params.gamma / 8.0, "matched")
    if mode == "literal":
        return GKLSGenerator(params.omega0, params.gamma / 2.0, "literal")
    raise ValueError(f"mode must be one of {CONVENTIONS}, got {mode!r}")


def propagate(g: GKLSGenerator, rho0: QubitState, t: float) -> QubitState:
    """exp(t L) rho0 in closed form; defined for the semigroup direction t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup propagation requires t >= 0, got {t}")
    factor = cmath.exp(-(g.coherence_decay_rate + 1j * g.coherence_frequency) * t)
    return QubitState(rho0.rho00, rho0.rho11, factor * rho0.rho01)


def trace_distance(a: QubitState, b: QubitState) -> float:
    """(1/2) trace-norm of the difference of two qubit states.  The difference
    of two trace-one states is traceless, with eigenvalues
    +-hypot(delta rho00, |delta rho01|), so that is the distance."""
    return math.hypot(a.rho00 - b.rho00, abs(a.rho01 - b.rho01))


@dataclass(frozen=True)
class SemigroupComparison:
    """Per-time trace-norm distances between the exact reduced state and the
    semigroup propagation of the same initial state."""

    convention: str
    times: np.ndarray
    distances: np.ndarray

    @property
    def max_distance(self) -> float:
        return float(np.max(self.distances)) if self.distances.size else 0.0


def compare_series_vs_semigroup(
    g: GKLSGenerator, rho0: QubitState, exact: ComplexTimeSeries
) -> SemigroupComparison:
    """Distances between the reduced states of an exact dephasing-factor
    series (t >= 0) and the semigroup propagation of rho0."""
    states = pocket.dephased_states(rho0, exact)
    dist = [trace_distance(s, propagate(g, rho0, float(t))) for t, s in zip(exact.times, states)]
    return SemigroupComparison(g.convention, exact.times, np.array(dist, dtype=float))


def compare_exact_vs_semigroup(
    m: PocketModel,
    g: GKLSGenerator,
    rho0: QubitState,
    times,
    cfg: QuadratureConfig,
) -> SemigroupComparison:
    """distance(t) = (1/2) || exact rho(t) - semigroup rho(t) ||_1.

    For the matched convention and the Lorentzian environment the distances
    vanish within the quadrature tolerance: the reduced dynamics is an exact
    semigroup.  Quadrature failures raise SeriesFailure.
    """
    t = np.asarray(list(times), dtype=float)
    if t.size and (np.any(t < 0) or not np.all(np.diff(t) > 0)):
        raise ValueError("times must be non-negative and strictly increasing")
    exact = oscint.amplitude_series(m.environment_density, t, cfg)
    return compare_series_vs_semigroup(g, rho0, exact)

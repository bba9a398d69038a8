"""decaylab: numerical laboratory for exponential decay out of positive Hamiltonians.

Core pieces:

* spectral    -- energy densities (Cauchy-Lorentz family, half-line exponential,
                 user tables) and their half-line masses
* oscint      -- oscillatory Fourier integrals of densities with controlled error,
                 for the linear phase and for monotone phases W
* pocket      -- ramp-coupled qubit (x) continuum model: exact reduced dephasing
                 dynamics and positivity of the grid Hamiltonian
* gkls        -- two-level dephasing semigroup, closed-form propagation, and
                 exact-vs-semigroup comparison
* diagnostics -- Paley-Wiener truncated integrals, growth classification,
                 exponential fits
* potential   -- generalized monotone potentials V, the induced odd map
                 W(x) = V(x) - V(-x), its inverse, and the transported initial
                 state that keeps the reduced dynamics exactly exponential
"""

from .spectral import (
    DephasingParams,
    InitialStateSpec,
    SpectralDensity,
    exponential_density,
    half_line_mass,
    lorentzian_density,
    normalize_check,
    table_density,
)
from .oscint import (
    ComplexTimeSeries,
    QuadratureConfig,
    QuadratureFailure,
    SeriesFailure,
    amplitude_series,
    fourier_amplitude,
    global_survival,
    global_survival_series,
    halfline_amplitude,
    mass_integral,
    restricted_amplitude,
    restricted_amplitude_series,
)
from .pocket import (
    PocketModel,
    PositivityGrid,
    QubitState,
    apply_dephasing,
    dephased_states,
    dephasing_factor,
    positivity_check,
    reduced_state,
    sigma_x_expectation,
    symmetric_graded_grid,
)
from .gkls import (
    GKLSGenerator,
    SemigroupComparison,
    compare_exact_vs_semigroup,
    generator_from_params,
    propagate,
    trace_distance,
)
from .diagnostics import (
    ExponentialFit,
    GrowthFit,
    classify_growth,
    exponential_fit,
    fit_pw_growth,
    paley_wiener_integral,
    pw_sweep,
)
from .potential import (
    MonotonePotential,
    MonotonicityError,
    RangeError,
    build_initial_state,
    exp_potential,
    generalized_dephasing_factor,
    generalized_factor_series,
    induced_map,
    ramp_potential,
)

__version__ = "0.1.0"

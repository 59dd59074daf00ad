"""Quantum scattering on a Coulomb field: exact solution,
asymptotic splits, probability currents, partial-wave series, and the
long-wavelength black-hole analogue."""

from .asymptotic import (
    AsymptoticSplit,
    born_amplitude_yukawa,
    differential_cross_section,
    psi_asymptotic,
    psi_asymptotic_grid,
    rutherford_amplitude,
    rutherford_amplitude_phase_separated,
)
from .classical import (
    BlackHoleParams,
    coulomb_reduction,
    full_mode_phase_error,
    integrate_full_mode,
    long_wavelength_valid,
    radial_mode_asymptotic,
)
from .currents import (
    CurrentDecomposition,
    CurrentVector,
    current_decomposition_asymptotic,
    current_in_distorted,
    current_numeric,
    current_outgoing_exact,
    current_scattered_asymptotic,
    interference_radial_leading,
    oscillation_length,
)
from .exact import (
    FieldPoint,
    ScatteringParams,
    psi_exact,
    psi_exact_grid,
    schrodinger_residual,
)
from .multipole import (
    PhaseShiftFactor,
    coulomb_wave_asymptotic,
    coulomb_wave_regular,
    f_reduced_series,
    f_series_cesaro,
    f_series_partial_sweep,
    phase_shift,
    phase_shift_sweep,
    psi_multipole_sum,
)
from .specfun import (
    hyp1f1,
    log_gamma_complex,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSplit",
    "BlackHoleParams",
    "CurrentDecomposition",
    "CurrentVector",
    "FieldPoint",
    "PhaseShiftFactor",
    "ScatteringParams",
    "born_amplitude_yukawa",
    "coulomb_reduction",
    "coulomb_wave_asymptotic",
    "coulomb_wave_regular",
    "current_decomposition_asymptotic",
    "current_in_distorted",
    "current_numeric",
    "current_outgoing_exact",
    "current_scattered_asymptotic",
    "differential_cross_section",
    "f_reduced_series",
    "f_series_cesaro",
    "f_series_partial_sweep",
    "full_mode_phase_error",
    "hyp1f1",
    "integrate_full_mode",
    "interference_radial_leading",
    "log_gamma_complex",
    "long_wavelength_valid",
    "oscillation_length",
    "phase_shift",
    "phase_shift_sweep",
    "psi_asymptotic",
    "psi_asymptotic_grid",
    "psi_exact",
    "psi_exact_grid",
    "psi_multipole_sum",
    "radial_mode_asymptotic",
    "rutherford_amplitude",
    "rutherford_amplitude_phase_separated",
    "schrodinger_residual",
]

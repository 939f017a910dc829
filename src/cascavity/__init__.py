"""Cascaded-cavity simulator: transfer-matrix and coupled-mode models side by side."""

from .coupled import ModeSystem, three_mode_eigenfrequencies, two_mode_eigenfrequencies
from .errors import (
    CascavityError,
    ConfigError,
    FitFailureError,
    InvalidParameterError,
    PeakCountError,
    SingularBoundaryError,
    SingularSystemError,
)
from .matching import (
    CascadedMatch,
    eta_from_input,
    g_from_geometry,
    kappa_from_geometry,
    match_cascaded,
    nearest_order,
    omega_c_from_geometry,
    resonance_phase,
)
from .scattering import (
    Gap,
    Mirror,
    OpticalStack,
    compose,
    field_profile,
    four_mirror_chain,
    reflectivity,
    region_amplitude_sweep,
    symmetric_cavity,
    three_mirror_chain,
    transmissivity,
)
from .spectra import (
    CascadeSetup,
    ComparisonCurves,
    DeltaEntry,
    Peak,
    PeakSet,
    PhaseScan,
    SinusoidFit,
    Spectrum,
    build_cascade,
    build_single_cavity,
    dark_mode_scan,
    default_omega_window,
    find_peaks,
    fit_peaks,
    intensity_comparison,
    lorentzian_fit,
    peak_separation_delta,
    sinusoid_fit,
    sweep_coupled,
    sweep_scattering,
    three_peak_distances,
)

__version__ = "0.1.0"

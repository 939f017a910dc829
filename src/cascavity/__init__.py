"""Cascaded-cavity simulator: transfer-matrix and coupled-mode models side by side."""

from .coupled import ModeChain, mode_poles
from .errors import (
    CascavityError,
    ConfigError,
    FitFailureError,
    InvalidParameterError,
    PoleSearchError,
    SingularBoundaryError,
    SingularSystemError,
)
from .matching import (
    CascadedMatch,
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
    mirror_chain,
    region_amplitude_sweep,
    transmission_poles,
)
from .spectra import (
    CascadeSetup,
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
    intensity_comparison,
    lorentzian_fit,
    peak_separation_delta,
    sinusoid_fit,
    sweep_coupled,
    sweep_scattering,
)

__version__ = "0.1.0"

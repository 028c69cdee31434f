"""Analysis toolkit for asymmetric bidirectional vehicle platoons."""

from .numerics import (
    Polynomial,
    RationalTF,
    poly_eval,
    poly_mul,
    poly_roots,
    rtf_eval,
)
from .platoon import (
    ConfigError,
    DominanceCertificate,
    PlatoonConfig,
    SpectrumReport,
    build_laplacian,
    dominance_certificate,
    fiedler_lower_bound,
    laplacian_bands,
    spectrum,
    spectrum_report,
)
from .closedform import ThetaRoots, closedform_eigenvalues, solve_thetas
from .analysis import (
    FreqSeries,
    GammaPoint,
    HarmonicVerdict,
    block_stable,
    build_state_space,
    direct_response,
    frequency_series,
    gamma_sequence,
    harmonic_test,
    hinf_norm,
    instantiate_family,
    kappa_modulus_sq,
    make_block,
    open_loop,
    product_response,
    verify_eigen_identities,
    zeta_min,
)
from .sim import SimScenario, SineSignal, StepSignal, TimeSeries, dt_limit, simulate

__version__ = "0.1.0"

__all__ = [
    "Polynomial", "RationalTF", "poly_eval", "poly_mul",
    "poly_roots", "rtf_eval",
    "ConfigError", "DominanceCertificate", "PlatoonConfig", "SpectrumReport",
    "build_laplacian", "dominance_certificate", "fiedler_lower_bound", "laplacian_bands",
    "spectrum", "spectrum_report",
    "ThetaRoots", "closedform_eigenvalues", "solve_thetas",
    "FreqSeries", "GammaPoint", "HarmonicVerdict", "block_stable",
    "build_state_space", "direct_response", "frequency_series", "gamma_sequence",
    "harmonic_test", "hinf_norm", "instantiate_family", "kappa_modulus_sq", "make_block",
    "open_loop", "product_response", "verify_eigen_identities", "zeta_min",
    "SimScenario", "SineSignal", "StepSignal", "TimeSeries", "dt_limit", "simulate",
    "__version__",
]

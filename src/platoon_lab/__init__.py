"""Analysis toolkit for asymmetric bidirectional vehicle platoons."""

from .numerics import Polynomial, RationalTF, poly_eval
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
from .blockpeak import kappa_modulus_sq
from .peaksearch import hinf_norm
from .closedform import ThetaRoots, closedform_eigenvalues, solve_thetas
from .analysis import (
    FreqSeries,
    GammaPoint,
    HarmonicVerdict,
    direct_response,
    frequency_series,
    gamma_sequence,
    harmonic_test,
    instantiate_family,
    open_loop,
    product_response,
    verify_eigen_identities,
    zeta_min,
)
from .sim import SimScenario, SineSignal, StepSignal, TimeSeries, dt_limit, simulate

__version__ = "0.1.0"

__all__ = [
    "Polynomial", "RationalTF", "poly_eval",
    "ConfigError", "DominanceCertificate", "PlatoonConfig", "SpectrumReport",
    "build_laplacian", "dominance_certificate", "fiedler_lower_bound", "laplacian_bands",
    "spectrum", "spectrum_report",
    "ThetaRoots", "closedform_eigenvalues", "solve_thetas",
    "FreqSeries", "GammaPoint", "HarmonicVerdict",
    "direct_response", "frequency_series", "gamma_sequence",
    "harmonic_test", "hinf_norm", "instantiate_family", "kappa_modulus_sq",
    "open_loop", "product_response", "verify_eigen_identities", "zeta_min",
    "SimScenario", "SineSignal", "StepSignal", "TimeSeries", "dt_limit", "simulate",
    "__version__",
]

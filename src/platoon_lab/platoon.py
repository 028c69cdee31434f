"""Platoon Laplacian construction, its reduced spectrum, and eigenvalue bounds.

The platoon is a string of ``n`` vehicles.  Vehicle 1 is the leader and is
controlled externally, so its Laplacian row is zero.  Vehicle ``i`` (2..n)
weights the spacing error to its predecessor with ``mu_i > 0`` and the error
to its follower with ``mu_i * eps_i``; the trailing vehicle has no follower,
so its asymmetry is forced to zero.  Removing the leader's row and column
leaves a tridiagonal "reduced" Laplacian whose spectrum is real, nonnegative,
and equal to the nonzero spectrum of the full matrix.  The reduced Laplacian
is carried as its (sub, diag, sup) bands, so memory stays linear in ``n``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .numerics import RationalTF

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A config, scenario or closed loop that cannot be analysed; the CLI exits 2 on it."""


@dataclass(frozen=True)
class PlatoonConfig:
    """Immutable description of one platoon.

    Parameters
    ----------
    n : int
        Vehicle count including the leader, n >= 2.
    gains : tuple of float
        mu_2 .. mu_n, coupling weight of each follower to its predecessor;
        all strictly positive, length n - 1.
    asymmetries : tuple of float
        eps_2 .. eps_n, rear/front weight ratio of each follower; nonnegative,
        length n - 1.  The last entry is forced to 0 (no follower behind).
    vehicle, controller : RationalTF
        Identical per-vehicle model G(s) and on-board controller C(s).
    ref_distance : float
        Desired inter-vehicle spacing in meters; used only for reconstructing
        absolute positions from simulated deviations.
    """

    n: int
    gains: tuple[float, ...]
    asymmetries: tuple[float, ...]
    vehicle: RationalTF
    controller: RationalTF
    ref_distance: float = 1.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ConfigError("n must be an integer >= 2")
        object.__setattr__(self, "n", int(self.n))
        gains = tuple(float(g) for g in self.gains)
        asym = tuple(float(e) for e in self.asymmetries)
        for field, values in (("gains", gains), ("asymmetries", asym)):
            if len(values) != self.n - 1:
                raise ConfigError(f"{field} must have n-1 = {self.n - 1} entries, got {len(values)}")
        if not all(math.isfinite(g) and g > 0 for g in gains):
            raise ConfigError("all gains must be finite and > 0")
        if not all(math.isfinite(e) and e >= 0 for e in asym):
            raise ConfigError("all asymmetries must be finite and >= 0")
        # The trailing vehicle has no follower; its rear weight cannot act.
        asym = asym[:-1] + (0.0,)
        if not all(math.isfinite(g + g * e) for g, e in zip(gains, asym)):
            raise ConfigError("every Laplacian diagonal entry gain*(1 + asymmetry) must be finite")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "asymmetries", asym)
        object.__setattr__(self, "ref_distance", float(self.ref_distance))


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted reduced-Laplacian eigenvalues plus analytic bounds."""

    eigenvalues: tuple[float, ...]
    fiedler: float
    gershgorin_upper: float
    fiedler_lower: float | None = None  # asymmetry-based uniform bound, None when eps_max >= 1


@dataclass(frozen=True)
class DominanceCertificate:
    """Row margins of the diagonally dominant similarity of the reduced Laplacian.

    ``p`` is the geometric scaling base of the similarity; ``row_margins`` are
    each row's diagonal minus the absolute off-diagonal sum after scaling, and
    ``lower_bound`` (their minimum) is a certified lower bound on every
    reduced-Laplacian eigenvalue.
    """

    p: float
    row_margins: tuple[float, ...]
    lower_bound: float


def build_laplacian(cfg: PlatoonConfig) -> np.ndarray:
    """Dense n-by-n platoon Laplacian: zero leader row, tridiagonal followers.

    The dense reference for :func:`verify_eigen_identities` and the tests;
    every other computation works on :func:`laplacian_bands`.
    """
    L = np.zeros((cfg.n, cfg.n))
    L[1, 0] = -cfg.gains[0]
    L[1:, 1:] = tridiagonal_matrix(*laplacian_bands(cfg))
    return L


def tridiagonal_matrix(sub, diag, sup) -> np.ndarray:
    """Dense square matrix with the given (sub, diag, sup) bands and zeros elsewhere."""
    T = np.zeros((len(diag), len(diag)))
    rows = np.arange(len(diag))
    T[rows, rows] = diag
    T[rows[1:], rows[:-1]] = sub
    T[rows[:-1], rows[1:]] = sup
    return T


def laplacian_bands(cfg: PlatoonConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced Laplacian (leader row and column dropped) as (sub, diag, sup) bands.

    ``diag`` holds the n-1 diagonal entries mu_i*(1 + eps_i); ``sub`` and
    ``sup`` hold the n-2 entries -mu_{i+1} below and -mu_i*eps_i above it.
    """
    mu = np.asarray(cfg.gains)
    diag = mu + mu * np.asarray(cfg.asymmetries)
    # The superdiagonal magnitude is derived from the rounded diagonal (within
    # one ulp of mu*eps) so that each Laplacian row sums to zero exactly in
    # floats.
    sup = -(diag[:-1] - mu[:-1])
    return -mu[1:], diag, sup


def spectrum(sub, diag, sup) -> SpectrumReport:
    """All eigenvalues of a tridiagonal reduced Laplacian, sorted ascending.

    The matrix, given by its (sub, diag, sup) bands, is symmetrized by the
    diagonal similarity with ratios d_{k+1}/d_k = sqrt(sub/super) into the
    symmetric tridiagonal matrix with off-diagonal sqrt(sub*sup); a zero
    superdiagonal entry (zero asymmetry) gives a zero off-diagonal, which
    decouples the rows above from the rows below.  One call to a standard
    implicit-shift tridiagonal eigensolver gives the eigenvalues.

    Raises
    ------
    ConfigError
        On non-finite entries, or off-diagonal products sub*sup that overflow,
        underflow to zero or have the wrong sign (no symmetrizing similarity).
    ValueError
        On band lengths that do not fit one square matrix.
    """
    sub, diag, sup = (np.asarray(b, dtype=float) for b in (sub, diag, sup))
    m = diag.size
    if diag.shape != (m,) or m == 0 or sub.shape != (m - 1,) or sup.shape != (m - 1,):
        raise ValueError("band lengths must be m-1, m, m-1 for an m-by-m tridiagonal matrix")
    if not all(np.all(np.isfinite(b)) for b in (sub, diag, sup)):
        raise ConfigError("reduced Laplacian has non-finite entries")
    with np.errstate(over="ignore"):  # an overflow is reported below
        prod = sub * sup
    if not np.all(np.isfinite(prod)) or np.any((sup != 0.0) & (prod <= 0)):
        raise ConfigError("off-diagonal sign pattern is not symmetrizable: sub*sup must be "
                          "finite, and > 0 where sup != 0")
    eigs = np.sort(eigh_tridiagonal(diag, np.sqrt(prod), eigvals_only=True))
    return SpectrumReport(
        eigenvalues=tuple(float(x) for x in eigs),
        fiedler=float(eigs[0]),
        gershgorin_upper=float(2.0 * diag.max()),
    )


def fiedler_lower_bound(cfg: PlatoonConfig) -> float | None:
    """Size-independent lower bound on the reduced-Laplacian spectrum.

    With eps_max = max asymmetry and mu_min = min gain, every eigenvalue is
    at least ``min(1, mu_min) * (1 - eps_max)**2 / (2 + 2*eps_max)``
    regardless of the platoon length: row i of the dominance certificate has
    margin at least ``mu_i * (1 - eps_max)**2 / (2 + 2*eps_max)``.  Returns
    None when eps_max >= 1 (no such bound exists on this route).

    With every gain >= 1 the scale factor is exactly 1; a gain below 1
    scales the bound down, which is logged as a warning.
    """
    eps_max = max(cfg.asymmetries)
    if eps_max >= 1.0:
        return None
    mu_min = min(cfg.gains)
    if mu_min < 1.0:
        logger.warning("min gain %.6g < 1: the uniform lower bound is scaled by it", mu_min)
    return min(1.0, mu_min) * ((1.0 - eps_max) ** 2 / (2.0 + 2.0 * eps_max))


def spectrum_report(cfg: PlatoonConfig) -> SpectrumReport:
    """Spectrum of the reduced Laplacian with the asymmetry bound attached."""
    return replace(spectrum(*laplacian_bands(cfg)), fiedler_lower=fiedler_lower_bound(cfg))


def dominance_certificate(cfg: PlatoonConfig) -> DominanceCertificate:
    """Diagonal-dominance certificate for the reduced-Laplacian spectrum.

    Scales the reduced Laplacian by the similarity P = diag(1, p, p^2, ...)
    with ``p = (1 + 1/eps_max) / 2`` and reports each row's Gershgorin-disk
    distance from zero.  Every margin is positive when eps_max < 1, which
    certifies the uniform lower bound returned by :func:`fiedler_lower_bound`.

    When eps_max == 0 the scaling base is infinite (pure predecessor
    following); the superdiagonal vanishes and the row margins reduce to the
    gains mu_i directly, which is the documented limit case.

    Raises
    ------
    ValueError
        When eps_max >= 1 ("certificate requires eps_max < 1").
    """
    eps_max = max(cfg.asymmetries)
    if eps_max >= 1.0:
        raise ValueError("certificate requires eps_max < 1")
    mu = np.asarray(cfg.gains)
    eps = np.asarray(cfg.asymmetries)
    m = cfg.n - 1

    if eps_max == 0.0:
        margins = mu.copy()
        return DominanceCertificate(
            p=math.inf,
            row_margins=tuple(float(x) for x in margins),
            lower_bound=float(margins.min()),
        )

    p = 0.5 * (1.0 + 1.0 / eps_max)
    sub, diag, sup = laplacian_bands(cfg)
    # B = P^-1 R P scales the band k above the diagonal by p**k.  Only the
    # three bands are nonzero, so B stays bounded even though p**k overflows
    # for long platoons.
    got_sub = np.concatenate([[0.0], sub * p ** -1.0])
    got_sup = np.concatenate([sup * p, [0.0]])

    # Scaled rows must reproduce [-mu/p, mu(1+eps), -p*mu*eps] exactly.
    rows = np.arange(m)
    expect_diag = mu * (1 + eps)
    expect_sub = np.where(rows > 0, -mu / p, 0.0)
    expect_sup = np.where(rows < m - 1, -p * mu * eps, 0.0)
    scale = np.maximum(1.0, np.abs(expect_diag) + np.abs(expect_sub) + np.abs(expect_sup))
    if np.any(np.abs(diag - expect_diag) > 1e-12 * scale) or np.any(
        np.abs(got_sub - expect_sub) > 1e-12 * scale
    ) or np.any(np.abs(got_sup - expect_sup) > 1e-12 * scale):
        raise ValueError("scaled rows do not match the expected similarity pattern")

    margins = diag - (np.abs(got_sub) + np.abs(got_sup))
    return DominanceCertificate(
        p=float(p),
        row_margins=tuple(float(x) for x in margins),
        lower_bound=float(margins.min()),
    )

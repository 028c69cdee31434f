"""Frequency-domain platoon analysis.

The transfer function from the second vehicle's input to the last vehicle's
position factors into a product of closed-loop blocks, one per reduced
Laplacian eigenvalue: ``T(s) = (1/mu_2) * prod_i lam_i M(s) / (1 + lam_i M(s))``
with ``M = C*G`` the per-vehicle open loop.  This module tests the blocks'
stability against the open loop's stable gain intervals (:mod:`blockpeak`)
with no pole solve per eigenvalue, evaluates the product from the eigenvalue
vector alone with z = 1/M, one complex log per block, in one bounded evaluator
for grids, single frequencies and a sweep's rounds alike, builds the one
interconnected state-space realization, which the independent oracle solves
and :mod:`sim` integrates, runs size sweeps in lockstep (:mod:`peaksearch`),
and runs the harmonic-instability test: when the spectrum admits a
size-independent positive lower bound and the closed-loop block at that bound
has a peak gain above one, the platoon's peak gain grows at least
geometrically with the vehicle count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zgbsv

from .blockpeak import _block_growth, _blocks_stable, _closed_loop_dens
from .numerics import RationalTF, _groups, poly_eval
from .peaksearch import DEFAULT_OMEGA_BAND, _best_index, _lockstep, _probe_values, _refine, _scan_grid
from .platoon import (
    ConfigError,
    PlatoonConfig,
    SpectrumReport,
    _family_log_gains,
    build_laplacian,
    instantiate_family,
    laplacian_bands,
    spectrum_report,
)

logger = logging.getLogger(__name__)

HARMONICALLY_UNSTABLE = "harmonically-unstable"
TEST_INCONCLUSIVE = "test-inconclusive"
UNSTABLE_BLOCKS = "unstable-blocks"


@dataclass(frozen=True)
class FreqSeries:
    """Sampled frequency response on a strictly increasing grid."""

    omegas: np.ndarray
    values: np.ndarray

    @property
    def magnitudes_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.values))


@dataclass(frozen=True, kw_only=True)
class HarmonicVerdict:
    """Outcome of the harmonic-instability test.

    The certified test runs at ``lambda_min_used``, the size-independent lower
    bound on the spectrum (None when the max asymmetry is >= 1, in which case
    no uniform bound is available and the test is inconclusive).  The sharper
    per-platoon peak gain at the actual Fiedler eigenvalue is recorded
    separately as ``hinf_gamma_fiedler``.  ``alpha + j*beta`` is the scaled
    open loop ``lambda_min_used * M`` evaluated at the peak frequency
    ``omega0``; whenever the peak gain exceeds one, ``alpha < -1/2`` and every
    eigenvalue's block has modulus at least ``zeta_min > 1`` there.  When
    ``omega0`` is a pole of M (a DC peak with an integrator in the loop),
    ``alpha``, ``beta`` and ``zeta_min`` are None.

    Fields are keyword-only; the ones a stage does not reach stay None.
    """

    verdict: str
    fiedler: float
    fiedler_lower: float | None
    lambda_min_used: float | None = None
    hinf_gamma_min: float | None = None
    hinf_gamma_fiedler: float | None = None
    omega0: float | None = None
    alpha: float | None = None
    beta: float | None = None
    zeta_min: float | None = None
    omega_band: tuple[float, float]


@dataclass(frozen=True)
class GammaPoint:
    """One platoon size in a peak-gain sweep."""

    n: int
    gamma: float
    gamma_root_n: float
    zeta_min_lower: float | None


def open_loop(cfg: PlatoonConfig) -> RationalTF:
    """Per-vehicle open loop M = C*G; factors are kept, never cancelled.

    Raises :class:`ConfigError` when a coefficient overflows or the denominator underflows to 0.
    """
    return _open_loop(cfg.controller, cfg.vehicle)


@lru_cache(maxsize=32)
def _open_loop(C: RationalTF, G: RationalTF) -> RationalTF:
    """:func:`open_loop`, once per (controller, vehicle): every size of a sweep shares one M."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        num, den = np.convolve(C.num.coeffs, G.num.coeffs), np.convolve(C.den.coeffs, G.den.coeffs)
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den)) and np.any(den)):
        raise ConfigError("no open loop M = C*G: a coefficient of the product overflows "
                          "or its denominator underflows to zero")
    return RationalTF(num=tuple(num), den=tuple(den))


class _Prepared(NamedTuple):
    rep: SpectrumReport
    M: RationalTF
    all_stable: bool


@lru_cache(maxsize=128)
def _prepared(cfg: PlatoonConfig) -> _Prepared:
    """Spectrum, open loop and block stability of a config.

    The closed-loop denominators of all eigenvalues are formed as one array,
    so a block that cannot be formed raises ConfigError.  ``all_stable``
    holds when every block pole has real part below -1e-9: a membership test
    of the spectrum in the open loop's stable gain intervals
    (:func:`blockpeak._blocks_stable`), with poles solved only for the
    eigenvalues at an interval's end or whose denominator loses its leading
    coefficient to round-off.  No per-block object is built.
    """
    rep = spectrum_report(cfg)
    M = open_loop(cfg)
    all_stable = _blocks_stable(M, rep.eigenvalues, _closed_loop_dens(M, rep.eigenvalues))
    if not all_stable:
        logger.warning(
            "some closed-loop blocks are unstable; frequency responses are "
            "evaluated but do not define peak gains"
        )
    return _Prepared(rep, M, all_stable)


def product_response(cfg: PlatoonConfig, omega):
    """Platoon transfer function T(j*omega) from the product of blocks.

    Accepts a scalar or an ndarray of any shape, and returns that shape.  With
    z = 1/M each block is 1/(1 + z/lam_i), so T = exp(-sum_i log1p(z/lam_i)) / mu_2:
    one complex log per block (:func:`peaksearch._probe_values`, which holds
    about 256 KiB of logs at a time).  Each frequency's logs are one contiguous
    row, which numpy sums pairwise, so a frequency gets the same bits alone as
    in any grid.  T is exactly 0 where z is infinite: num(M) = 0 or den(M)
    overflows.  A value that leaves double range is NaN or infinite, unwarned.

    Raises
    ------
    ConfigError
        If some block has a pole exactly on the imaginary axis at ``omega``:
        z/lam_i = -1, or num(M) = den(M) = 0.
    """
    rep, M, _ = _prepared(cfg)
    w = np.asarray(omega, dtype=float)
    values, pole = _probe_values([rep.eigenvalues] * w.size, cfg.gains[0], M, w.ravel())
    if pole is not None:
        raise pole
    return complex(values[0]) if w.ndim == 0 else values.reshape(w.shape)


@lru_cache(maxsize=32)
def _oracle_realization(cfg: PlatoonConfig) -> tuple[np.ndarray, np.ndarray]:
    """Reduced-platoon realization driven by the leader: A in band storage, and C_m.

    The one builder of A = I (x) A_m - R (x) B_m C_m, R the reduced
    Laplacian: each vehicle carries the controllable-canonical realization
    of the open loop M = C*G, with A_m's unit superdiagonal and last row
    -den[:-1]/den[-1], B_m = e_m and C_m = c = num/den[-1].  The leader's
    position enters vehicle 2 through B = mu_2 e_m.  Only the last row of a
    vehicle's block row couples, to vehicles i-1, i, i+1 through -R[i, j] c,
    so with m = len(c) A has lower bandwidth 2m-1 and upper bandwidth m; ab
    is its 3m-by-(n-1)m LAPACK band storage, A[i, j] = ab[m + i - j, j]:
    O(n*m**2) floats where the dense A takes ((n-1)*m)**2.  The oracle solves
    with it and :func:`sim.stream` integrates it, from one cached, read-only
    copy per config.

    Raises
    ------
    ConfigError
        "open loop must be proper" when the numerator degree of M is not
        below its denominator degree (the position output has no
        feedthrough).
    """
    M = open_loop(cfg)
    if M.den.degree == 0 or M.num.degree >= M.den.degree and not M.num.is_zero:
        raise ConfigError(
            "open loop must be proper: numerator degree "
            f"{M.num.degree} is not below denominator degree {M.den.degree}"
        )
    den, num = np.asarray(M.den.coeffs), np.asarray(M.num.coeffs)
    m = den.size - 1
    a, c = -(den[:-1] / den[-1]), np.zeros(m)
    c[:num.size] = num / den[-1]
    sub, diag, sup = laplacian_bands(cfg)
    ab = np.zeros((3 * m, cfg.n - 1, m))  # ab[r, v, k] is band row r at vehicle v's state k
    ab[m - 1, :, 1:] = 1.0  # A_m's unit superdiagonal
    for k in range(m):
        ab[2 * m - 1 - k, :, k] = a[k] - diag * c[k]
        ab[3 * m - 1 - k, :-1, k] = -(sub * c[k])
        ab[m - 1 - k, 1:, k] = -(sup * c[k])
    ab = ab.reshape(3 * m, -1)
    ab.flags.writeable = c.flags.writeable = False
    return ab, c


def direct_response(cfg: PlatoonConfig, omega: float) -> complex:
    """T(j*omega) from one banded solve on the full interconnected state space.

    This is the oracle path: it never uses the block product.  The banded LU
    of j*omega*I - A (LAPACK ``gbsv``, partial pivoting, in place on one
    array) takes time linear in the vehicle count.  At omega = 0 the solve is
    singular whenever the open loop has an integrator, so the DC value is
    returned through the block formula, which is finite there.
    """
    if omega == 0.0:
        return product_response(cfg, 0.0)
    ab, c = _oracle_realization(cfg)
    m = c.size
    kl = 2 * m - 1
    # gbsv's layout, kl rows for the LU's fill-in above the bands, in Fortran order: factored in place
    lhs = np.zeros((kl + ab.shape[0], ab.shape[1]), dtype=complex, order="F")
    np.negative(ab, out=lhs[kl:], dtype=complex)
    lhs[kl + m] += 1j * omega  # band row m is the main diagonal
    b = np.zeros(ab.shape[1], dtype=complex)
    b[m - 1] = 1.0
    z, info = zgbsv(kl, m, lhs, b, overwrite_ab=True, overwrite_b=True)[2:]  # a non-finite A is reported below
    if info:
        raise ValueError(f"response undefined at omega={omega}")
    val = complex(c @ z[-m:])
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise ValueError(f"response undefined at omega={omega}")
    return val


def zeta_min(cfg: PlatoonConfig, omega_band: tuple[float, float] = DEFAULT_OMEGA_BAND) -> float | None:
    """Per-block growth factor of this platoon's peak gain.

    Takes the block at the actual Fiedler eigenvalue, locates its peak
    frequency, and minimizes the block modulus there over gain ratios
    kappa in [1, lam_max/lam_min] from the actual spectrum.  The result
    exceeds one whenever the minimal block's peak gain does, and then the
    platoon's peak gain is at least ``zeta_min**(n-1)`` (up to the 1/mu_2
    input scaling).  It is None, like ``HarmonicVerdict.zeta_min``, when
    that peak gain is not above 1 or sits at a pole of M.
    """
    rep, M, *_ = _prepared(cfg)
    return _block_growth([rep.fiedler], [rep.eigenvalues[-1]], M, omega_band)[0][4]


def harmonic_test(cfg: PlatoonConfig,
                  omega_band: tuple[float, float] = DEFAULT_OMEGA_BAND) -> HarmonicVerdict:
    """Sufficient test for harmonic instability of the platoon family.

    Runs in three stages: every closed-loop block of the instantiated platoon
    must be stable (otherwise the verdict is "unstable-blocks" and the
    frequency analysis is skipped); the spectrum must admit a
    size-independent lower bound, i.e. max asymmetry < 1 (otherwise
    "test-inconclusive"); and the closed-loop block at that bound must have
    peak gain above one, which yields "harmonically-unstable".  The test is
    sufficient only: "test-inconclusive" never asserts stability; it is also
    the verdict, with a warning, when no block exists at the bound.

    The per-platoon peak gain at the actual Fiedler eigenvalue is recorded in
    ``hinf_gamma_fiedler`` as a sharper, size-specific diagnostic.
    """
    prep = _prepared(cfg)
    rep, M = prep.rep, prep.M
    known = dict(fiedler=rep.fiedler, fiedler_lower=rep.fiedler_lower, omega_band=omega_band)
    if not prep.all_stable:
        return HarmonicVerdict(verdict=UNSTABLE_BLOCKS, **known)

    gamma_fiedler = _block_growth([rep.fiedler], [rep.eigenvalues[-1]], M, omega_band)[0][0]
    if rep.fiedler_lower is None:
        return HarmonicVerdict(verdict=TEST_INCONCLUSIVE, hinf_gamma_fiedler=gamma_fiedler, **known)

    try:
        gamma_u, w0, alpha, beta, zeta = _block_growth([rep.fiedler_lower], [rep.eigenvalues[-1]], M, omega_band)[0]
    except ConfigError as exc:  # the bound is no eigenvalue, so its block may not exist
        logger.warning("the test cannot run at the uniform bound: %s", exc)
        return HarmonicVerdict(verdict=TEST_INCONCLUSIVE, lambda_min_used=rep.fiedler_lower,
                               hinf_gamma_fiedler=gamma_fiedler, **known)
    return HarmonicVerdict(
        verdict=HARMONICALLY_UNSTABLE if gamma_u > 1.0 else TEST_INCONCLUSIVE,
        lambda_min_used=rep.fiedler_lower,
        hinf_gamma_min=gamma_u,
        hinf_gamma_fiedler=gamma_fiedler,
        omega0=w0,
        alpha=alpha,
        beta=beta,
        zeta_min=zeta,
        **known,
    )


def gamma_sequence(template: PlatoonConfig, n_list,
                   omega_band: tuple[float, float] = DEFAULT_OMEGA_BAND) -> list[GammaPoint]:
    """Peak platoon gain for each size in ``n_list``.

    Each point is bit for bit :func:`peaksearch.hinf_norm` of :func:`product_response`
    and :func:`zeta_min` for its size, and a sweep raises the first error a
    loop over the sizes would.  The scans come from one continuant pass
    (:func:`platoon._family_log_gains`), or, where it is NaN, from the product.
    In the runs of :func:`numerics._groups` over the sizes' eigenvalues, the
    Brent searches run in lockstep and the block peaks are one stacked solve.
    """
    grid, sizes, points, log_t = _scan_grid(*omega_band), [int(n) for n in n_list], [], None
    for start, stop in _groups([n - 1 for n in sizes]):
        group = sizes[start:stop]
        reps, searches, error = [], [], None  # the spectra and searches of the sizes so far
        for n in group:  # a size's config faults come first, then its scan's
            try:
                cfg = instantiate_family(template, n)
                rep, M, _ = _prepared(cfg)
                if log_t is None:  # one pass serves every size
                    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite scan is reported by _best_index
                        den, num = poly_eval(M.den, 1j * grid), poly_eval(M.num, 1j * grid)
                    log_t = _family_log_gains(template, sizes, den, num)
                with np.errstate(over="ignore"):  # an overflow is reported by _best_index
                    mags = np.exp(log_t[n])
                if np.isnan(mags).any():
                    mags = np.abs(product_response(cfg, grid))
                searches.append(_refine(grid, _best_index(grid, mags)))
            except Exception as exc:  # raised once every earlier size has run its later stages
                error = exc
                break
            reps.append(rep)
        # every member's first gain, the input scaling, is the template's
        peaks, fault = _lockstep(searches, lambda ks, omegas: _probe_values(
            [reps[k].eigenvalues for k in ks], template.gains[0], M, omegas))
        if fault is not None:
            error, reps = fault, reps[:peaks.index(None)]
        if reps:
            growth = _block_growth([r.fiedler for r in reps], [r.eigenvalues[-1] for r in reps], M, omega_band)
            points += [GammaPoint(n=n, gamma=gamma, gamma_root_n=gamma ** (1.0 / n), zeta_min_lower=g[4])
                       for n, (gamma, _), g in zip(group, peaks, growth)]
        if error is not None:
            raise error
    return points


def verify_eigen_identities(cfg: PlatoonConfig) -> tuple[np.ndarray, float]:
    """Numerical residuals of the eigenvector weight identities.

    With V the eigenvector matrix of the full Laplacian, g = V^-1 e_2 and
    h_i = g_i * V[n-1, i], the weights of the nonzero-eigenvalue blocks
    satisfy ``sum h_i lam_i^m = 0`` for m = 0..n-3 and
    ``sum h_i / lam_i = 1/mu_2``.  Returns the absolute residuals of the
    power sums and of the inverse sum.

    Raises
    ------
    ValueError
        "identities require simple eigenvalues" when two reduced eigenvalues
        are closer than 1e-8 (near-defective eigenvectors).
    """
    L = build_laplacian(cfg)
    n = cfg.n
    w, V = np.linalg.eig(L)
    if np.max(np.abs(w.imag)) > 1e-8:
        raise ValueError("identities require simple eigenvalues")
    w = w.real
    V = V.real
    k0 = int(np.argmin(np.abs(w)))
    keep = [k for k in range(n) if k != k0]
    lam = w[keep]
    # rounded subtraction is monotone, so the closest pair is adjacent once sorted
    if n > 2 and np.diff(np.sort(lam)).min() <= 1e-8:
        raise ValueError("identities require simple eigenvalues")
    e2 = np.zeros(n)
    e2[1] = 1.0
    g = np.linalg.solve(V, e2)
    h = (g * V[n - 1, :])[keep]
    power_res = np.array([abs(np.sum(h * lam ** m)) for m in range(0, n - 2)])
    inverse_res = abs(np.sum(h / lam) - 1.0 / cfg.gains[0])
    return power_res, float(inverse_res)


def frequency_series(cfg: PlatoonConfig, n_points: int = 400,
                     omega_band: tuple[float, float] = DEFAULT_OMEGA_BAND) -> FreqSeries:
    """Leader-to-last-vehicle frequency response mu_2*T on a log grid, from one :func:`product_response`.

    Where the product of blocks leaves double range (n of a few thousand) or
    Horner evaluation of M overflows (a very wide band), a value is NaN or
    infinite; such values are kept, and one warning says how many there are.
    """
    grid = _scan_grid(*omega_band, n_points)
    values = product_response(cfg, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # complex mu_2 * inf has a NaN part; it is counted below
        values = cfg.gains[0] * values
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        logger.warning("%d of %d frequency response values are not finite; they are kept as computed",
                       bad, grid.size)
    return FreqSeries(omegas=grid, values=values)


def write_freq_csv(series: FreqSeries, fh) -> None:
    """CSV emission: header omega_rad_s,re,im,mag_db at full double precision."""
    fh.write("omega_rad_s,re,im,mag_db\n")
    for w, v, db in zip(series.omegas, series.values, series.magnitudes_db):
        fh.write(f"{w:.17g},{v.real:.17g},{v.imag:.17g},{db:.17g}\n")

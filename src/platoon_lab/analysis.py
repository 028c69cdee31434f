"""Frequency-domain platoon analysis.

The transfer function from the second vehicle's input to the last vehicle's
position factors into a product of closed-loop blocks, one per reduced
Laplacian eigenvalue: ``T(s) = (1/mu_2) * prod_i lam_i M(s) / (1 + lam_i M(s))``
with ``M = C*G`` the per-vehicle open loop.  This module builds all block
denominators in one place, solves their poles in one stacked call per degree,
evaluates the product from the eigenvalue vector alone (in log-magnitude/phase
form so long platoons cannot overflow), provides the full interconnected
state-space response as an independent oracle, and runs the
harmonic-instability test: when the spectrum admits a size-independent
positive lower bound and the closed-loop block at that bound has a peak gain
above one, the platoon's peak gain grows at least geometrically with the
vehicle count.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import (
    Polynomial,
    RationalTF,
    _row_degrees,
    companion_roots,
    poly_eval,
    poly_mul,
    poly_roots,
    rtf_eval,
)
from .platoon import (
    ConfigError,
    PlatoonConfig,
    SpectrumReport,
    build_laplacian,
    laplacian_bands,
    spectrum_report,
    tridiagonal_matrix,
)

logger = logging.getLogger(__name__)

DEFAULT_OMEGA_BAND = (1e-3, 1e3)

HARMONICALLY_UNSTABLE = "harmonically-unstable"
TEST_INCONCLUSIVE = "test-inconclusive"
UNSTABLE_BLOCKS = "unstable-blocks"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_N_SCAN = 2000  # coarse log-grid size of the peak search

# A closed-loop pole is stable when its real part is below this.
_STABLE_RE = -1e-9


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
    C, G = cfg.controller, cfg.vehicle
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        num, den = np.convolve(C.num.coeffs, G.num.coeffs), np.convolve(C.den.coeffs, G.den.coeffs)
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den)) and np.any(den)):
        raise ConfigError("no open loop M = C*G: a coefficient of the product overflows "
                          "or its denominator underflows to zero")
    return RationalTF(num=tuple(num), den=tuple(den))


def _closed_loop_dens(M: RationalTF, lams) -> np.ndarray:
    """Closed-loop denominators ``den(M) + lam*num(M)``, one zero-padded row per gain.

    Raises :class:`ConfigError` naming the first gain whose row is not finite or is zero.
    """
    a, b = np.asarray(M.den.coeffs), np.asarray(M.num.coeffs)
    lams = np.asarray(lams, dtype=float)
    dens = np.zeros((lams.size, max(a.size, b.size)))
    dens[:, :a.size] = a
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        dens[:, :b.size] += lams[:, None] * b
    finite = np.all(np.isfinite(dens), axis=1)
    bad = np.flatnonzero(~finite | ~np.any(dens, axis=1))
    if bad.size:
        fault = "is identically zero" if finite[bad[0]] else "has a non-finite coefficient"
        raise ConfigError(f"no closed-loop block at lam={lams[bad[0]]:.17g}: den(M) + lam*num(M) {fault}")
    return dens


def make_block(lam: float, M: RationalTF) -> RationalTF:
    """Closed-loop block ``lam*M / (1 + lam*M)`` for feedback gain ``lam`` > 0.

    The block is lam*num(M) / (den(M) + lam*num(M)), which must be finite
    and not identically zero; with an integrator in M its DC gain is exactly 1.
    """
    if not lam > 0:
        raise ValueError("feedback gain must be positive")
    den = tuple(_closed_loop_dens(M, [lam])[0])
    return RationalTF(num=poly_mul(Polynomial((float(lam),)), M.num), den=den)


def block_stable(tf: RationalTF) -> bool:
    """True iff every pole of ``tf`` has real part below -1e-9.

    A constant denominator has no poles, so such a block is stable.
    """
    return tf.den.degree == 0 or all(r.real < _STABLE_RE for r in poly_roots(tf.den))


class _Prepared(NamedTuple):
    rep: SpectrumReport
    M: RationalTF
    all_stable: bool
    re_max: float
    im_max: float


@lru_cache(maxsize=128)
def _prepared(cfg: PlatoonConfig) -> _Prepared:
    """Spectrum, open loop and closed-loop pole extremes of a config.

    The closed-loop denominators of all eigenvalues are formed as one array
    and the rows of each degree are solved in one stacked companion-matrix
    eigenvalue call; no per-block object is built.  A row of degree 0 is a
    zero-order block, which has no poles.  ``re_max`` and ``im_max`` are the
    largest real part and the largest |imaginary part| over all block poles
    (-inf and 0 when no block has a pole), and ``all_stable`` applies the
    rule of :func:`block_stable` to ``re_max``; a block that cannot be formed raises ConfigError.
    """
    rep = spectrum_report(cfg)
    M = open_loop(cfg)
    dens = _closed_loop_dens(M, rep.eigenvalues)
    degrees = _row_degrees(dens)
    re_max, im_max = -math.inf, 0.0
    for d in np.unique(degrees[degrees > 0]):
        roots = companion_roots(dens[degrees == d, :d + 1])
        re_max = max(re_max, float(roots.real.max()))
        im_max = max(im_max, float(np.abs(roots.imag).max()))
    all_stable = re_max < _STABLE_RE
    if not all_stable:
        logger.warning(
            "some closed-loop blocks are unstable; frequency responses are "
            "evaluated but do not define peak gains"
        )
    return _Prepared(rep, M, all_stable, re_max, im_max)


def _block_growth(lam: float, rep: SpectrumReport, M: RationalTF, band: tuple[float, float]):
    """Peak of the block at ``lam`` and the per-block growth it certifies.

    Returns ``(gamma, omega0, alpha, beta, zeta)``: the block's peak gain over
    ``band`` and its frequency, ``alpha + j*beta = lam*M(j*omega0)``, and the
    minimum block modulus there over gain ratios kappa in
    [1, lam_max/lam].  ``alpha`` and ``beta`` are None at a pole of M;
    ``zeta`` is None then and whenever ``gamma`` does not exceed one.
    """
    tf = make_block(lam, M)
    gamma, w0 = hinf_norm(lambda w: rtf_eval(tf, 1j * np.asarray(w, dtype=float)), *band)
    if poly_eval(M.den, 1j * w0) == 0:
        return gamma, w0, None, None, None
    ab = lam * rtf_eval(M, 1j * w0)
    zeta = None
    if gamma > 1.0:
        zeta = _min_block_modulus(ab.real, ab.imag, rep.eigenvalues[-1] / lam)
    return gamma, w0, ab.real, ab.imag, zeta


def product_response(cfg: PlatoonConfig, omega):
    """Platoon transfer function T(j*omega) from the product of blocks.

    Accepts a scalar or an ndarray of frequencies.  The product over the n-1
    blocks is accumulated in log-magnitude and phase so that long platoons
    with large per-block gains stay inside floating-point range.

    Raises
    ------
    ValueError
        If some block has a pole exactly on the imaginary axis at ``omega``.
    """
    rep, M, *_ = _prepared(cfg)
    scalar = np.ndim(omega) == 0
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    s = 1j * w
    bq = poly_eval(M.num, s)
    ap = poly_eval(M.den, s)
    lams = np.asarray(rep.eigenvalues)[:, None]
    num = lams * bq[None, :]
    den = ap[None, :] + num
    if np.any(den == 0):
        bad = w[np.nonzero(np.any(den == 0, axis=0))[0][0]]
        raise ValueError(f"response undefined at omega={bad}: closed-loop pole on the imaginary axis")
    with np.errstate(divide="ignore"):
        logmag = np.sum(np.log(np.abs(num)) - np.log(np.abs(den)), axis=0)
    phase = np.sum(np.angle(num) - np.angle(den), axis=0)
    out = np.exp(logmag + 1j * phase) / cfg.gains[0]
    return complex(out[0]) if scalar else out


def controllable_canonical(tf: RationalTF) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Controllable-canonical realization (A, B, C) of a strictly proper tf.

    The position output has no direct feedthrough, so the numerator degree
    must be below the denominator degree.
    """
    if tf.num.degree >= tf.den.degree and not tf.num.is_zero:
        raise ConfigError(
            "open loop must be proper: numerator degree "
            f"{tf.num.degree} is not below denominator degree {tf.den.degree}"
        )
    den = np.asarray(tf.den.coeffs)
    num = np.asarray(tf.num.coeffs)
    lead = den[-1]
    den = den / lead
    num = num / lead
    n = len(den) - 1
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den[:-1]
    B = np.zeros(n)
    B[-1] = 1.0
    C = np.zeros(n)
    C[: len(num)] = num
    return A, B, C


def build_state_space(cfg: PlatoonConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced-platoon realization driven by the leader's position.

    Each vehicle carries a controllable-canonical realization of the open
    loop M = C*G; the vehicles are coupled through the reduced Laplacian, and
    the leader's position enters vehicle 2 with gain mu_2, so the map from
    leader position to the last vehicle is mu_2 times the platoon transfer
    function (unit DC gain with an integrator in the loop).  Outputs are the
    positions of all vehicles 2..n.

    Raises
    ------
    ConfigError
        "open loop must be proper" when the numerator degree of M is not
        below its denominator degree (the position output has no
        feedthrough).
    """
    Am, Bm, Cm = controllable_canonical(open_loop(cfg))
    R = tridiagonal_matrix(*laplacian_bands(cfg))
    m = Am.shape[0]
    nn = cfg.n - 1
    A = np.kron(np.eye(nn), Am)
    A -= np.kron(R, np.outer(Bm, Cm))
    B = np.zeros(nn * m)
    B[:m] = cfg.gains[0] * Bm
    C = np.kron(np.eye(nn), Cm)
    return A, B, C


@lru_cache(maxsize=32)
def _oracle_realization(cfg: PlatoonConfig):
    """The realization of :func:`build_state_space` cut to T(s), cached per config.

    The input enters vehicle 2 without the leader gain mu_2, and the output
    is the last vehicle's position alone.
    """
    A, B, C = build_state_space(cfg)
    return A, B / cfg.gains[0], C[-1].copy()


def direct_response(cfg: PlatoonConfig, omega: float) -> complex:
    """T(j*omega) from one dense solve on the full interconnected state space.

    This is the oracle path: it never uses the block product.  At omega = 0
    the solve is singular whenever the open loop has an integrator, so the DC
    value is returned through the block formula, which is finite there.
    """
    if omega == 0.0:
        return product_response(cfg, 0.0)
    A, B, C = _oracle_realization(cfg)
    dim = A.shape[0]
    try:
        z = np.linalg.solve(1j * omega * np.eye(dim) - A, B)
    except np.linalg.LinAlgError:
        raise ValueError(f"response undefined at omega={omega}") from None
    val = complex(C @ z)
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise ValueError(f"response undefined at omega={omega}")
    return val


def _mag_at(response, omega: float) -> float:
    val = complex(np.asarray(response(omega)).reshape(()))
    mag = abs(val)
    if not math.isfinite(mag):
        raise ValueError(f"non-finite response at omega={omega}")
    return mag


def hinf_norm(response, omega_lo: float = DEFAULT_OMEGA_BAND[0],
              omega_hi: float = DEFAULT_OMEGA_BAND[1]):
    """Peak magnitude of a frequency response over a band, plus its location.

    Parameters
    ----------
    response : callable
        omega -> complex value; must accept an ndarray of frequencies.
    omega_lo, omega_hi : float
        Scan band in rad/s (log-spaced coarse scan of 2000 points before
        golden-section refinement).

    Returns
    -------
    (gamma, omega0) : tuple of float
        ``gamma`` is the larger of the refined band peak and the DC value;
        ``omega0`` is its frequency (0.0 when DC wins).  When several scan
        points tie within 1e-9 the smallest frequency seeds the refinement.

    Notes
    -----
    The reported value is the maximum over the scanned band plus DC, which
    equals the supremum over all frequencies for responses that roll off
    outside the band; widen the band for systems with activity outside it.
    """
    if not 0 < omega_lo < omega_hi:
        raise ValueError("need 0 < omega_lo < omega_hi")
    grid = np.logspace(math.log10(omega_lo), math.log10(omega_hi), _N_SCAN)
    mags = np.abs(np.asarray(response(grid)))
    if not np.all(np.isfinite(mags)):
        bad = grid[np.nonzero(~np.isfinite(mags))[0][0]]
        raise ValueError(f"non-finite response at omega={bad}")
    top = float(mags.max())
    i = int(np.nonzero(mags >= top * (1.0 - 1e-9))[0][0])
    best_mag, best_w = float(mags[i]), float(grid[i])

    # golden-section on log-frequency inside the bracketing cell pair
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, _N_SCAN - 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _mag_at(response, math.exp(c))
    fd = _mag_at(response, math.exp(d))
    while b - a > 1e-8:  # log-width equals relative width in omega
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _mag_at(response, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _mag_at(response, math.exp(d))
        for fm, wm in ((fc, math.exp(c)), (fd, math.exp(d))):
            if fm > best_mag:
                best_mag, best_w = fm, wm

    dc = _mag_at(response, 0.0)
    if dc > best_mag:
        return dc, 0.0
    return best_mag, best_w


def kappa_modulus_sq(kappa: float, alpha: float, beta: float) -> float:
    """Squared modulus of the closed loop at gain ratio ``kappa``.

    With ``alpha + j*beta`` the scaled open loop at the peak frequency, the
    block for ``kappa`` times that gain has squared modulus
    ``1 - (2*kappa*alpha + 1) / ((kappa*alpha + 1)**2 + kappa**2 * beta**2)``;
    for ``alpha < -1/2`` and ``kappa >= 1`` this exceeds one.
    """
    den = (kappa * alpha + 1.0) ** 2 + (kappa * beta) ** 2
    if den <= 0.0:
        raise ValueError("closed-loop pole at the peak frequency: zero denominator")
    return 1.0 - (2.0 * kappa * alpha + 1.0) / den


def _min_block_modulus(alpha: float, beta: float, kappa_max: float) -> float:
    """Minimum block modulus over gain ratios kappa in [1, kappa_max].

    d kappa_modulus_sq / d kappa = 2*kappa*r*(alpha*kappa + 1) / D**2 with
    r = alpha**2 + beta**2 and D its denominator, so the only positive
    stationary point, kappa = -1/alpha, is a maximum and the minimum lies at
    an end of the interval.
    """
    return math.sqrt(min(kappa_modulus_sq(1.0, alpha, beta),
                         kappa_modulus_sq(kappa_max, alpha, beta)))


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
    return _block_growth(rep.fiedler, rep, M, omega_band)[4]


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

    gamma_fiedler = _block_growth(rep.fiedler, rep, M, omega_band)[0]
    if rep.fiedler_lower is None:
        return HarmonicVerdict(verdict=TEST_INCONCLUSIVE, hinf_gamma_fiedler=gamma_fiedler, **known)

    try:
        gamma_u, w0, alpha, beta, zeta = _block_growth(rep.fiedler_lower, rep, M, omega_band)
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


def instantiate_family(template: PlatoonConfig, n: int) -> PlatoonConfig:
    """Platoon of size ``n`` from a template's repeating gain/asymmetry rule.

    The template's trailing asymmetry is the structurally forced zero, not
    part of the rule, so it is excluded from the cycle whenever the template
    has more than one follower.
    """
    gain_rule = template.gains
    asym_rule = template.asymmetries[:-1] if len(template.asymmetries) > 1 else template.asymmetries
    gains = tuple(itertools.islice(itertools.cycle(gain_rule), n - 1))
    asym = tuple(itertools.islice(itertools.cycle(asym_rule), n - 1))
    return PlatoonConfig(
        n=n,
        gains=gains,
        asymmetries=asym,
        vehicle=template.vehicle,
        controller=template.controller,
        ref_distance=template.ref_distance,
    )


def gamma_sequence(template: PlatoonConfig, n_list,
                   omega_band: tuple[float, float] = DEFAULT_OMEGA_BAND) -> list[GammaPoint]:
    """Peak platoon gain for each size in ``n_list``.

    For every n the template is instantiated, gamma_n is the peak of the
    product-form response over the band, and the per-block growth factor is
    attached as :func:`zeta_min` gives it (None when undefined).
    """
    points = []
    for n in n_list:
        cfg = instantiate_family(template, int(n))
        gamma, _ = hinf_norm(lambda w: product_response(cfg, w), *omega_band)
        points.append(GammaPoint(
            n=int(n),
            gamma=gamma,
            gamma_root_n=gamma ** (1.0 / n),
            zeta_min_lower=zeta_min(cfg, omega_band),
        ))
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
    if n > 2:
        gaps = np.abs(np.subtract.outer(lam, lam))[~np.eye(n - 1, dtype=bool)]
        if gaps.min() <= 1e-8:
            raise ValueError("identities require simple eigenvalues")
    g = np.linalg.solve(V, np.eye(n)[:, 1])
    h = (g * V[n - 1, :])[keep]
    power_res = np.array([abs(np.sum(h * lam ** m)) for m in range(0, n - 2)])
    inverse_res = abs(np.sum(h / lam) - 1.0 / cfg.gains[0])
    return power_res, float(inverse_res)


def frequency_series(cfg: PlatoonConfig, n_points: int = 400,
                     omega_band: tuple[float, float] = DEFAULT_OMEGA_BAND) -> FreqSeries:
    """Leader-to-last-vehicle frequency response mu_2*T on a log grid."""
    grid = np.logspace(math.log10(omega_band[0]), math.log10(omega_band[1]), n_points)
    values = cfg.gains[0] * product_response(cfg, grid)
    return FreqSeries(omegas=grid, values=values)


def write_freq_csv(series: FreqSeries, fh) -> None:
    """CSV emission: header omega_rad_s,re,im,mag_db at full double precision."""
    fh.write("omega_rad_s,re,im,mag_db\n")
    for w, v, db in zip(series.omegas, series.values, series.magnitudes_db):
        fh.write(f"{w:.17g},{v.real:.17g},{v.imag:.17g},{db:.17g}\n")

"""Platoon Laplacian construction, its reduced spectrum, and eigenvalue bounds.

The platoon is a string of ``n`` vehicles.  Vehicle 1 is the leader and is
controlled externally, so its Laplacian row is zero.  Vehicle ``i`` (2..n)
weights the spacing error to its predecessor with ``mu_i > 0`` and the error
to its follower with ``mu_i * eps_i``; the trailing vehicle has no follower,
so its asymmetry is forced to zero.  Removing the leader's row and column
leaves a tridiagonal "reduced" Laplacian whose spectrum is real, nonnegative,
and equal to the nonzero spectrum of the full matrix.  The reduced Laplacian
is carried as its (sub, diag, sup) bands, so memory stays linear in ``n``;
:func:`build_laplacian` is the dense reference.  A template's repeating
gain/asymmetry rule instantiates a family of platoons, one per size, whose
reduced Laplacians share their leading blocks; one continuant pass over the
largest member's bands, or for a rule of one gain and one asymmetry the
continuant's closed form, gives the platoon gain of every member on a
frequency grid.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .numerics import RationalTF

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A config, scenario or closed loop that cannot be analysed; the CLI exits 2 on it."""


def _check_fits(shape, message: str, dtype=float) -> None:
    """Raise ConfigError(message) unless numpy can reserve an array of this shape and dtype.

    ``np.empty`` reserves address space only, so the probe is cheap; numpy
    raises ValueError or OverflowError for a size beyond what an index can
    address and MemoryError for one the system refuses.
    """
    try:
        np.empty(shape, dtype)
    except (MemoryError, ValueError, OverflowError):
        raise ConfigError(message) from None


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
    """

    n: int
    gains: tuple[float, ...]
    asymmetries: tuple[float, ...]
    vehicle: RationalTF
    controller: RationalTF

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


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Reduced-Laplacian eigenvalues, ascending in a read-only array, plus analytic bounds."""

    eigenvalues: np.ndarray
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
    sub, diag, sup = laplacian_bands(cfg)
    L = np.zeros((cfg.n, cfg.n))
    L[1, 0] = -cfg.gains[0]
    k = np.arange(1, cfg.n)
    L[k, k] = diag
    L[k[1:], k[:-1]] = sub
    L[k[:-1], k[1:]] = sup
    return L


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


def _toeplitz_corner_eigenvalues(sub, diag, sup, prod) -> np.ndarray | None:
    """Ascending eigenvalues of uniform bands in O(m), or None when the bands are not uniform.

    Uniform means m = diag.size >= 2, one product sub*sup = b**2 > 0, one
    value a on ``diag[:-1]`` and kappa = (a - diag[-1]) / b in [0, 1]: a
    platoon with one gain and one asymmetry eps <= 1 (kappa = sqrt(eps)).
    The symmetrized matrix is then tridiagonal Toeplitz (a, -b) except for
    its last diagonal entry a - kappa*b.  The vector sin(j*theta) satisfies
    every row but the last with the eigenvalue a - 2b cos(theta); the last
    row holds where sin((m+1)theta) = kappa sin(m*theta), that is where
    h_k(theta) = (m+1)theta - k*pi + atan2(kappa sin theta, 1 - kappa cos theta)
    vanishes for some k = 1..m.  As h_k' >= m + 1/2, h_k has exactly one root
    in ((k-1)pi/(m+1), k*pi/(m+1)], which Newton's method, started at the
    right end and clipped to that bracket, reaches in two to five steps
    (one at kappa = 0).  The eigenvalue is taken in the form
    (a - 2b) + 4b sin(theta/2)**2, which does not cancel at the small end.
    """
    m = diag.size
    if m < 2 or not prod[0] > 0.0 or np.any(prod != prod[0]) or np.any(diag[:-1] != diag[0]):
        return None
    a, b = float(diag[0]), math.sqrt(prod[0])
    kappa = (a - float(diag[-1])) / b
    if not 0.0 <= kappa <= 1.0:
        return None
    k = np.arange(1.0, m + 1.0)
    hi = k * (math.pi / (m + 1))
    lo = hi - math.pi / (m + 1)
    theta = hi
    for _ in range(40):
        s = np.sin(0.5 * theta) ** 2  # 1 - kappa cos(theta) = (1 - kappa) + 2 kappa s, exact at kappa = 1
        # the atan2 as the phase of a complex log: np.arctan2 pages in 64-128 KiB of code no other path runs
        psi = np.log(((1.0 - kappa) + 2.0 * kappa * s) + 1j * (kappa * np.sin(theta))).imag
        h = (m + 1) * theta - k * math.pi + psi
        dh = (m + 1) + kappa * ((1.0 - kappa) - 2.0 * s) / ((1.0 - kappa) ** 2 + 4.0 * kappa * s)
        prev, theta = theta, np.clip(theta - h / dh, lo, hi)
        if np.all(np.abs(theta - prev) <= 2.0 ** -50 * prev):
            break
    # A row that sums to zero with negative off-diagonals has a = u + v, so
    # a - 2b = (sqrt(u) - sqrt(v))**2 = (u - v)**2 / (a + 2b), with no
    # cancellation as v approaches u (eps approaching 1).
    u, v = -float(sub[0]), -float(sup[0])
    gap = (u - v) * ((u - v) / (a + 2.0 * b)) if u > 0.0 and a == u + v else a - 2.0 * b
    return gap + (4.0 * b) * np.sin(0.5 * theta) ** 2


def spectrum(sub, diag, sup) -> SpectrumReport:
    """All eigenvalues of a tridiagonal reduced Laplacian, sorted ascending.

    The matrix, given by its (sub, diag, sup) bands, is symmetrized by the
    diagonal similarity with ratios d_{k+1}/d_k = sqrt(sub/super) into the
    symmetric tridiagonal matrix with off-diagonal sqrt(sub*sup); a zero
    superdiagonal entry (zero asymmetry) gives a zero off-diagonal, which
    decouples the rows above from the rows below.  Uniform bands (one gain,
    one asymmetry eps in (0, 1], at least two rows) have their eigenvalues
    in O(m) from the phase equation of :func:`_toeplitz_corner_eigenvalues`;
    every other matrix goes to a standard implicit-shift tridiagonal
    eigensolver, O(m**2).  Either array, ascending, is the report's, made
    read-only.

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
    eigs = _toeplitz_corner_eigenvalues(sub, diag, sup, prod)
    if eigs is None:
        eigs = eigh_tridiagonal(diag, np.sqrt(prod), eigvals_only=True)
    eigs.flags.writeable = False
    return SpectrumReport(
        eigenvalues=eigs,
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


@lru_cache(maxsize=128)
def spectrum_report(cfg: PlatoonConfig) -> SpectrumReport:
    """Spectrum of the reduced Laplacian with the asymmetry bound attached.

    Cached per config, so every command on one config in one process pays
    one spectrum; the min-gain warning of :func:`fiedler_lower_bound` is
    logged on a cache miss only.
    """
    return replace(spectrum(*laplacian_bands(cfg)), fiedler_lower=fiedler_lower_bound(cfg))


def dominance_certificate(cfg: PlatoonConfig) -> DominanceCertificate:
    """Diagonal-dominance certificate for the reduced-Laplacian spectrum.

    Scales the reduced Laplacian R by the similarity P = diag(1, p, p^2, ...)
    with ``p = (1 + 1/eps_max) / 2`` and reports each row's Gershgorin-disk
    distance from zero.  Row i of P^-1 R P is [-mu_i/p, mu_i*(1 + eps_i),
    -p*mu_i*eps_i]: the similarity scales the band k above the diagonal by
    p**k, and only three bands are nonzero, so each margin is taken from the
    gains and asymmetries alone and p**k, which overflows for long platoons,
    never forms.  The superdiagonal term p*eps_i is taken as
    (eps_i + eps_i/eps_max) / 2, which cannot overflow because
    eps_i/eps_max <= 1.  Every margin is positive when eps_max < 1, which
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

    if eps_max == 0.0:
        p, margins = math.inf, mu
    else:
        p = 0.5 * (1.0 + 1.0 / eps_max)
        sub = np.r_[0.0, mu[1:] * p ** -1.0]  # no subdiagonal in the first row
        sup = np.r_[mu[:-1] * (0.5 * (eps[:-1] + eps[:-1] / eps_max)), 0.0]  # nor a superdiagonal in the last
        margins = (mu + mu * eps) - (sub + sup)
    return DominanceCertificate(
        p=float(p),
        row_margins=tuple(float(x) for x in margins),
        lower_bound=float(margins.min()),
    )


def instantiate_family(template: PlatoonConfig, n: int) -> PlatoonConfig:
    """Platoon of size ``n`` from a template's repeating gain/asymmetry rule.

    The template's trailing asymmetry is the structurally forced zero, not
    part of the rule, so it is excluded from the cycle whenever the template
    has more than one follower.
    """
    gains = tuple(itertools.islice(itertools.cycle(template.gains), n - 1))
    asym = tuple(itertools.islice(itertools.cycle(template.asymmetries[:-1] or template.asymmetries), n - 1))
    return PlatoonConfig(
        n=n,
        gains=gains,
        asymmetries=asym,
        vehicle=template.vehicle,
        controller=template.controller,
    )


def _family_log_gains(template: PlatoonConfig, sizes, den: np.ndarray, num: np.ndarray) -> dict[int, np.ndarray]:
    """log|T_n| at each scan frequency for every size n >= 2 in ``sizes``.

    ``den`` and ``num`` are the pair of :func:`numerics._axis_pair` whose
    ratio is z = 1/M at the scan frequencies.  T_n = det R_n /
    (mu_2 * det(R_n + zI)) is the block product
    (1/mu_2) * prod_i lam_i / (lam_i + z) of the family member of size n
    (:func:`instantiate_family`).  A rule of one gain and one asymmetry takes
    the closed form (:func:`_uniform_log_gains`, O(F) per size for F
    frequencies), any other one pivot pass (:func:`_pivot_log_gains`,
    O(N * F)).  As in the block product, T is 0 (the row -inf) where z is not
    finite and den != 0; the row is NaN at an axis pole, den = num = 0, and
    where det(R_n + zI) is zero or not finite.  No floating-point warning.
    """
    uniform = len(set(template.gains)) == len(set(template.asymmetries[:-1] or template.asymmetries)) == 1
    return (_uniform_log_gains if uniform else _pivot_log_gains)(template, sizes, den, num)


def _pivot_log_gains(template: PlatoonConfig, sizes, den: np.ndarray, num: np.ndarray) -> dict[int, np.ndarray]:
    """:func:`_family_log_gains` by one continuant pass over the largest member's bands.

    R_n is the leading block of R_N but for its last diagonal entry, the
    gain mu_n (the trailing vehicle has no follower).  So the pivots
    r_k = (d_k + z) - (sub*sup)_{k-1} / r_{k-1} of R_N + zI run once, summing
    log|r_k|, and each n closes with mu_n in place of d_{n-2}; a column at
    z = 0 gives log det R_n.  A zero or non-finite pivot leaves the sum
    non-finite for good, so sums run unmasked and turn NaN as a size closes.
    """
    wanted = set(sizes)  # a size below 2 closes no determinant and gets no row
    n_max = max(wanted)
    cfg = instantiate_family(template, n_max)
    sub, diag, sup = laplacian_bands(cfg)
    mu = np.asarray(cfg.gains)
    rows, acc, r = {}, np.zeros(den.size + 1), None
    with np.errstate(all="ignore"):  # a non-finite z and overflowing band products turn NaN
        zs = np.concatenate([[0.0], den / num])
        t_zero = ~np.isfinite(zs[1:]) & (den != 0)  # their columns run non-finite, set to -inf as a size closes
        bc = sub * sup
        for k in range(n_max - 1):  # pivot k; the member of size k + 2 has k + 1 rows
            t = bc[k - 1] / r if k else 0.0
            if k + 2 in wanted:
                log_det = acc + np.log(np.abs((zs + mu[k]) - t))
                log_det[~np.isfinite(log_det)] = np.nan
                rows[k + 2] = np.where(t_zero, -np.inf, log_det[0] - log_det[1:] - math.log(mu[0]))
            if k < n_max - 2:
                r = (zs + diag[k]) - t
                acc += np.log(np.abs(r))
    return rows


def _uniform_log_gains(template: PlatoonConfig, sizes, den: np.ndarray, num: np.ndarray) -> dict[int, np.ndarray]:
    """:func:`_family_log_gains` for a one-gain, one-asymmetry rule, in O(F) per size.

    R_m + zI (m = n - 1) is tridiagonal Toeplitz (diagonal d + z, off-diagonal
    product bc, from the bands as in the pass) but for its last entry mu + z.
    With r the larger root of r**2 - (d + z) r + bc and rho = bc / r**2,
    det(R_m + zI) = r**m * (1 + (mu + z - r) / r * S_m), S_m = 1 + ... +
    rho**(m-1) (Schmidt & Spitzer, Math. Scand. 1960), and det R_m = mu**m:
    the path's one spanning arborescence.  Sizes run ascending, carrying
    rho**m and S_m by :func:`_geometric`.
    """
    _, diag, sup = laplacian_bands(instantiate_family(template, 3))
    mu, d, v = template.gains[0], diag[0], -sup[0]
    bc, b = mu * v, math.sqrt(mu * v)  # sub * sup as in the pass
    rows, m = {}, 0
    with np.errstate(all="ignore"):  # a non-finite z or a zero determinant turns NaN
        z = den / num
        t_zero = ~np.isfinite(z) & (den != 0)
        # sqrt(d - 2b + z) * sqrt(d + 2b + z), d - 2b = (sqrt(mu) - sqrt(v))**2: z keeps its low bits
        root, w = np.sqrt(z + (mu - v) ** 2 / (d + 2.0 * b)) * np.sqrt(z + (d + 2.0 * b)), z + d
        r = 0.5 * w + 0.5 * np.where(w.real * root.real + w.imag * root.imag < 0.0, -root, root)
        rho, g, p = bc / r / r, math.log(mu) - np.log(np.abs(r)), (z + mu) / r - 1.0
        del z, root, w, r  # the loop holds rho, g, t_zero and the carry: the sweep's peak memory
        inner = np.ones_like(p)  # p = (mu + z - r) / r * rho**m and inner = 1 + (mu + z - r) / r * S_m
        for n in sorted(n for n in set(sizes) if n >= 2):
            q, s = _geometric(rho, n - 1 - m)
            s *= p
            inner += s
            p *= q
            del q, s
            m = n - 1
            row = m * g - np.log(mu * np.abs(inner))
            row[~np.isfinite(row)] = np.nan
            row[t_zero] = -np.inf
            rows[n] = row
    return rows


def _geometric(rho, k: int):
    """(rho**k, S_k = 1 + rho + ... + rho**(k-1)) for k >= 1, by S_2j = S_j * (1 + rho**j) and
    S_(2j+1) = S_2j + rho**2j: no step cancels near the double root rho = 1 (eps = 1 at low frequency)."""
    if k == 1:
        return rho, 1.0
    q, s = _geometric(rho, k // 2)
    s *= q + 1.0  # in place: three arrays at most, the sweep's peak memory
    q = q * q
    if k % 2:
        s += q
        q *= rho
    return q, s

"""The platoon's peak search: a coarse log-frequency scan, then Brent's method
(R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973) on the
best scan point's cell pair, with single-frequency evaluations."""

from __future__ import annotations

import math

import numpy as np

from .platoon import ConfigError

DEFAULT_OMEGA_BAND = (1e-3, 1e3)

_N_SCAN = 2000  # coarse log-grid size of the peak search
_GOLD = (3.0 - math.sqrt(5.0)) / 2.0
_TOL = 2.5e-9  # Brent's smallest step in log-frequency; it stops at a bracket of 4 of them


def _mag_at(response, omega: float) -> float:
    val = complex(np.asarray(response(omega)).reshape(()))
    mag = abs(val)
    if not math.isfinite(mag):
        raise ConfigError(f"non-finite response at omega={omega}")
    return mag


def _scan_grid(omega_lo: float, omega_hi: float, n: int = _N_SCAN) -> np.ndarray:
    if not 0 < omega_lo < omega_hi:
        raise ValueError("need 0 < omega_lo < omega_hi")
    return np.logspace(math.log10(omega_lo), math.log10(omega_hi), n)


def hinf_norm(response, omega_lo: float = DEFAULT_OMEGA_BAND[0],
              omega_hi: float = DEFAULT_OMEGA_BAND[1]):
    """Peak magnitude of a frequency response over a band, plus its location: the platoon's peak search.

    Parameters
    ----------
    response : callable
        omega -> complex value; must accept an ndarray of frequencies.
    omega_lo, omega_hi : float
        Scan band in rad/s (log-spaced coarse scan of 2000 points before
        Brent's method refines the best point inside its two neighbours).

    Returns
    -------
    (gamma, omega0) : tuple of float
        ``gamma`` is the larger of the refined band peak and the DC value;
        ``omega0`` is its frequency (0.0 when DC wins).  When several scan
        points tie within 1e-9 the smallest frequency seeds the refinement.
        ``gamma`` is always a value of ``response`` at a single frequency.

    Notes
    -----
    The reported value is the maximum over the scanned band plus DC, which
    equals the supremum over all frequencies for responses that roll off
    outside the band; widen the band for systems with activity outside it.
    :func:`_refine` does all but the scan; :func:`analysis.gamma_sequence` reuses it.
    """
    grid = _scan_grid(omega_lo, omega_hi)
    return _refine(response, grid, np.abs(np.asarray(response(grid))))


def _refine(response, grid: np.ndarray, mags: np.ndarray):
    """:func:`hinf_norm` from its scan magnitudes ``mags``; ``response`` gets one frequency a call.

    Brent's method maximizes |response| over u = log(omega) - log(grid[i]) in
    [grid[i-1], grid[i+1]], starting from ``response(grid[i])``.  |u| stays
    below a cell, so the tolerance is absolute; the search stops once the
    bracket is at most 1e-8 wide around its best point.  A probe replaces the
    best one only when strictly larger, so the first of tied probes wins.
    """
    if not np.all(np.isfinite(mags)):
        raise ConfigError(f"non-finite response at omega={grid[~np.isfinite(mags)][0]}")
    i = int(np.argmax(mags >= mags.max() * (1.0 - 1e-9)))
    best_w = float(grid[i])
    c = math.log(best_w)
    a, b = math.log(grid[max(i - 1, 0)]) - c, math.log(grid[min(i + 1, grid.size - 1)]) - c
    x = w = v = d = e = 0.0
    fx = fw = fv = _mag_at(response, best_w)
    while max(x - a, b - x) > 2 * _TOL:
        p = q = r = 0.0
        if abs(e) > _TOL:  # the parabola through x, w and v has its vertex at x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (r - q)
            if q < 0:
                p, q = -p, -q
            r, e = e, d
        if abs(p) < abs(q * r / 2) and q * (a - x) < p < q * (b - x):  # a parabolic step
            d = p / q
            if min(x + d - a, b - x - d) < 2 * _TOL:  # keep a tolerance from the bracket's ends
                d = math.copysign(_TOL, a + b - 2 * x)
        else:  # a golden-section step into the larger part
            e = (b if 2 * x < a + b else a) - x
            d = _GOLD * e
        u = x + (d if abs(d) >= _TOL else math.copysign(_TOL, d))
        omega = math.exp(c + u)
        fu = _mag_at(response, omega)
        if fu > fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx, best_w = w, fw, x, fx, u, fu, omega
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu

    dc = _mag_at(response, 0.0)
    if dc > fx:
        return dc, 0.0
    return fx, best_w

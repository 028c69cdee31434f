"""The platoon's peak search: a coarse log-frequency scan, then Brent's method
(R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973) on the
best scan point's cell pair, as a generator of probes that :func:`_lockstep`
drives: one search at a time (:func:`hinf_norm`), or every size of a sweep in
rounds, with a round's product-form probes in one buffer (:func:`_probe_values`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .numerics import _BLOCK_BYTES, poly_eval
from .platoon import ConfigError

DEFAULT_OMEGA_BAND = (1e-3, 1e3)

_N_SCAN = 2000  # coarse log-grid size of the peak search
_GOLD = (3.0 - math.sqrt(5.0)) / 2.0
_TOL = 2.5e-9  # Brent's smallest step in log-frequency; it stops at a bracket of 4 of them


def _scan_grid(omega_lo: float, omega_hi: float, n: int = _N_SCAN) -> np.ndarray:
    if not 0 < omega_lo < omega_hi:
        raise ValueError("need 0 < omega_lo < omega_hi")
    return np.logspace(math.log10(omega_lo), math.log10(omega_hi), n)


def _best_index(grid: np.ndarray, mags: np.ndarray) -> int:
    """The first scan point within 1e-9 of the largest magnitude; ConfigError names a non-finite one."""
    if not np.all(np.isfinite(mags)):
        raise ConfigError(f"non-finite response at omega={grid[~np.isfinite(mags)][0]}")
    return int(np.argmax(mags >= mags.max() * (1.0 - 1e-9)))


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
    The refinement calls ``response`` at one frequency a call.
    """
    grid = _scan_grid(omega_lo, omega_hi)
    search = _refine(grid, _best_index(grid, np.abs(np.asarray(response(grid)))))
    (peak,), error = _lockstep([search], lambda ks, omegas: ([np.asarray(response(omegas[0])).reshape(())], None))
    if error is not None:
        raise error
    return peak


def _refine(grid: np.ndarray, i: int):
    """Brent's method from scan point ``i``: yields each probe frequency, is sent its magnitude, returns
    ``(gamma, omega0)``.

    It maximizes over u = log(omega) - log(grid[i]) in [grid[i-1], grid[i+1]],
    with an absolute tolerance, until the bracket is at most 1e-8 wide; the last
    probe is DC.  Only a strictly larger probe replaces the best one.
    """
    best_w = float(grid[i])
    c = math.log(best_w)
    a, b = math.log(grid[max(i - 1, 0)]) - c, math.log(grid[min(i + 1, grid.size - 1)]) - c
    x = w = v = d = e = 0.0
    fx = fw = fv = yield best_w
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
        fu = yield omega
        if fu > fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx, best_w = w, fw, x, fx, u, fu, omega
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu

    dc = yield 0.0
    if dc > fx:
        return dc, 0.0
    return fx, best_w


def _lockstep(searches, evaluate):
    """Run the :func:`_refine` generators ``searches`` in rounds of one probe each.

    ``evaluate(ks, omegas)`` gives the responses of searches ``ks`` at ``omegas``
    up to the first failing probe, and its ConfigError or None; a non-finite
    magnitude fails too.  Every search from the first failure on stops.  Returns
    the ``(gamma, omega0)`` of the searches before it, and its error.
    """
    probes = {k: next(search) for k, search in enumerate(searches)}
    peaks, error = [None] * len(searches), None
    while probes:
        ks, omegas = list(probes), list(probes.values())
        values, fault = evaluate(ks, omegas)
        mags = [abs(complex(value)) for value in values]
        bad = [i for i, mag in enumerate(mags) if not math.isfinite(mag)]
        if bad:
            mags, fault = mags[:bad[0]], ConfigError(f"non-finite response at omega={omegas[bad[0]]}")
        if fault is not None:
            error = fault
            for k in ks[len(mags):]:
                del probes[k]
        for k, mag in zip(ks, mags):
            try:
                probes[k] = searches[k].send(mag)
            except StopIteration as done:
                peaks[k] = done.value
                del probes[k]
    return peaks, error


def _size_groups(sizes):
    """``sizes`` in runs whose n - 1 complex values fill at most _BLOCK_BYTES, or one size."""
    group, held = [], 0
    for n in sizes:
        if group and held + 16 * (n - 1) > _BLOCK_BYTES:
            yield group
            group, held = [], 0
        group.append(n)
        held += 16 * (n - 1)
    if group:
        yield group


def _probe_values(eigs, mu: float, M, omegas) -> tuple[np.ndarray, ConfigError | None]:
    """The product form T(j*omegas[k]) with first gain ``mu`` and spectrum ``eigs``: one array for all
    (a grid) or one per probe (a sweep's round).

    Each probe's z/lam_i is one contiguous row, of a 2-D array or of one flat
    buffer, summed alone, so a probe has the same bits either way.  Returns the
    values before the first probe at an axis pole, and that pole's ConfigError.
    """
    w = np.array(omegas, dtype=float)
    a, b = poly_eval(M.den, 1j * w), poly_eval(M.num, 1j * w)
    z_inf = (b == 0) | np.isinf(a)
    with np.errstate(divide="ignore", invalid="ignore"):  # where z is infinite, T is 0
        z = np.where(z_inf, 0.0, a / b)
    if isinstance(eigs, np.ndarray):
        x = rows = z[:, None] / eigs
    else:
        ends = list(itertools.accumulate(lam.size for lam in eigs))
        x = np.empty(ends[-1] if ends else 0, dtype=complex)
        rows = [x[end - lam.size:end] for lam, end in zip(eigs, ends)]
        for zk, lam, row in zip(z, eigs, rows):
            np.divide(zk, lam, out=row)
    pole = z_inf & (a == 0)
    if (x == -1).any():
        pole |= [(row == -1).any() for row in rows]
    first = int(np.argmax(pole)) if pole.any() else w.size
    for row in rows[first:]:  # not returned: zeroed, so that no log or exp warns
        row[:] = 0
    np.log1p(x, out=x)
    sums = x.sum(axis=-1) if x.ndim > 1 else np.array([row.sum() for row in rows], dtype=complex)
    values = np.where(z_inf, 0.0, np.exp(-sums) / mu)[:first]
    if first < w.size:
        return values, ConfigError(f"response undefined at omega={w[first]}: closed-loop pole on the imaginary axis")
    return values, None

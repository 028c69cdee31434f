"""Peak gain of one closed-loop block with no frequency grid: |T(jw)|**2 = P(x)/Q(x) in
x = w**2, so the peak over a band lies at a band edge, at DC or at a root of P'Q - PQ'."""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

from .numerics import _row_degrees, companion_roots
from .platoon import ConfigError


def _ratio_at(num, den, w: np.ndarray) -> np.ndarray:
    """``num(jw) / den(jw)`` for ascending coefficients and ``w >= 0``, not finite at a pole; above
    w = 1 from the reversed coefficients at 1/(jw), times (jw)**(deg num - deg den), so that no
    power of w overflows."""
    out = np.empty(w.size, dtype=complex)
    low, k = w <= 1.0, len(num) - len(den)
    s, u = 1j * w[low], 1 / (1j * w[~low])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the caller checks finiteness
        out[low] = _quotient(np.polyval(num[::-1], s), np.polyval(den[::-1], s))
        out[~low] = _quotient(np.polyval(num, u), np.polyval(den, u)) * w[~low] ** float(k) * 1j ** k
    return out


def _quotient(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``p / q`` by Smith's method with true divisions, NaN where q is 0.

    numpy's complex quotient multiplies by a rounded reciprocal, so that a real lam/lam can come
    out as 1 - 2**-53; here a real quotient is one real division, and equal gains stay equal.
    """
    flip = np.abs(q.imag) > np.abs(q.real)  # then p/q = (-jp)/(-jq), and |Re(-jq)| > |Im(-jq)|
    p, q = np.where(flip, -1j * p, p), np.where(flip, -1j * q, q)
    t = q.imag / q.real
    d = q.real + q.imag * t
    out = np.empty(p.shape, dtype=complex)
    out.real, out.imag = (p.real + p.imag * t) / d, (p.imag - p.real * t) / d
    return out


def _gain_sq(p: np.ndarray) -> np.ndarray:
    """Ascending coefficients in x = w**2 of |p(jw)|**2 = p(s)p(-s), scaled so the largest of ``p`` is 1."""
    sign = np.resize([1.0, -1.0], p.size)
    p = p / (np.abs(p).max() or 1.0)
    return np.convolve(p, sign * p)[::2] * sign


def _block_peak(num: np.ndarray, den: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Peak of ``|num(jw) / den(jw)|`` over the band [lo, hi] and DC, and its frequency.

    The candidates are lo, hi and sqrt(Re x) for every root x of P'Q - PQ' inside the band,
    in increasing order, after trailing round-off coefficients are dropped; the first largest
    wins, and DC (frequency 0.0) only when it is strictly larger.  Raises :class:`ConfigError`
    at the first candidate whose gain is not finite: a pole on the imaginary axis there.
    """
    num, den = num[:_row_degrees(num) + 1], den[:_row_degrees(den) + 1]
    p, q = _gain_sq(num), _gain_sq(den)
    dpq = npp.polysub(npp.polymul(npp.polyder(p), q), npp.polymul(p, npp.polyder(q)))
    d = int(_row_degrees(dpq))
    x = companion_roots(dpq[:d + 1]).real if d else np.empty(0)
    w = np.sqrt(x[x > 0])
    w = np.concatenate(([lo], np.sort(w[(lo < w) & (w < hi)]), [hi, 0.0]))
    mag = np.abs(_ratio_at(num, den, w))
    bad = ~np.isfinite(mag)
    if bad.any():
        raise ConfigError(f"non-finite response at omega={w[bad][0]}")
    i = int(np.argmax(mag[:-1]))
    return (float(mag[-1]), 0.0) if mag[-1] > mag[i] else (float(mag[i]), float(w[i]))

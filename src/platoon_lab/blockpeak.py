"""Closed-loop blocks lam*M / (1 + lam*M) with no frequency grid.

The peak gain of one block: |T(jw)|**2 = P(x)/Q(x) in x = w**2, so the peak over a band lies
at a band edge, at DC or at a root of P'Q - PQ'.  Stability over every gain at once: the gains
lam > 0 at which den(M) + lam*num(M) has every root left of Re s = -1e-9 are a union of
intervals between the gains where a root crosses that line (Neimark's D-decomposition; see
Gryazina & Polyak, "Stability regions in the parameter space: D-decomposition revisited",
Automatica 42, 2006), so a spectrum is tested by membership, and poles are solved only for
the blocks that need them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npp

from .numerics import RationalTF, _row_degrees, companion_roots, poly_eval
from .platoon import ConfigError

# A closed-loop pole is stable when its real part is below this.
_STABLE_RE = -1e-9
# The interval test leaves a gain to a pole solve when it lies within this relative distance of a
# crossing gain, and an interval unclassified when a root of its test point lies within this much
# of the largest root's modulus of Re s = -1e-9.
_EDGE_REL = 1e-8


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


def _block_poles(dens: np.ndarray) -> np.ndarray:
    """Roots of every row of closed-loop denominators, after trailing round-off is dropped.

    The rows of each degree are solved in one stacked companion-matrix call; a row of degree 0
    is a zero-order block, which has no poles.
    """
    degrees = _row_degrees(dens)
    return np.concatenate([np.empty(0), *(companion_roots(dens[degrees == d, :d + 1]).ravel()
                                          for d in np.unique(degrees[degrees > 0]))])


@lru_cache(maxsize=32)
def _stable_gains(M: RationalTF) -> tuple[float, tuple[float, ...], tuple]:
    """``(scale, ends, verdicts)``: the stability of den(M) + lam*num(M) over gains lam > 0.

    With den and num scaled to a largest coefficient of 1, a gain lam is ``t = scale * lam``.
    A root crosses Re s = sigma = -1e-9 only at the real t = -den(s)/num(s) where
    s = sigma + jw and Im[den(s) * conj(num(s))] = 0; that imaginary part is w times a real
    polynomial in w**2, whose near-real roots are all taken.  The leading coefficient vanishes
    at t = -den[-1]/num[-1] when the degrees are equal.  ``ends`` are these crossings, sorted,
    and ``verdicts[i]`` holds for the interval below ``ends[i]`` (the last one is unbounded):
    True when every root at its test point lies left of sigma.  A verdict is None, and the
    interval unclassified, when that point's denominator is not finite or trims to a lower
    degree, or when a root lies within 1e-8 times the largest root's modulus of sigma, closer
    than the companion solve can resolve.
    """
    den, num = np.asarray(M.den.coeffs), np.asarray(M.num.coeffs)
    dmax, nmax = np.abs(den).max(), np.abs(num).max() or 1.0
    den, num = den / dmax, num / nmax
    shifted = []
    for p in (den, num):  # Taylor shift to sigma by Horner: q(t) = p(sigma + t)
        q = p[-1:].copy()
        for c in p[-2::-1]:
            q = np.concatenate(([c], q)) + _STABLE_RE * np.concatenate((q, [0.0]))
        shifted.append(q)
    d, n = shifted
    # d(s)n(-s) = sum_m p_m s**m, and Im at s = jw is sum over odd m of (-1)**((m-1)/2) p_m w**m
    n[1::2] *= -1.0
    h = np.convolve(d, n)[1::2]
    h[1::2] *= -1.0
    deg = int(_row_degrees(h)) if h.size else 0
    x = companion_roots(h[:deg + 1]) if deg else np.empty(0)
    scale = float(nmax / dmax)
    ends = set()
    for w in [0.0, *(math.sqrt(r) for r in x.real[np.abs(x.imag) <= 1e-6 * x.real])]:
        s = complex(_STABLE_RE, w)
        a, b = poly_eval(M.den, s), poly_eval(M.num, s)
        ends.add(-(a / b).real * scale if b else math.nan)
    if den.size == num.size and num[-1]:
        ends.add(float(-den[-1] / num[-1]))
    ends = sorted(t for t in ends if 0 < t < math.inf)
    width = max(den.size, num.size)
    verdicts = []
    for lo, hi in zip([0.0, *ends], [*ends, math.inf]):
        # the point nearest t = 1, where den and num weigh alike, a factor 2 inside the interval
        lam = min(max(1.0, 2 * lo), hi / 2) if hi > 4 * lo else math.sqrt(lo) * math.sqrt(hi)
        row = np.zeros(width)
        row[:den.size] = den
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is not classified
            row[:num.size] += lam * num
        verdict = None
        if np.all(np.isfinite(row)) and _row_degrees(row) == width - 1:
            roots = companion_roots(row) if width > 1 else np.empty(0)
            reach = _EDGE_REL * max(np.abs(roots.real).max(initial=0.0), np.abs(roots.imag).max(initial=0.0))
            if not np.any(np.abs(roots.real - _STABLE_RE) <= reach):
                verdict = bool(np.all(roots.real < _STABLE_RE))
        verdicts.append(verdict)
    return scale, tuple(ends), tuple(verdicts)


def _blocks_stable(M: RationalTF, lams: np.ndarray, dens: np.ndarray) -> bool:
    """Whether every block den(M) + lam*num(M), one row of ``dens`` per gain in ``lams``, is stable.

    A gain inside a classified interval of :func:`_stable_gains` takes its verdict; a gain
    within 1e-8 (relative) of a crossing, in an unclassified interval, or whose row
    :func:`_row_degrees` trims to a lower degree gets its poles solved, and is stable when
    every one has real part below -1e-9.
    """
    scale, ends, verdicts = _stable_gains(M)
    with np.errstate(over="ignore"):  # a gain beyond double range lies past every crossing
        t = lams * scale
    solve = _row_degrees(dens) < dens.shape[1] - 1
    lo = -math.inf
    for hi, verdict in zip((*ends, math.inf), verdicts):
        inside = t > lo
        if hi < math.inf:
            inside &= t < hi
            solve |= np.abs(t - hi) <= _EDGE_REL * hi
        if verdict is None:
            solve |= inside
        elif not verdict and np.any(inside & ~solve):
            return False
        lo = hi
    return not np.any(_block_poles(dens[solve]).real >= _STABLE_RE)

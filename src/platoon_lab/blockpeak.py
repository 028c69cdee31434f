"""Closed-loop blocks lam*M / (1 + lam*M) with no frequency grid.

The blocks' denominators den(M) + lam*num(M), one row per gain.  The peak gain of a block:
|T(jw)|**2 = P(x)/Q(x) in x = w**2, so the peak over a band lies at a band edge, at DC or at a
root of P'Q - PQ'; the blocks of many gains (every size of a sweep) take one stacked root solve
and one elementwise evaluation of their candidates, with the bits each block gets alone, and
the block modulus at the peak frequency bounds the growth over the spectrum.  Stability over
every gain at once: the gains lam > 0 at which den(M) + lam*num(M) has every root left of
Re s = -1e-9 are a union of intervals between the gains where a root crosses that line
(Neimark's D-decomposition; see Gryazina & Polyak, "Stability regions in the parameter space:
D-decomposition revisited", Automatica 42, 2006), so a spectrum is tested by membership, and
poles are solved only for the blocks that need them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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
    power of w overflows.  ``num`` and ``den`` are one polynomial each, or one row per frequency."""
    num, den = np.asarray(num), np.asarray(den)
    out = np.empty(w.size, dtype=complex)
    low, k = w <= 1.0, num.shape[-1] - den.shape[-1]
    s, u = 1j * w[low], 1 / (1j * w[~low])
    (nlo, dlo), (nhi, dhi) = ((num[m], den[m]) if num.ndim > 1 else (num, den) for m in (low, ~low))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the caller checks finiteness
        # np.polyval takes one coefficient, or one column of them, at a time, the highest power first
        out[low] = _quotient(np.polyval(nlo.T[::-1], s), np.polyval(dlo.T[::-1], s))
        out[~low] = _quotient(np.polyval(nhi.T, u), np.polyval(dhi.T, u)) * w[~low] ** float(k) * 1j ** k
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
    """Coefficients in x = w**2 of |p(jw)|**2 = p(s)p(-s) for each row of ``p``, scaled to a largest 1."""
    sign = np.resize([1.0, -1.0], p.shape[-1])
    top = np.abs(p).max(axis=-1, keepdims=True)
    p = p / np.where(top == 0, 1.0, top)
    return _convolve_rows(p, sign * p)[:, ::2] * sign


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array([np.convolve(x, y) for x, y in zip(a, b)])


def _block_peaks(nums: np.ndarray, dens: np.ndarray, lo: float, hi: float) -> tuple[list, list]:
    """Peak of ``|nums[k](jw) / dens[k](jw)|`` over [lo, hi] and DC, and its frequency, for every row k.

    The candidates are lo, the in-band sqrt(Re x) of the roots x of P'Q - PQ' in increasing order,
    hi and DC; the first largest wins, DC only when strictly larger.  Root solves are stacked by
    degree and the rest is elementwise, so each row has its own bits.  A row with a non-finite gain
    (an axis pole) has a NaN peak at its first such candidate.
    """
    peaks, omegas, lo, hi = [math.nan] * len(nums), [math.nan] * len(nums), float(lo), float(hi)
    deg_num, deg_den = _row_degrees(nums), _row_degrees(dens)
    for a, b in sorted(set(zip(deg_num.tolist(), deg_den.tolist()))):
        rows = np.flatnonzero((deg_num == a) & (deg_den == b))
        num, den = nums[rows, :a + 1], dens[rows, :b + 1]
        p, q = _gain_sq(num), _gain_sq(den)
        dpq = np.zeros((rows.size, a + b))  # P'Q - PQ', where a constant's derivative is no term
        if a:
            dpq += _convolve_rows(p[:, 1:] * np.arange(1.0, a + 1), q)
        if b:
            dpq -= _convolve_rows(p, q[:, 1:] * np.arange(1.0, b + 1))
        x = np.full((rows.size, max(a + b - 1, 0)), np.nan)
        degrees = _row_degrees(dpq) if a + b else np.zeros(rows.size, dtype=int)
        for d in sorted(set(degrees.tolist()) - {0}):
            x[degrees == d, :d] = companion_roots(dpq[degrees == d, :d + 1]).real
        cands = [[lo, *sorted(w for w in map(math.sqrt, (v for v in row if v > 0)) if lo < w < hi), hi, 0.0]
                 for row in x.tolist()]
        owner = [r for r, cand in enumerate(cands) for _ in cand]
        mag = np.abs(_ratio_at(num[owner], den[owner], np.array([w for cand in cands for w in cand]))).tolist()
        start = 0
        for row, cand in zip(rows.tolist(), cands):
            m = mag[start:start + len(cand)]
            start += len(cand)
            bad = [w for w, g in zip(cand, m) if not math.isfinite(g)]
            if bad:
                omegas[row] = bad[0]
                continue
            i = max(range(len(cand) - 1), key=m.__getitem__)
            peaks[row], omegas[row] = (m[-1], 0.0) if m[-1] > m[i] else (m[i], cand[i])
    return peaks, omegas


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


def _block_growth(lams, lam_max, M: RationalTF, band: tuple[float, float]) -> list[tuple]:
    """``(gamma, omega0, alpha, beta, zeta)`` of the block at each gain in ``lams``.

    The block's peak gain over ``band`` and its frequency, ``alpha + j*beta =
    lam*M(j*omega0)``, and the minimum block modulus there over gain ratios in
    [1, lam_max/lam].  ``alpha``, ``beta`` and ``zeta`` are None at a pole of M,
    and ``zeta`` whenever ``gamma`` <= 1.  ConfigError names the first faulty gain.
    """
    lams = np.asarray(lams, dtype=float)
    peaks, omegas = _block_peaks(lams[:, None] * np.asarray(M.num.coeffs), _closed_loop_dens(M, lams), *band)
    out = []
    for lam, top, gamma, w0, m in zip(lams.tolist(), lam_max, peaks, omegas,
                                      _ratio_at(M.num.coeffs, M.den.coeffs, np.array(omegas)).tolist()):
        if math.isnan(gamma):
            raise ConfigError(f"non-finite response at omega={w0}")
        ab = lam * m
        if not math.isfinite(abs(ab)):
            out.append((gamma, w0, None, None, None))
            continue
        zeta = _min_block_modulus(ab.real, ab.imag, top / lam) if gamma > 1.0 else None
        out.append((gamma, w0, ab.real, ab.imag, zeta))
    return out


def kappa_modulus_sq(kappa: float, alpha: float, beta: float) -> float:
    """Squared modulus of the closed loop at gain ratio ``kappa``.

    With ``alpha + j*beta`` the scaled open loop at the peak frequency, the
    block for ``kappa`` times that gain has squared modulus
    ``1 - (2*kappa*alpha + 1) / ((kappa*alpha + 1)**2 + kappa**2 * beta**2)``;
    for ``alpha < -1/2`` and ``kappa >= 1`` this exceeds one.
    """
    den = (kappa * alpha + 1.0) ** 2 + (kappa * beta) ** 2
    if den <= 0.0:
        raise ConfigError("closed-loop pole at the peak frequency: zero denominator")
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

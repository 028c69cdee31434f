"""Real-coefficient polynomials and rational transfer functions in the Laplace variable.

Coefficients are stored ascending: ``coeffs[k]`` multiplies ``s**k``, so the
index equals the power.  The zero polynomial is represented as ``(0.0,)``.
No pole-zero cancellation is ever performed on rational functions; a common
factor between numerator and denominator is kept verbatim because cancelling
it could hide an unstable mode from later stability checks.  :func:`_groups` is
the one block rule: the product form's work goes in runs of ~256 KiB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Trailing (highest-power) coefficients at or below this fraction of the
# largest coefficient are treated as round-off and dropped.
_TRIM_REL = 1e-14


def _row_degrees(coeffs) -> np.ndarray:
    """Degree of every row of an ``(..., d+1)`` array of finite coefficients.

    Trailing coefficients trimmed as round-off do not count; a zero row has
    degree 0.  Raises ``ValueError`` on a non-finite coefficient.
    """
    mag = np.abs(np.asarray(coeffs, dtype=float))
    if not np.all(np.isfinite(mag)):
        raise ValueError("polynomial coefficients must be finite")
    kept = mag > _TRIM_REL * mag.max(axis=-1, keepdims=True)
    top = mag.shape[-1] - 1 - np.argmax(kept[..., ::-1], axis=-1)
    return np.where(kept.any(axis=-1), top, 0)


# Bytes of complex values that one run of _groups may hold.
_BLOCK_BYTES = 1 << 18


def _groups(lengths):
    """Consecutive ``(start, stop)`` runs of ``lengths`` whose complex rows fill at most _BLOCK_BYTES, or one row."""
    start = held = 0
    for k, n in enumerate(lengths):
        if k > start and held + 16 * n > _BLOCK_BYTES:
            yield start, k
            start, held = k, 0
        held += 16 * n
    if start < len(lengths):
        yield start, len(lengths)


def _normalize(coeffs) -> tuple[float, ...]:
    c = [float(x) for x in coeffs]
    if not c:
        raise ValueError("polynomial needs at least one coefficient")
    degree = int(_row_degrees(c))
    return tuple(c[:degree + 1]) if any(c) else (0.0,)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients, normalized on construction."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)


def _as_poly(p) -> Polynomial:
    return p if isinstance(p, Polynomial) else Polynomial(tuple(p))


@dataclass(frozen=True)
class RationalTF:
    """Ratio of two real polynomials in s.  The denominator must be nonzero."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        object.__setattr__(self, "num", _as_poly(self.num))
        object.__setattr__(self, "den", _as_poly(self.den))
        if self.den.is_zero:
            raise ValueError("rational transfer function denominator is identically zero")


def poly_eval(p: Polynomial, s):
    """Evaluate ``p`` at a complex point (or ndarray of points) by Horner's rule."""
    p = _as_poly(p)
    acc = np.zeros_like(s) if isinstance(s, np.ndarray) else 0.0
    for c in reversed(p.coeffs):
        acc = acc * s + c
    return acc


def companion_roots(coeffs) -> np.ndarray:
    """Roots of every row of an ``(..., d+1)`` array of ascending coefficients.

    The monic companion matrices of all rows are solved in one stacked
    eigenvalue call.  Returns the ``(..., d)`` roots unsorted, as a real
    array when every root is real.

    Raises
    ------
    ValueError
        If ``d < 1`` ("no roots defined"), if a coefficient is not finite,
        or if some row's leading coefficient is one that :class:`Polynomial`
        trims as round-off, so that the row's degree is below ``d``.
    """
    c = np.asarray(coeffs, dtype=float)
    d = c.shape[-1] - 1
    if d < 1:
        raise ValueError("no roots defined for a constant or zero polynomial")
    if np.any(_row_degrees(c) < d):
        raise ValueError("negligible leading coefficient: degree below the row width")
    comp = np.zeros(c.shape[:-1] + (d, d))
    comp[..., 1:, :-1] = np.eye(d - 1)
    comp[..., :, -1] = -c[..., :-1] / c[..., -1:]
    return np.linalg.eigvals(comp)

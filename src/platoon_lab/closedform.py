"""Closed-form reduced-Laplacian eigenvalues for the homogeneous platoon.

For unit gains and one common asymmetry ``eps`` in (0, 1), every eigenvalue of
the reduced Laplacian is ``1 + eps - 2*sqrt(eps)*cos(theta_i)`` where the
angles theta_i are the n-1 roots in (0, pi) of

    f(theta) = sin((n-1)*theta) - sqrt(1/eps) * sin(n*theta).

Here ``n`` counts all vehicles including the leader; the sine arguments are
the follower count n-1 and its successor.  This parametrization matches the
numerical spectrum of the reduced Laplacian elementwise (the trailing row has
zero asymmetry), which is the cross-check this module exists to provide: an
independent oracle for the spectral solver, and the source of the explicit
bounds ``(1 - sqrt(eps))**2 <= lambda <= (1 + sqrt(eps))**2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ThetaRoots:
    """The n-1 angle parameters of the homogeneous closed form, ascending."""

    thetas: tuple[float, ...]
    epsilon: float


def solve_thetas(n: int, eps: float) -> ThetaRoots:
    """All n-1 roots of the angle equation in the open interval (0, pi).

    f(theta) is negative just above 0 and f(k*pi/n) = (-1)**(k+1) * sin(k*pi/n),
    so each of (0, pi/n) and (k*pi/n, (k+1)*pi/n), k = 1..n-2, holds exactly
    one root, and f just above its left end has the sign (-1)**(k+1).  All
    n-1 brackets are bisected together, 100 times: to adjacent doubles.

    Raises
    ------
    ValueError
        If n < 2 or eps is outside (0, 1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")

    k = np.arange(n - 1)
    lo, hi = k * math.pi / n, (k + 1) * math.pi / n
    sign_lo = np.where(k % 2, 1.0, -1.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        f = np.sin((n - 1) * mid) - math.sqrt(1.0 / eps) * np.sin(n * mid)
        left = sign_lo * f > 0.0
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return ThetaRoots(thetas=tuple((0.5 * (lo + hi)).tolist()), epsilon=float(eps))


def closedform_eigenvalues(n: int, eps: float) -> np.ndarray:
    """Reduced-Laplacian eigenvalues of the homogeneous platoon, ascending.

    Every value lies inside [(1 - sqrt(eps))**2, (1 + sqrt(eps))**2]; the
    cosine is monotone on the sorted angles, so the output is sorted too.
    """
    roots = solve_thetas(n, eps)
    th = np.asarray(roots.thetas)
    return 1.0 + eps - 2.0 * math.sqrt(eps) * np.cos(th)

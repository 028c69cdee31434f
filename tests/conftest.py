import numpy as np
import pytest

from platoon_lab import PlatoonConfig, Polynomial, RationalTF, build_laplacian, hinf_norm, open_loop, poly_eval
from platoon_lab.blockpeak import _STABLE_RE, _block_peaks, _closed_loop_dens
from platoon_lab.numerics import _as_poly, companion_roots

# Benchmark models used throughout: a double-integrator vehicle with a
# lead-lag controller that keeps every closed-loop block stable for any
# positive feedback gain.
VEHICLE = RationalTF(num=(1.0,), den=(0.0, 0.0, 1.0))
CONTROLLER = RationalTF(num=(3.0, 43.0, 110.0), den=(1.0, 2.9, 1.0))
# Sign-flipped controller: positive feedback, unstable closed-loop blocks.
BAD_CONTROLLER = RationalTF(num=(-3.0, -43.0, -110.0), den=(1.0, 2.9, 1.0))


def make_cfg(n, eps=0.5, mu=1.0, vehicle=VEHICLE, controller=CONTROLLER):
    """Homogeneous benchmark platoon with scalar gain and asymmetry."""
    gains = (float(mu),) * (n - 1)
    asym = (float(eps),) * (n - 1)
    return PlatoonConfig(n=n, gains=gains, asymmetries=asym,
                         vehicle=vehicle, controller=controller)


def near_axis(c):
    """den(M) + lam*num(M) = (s + c)(s + lam): a block pole at -c for every gain."""
    return PlatoonConfig(n=4, gains=(1.0,) * 3, asymmetries=(0.5,) * 3,
                         vehicle=RationalTF(num=(c, 1.0), den=(0.0, c, 1.0)), controller=RationalTF((1.0,), (1.0,)))


def crossing_near_one(c):
    """den(M) + lam*num(M) = s + c - 1 + lam: at the eigenvalue lam = 1 the block pole is -c."""
    return PlatoonConfig(n=2, gains=(1.0,), asymmetries=(0.0,), vehicle=RationalTF(num=(1.0,), den=(c - 1.0, 1.0)),
                         controller=RationalTF((1.0,), (1.0,)))


@pytest.fixture
def benchmark_cfg():
    return make_cfg(20, eps=0.5)


def poly_roots(p: Polynomial) -> list[complex]:
    """All complex roots of ``p`` via eigenvalues of the monic companion matrix.

    Roots are returned sorted by (real, imag) for reproducibility.  Each root
    ``r`` satisfies ``|p(r)| <= 1e-8 * ||coeffs||`` at the degrees this library
    works with (<= 10).

    Raises
    ------
    ValueError
        If ``p`` is constant or identically zero ("no roots defined").
    """
    roots = companion_roots(_as_poly(p).coeffs)
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def rtf_eval(t: RationalTF, s):
    """Evaluate ``t`` at ``s`` (scalar or ndarray); raises at an exact pole."""
    den = poly_eval(t.den, s)
    if np.any(den == 0):
        raise ValueError(f"pole at evaluation point s={s}")
    return poly_eval(t.num, s) / den


def make_block(lam: float, M: RationalTF) -> RationalTF:
    """Closed-loop block ``lam*M / (1 + lam*M)`` for feedback gain ``lam`` > 0.

    The block is lam*num(M) / (den(M) + lam*num(M)), which must be finite
    and not identically zero; with an integrator in M its DC gain is exactly 1.
    """
    if not lam > 0:
        raise ValueError("feedback gain must be positive")
    den = tuple(_closed_loop_dens(M, [lam])[0])
    return RationalTF(num=tuple(np.convolve((float(lam),), M.num.coeffs)), den=den)


def grid_block_peak(lam, M, lo=1e-3, hi=1e3):
    """Grid-search reference for a block's peak: :func:`hinf_norm` of ``make_block(lam, M)``."""
    blk = make_block(lam, M)
    return hinf_norm(lambda w: rtf_eval(blk, 1j * np.asarray(w, dtype=float)), lo, hi)


def closed_form_block_peak(lam, M, lo=1e-3, hi=1e3):
    """The library's block peak, :func:`blockpeak._block_peaks` of the block at ``lam`` alone."""
    (gamma,), (w0,) = _block_peaks(lam * np.asarray(M.num.coeffs)[None], _closed_loop_dens(M, [lam]), lo, hi)
    return gamma, w0


def block_stable(tf):
    """Reference stability rule: True iff every pole of ``tf`` has real part below -1e-9.

    A constant denominator has no poles, so such a block is stable.
    """
    return tf.den.degree == 0 or all(r.real < _STABLE_RE for r in poly_roots(tf.den))


def kron_state_space(cfg):
    """Dense reference realization (A, B, C): I (x) A_m - R (x) B_m C_m assembled with Kronecker products.

    A_m, B_m, C_m is the controllable-canonical realization of the open loop
    num/den, taken from its coefficients here: A_m has a unit superdiagonal
    and last row -den[:-1]/den[-1], B_m is the last unit vector and C_m is
    num/den[-1], zero-padded.  The leader's position enters vehicle 2 with
    gain mu_2, and row i of C reads vehicle i + 2's position.
    """
    M = open_loop(cfg)
    den, num = np.asarray(M.den.coeffs), np.asarray(M.num.coeffs)
    nn, m = cfg.n - 1, den.size - 1
    Am = np.eye(m, k=1)
    Am[-1] = -(den[:-1] / den[-1])
    Cm = np.zeros(m)
    Cm[:num.size] = num / den[-1]
    Bm = np.eye(m)[-1]
    R = build_laplacian(cfg)[1:, 1:]
    B = np.zeros(nn * m)
    B[:m] = cfg.gains[0] * Bm
    return np.kron(np.eye(nn), Am) - np.kron(R, np.outer(Bm, Cm)), B, np.kron(np.eye(nn), Cm)


def banded_matrix(ab, upper):
    """Dense square matrix from LAPACK band storage, ``A[i, j] = ab[upper + i - j, j]``, zeros elsewhere."""
    dim = ab.shape[1]
    A = np.zeros((dim, dim))
    for r, band in enumerate(ab):
        k = upper - r  # this band row holds A[j - k, j]
        j = np.arange(max(k, 0), min(dim, dim + k))
        A[j - k, j] = band[j]
    return A


def dense_reduced_eigs(cfg):
    """Independent oracle: dense general eigensolver on the reduced Laplacian."""
    R = build_laplacian(cfg)[1:, 1:]
    return np.sort(np.linalg.eigvals(R).real)


def sturm_fiedler(cfg, dps=40):
    """Independent oracle for strongly non-normal configs: the smallest eigenvalue of the exact reduced Laplacian.

    The matrix comes from (mu, eps) in ``dps``-digit mpmath, not from the float
    bands, and is symmetrized: diagonal mu_k(1 + eps_k), squared off-diagonal
    mu_{k+1} mu_k eps_k.  Bisection on [0, min diagonal] counts the negative
    pivots of S - xI (Sturm's count of the eigenvalues below x).
    """
    import mpmath

    with mpmath.workdps(dps):
        mu, eps = [mpmath.mpf(g) for g in cfg.gains], [mpmath.mpf(e) for e in cfg.asymmetries]
        diag = [m * (1 + e) for m, e in zip(mu, eps)]
        off = [0] + [mu[k + 1] * mu[k] * eps[k] for k in range(len(mu) - 1)]
        tiny = mpmath.mpf(10) ** (-2 * dps)

        def below(x):
            count, q = 0, 1
            for d, e2 in zip(diag, off):
                q = d - x - e2 / q
                q = q or -tiny
                count += q < 0
            return count

        lo, hi = mpmath.mpf(0), min(diag)
        while hi - lo > hi * mpmath.mpf(10) ** (10 - dps):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        return float((lo + hi) / 2)

"""Time-domain simulation of the reduced platoon driven by the leader's position.

The state is simulated in deviation coordinates: every vehicle starts at rest
at its reference spacing, the constant spacing offsets cancel identically, and
the leader's position change enters vehicle 2 as an exogenous signal with gain
mu_2.  Outputs are therefore deviations from the initial formation; a unit
leader step settles every deviation at 1 when the open loop contains an
integrator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgbmv

from .analysis import _oracle_realization, open_loop
from .blockpeak import _block_poles, _closed_loop_dens
from .platoon import ConfigError, PlatoonConfig, _band_product, _check_fits, spectrum_report

logger = logging.getLogger(__name__)

_BLOCK_BYTES = 2 ** 16  # state bytes per block of steps
_ROWS_PER_FORMAT = 16  # CSV rows per % operation
_RK4_REAL_BOUND = 2.785  # classic RK4 is stable on the real axis for h*lam in [-2.785, 0]


@dataclass(frozen=True)
class StepSignal:
    """Leader position step of the given amplitude at t = 0."""

    amplitude: float

    def value(self, t):
        return self.amplitude * np.ones_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SineSignal:
    """Leader position a*sin(omega*t) for t >= 0."""

    amplitude: float
    omega: float

    def value(self, t):
        return self.amplitude * np.sin(self.omega * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SimScenario:
    """One leader experiment; raises ConfigError unless 0 < dt <= t_end and t_end/dt are finite."""

    cfg: PlatoonConfig
    leader_signal: StepSignal | SineSignal
    t_end: float
    dt: float

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError("dt must be positive and finite")
        if not (self.t_end >= self.dt and math.isfinite(self.t_end)):
            raise ConfigError("t_end must be finite and at least dt")
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigError(f"t_end/dt must be finite; {self.t_end}/{self.dt} overflows")


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled deviations of vehicles 2..n from their rest positions."""

    times: np.ndarray
    positions: np.ndarray  # shape (len(times), n-1)

    def write_csv(self, fh) -> None:
        write_csv(fh, [(self.times, self.positions)])


def write_csv(fh, blocks) -> None:
    """CSV of (times, positions) row blocks: header t,pos_2,...,pos_N, values at full double precision."""
    row = None
    for times, positions in blocks:
        if row is None:
            n_veh = positions.shape[1]
            fh.write("t," + ",".join(f"pos_{i + 2}" for i in range(n_veh)) + "\n")
            row = "%.17g," + ",".join(["%.17g"] * n_veh) + "\n"
        for i in range(0, len(times), _ROWS_PER_FORMAT):
            r = slice(i, i + _ROWS_PER_FORMAT)
            values = np.column_stack((times[r], positions[r]))
            fh.write(row * len(values) % tuple(values.ravel().tolist()))


class _Poles(NamedTuple):
    poles: np.ndarray
    re_min: float
    re_max: float
    im_max: float


@lru_cache(maxsize=32)
def _pole_pass(cfg: PlatoonConfig) -> _Poles:
    """Every closed-loop block pole of a config, read-only, and their extremes.

    ``re_min``, ``re_max`` and ``im_max`` are the smallest and largest real
    part and the largest |imaginary part| over all block poles (inf, -inf and
    0 when no block has a pole).  The rows of each degree are solved in one
    stacked companion-matrix call, once per config: only ``step`` needs the
    poles themselves, and it needs no other stability test.
    """
    M = open_loop(cfg)
    poles = _block_poles(_closed_loop_dens(M, spectrum_report(cfg).eigenvalues))
    poles.flags.writeable = False
    return _Poles(poles, float(poles.real.min(initial=math.inf)), float(poles.real.max(initial=-math.inf)),
                  float(np.abs(poles.imag).max(initial=0.0)))


def dt_limit(cfg: PlatoonConfig) -> float | None:
    """Largest admissible step over all closed-loop block poles.

    It is the smaller of one twentieth of the fastest oscillation period,
    from the largest |imaginary part| of a pole, and RK4's real-axis
    stability bound h*|lam| <= 2.785, from the most negative real part; None
    when no pole oscillates or lies in the left half-plane.
    """
    prep = _pole_pass(cfg)
    limits = []
    if prep.im_max > 0.0:
        limits.append((2.0 * math.pi / prep.im_max) / 20.0)
    if prep.re_min < 0.0:
        limits.append(_RK4_REAL_BOUND / -prep.re_min)
    return min(limits, default=None)


def _rk4_step(ab, B, h, x, u0, u_half, u1):
    """One classic 4th-order step of x' = A x + B u with u(t), u(t+h/2), u(t+h) given.

    ``ab`` is A in the band storage of :func:`platoon._coupled_bands`: 3m
    band rows, m of them above the diagonal.
    """
    A = partial(_band_product, ab, ab.shape[0] // 3)
    k1 = A(x) + B * u0
    k2 = A(x + 0.5 * h * k1) + B * u_half
    k3 = A(x + 0.5 * h * k2) + B * u_half
    k4 = A(x + h * k3) + B * u1
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@np.errstate(over="ignore", invalid="ignore")  # a divergence is reported by stream
def _propagator(ab, B, h):
    """(TB, G) with _rk4_step(ab, B, h, x, *w) == T @ x + G @ w for w = (u0, u_half, u1).

    A has lower bandwidth 2m-1 and upper bandwidth m (m = len(ab) / 3), and
    T is a quartic in A, so column j of T is zero outside rows j-4m ..
    j+4(2m-1): TB is T in LAPACK band storage, T[i, j] = TB[4m + i - j, j].
    Columns W = 12m-3 apart never share a row at any RK4 stage, so one step
    on the sum of every W-th unit vector gives all of their columns at once,
    bit for bit the one-column build (Curtis, Powell & Reid, 1974), as
    consecutive stretches of W rows.
    """
    m, d = ab.shape[0] // 3, ab.shape[1]
    above, width = 4 * m, 12 * m - 3
    TB, probe = np.zeros((width, d)), np.zeros(d)
    cols = np.zeros(d + width)  # row i of a step at index above + i
    for g in range(min(width, d)):
        probe[g::width] = 1.0
        cols[above:above + d] = _rk4_step(ab, B, h, probe, 0.0, 0.0, 0.0)
        probe[g::width] = 0.0
        k = len(range(g, d, width))
        TB[:, g::width] = cols[g:g + k * width].reshape(k, width).T
    return TB, np.stack([_rk4_step(ab, B, h, np.zeros(d), *w) for w in np.eye(3)], axis=1)


def stream(sc: SimScenario):
    """(rows, blocks): fixed-step classic RK4 from zero deviation state.

    The checks run before this returns; ``blocks`` then yields (times,
    positions) row blocks, row 0 first.  Each step is x <- T x + G w,
    w = (u(t), u(t+h/2), u(t+h)): one ``dgbmv`` with the banded T of
    :func:`_propagator` into a row of ``w @ G.T``.  The leader signal is
    sampled and the positions ``X.reshape(-1, m) @ c`` (c the open loop's
    output row) are read once per block of about 64 KiB of states, so
    memory is linear in the state.

    Raises ConfigError when dt exceeds the admissible step (naming it) or
    RK4 amplifies a decaying pole p, |R(h*p)| > 1 with R(z) = 1 + z + z**2/2
    + z**3/6 + z**4/24 (naming the pole), ``simulate``'s output grid would
    not fit in memory (naming its shape), the open loop is not strictly
    proper or a block cannot be formed; ``blocks`` raises it when the
    integration diverges.
    """
    cfg, h = sc.cfg, sc.dt
    limit = dt_limit(cfg)
    if limit is not None and h > limit:
        raise ConfigError(f"dt={h} too large for the closed-loop dynamics; required dt <= {limit:.6g}")
    prep = _pole_pass(cfg)
    decaying = prep.poles[prep.poles.real < 0]
    x, y = h * decaying.real, h * decaying.imag
    re, im, u, v = 1.0, 0.0, 1.0, 0.0
    for k in range(1, 5):  # R(x + jy) term by term, u + jv = (x + jy)**k / k!, in real arithmetic
        u, v = (u * x - v * y) / k, (u * y + v * x) / k
        re, im = re + u, im + v
    amplified = np.flatnonzero(re * re + im * im > 1.0)
    if amplified.size:
        p = complex(decaying[amplified[0]])
        raise ConfigError(f"dt={h} too large for the closed-loop dynamics: RK4 amplifies the pole {p:.6g} "
                          f"by {math.hypot(re[amplified[0]], im[amplified[0]]):.6g} per step")

    t_end = sc.t_end
    if prep.re_max > 0:
        t_cap = 14.0 / prep.re_max  # amplitude growth capped near e^14
        if t_cap < t_end:
            logger.warning("unstable closed-loop blocks: capping t_end from %g to %g", t_end, t_cap)
            t_end = t_cap

    ab, c = _oracle_realization.__wrapped__(cfg)  # uncached: needed only to build T
    m, nn = c.size, cfg.n - 1
    B = np.zeros(ab.shape[1])
    B[m - 1] = cfg.gains[0]
    steps = int(round(t_end / h))
    _check_fits((steps + 1, nn), f"output grid of {steps + 1} x {nn} values does not fit in memory; "
                "raise dt or lower t_end")  # bounds the horizon

    u = sc.leader_signal.value

    def blocks():
        TB, G = _propagator(ab, B, h)
        if nn < 12:  # zero vehicles: dgbmv needs 12m-3 rows
            pad = ((0, 0), (0, m * (12 - nn)))
            TB, G = np.pad(TB, pad), np.pad(G, pad[::-1])
        d = TB.shape[1]
        rows, x = max(1, _BLOCK_BYTES // (8 * d)), np.zeros(d)
        yield np.zeros(1), (x.reshape(-1, m) @ c)[None, :nn]
        for start in range(0, steps, rows):
            k = np.arange(start, min(start + rows, steps))
            t = h * k
            with np.errstate(over="ignore", invalid="ignore"):  # a divergence is reported below
                X = np.stack([u(t), u(t + 0.5 * h), u(t + h)], axis=1) @ G.T  # GW, then the states
                for y in X:
                    # positional incx, offx, beta, y, incy, offy, trans, overwrite_y: keywords cost 1-3 us a call
                    x = dgbmv(d, d, 8 * m - 4, 4 * m, 1.0, TB, x, 1, 0, 1.0, y, 1, 0, 0, 1)
                positions = (X.reshape(-1, m) @ c).reshape(len(t), -1)[:, :nn]
            if not np.all(np.isfinite(x)):  # non-finite values persist, so the last state shows them
                raise ConfigError(f"integration diverged before t={h * (k[-1] + 1):g}: dt={h} is too large "
                                  "for a fast closed-loop pole")
            yield h * (k + 1), positions

    return steps + 1, blocks()


def simulate(sc: SimScenario) -> TimeSeries:
    """The whole output grid of :func:`stream`, with its ConfigErrors."""
    rows, blocks = stream(sc)
    times, positions = np.empty(rows), np.empty((rows, sc.cfg.n - 1))
    k = 0
    for t, x in blocks:
        times[k:k + len(t)], positions[k:k + len(t)] = t, x
        k += len(t)
    return TimeSeries(times=times, positions=positions)

"""Time-domain simulation of the reduced platoon driven by the leader's position.

The state is simulated in deviation coordinates: every vehicle starts at rest
at its reference spacing, the constant spacing offsets cancel identically, and
the leader's position change enters vehicle 2 as an exogenous signal with gain
mu_2.  Outputs are therefore deviations from the initial formation; a unit
leader step settles every deviation at 1 when the open loop contains an
integrator.  Absolute positions are reconstructed on request by subtracting
each vehicle's spacing offset.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analysis import _oracle_realization, _prepared, open_loop
from .platoon import ConfigError, PlatoonConfig, _band_product

logger = logging.getLogger(__name__)

_CHUNK = 1024  # steps per block of leader-signal samples
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

    def absolute_positions(self, ref_distance: float) -> np.ndarray:
        """Absolute coordinates: deviation minus each vehicle's spacing offset."""
        offsets = ref_distance * np.arange(1, self.positions.shape[1] + 1)
        return self.positions - offsets[None, :]

    def write_csv(self, fh) -> None:
        """CSV emission: header t,pos_2,...,pos_N at full double precision."""
        n_veh = self.positions.shape[1]
        fh.write("t," + ",".join(f"pos_{i + 2}" for i in range(n_veh)) + "\n")
        # t is formatted apart: one format over every column, t included, raised
        # peak RSS by 0.25 MB at n = 20 (C heap growth, not data held)
        row_format = ",".join(["%.17g"] * n_veh) + "\n"
        for t, row in zip(self.times, self.positions):  # one row at a time bounds memory
            fh.write("%.17g," % t + row_format % tuple(row.tolist()))


def dt_limit(cfg: PlatoonConfig) -> float | None:
    """Largest admissible step over all closed-loop block poles.

    It is the smaller of one twentieth of the fastest oscillation period,
    from the largest |imaginary part| of a pole, and RK4's real-axis
    stability bound h*|lam| <= 2.785, from the most negative real part; None
    when no pole oscillates or lies in the left half-plane (no constraint
    from these rules).
    """
    prep = _prepared(cfg)
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


def _propagator(ab, B, h):
    """(T, G) with _rk4_step(ab, B, h, x, *w) == T @ x + G @ w for w = (u0, u_half, u1).

    The step is linear in x and w, so each column is the step applied to one
    unit state or unit input.  A has lower bandwidth 2m-1 and upper bandwidth
    m (m the open-loop order, a third of the band rows of ``ab``), and T is
    a quartic in A, so column j of T is zero outside rows j-4m .. j+4(2m-1):
    columns W = 12m-3 apart never share a row at any RK4 stage, and one step
    on the sum of every W-th unit vector gives all of their columns at once
    (Curtis, Powell & Reid, 1974).  While the probes stay finite, each only
    adds exact zeros to the products a single unit vector would form, so T
    is bit-identical to the one-column-at-a-time build.  T is stored dense.
    """
    m, d = ab.shape[0] // 3, ab.shape[1]
    below, above = 4 * (2 * m - 1), 4 * m
    width = below + above + 1
    T = np.zeros((d, d))
    G = np.empty((d, 3))
    probe = np.zeros(d)
    for g in range(min(width, d)):
        probe[g::width] = 1.0
        cols = _rk4_step(ab, B, h, probe, 0.0, 0.0, 0.0)
        probe[g::width] = 0.0
        for j in range(g, d, width):
            band = slice(max(j - above, 0), j + below + 1)
            T[band, j] = cols[band]
    for j, w in enumerate(np.eye(3)):
        G[:, j] = _rk4_step(ab, B, h, np.zeros(d), *w)
    return T, G


def simulate(sc: SimScenario) -> TimeSeries:
    """Fixed-step classic 4th-order integration from zero deviation state.

    Each step is the RK4 step in closed form, x <- T x + G w with
    w = (u(t), u(t+h/2), u(t+h)); the propagator (T, G) is precomputed once
    from the RK4 step itself on the banded realization of
    :func:`analysis._oracle_realization`, at the cost of at most 12m RK4
    steps for open-loop order m, so the integrator, its order and the dt
    contract are those of the classic scheme.  The positions are read from
    the state as ``x.reshape(n - 1, m) @ c``, c the open loop's output row.
    The leader signal is sampled one chunk of steps at a time.

    Raises
    ------
    ConfigError
        When the d-by-d propagator T does not fit in memory (naming the
        state dimension d), dt exceeds the admissible step (naming the
        required dt), the integration diverges (a pole with both a fast
        real part and an oscillation, at the edge of RK4's stability region
        that the step limit does not cover),
        the output grid does not fit in memory (naming its rows and columns),
        the open loop is not strictly proper or a closed-loop block cannot be formed.
    """
    cfg = sc.cfg
    d = (cfg.n - 1) * open_loop(cfg).den.degree
    try:
        np.empty((d, d))  # T, the one array quadratic in the state dimension
    except (MemoryError, ValueError):  # numpy's ValueError: more bytes than an index can address
        raise ConfigError(f"platoon of {cfg.n} vehicles: the {d} x {d} propagator of its state "
                          "does not fit in memory; lower n") from None
    limit = dt_limit(cfg)
    if limit is not None and sc.dt > limit:
        raise ConfigError(f"dt={sc.dt} too large for the closed-loop dynamics; required dt <= {limit:.6g}")

    prep = _prepared(cfg)
    t_end = sc.t_end
    if prep.re_max > 0:
        t_cap = 14.0 / prep.re_max  # amplitude growth capped near e^14
        if t_cap < t_end:
            logger.warning(
                "unstable closed-loop blocks: capping t_end from %g to %g", t_end, t_cap
            )
            t_end = t_cap

    ab, c = _oracle_realization.__wrapped__(cfg)  # not cached: the bands are needed only to build T
    m, nn = c.size, cfg.n - 1
    B = np.zeros(ab.shape[1])
    B[m - 1] = cfg.gains[0]
    steps = int(round(t_end / sc.dt))
    h = sc.dt
    try:
        out = np.empty((steps + 1, nn))
        times = h * np.arange(steps + 1)
    except (MemoryError, ValueError):  # numpy's ValueError: more bytes than an index can address
        raise ConfigError(f"output grid of {steps + 1} x {nn} values does not fit in memory; "
                          "raise dt or lower t_end") from None
    u = sc.leader_signal.value
    x = np.zeros(ab.shape[1])
    out[0] = x.reshape(nn, m) @ c
    with np.errstate(over="ignore", invalid="ignore"):  # a divergence is reported below
        T, G = _propagator(ab, B, h)
        for start in range(0, steps, _CHUNK):
            t = times[start:min(start + _CHUNK, steps)]
            w = np.stack([u(t), u(t + 0.5 * h), u(t + h)], axis=1)
            for k, w_k in enumerate(w, start + 1):
                x = T @ x + G @ w_k
                out[k] = x.reshape(nn, m) @ c
    if not np.all(np.isfinite(x)):  # non-finite values persist, so the last state shows them
        raise ConfigError(f"integration diverged before t={times[-1]:g}: dt={h} is too large "
                          "for a fast closed-loop pole")
    return TimeSeries(times=times, positions=out)

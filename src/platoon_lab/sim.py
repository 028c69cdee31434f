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

import numpy as np

from .analysis import _prepared, build_state_space
from .platoon import PlatoonConfig

logger = logging.getLogger(__name__)


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
    cfg: PlatoonConfig
    leader_signal: StepSignal | SineSignal
    t_end: float
    dt: float

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.t_end >= self.dt and math.isfinite(self.t_end)):
            raise ValueError("t_end must be finite and at least dt")


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
        for t, row in zip(self.times, self.positions):
            fh.write(f"{t:.17g}," + ",".join(f"{x:.17g}" for x in row) + "\n")


def dt_limit(cfg: PlatoonConfig) -> float | None:
    """Largest admissible step: one twentieth of the fastest oscillation period.

    The fastest oscillation is the largest |imaginary part| over all
    closed-loop block poles; None when every pole is real (no constraint
    from this rule).
    """
    w_fast = _prepared(cfg).im_max
    if w_fast == 0.0:
        return None
    return (2.0 * math.pi / w_fast) / 20.0


def simulate(sc: SimScenario) -> TimeSeries:
    """Fixed-step classic 4th-order integration from zero deviation state.

    Raises
    ------
    ValueError
        When dt exceeds the admissible step, naming the required dt, or when
        the integration diverges (a fast real pole the step limit does not
        cover).
    """
    cfg = sc.cfg
    limit = dt_limit(cfg)
    if limit is not None and sc.dt > limit:
        raise ValueError(f"dt={sc.dt} too large for the closed-loop dynamics; required dt <= {limit:.6g}")

    prep = _prepared(cfg)
    t_end = sc.t_end
    if prep.re_max > 0:
        t_cap = 14.0 / prep.re_max  # amplitude growth capped near e^14
        if t_cap < t_end:
            logger.warning(
                "unstable closed-loop blocks: capping t_end from %g to %g", t_end, t_cap
            )
            t_end = t_cap

    A, B, C = build_state_space(cfg)
    steps = int(round(t_end / sc.dt))
    h = sc.dt
    times = h * np.arange(steps + 1)
    u = sc.leader_signal.value
    x = np.zeros(A.shape[0])
    out = np.empty((steps + 1, C.shape[0]))
    out[0] = C @ x
    for k in range(steps):
        t = times[k]
        u0 = float(u(t))
        u_half = float(u(t + 0.5 * h))
        u1 = float(u(t + h))
        k1 = A @ x + B * u0
        k2 = A @ (x + 0.5 * h * k1) + B * u_half
        k3 = A @ (x + 0.5 * h * k2) + B * u_half
        k4 = A @ (x + h * k3) + B * u1
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = C @ x
    if not np.all(np.isfinite(x)):  # non-finite values persist, so the last state shows them
        raise ValueError(f"integration diverged before t={times[-1]:g}: dt={h} is too large "
                         "for a fast closed-loop pole")
    return TimeSeries(times=times, positions=out)

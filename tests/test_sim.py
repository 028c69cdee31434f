import io
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.blas import dgbmv

from platoon_lab import (
    ConfigError,
    PlatoonConfig,
    RationalTF,
    SimScenario,
    SineSignal,
    StepSignal,
    TimeSeries,
    direct_response,
    dt_limit,
    open_loop,
    product_response,
    sim,
    simulate,
    spectrum_report,
)
from platoon_lab.analysis import _oracle_realization, _prepared
from platoon_lab.sim import _pole_pass

from conftest import (
    BAD_CONTROLLER,
    CONTROLLER,
    VEHICLE,
    banded_matrix,
    block_stable,
    f_string_csv,
    kron_state_space,
    make_block,
    make_cfg,
    poly_roots,
)


def realization_response(cfg, omega):
    """Leader-to-last-vehicle response of the realization, one dense solve."""
    A, B, C = kron_state_space(cfg)
    z = np.linalg.solve(1j * omega * np.eye(A.shape[0]) - A, B)
    return complex(C[-1] @ z)


def banded_realization(cfg):
    """(ab, B): the library's banded A, uncached, and the leader input vector of :func:`kron_state_space`."""
    return _oracle_realization.__wrapped__(cfg)[0], kron_state_space(cfg)[1]


def reference_rk4(sc):
    """Independent oracle: the classic RK4 loop stepped one state vector at a time."""
    A, B, C = kron_state_space(sc.cfg)
    h = sc.dt
    steps = int(round(sc.t_end / h))
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
    return times, out


def column_propagator(ab, B, h):
    """Reference (T, G): the RK4 step applied to one unit state or unit input at a time."""
    d = ab.shape[1]
    T = np.empty((d, d))
    G = np.empty((d, 3))
    unit = np.zeros(d)
    for j in range(d):
        unit[j] = 1.0
        T[:, j] = sim._rk4_step(ab, B, h, unit, 0.0, 0.0, 0.0)
        unit[j] = 0.0
    for j, w in enumerate(np.eye(3)):
        G[:, j] = sim._rk4_step(ab, B, h, np.zeros(d), *w)
    return T, G


def whole_band_loop(sc, rows):
    """Reference: the first ``rows`` output rows of x <- T x + G w, one ``dgbmv`` a step on every band row.

    T is :func:`sim._propagator`'s band of 12m - 3 rows, kl = 8m - 4 and
    ku = 4m, with the state padded to 12 vehicles when it has fewer rows.
    """
    cfg, h = sc.cfg, sc.dt
    (ab, B), c = banded_realization(cfg), _oracle_realization(cfg)[1]
    m, nn = c.size, cfg.n - 1
    TB, G = sim._propagator(ab, B, h)
    pad = m * max(0, 12 - nn)
    TB, G = np.pad(TB, ((0, 0), (0, pad))), np.pad(G, ((0, pad), (0, 0)))
    d = TB.shape[1]
    t, u = h * np.arange(rows - 1), sc.leader_signal.value
    X = np.stack([u(t), u(t + 0.5 * h), u(t + h)], axis=1) @ G.T  # GW, then the states
    x = np.zeros(d)
    for y in X:
        x = dgbmv(d, d, 8 * m - 4, 4 * m, 1.0, TB, x, beta=1.0, y=y, overwrite_y=1)
    X = np.vstack([np.zeros(d), X])
    return h * np.arange(rows), (X.reshape(-1, m) @ c).reshape(rows, -1)[:, :nn]


class TestBuildStateSpace:
    """The banded realization that the oracle and the simulation share."""

    def test_state_dimension(self):
        cfg = make_cfg(7)
        ab, c = _oracle_realization(cfg)
        order = cfg.vehicle.den.degree + cfg.controller.den.degree
        assert ab.shape == (3 * order, 6 * order)  # lower bandwidth 2m - 1, upper m
        assert c.shape == (order,)

    def test_equals_kron_assembly(self):
        # seeded random open loops of order 1 to 4; a numerator of degree
        # m - 1 fills the widest upper band
        rng = np.random.default_rng(5)
        unit = RationalTF((1.0,), (1.0,))
        cases = [make_cfg(9, eps=0.3, mu=1.7)]  # the benchmark loop: order 4, numerator degree 2
        for m in (1, 2, 3, 4):
            for num_degree in (m - 1, 0):
                n = int(rng.integers(2, 12))
                vehicle = RationalTF(num=tuple(rng.uniform(-2.0, 2.0, num_degree + 1)),
                                     den=tuple(rng.uniform(-2.0, 2.0, m)) + (float(rng.uniform(0.5, 2.0)),))
                cases.append(PlatoonConfig(n=n, gains=tuple(rng.uniform(0.3, 3.0, n - 1)),
                                           asymmetries=tuple(rng.uniform(0.0, 1.5, n - 1)),
                                           vehicle=vehicle, controller=unit))
        for cfg in cases:
            ab, c = _oracle_realization(cfg)
            got, expect = banded_matrix(ab, c.size), kron_state_space(cfg)[0]
            # == treats -0.0 and 0.0 as equal; the sign of a zero may differ
            assert got.shape == expect.shape and np.array_equal(got, expect)

    def test_frequency_response_matches_product_form(self):
        rng = np.random.default_rng(30)
        for n in (2, 5, 8):
            cfg = make_cfg(n, eps=0.4, mu=1.3)
            for w in rng.uniform(1e-2, 1e2, 7):
                expect = cfg.gains[0] * product_response(cfg, w)
                got = realization_response(cfg, w)
                assert abs(got - expect) / abs(expect) <= 1e-6

    def test_improper_open_loop_rejected(self):
        differentiator = RationalTF(num=(0.0, 1.0), den=(1.0,))
        cfg = make_cfg(3, vehicle=differentiator, controller=RationalTF((1.0,), (1.0,)))
        for run in (lambda: simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=1.0, dt=0.01)),
                    lambda: direct_response(cfg, 1.0)):
            with pytest.raises(ConfigError, match="open loop must be proper"):
                run()

    def test_oracle_and_simulation_share_one_realization(self):
        cfg = make_cfg(6, eps=0.4)
        _oracle_realization.cache_clear()
        direct_response(cfg, 1.0)
        simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=0.1, dt=0.01))
        info = _oracle_realization.cache_info()
        assert info.misses == 1 and info.hits >= 1


class TestSignals:
    def test_step_value(self):
        assert StepSignal(2.5).value(0.0) == 2.5
        assert np.all(StepSignal(1.0).value(np.array([0.0, 1.0])) == 1.0)

    def test_sine_value(self):
        sig = SineSignal(2.0, math.pi)
        assert sig.value(0.5) == pytest.approx(2.0)

    def test_scenario_validation(self):
        cfg = make_cfg(2)
        with pytest.raises(ValueError):
            SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=0.001, dt=0.01)
        for t_end, dt in ((1.0, math.nan), (1.0, math.inf), (math.nan, 0.01), (math.inf, 0.01),
                          (1e300, 1e-300)):  # the step count t_end/dt overflows
            with pytest.raises(ValueError, match="finite"):
                SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=t_end, dt=dt)


class TestSimulate:
    def test_dt_limit_enforced_with_required_value(self):
        cfg = make_cfg(5)
        limit = dt_limit(cfg)
        scenario = SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=10.0, dt=2 * limit)
        with pytest.raises(ValueError, match="required dt"):
            simulate(scenario)

    def test_dt_that_rk4_amplifies_is_refused(self):
        # block poles -2.785 +- 0.314j: at dt = 1 both dt_limit rules pass, but RK4's
        # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 has |R(-2.785 + 0.314j)| = 1.0097
        c = 2.785 ** 2 + 0.314 ** 2
        cfg = PlatoonConfig(n=2, gains=(1.0,), asymmetries=(0.0,), vehicle=RationalTF((1.0,), (c - 1.0, 5.57, 1.0)),
                            controller=RationalTF((1.0,), (1.0,)))
        assert dt_limit(cfg) == 1.0
        with pytest.raises(ConfigError, match=r"dt=1\.0 too large .* amplifies the pole -2\.785\+0\.314j by 1\.0097"):
            sim.stream(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=10.0, dt=1.0))
        ts = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=10.0, dt=0.95))  # |R| = 0.81
        assert np.all(np.isfinite(ts.positions))

    def test_dt_limit_is_fastest_block_oscillation(self):
        # the stacked pole solve must reproduce the per-block solve exactly
        unit = RationalTF((1.0,), (1.0,))
        biproper = RationalTF(num=(1.0, 0.2, 1.0), den=(0.0, 0.5, 1.0))
        improper = RationalTF(num=(1.0, 1.0, 1.0), den=(0.0, 1.0))
        # (1 - s^2)/(1 + s)^2 at lam = 1 loses its leading closed-loop coefficient
        degree_drop = RationalTF(num=(1.0, 0.0, -1.0), den=(1.0, 2.0, 1.0))
        rng = np.random.default_rng(42)
        cases = [make_cfg(5), make_cfg(12, eps=0.3, mu=1.7),
                 PlatoonConfig(n=4, gains=(1.0, 2.0, 1.0), asymmetries=(0.0,) * 3,
                               vehicle=degree_drop, controller=unit)]
        for vehicle, controller in ((VEHICLE, BAD_CONTROLLER), (biproper, unit), (improper, unit)):
            for _ in range(3):
                n = int(rng.integers(2, 30))
                cases.append(PlatoonConfig(
                    n=n, gains=tuple(rng.uniform(0.3, 3.0, n - 1)),
                    asymmetries=tuple(rng.uniform(0.0, 1.5, n - 1)),
                    vehicle=vehicle, controller=controller))
        for cfg in cases:
            M = open_loop(cfg)
            blocks = [make_block(lam, M) for lam in spectrum_report(cfg).eigenvalues]
            poles = [r for b in blocks for r in poly_roots(b.den)]
            w_fast, re_min = max(abs(r.imag) for r in poles), min(r.real for r in poles)
            expect = (re_min, max(r.real for r in poles), w_fast, all(block_stable(b) for b in blocks))
            extremes = _pole_pass(cfg)
            assert (extremes.re_min, extremes.re_max, extremes.im_max, _prepared(cfg).all_stable) == expect
            limits = [(2.0 * math.pi / w_fast) / 20.0] if w_fast else []
            limits += [2.785 / -re_min] if re_min < 0 else []
            assert dt_limit(cfg) == min(limits, default=None)
        assert not _prepared(cases[3]).all_stable  # BAD_CONTROLLER
        first_order = RationalTF(num=(1.0,), den=(1.0, 1.0))
        real_poles = make_cfg(4, vehicle=first_order, controller=RationalTF((1.0,), (1.0,)))
        # no pole oscillates: RK4's real-axis bound at the fastest pole, -1 - lam_max, is the limit
        assert dt_limit(real_poles) == 2.785 / (1.0 + spectrum_report(real_poles).eigenvalues[-1])
        no_left_poles = make_cfg(4, vehicle=RationalTF((1.0,), (-1.0, 1.0)),
                                 controller=RationalTF((-1.0,), (1.0,)))  # poles at 1 + lam > 0
        assert dt_limit(no_left_poles) is None

    def test_two_vehicle_step_settles_to_amplitude(self):
        cfg = make_cfg(2)
        ts = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=120.0, dt=0.01))
        assert abs(ts.positions[-1, 0] - 1.0) < 1e-3

    def test_all_vehicles_settle(self):
        cfg = make_cfg(5, eps=0.5)
        ts = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=150.0, dt=0.01))
        assert np.max(np.abs(ts.positions[-1] - 1.0)) < 1e-3

    def test_linearity_is_exact(self):
        cfg = make_cfg(4)
        one = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=5.0, dt=0.01))
        two = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(2.0), t_end=5.0, dt=0.01))
        assert np.array_equal(two.positions, 2.0 * one.positions)

    @pytest.mark.parametrize("t_end, rows, sizes", [
        # 2500 steps span several blocks of steps, the last one partial
        pytest.param(12.5, 2501, (2, 9), id="12.5-2501"),
        pytest.param(0.02, 5, (2, 9), id="0.02-5"),
        # d = 4(n-1) >= 112 exceeds the build's group width 45, so each
        # probe of the propagator carries two or three columns
        pytest.param(0.005, 2, (29, 32), id="0.005-2-n29to31"),
        pytest.param(0.02, 5, (29, 32), id="0.02-5-n29to31"),
    ])
    def test_matches_reference_rk4_loop(self, t_end, rows, sizes):
        # seeded random platoons
        rng = np.random.default_rng(8)
        for signal in (StepSignal(1.5), SineSignal(0.7, 1.3)):
            for _ in range(3):
                n = int(rng.integers(*sizes))
                cfg = PlatoonConfig(n=n, gains=tuple(rng.uniform(0.5, 2.0, n - 1)),
                                    asymmetries=tuple(rng.uniform(0.0, 0.9, n - 1)),
                                    vehicle=VEHICLE, controller=CONTROLLER)
                sc = SimScenario(cfg=cfg, leader_signal=signal, t_end=t_end, dt=0.005)
                ts = simulate(sc)
                times, expect = reference_rk4(sc)
                assert len(times) == rows and np.array_equal(ts.times, times)
                peak = np.max(np.abs(expect))
                assert np.max(np.abs(ts.positions - expect)) <= 1e-12 * peak

    def test_grouped_propagator_is_bitwise_column_build(self):
        # seeded random open loops of order m = 1..5, with the state dimension
        # d both below and above the group width 12m - 3; at n = 2, d = m is
        # below the lower bandwidth 2m - 1 for m >= 2
        rng = np.random.default_rng(16)
        unit = RationalTF((1.0,), (1.0,))
        cases = [make_cfg(30)]  # the README loop, m = 4: d = 116 against a width of 45
        for m in range(1, 6):
            width = 12 * m - 3
            for n in (2, 1 + (width - 1) // m, 2 + 2 * width // m):
                vehicle = RationalTF(num=tuple(rng.uniform(-2.0, 2.0, m)),
                                     den=tuple(rng.uniform(-2.0, 2.0, m)) + (float(rng.uniform(0.5, 2.0)),))
                cases.append(PlatoonConfig(n=n, gains=tuple(rng.uniform(0.3, 3.0, n - 1)),
                                           asymmetries=tuple(rng.uniform(0.0, 1.5, n - 1)),
                                           vehicle=vehicle, controller=unit))
        for cfg in cases:
            ab, B = banded_realization(cfg)
            m = ab.shape[0] // 3
            for h in (0.01, 0.3):
                TB, G = sim._propagator(ab, B, h)
                T_ref, G_ref = column_propagator(ab, B, h)
                assert TB.shape == (12 * m - 3, ab.shape[1])  # band storage, 4m rows above the diagonal
                T = banded_matrix(TB, 4 * m)
                assert T.tobytes() == T_ref.tobytes() and G.tobytes() == G_ref.tobytes()

    def test_propagator_probe_budget(self, monkeypatch):
        # 12m - 3 grouped state probes and 3 input probes, whatever the size
        calls = []
        rk4_step = sim._rk4_step

        def spy(*args):
            calls.append(None)
            return rk4_step(*args)

        monkeypatch.setattr(sim, "_rk4_step", spy)
        sim._propagator(*banded_realization(make_cfg(100)), 0.01)  # m = 4, d = 396
        assert len(calls) <= 12 * 4 - 3 + 3

    def test_dgbmv_gets_the_trimmed_fortran_band(self, monkeypatch):
        calls = []

        def spy(d, n, kl, ku, alpha, a, *args):
            calls.append((d, kl, ku, a))
            return dgbmv(d, n, kl, ku, alpha, a, *args)

        monkeypatch.setattr(sim, "dgbmv", spy)
        # the README loop (m = 4), whose band rows 8..27 of 45 are nonzero, and
        # platoons of 2 and 3 vehicles, whose bands are taller than their states
        for n, rows, kl, ku in ((20, 20, 11, 8), (2, 7, 3, 3), (3, 14, 7, 6)):
            cfg = make_cfg(n)
            calls.clear()
            simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=0.5, dt=0.01))
            TB, _ = sim._propagator(*banded_realization(cfg), 0.01)
            assert len(calls) == 50
            for d, *bandwidths, a in calls:
                assert a.flags.f_contiguous and (a.shape[0], *bandwidths) == (rows, kl, ku)
                assert a[0].any() and a[-1].any() and rows <= d and d % 4 == 0
                assert np.array_equal(a[:, :4 * (n - 1)], TB[16 - ku:17 + kl])
                assert not a[:, 4 * (n - 1):].any()  # the zero vehicles

    def test_equals_whole_band_loop_bitwise(self):
        # seeded open loops of order 1 to 4 with numerators of full and
        # reduced degree, step and sine leaders, and the unstable loop whose
        # horizon is capped at 205 of 100 000 steps
        rng = np.random.default_rng(27)
        cases = [(make_cfg(3, controller=BAD_CONTROLLER), StepSignal(1.0), 500.0, 0.005),
                 (make_cfg(20), SineSignal(-0.8, 2.1), 3.0, 0.01)]
        for k, n in enumerate((2, 3, 4, 6, 9, 12, 13, 17, 25, 31, 40, 40)):
            m = int(rng.integers(1, 5))
            num_degree = m - 1 if k % 2 else int(rng.integers(0, m))
            vehicle = RationalTF(num=tuple(rng.uniform(0.2, 2.0, num_degree + 1)),
                                 den=tuple(rng.uniform(0.5, 3.0, m)) + (1.0,))
            cfg = PlatoonConfig(n=n, gains=tuple(rng.uniform(0.3, 3.0, n - 1)),
                                asymmetries=tuple(rng.uniform(0.0, 1.2, n - 1)),
                                vehicle=vehicle, controller=RationalTF((1.0,), (1.0,)))
            signal = SineSignal(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.1, 3.0))) if k % 3 == 0 \
                else StepSignal(float(rng.uniform(-2.0, 2.0)))
            dt = min(0.01, 0.5 * (dt_limit(cfg) or 1.0))
            cases.append((cfg, signal, 300 * dt, dt))
        for cfg, signal, t_end, dt in cases:
            sc = SimScenario(cfg=cfg, leader_signal=signal, t_end=t_end, dt=dt)
            ts = simulate(sc)
            times, positions = whole_band_loop(sc, len(ts.times))
            assert ts.times.tobytes() == times.tobytes() and ts.positions.tobytes() == positions.tobytes()
        assert len(simulate(SimScenario(*cases[0])).times) == 206

    def test_stream_memory_is_linear_in_the_state(self):
        # d = 3996 over 10^4 steps: a dense T alone would take 128 MB and the
        # output grid 80 MB; the checks' grid probe only reserves address
        # space and runs before the measure
        sc = SimScenario(cfg=make_cfg(1000), leader_signal=StepSignal(1.0), t_end=100.0, dt=0.01)
        rows, blocks = sim.stream(sc)
        tracemalloc.start()
        try:
            count = sum(len(t) for t, _ in blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == rows == 10_001 and peak < 16 * 2 ** 20

    def test_checks_run_before_the_first_row(self):
        sc = SimScenario(cfg=make_cfg(5), leader_signal=StepSignal(1.0), t_end=10.0, dt=1.0)
        with pytest.raises(ConfigError, match="required dt"):
            sim.stream(sc)  # not iterated

    def test_no_whole_horizon_work_arrays(self):
        # the output grid is the only allocation that grows with the horizon
        sc = SimScenario(cfg=make_cfg(20), leader_signal=StepSignal(1.0), t_end=150.0, dt=0.002)
        tracemalloc.start()
        try:
            ts = simulate(sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ts.positions.nbytes + 4 * 2 ** 20

    @pytest.mark.parametrize("t_end, message", [
        (1e12, "output grid of 1000000000000001 x 3 values"),  # beyond the address space
        (1e17, "output grid of 100000000000000000001 x 3 values"),  # beyond numpy's size limit
    ])
    def test_oversized_output_grid_is_a_config_error(self, t_end, message):
        sc = SimScenario(cfg=make_cfg(4), leader_signal=StepSignal(1.0), t_end=t_end, dt=1e-3)
        with pytest.raises(ConfigError, match=message):
            simulate(sc)

    def test_halving_dt_barely_changes_trajectory(self):
        cfg = make_cfg(4)
        coarse = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=20.0, dt=0.004))
        fine = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=20.0, dt=0.002))
        assert np.max(np.abs(fine.positions[::2] - coarse.positions)) < 1e-6

    def test_integrator_order_is_four(self):
        # fourth-order convergence: consecutive dt-halvings shrink the
        # final-state difference by about 2**4
        cfg = make_cfg(2)
        sig = SineSignal(1.0, 1.0)
        finals = []
        for dt in (0.016, 0.008, 0.004):
            ts = simulate(SimScenario(cfg=cfg, leader_signal=sig, t_end=8.0, dt=dt))
            finals.append(ts.positions[-1, 0])
        order = math.log2(abs(finals[0] - finals[1]) / abs(finals[1] - finals[2]))
        assert 3.5 < order < 4.5

    def test_sine_steady_state_matches_frequency_response(self):
        cfg = make_cfg(3, eps=0.5)
        for w in (0.3, 0.8, 2.0):
            ts = simulate(SimScenario(cfg=cfg, leader_signal=SineSignal(1.0, w),
                                      t_end=140.0, dt=0.005))
            period = 2 * math.pi / w
            tail = ts.times >= ts.times[-1] - period
            amp = 0.5 * (ts.positions[tail, -1].max() - ts.positions[tail, -1].min())
            expect = abs(cfg.gains[0] * product_response(cfg, w))
            assert amp == pytest.approx(expect, rel=0.01)

    def test_unstable_blocks_cap_horizon(self, caplog):
        bad = RationalTF(num=(-3.0, -43.0, -110.0), den=(1.0, 2.9, 1.0))
        cfg = make_cfg(3, controller=bad)
        scenario = SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=500.0, dt=0.005)
        with caplog.at_level(logging.WARNING):
            ts = simulate(scenario)
        assert ts.times[-1] < 500.0
        assert any("capping t_end" in r.message for r in caplog.records)
        assert np.all(np.isfinite(ts.positions))


class TestTimeSeries:
    def test_csv_header_and_rows(self, tmp_path):
        cfg = make_cfg(4)
        ts = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=0.1, dt=0.01))
        out = tmp_path / "step.csv"
        with open(out, "w") as fh:
            ts.write_csv(fh)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,pos_2,pos_3,pos_4"
        assert len(lines) == len(ts.times) + 1

    def test_csv_bytes_equal_f_string_writer(self):
        special = [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1, -1.0 / 3.0]
        ts = TimeSeries(times=np.array([0.0, 5e-324, 0.1, 1e308]),
                        positions=np.array([special[:3], special[3:6], special[5:], special[::3]]))
        fh = io.StringIO()
        ts.write_csv(fh)
        assert fh.getvalue() == f_string_csv(ts)
        assert fh.getvalue().splitlines()[2] == "4.9406564584124654e-324,inf,-inf,nan"

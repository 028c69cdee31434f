import io
import logging
import math
import tracemalloc

import numpy as np
import pytest

from platoon_lab import (
    ConfigError,
    PlatoonConfig,
    Polynomial,
    RationalTF,
    direct_response,
    frequency_series,
    gamma_sequence,
    harmonic_test,
    hinf_norm,
    instantiate_family,
    kappa_modulus_sq,
    open_loop,
    poly_eval,
    product_response,
    spectrum_report,
    verify_eigen_identities,
    zeta_min,
)
from platoon_lab import analysis, platoon
from platoon_lab.analysis import (
    HARMONICALLY_UNSTABLE,
    TEST_INCONCLUSIVE,
    UNSTABLE_BLOCKS,
    _closed_loop_dens,
    _prepared,
    write_freq_csv,
)
from platoon_lab.blockpeak import _min_block_modulus, _quotient, _stable_gains
from platoon_lab.numerics import _axis_pair
from platoon_lab.platoon import _family_log_gains

from conftest import (
    BAD_CONTROLLER,
    CONTROLLER,
    VEHICLE,
    block_stable,
    closed_form_block_peak,
    continuant_log_gain,
    crossing_near_one,
    grid_block_peak,
    kron_state_space,
    make_block,
    make_cfg,
    near_axis,
    poly_roots,
    rtf_eval,
)


def dense_response(cfg, omega):
    """Independent oracle: T(j*omega) from one dense solve on the dense realization."""
    A, B, C = kron_state_space(cfg)
    z = np.linalg.solve(1j * omega * np.eye(A.shape[0]) - A, B / cfg.gains[0])
    return complex(C[-1] @ z)


def random_stable_cfg(rng, n_max=10):
    """Random platoon whose closed-loop blocks are all stable (resampled)."""
    for _ in range(50):
        n = int(rng.integers(2, n_max + 1))
        mus = rng.uniform(0.5, 2.5, n - 1)
        eps = rng.uniform(0.0, 0.9, n - 1)
        scale = rng.uniform(0.7, 1.3, 5)
        controller = RationalTF(
            num=(3.0 * scale[0], 43.0 * scale[1], 110.0 * scale[2]),
            den=(1.0, 2.9 * scale[3], 1.0 * scale[4]),
        )
        cfg = PlatoonConfig(n=n, gains=tuple(mus), asymmetries=tuple(eps),
                            vehicle=VEHICLE, controller=controller)
        rep = spectrum_report(cfg)
        M = open_loop(cfg)
        if all(block_stable(make_block(lam, M)) for lam in rep.eigenvalues):
            return cfg
    raise AssertionError("could not sample a stable configuration")


class TestOpenLoop:
    def test_unit_controller(self):
        cfg = make_cfg(3, controller=RationalTF((1.0,), (1.0,)))
        M = open_loop(cfg)
        assert M.num.coeffs == (1.0,)
        assert M.den.coeffs == (0.0, 0.0, 1.0)

    def test_benchmark_models(self):
        M = open_loop(make_cfg(3))
        assert M.num.coeffs == (3.0, 43.0, 110.0)
        assert M.den.coeffs == (0.0, 0.0, 1.0, 2.9, 1.0)

    def test_common_factors_retained(self):
        shared = RationalTF(num=(1.0, 1.0), den=(1.0, 1.0))
        cfg = make_cfg(3, vehicle=shared, controller=shared)
        M = open_loop(cfg)
        assert M.num.coeffs == (1.0, 2.0, 1.0)
        assert M.den.coeffs == (1.0, 2.0, 1.0)


class TestMakeBlock:
    def test_first_order_loop_closure(self):
        M = RationalTF(num=(1.0,), den=(0.0, 1.0))
        b = make_block(1.0, M)
        assert b.num.coeffs == (1.0,)
        assert b.den.coeffs == (1.0, 1.0)

    def test_unit_dc_gain_with_integrator(self):
        M = open_loop(make_cfg(3))
        for lam in (0.08, 0.5, 2.0, 7.0):
            assert rtf_eval(make_block(lam, M), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_gain_denominator_by_hand(self):
        M = open_loop(make_cfg(3))
        b = make_block(0.5, M)
        assert b.den.coeffs == (1.5, 21.5, 56.0, 2.9, 1.0)

    def test_denominator_built_coefficientwise(self):
        M = open_loop(make_cfg(3))
        b = make_block(0.37, M)
        assert b.den.coeffs == (0.37 * 3.0, 0.37 * 43.0, 1.0 + 0.37 * 110.0, 2.9, 1.0)
        # an improper open loop pads the denominator to the numerator's length
        b = make_block(0.5, RationalTF(num=(0.0, 0.0, 1.0), den=(1.0, 2.0)))
        assert b.den.coeffs == (1.0, 2.0, 0.5)

    def test_cancelled_leading_terms_lower_the_degree(self):
        b = make_block(2.0, RationalTF(num=(0.0, 0.0, -1.0), den=(1.0, 0.0, 2.0)))
        assert b.den.coeffs == (1.0,)
        assert block_stable(b)  # a constant denominator has no poles

    def test_gain_must_be_positive(self):
        with pytest.raises(ValueError):
            make_block(0.0, open_loop(make_cfg(3)))


class TestBlockStable:
    def test_stable_first_order(self):
        assert block_stable(make_block(1.0, RationalTF((1.0,), (0.0, 1.0))))

    def test_unstable_first_order(self):
        # lam*1/(s-1) closed: den = s - 1 + lam; unstable for lam < 1
        assert not block_stable(make_block(0.5, RationalTF((1.0,), (-1.0, 1.0))))

    def test_benchmark_blocks_all_stable(self):
        cfg = make_cfg(20, eps=0.5)
        rep = spectrum_report(cfg)
        M = open_loop(cfg)
        assert all(block_stable(make_block(lam, M)) for lam in rep.eigenvalues)

    @pytest.mark.parametrize("cfg, stable", [
        (near_axis(5e-10), False), (near_axis(2e-9), True),  # a pole at -c for every gain
        (crossing_near_one(5e-10), False), (crossing_near_one(2e-9), True),  # an eigenvalue at a crossing
    ])
    def test_threshold_holds_at_poles_near_the_axis(self, cfg, stable):
        assert _prepared(cfg).all_stable is stable

    @pytest.mark.parametrize("cfg", [make_cfg(20), *map(near_axis, (5e-10, 2e-9, 1e-3, 0.7)),
                                     *map(crossing_near_one, (5e-10, 2e-9, 0.3))])
    def test_every_crossing_gain_moves_a_root_across_the_threshold(self, cfg):
        # at each end t a root lies on -1e-9 to 2e-7 of its modulus, not 1e-8: t is a double, and
        # half an ulp of t ~ 1 moves a root of 1e-9 by 1.1e-7 of itself.  A companion solve resolves
        # such a root beside one of 0.7 only to ~1e-7 of itself, so the two sides of each end are
        # compared 1e-6 (relative) away from it: they differ in the roots left of -1e-9, and each
        # side's classified verdict is the roots'
        M = open_loop(cfg)
        scale, ends, verdicts = _stable_gains(M)
        den, num = np.asarray(M.den.coeffs), np.asarray(M.num.coeffs)
        assert ends
        for k, t in enumerate(ends):
            roots = []
            for side in (1 - 1e-6, 1.0, 1 + 1e-6):
                row = np.zeros(max(den.size, num.size))
                row[:den.size] = den
                row[:num.size] += t * side / scale * num
                roots.append(np.array(poly_roots(Polynomial(tuple(row)))))
            below, at, above = roots
            assert np.min(np.abs(at.real + 1e-9) / np.abs(at)) <= 2e-7
            left = [r.real < -1e-9 for r in (below, above)]
            assert left[0].sum() != left[1].sum()
            for verdict, side in zip(verdicts[k:k + 2], left):
                assert verdict in (None, bool(side.all()))


class TestProductResponse:
    def test_dc_is_inverse_of_first_gain(self):
        assert product_response(make_cfg(6), 1e-9) == pytest.approx(1.0, abs=1e-9)
        assert make_cfg(6, mu=2.0).gains[0] == 2.0
        assert product_response(make_cfg(6, mu=2.0), 1e-9) == pytest.approx(0.5, abs=1e-9)

    def test_single_follower_is_block_over_gain(self):
        cfg = make_cfg(2, mu=1.7)
        blk = make_block(1.7, open_loop(cfg))
        for w in (0.1, 1.0, 5.0):
            expect = rtf_eval(blk, 1j * w) / 1.7
            assert product_response(cfg, w) == pytest.approx(expect, rel=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            cfg = random_stable_cfg(rng, n_max=8)
            for w in rng.uniform(1e-2, 1e2, 8):
                d = direct_response(cfg, w)
                p = product_response(cfg, w)
                assert abs(p - d) / max(abs(d), 1e-12) <= 1e-6

    def test_pole_on_the_axis_is_config_error(self):
        # M = s/s^2 closes to s*(s + lam): every block has a pole at s = 0
        cfg = make_cfg(6, vehicle=RationalTF((0.0, 1.0), (0.0, 0.0, 1.0)),
                       controller=RationalTF((1.0,), (1.0,)))
        with pytest.raises(ConfigError, match="response undefined at omega=0.0: closed-loop pole"):
            product_response(cfg, np.array([1.0, 0.0]))

    def test_infinite_z_gives_zero(self):
        # M = s/(s+1)^3: z = 1/M is infinite at s = 0, where every block is 0
        cfg = make_cfg(6, vehicle=RationalTF((1.0,), (1.0, 2.0, 1.0)),
                       controller=RationalTF((0.0, 1.0), (1.0, 1.0)))
        assert product_response(cfg, 0.0) == 0
        vals = product_response(cfg, np.array([0.0, 1.0]))
        assert vals[0] == 0 and vals[1] == pytest.approx(product_response(cfg, 1.0), rel=1e-15)
        with np.errstate(over="ignore"):  # den(M) = s^2 (1 + 2.9s + s^2) overflows to inf + finite j
            assert product_response(make_cfg(6), np.array([1.0, 1e90]))[1] == 0

    def test_grid_and_peak_search_hold_one_block(self):
        # the 2999-by-2000 complex grid of logs would be 96 MB; the product holds about 256 KiB of it at once
        cfg = make_cfg(3000)
        grid = np.logspace(-3, 3, 2000)
        product_response(cfg, 1.0)  # the spectrum and poles are cached outside the trace
        for run in (lambda: product_response(cfg, grid), lambda: hinf_norm(lambda w: product_response(cfg, w))):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 5e6

    def test_shape_of_omega_is_kept(self):
        cfg, w = make_cfg(6), np.logspace(-1.0, 1.0, 6)
        got = product_response(cfg, w.reshape(2, 3))
        assert got.shape == (2, 3)
        assert got.tobytes() == product_response(cfg, w).tobytes()

    def test_array_evaluation_matches_scalars(self):
        # each frequency's log-sum is one contiguous row: the same bits alone as in a grid
        w = np.logspace(-3.0, 3.0, 400)
        for n in (5, 20, 200):
            cfg = make_cfg(n)
            scalars = np.array([product_response(cfg, x) for x in w])
            assert product_response(cfg, w).tobytes() == scalars.tobytes()

    def test_unstable_blocks_warn_but_evaluate(self, caplog):
        cfg = make_cfg(3, controller=BAD_CONTROLLER)
        _prepared.cache_clear()  # the warning is logged on a cache miss only
        with caplog.at_level(logging.WARNING):
            val = product_response(cfg, 1.0)
        assert np.isfinite(val.real)
        assert any("unstable" in r.message for r in caplog.records)


class TestDirectResponse:
    def test_zero_frequency_uses_block_convention(self):
        cfg = make_cfg(4)
        assert direct_response(cfg, 0.0) == product_response(cfg, 0.0)

    def test_two_vehicle_case(self):
        cfg = make_cfg(2)
        blk = make_block(1.0, open_loop(cfg))
        assert direct_response(cfg, 2.0) == pytest.approx(rtf_eval(blk, 2j), rel=1e-10)

    def test_banded_solve_matches_dense_solve(self):
        rng = np.random.default_rng(9)
        unit = RationalTF((1.0,), (1.0,))
        cases = [random_stable_cfg(rng, n_max=30) for _ in range(6)]  # order 4, numerator degree 2
        for n in (2, *rng.integers(3, 31, 3)):  # orders 1 and 2, numerator degree order - 1: the widest upper band
            n = int(n)
            a, b, c = rng.uniform(0.2, 3.0, 3)
            for vehicle in (RationalTF((a,), (b, 1.0)), RationalTF((1.0, a), (c, b, 1.0))):
                cases.append(PlatoonConfig(n=n, gains=tuple(rng.uniform(0.5, 2.5, n - 1)),
                                           asymmetries=tuple(rng.uniform(0.0, 0.9, n - 1)),
                                           vehicle=vehicle, controller=unit))
        for cfg in cases:
            for w in 10.0 ** rng.uniform(-2.0, 2.0, 4):
                expect = dense_response(cfg, w)
                assert abs(direct_response(cfg, w) - expect) <= 1e-12 * abs(expect)

    def test_matches_product_at_n5000(self):
        # d = 20 000 states: a dense solve would take 6.4 GB; the response
        # spans 1 to 1e258 over these frequencies
        cfg = make_cfg(5000, eps=0.5)
        for w in (0.01, 0.3, 1.0, 3.0):
            expect = product_response(cfg, w)
            assert 0.0 < abs(expect) < math.inf
            assert abs(direct_response(cfg, w) - expect) <= 1e-6 * abs(expect)

    def test_pole_on_the_axis_is_value_error(self):
        # M = 1/s^2 at lam = 1 closes to s^2 + 1: j*I - A is exactly singular at omega = 1
        cfg = make_cfg(2, vehicle=VEHICLE, controller=RationalTF((1.0,), (1.0,)))
        with pytest.raises(ValueError, match="response undefined at omega=1.0"):
            direct_response(cfg, 1.0)


class TestHinfNorm:
    def test_first_order_peak_at_dc(self):
        tf = RationalTF(num=(1.0,), den=(1.0, 1.0))
        gamma, w0 = hinf_norm(lambda w: rtf_eval(tf, 1j * np.asarray(w, dtype=float)))
        assert gamma == pytest.approx(1.0, abs=1e-12)
        assert w0 == 0.0

    def test_uniform_bound_block_peaks_above_one(self):
        M = open_loop(make_cfg(20, eps=0.5))
        blk = make_block(0.25 / 3.0, M)
        gamma, w0 = hinf_norm(lambda w: rtf_eval(blk, 1j * np.asarray(w, dtype=float)))
        assert gamma > 1.0
        assert gamma == pytest.approx(1.3224816, rel=1e-5)
        assert w0 == pytest.approx(2.45, rel=1e-2)

    def test_two_integrator_loops_always_peak(self):
        M = open_loop(make_cfg(3))
        for lam in (0.01, 0.1, 1.0, 9.5):
            blk = make_block(lam, M)
            gamma, _ = hinf_norm(lambda w: rtf_eval(blk, 1j * np.asarray(w, dtype=float)))
            assert gamma > 1.0

    def test_pd_family_over_double_integrator_peaks(self):
        # stabilizing PD controllers over 1/s^2 keep two integrators in the
        # loop, so every closed-loop gain peaks above one
        rng = np.random.default_rng(22)
        for _ in range(100):
            kp, kd = rng.uniform(0.1, 10.0, 2)
            lam = float(rng.uniform(1e-3, 10.0))
            M = RationalTF(num=(kp, kd), den=(0.0, 0.0, 1.0))
            blk = make_block(lam, M)
            assert block_stable(blk)
            gamma, _ = hinf_norm(lambda w: rtf_eval(blk, 1j * np.asarray(w, dtype=float)))
            assert gamma > 1.0

    def test_non_finite_response_names_frequency(self):
        grid = analysis._scan_grid(1e-3, 1e3)

        def bad(w):
            w = np.asarray(w, dtype=float)
            return np.where(w > 1.0, np.inf, 1.0) + 0j

        def between(w):  # finite at every scan point, so only a refinement probe sees inf
            w = np.asarray(w, dtype=float)
            return np.where(np.isin(w, grid), 1.0, np.inf) + 0j

        for response in (bad, between):
            with pytest.raises(ValueError, match="non-finite response at omega="):
                hinf_norm(response)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            hinf_norm(lambda w: np.ones_like(w), omega_lo=1.0, omega_hi=0.1)

    def test_peak_at_the_last_point_of_a_short_grid(self):
        # the bracket's upper end is the grid's last point, whatever the grid's size
        grid = np.logspace(0.0, 1.0, 50)
        search = analysis._refine(grid, analysis._best_index(grid, grid.copy()))
        (peak,), error = analysis._lockstep([search], lambda ks, omegas: ([omegas[0]], None))
        assert peak == (10.0, 10.0) and error is None


class TestBlockPeak:
    """The closed-form block peak of :func:`blockpeak._block_peak`."""

    def test_harmonic_peak_is_the_mpmath_stationary_point(self):
        mpmath = pytest.importorskip("mpmath")
        cfg = make_cfg(20, eps=0.5)
        v = harmonic_test(cfg)
        lam, M = v.lambda_min_used, open_loop(cfg)
        assert lam == pytest.approx(1.0 / 12.0, rel=1e-15)
        num = list(lam * np.asarray(M.num.coeffs))  # the block's float coefficients
        den = list(_closed_loop_dens(M, [lam])[0])
        with mpmath.workdps(50):
            def gain_sq(w):
                s = mpmath.mpc(0, w)
                return abs(mpmath.polyval(num[::-1], s) / mpmath.polyval(den[::-1], s)) ** 2

            w_star = mpmath.findroot(lambda w: mpmath.diff(gain_sq, w), v.omega0)
            gamma = float(mpmath.sqrt(gain_sq(w_star)))
        assert abs(v.omega0 - float(w_star)) <= 1e-12 * float(w_star)
        assert abs(v.hinf_gamma_min - gamma) <= 1e-14 * gamma

    @pytest.mark.parametrize("M, lam, omega0", [
        (RationalTF((1.0,), (1.0,)), 0.5, 1e-3),  # static loop: constant |T| = 1/3
        (RationalTF((0.0,), (1.0,)), 0.5, 1e-3),  # M = 0: T = 0
        (RationalTF((1e301,), (1.0, 1.0)), 0.5, 1e-3),  # s is round-off: T = 1
        (RationalTF((1.0, -1.0), (1.0, 1.0)), 1.0, 1e3),  # all-pass loop, denominator 2 + 0*s
        (RationalTF((1.0, -1.0), (1.0, 1.0)), 0.5, 1e3),  # all-pass loop, rising to 1/3
        (RationalTF((1.0, 0.0, -1.0), (1.0, 2.0, 1.0)), 1.0, 1e3),  # degree drops to 2 + 2s
        (RationalTF((1.0,), (1.0, 1.0)), 0.5, 0.0),  # lam/(s + 1 + lam) wins at DC
        (RationalTF((1.0,), (0.0, 1.0)), 0.5, 0.0),  # lam/(s + lam): unit DC gain
    ])
    def test_edge_blocks_give_the_grid_results(self, M, lam, omega0):
        gamma, w0 = closed_form_block_peak(lam, M)
        want_gamma, want_w0 = grid_block_peak(lam, M)
        assert w0 == want_w0 == omega0
        assert gamma == pytest.approx(want_gamma, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lo, hi", [(1e-3, 1.0), (3.0, 1e3)])
    def test_peak_outside_the_band_gives_the_band_edge(self, lo, hi):
        # the uniform-bound block of the benchmark loop peaks at omega = 2.45
        M = open_loop(make_cfg(3))
        gamma, w0 = closed_form_block_peak(0.25 / 3.0, M, lo, hi)
        want_gamma, want_w0 = grid_block_peak(0.25 / 3.0, M, lo, hi)
        assert w0 == want_w0 == (hi if hi < 2.45 else lo)
        assert gamma == pytest.approx(want_gamma, rel=1e-14, abs=0.0)

    def test_harmonic_and_zeta_min_run_no_grid_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a grid search ran")

        for name in ("_scan_grid", "_refine"):
            monkeypatch.setattr(analysis, name, forbidden)
        for eps in (0.5, 1.0):
            cfg = make_cfg(20, eps=eps)
            assert harmonic_test(cfg).hinf_gamma_fiedler > 1.0
            assert zeta_min(cfg) > 1.0

    def test_quotient_is_pythons_complex_division(self):
        rng = np.random.default_rng(21)
        p = rng.normal(size=60) + 1j * rng.normal(size=60)
        q = rng.normal(size=60) + 1j * rng.normal(size=60)
        q[::3] = q[::3].real  # real divisors, and purely imaginary ones
        q[1::3] = 1j * q[1::3].imag
        assert np.array_equal(_quotient(p, q), [complex(a) / complex(b) for a, b in zip(p, q)])
        assert np.isnan(_quotient(np.array([1 + 1j]), np.array([0j]))).all()  # unwarned

    def test_unit_dc_gain_is_exactly_one(self):
        # the correctly rounded Fiedler value at eps = 1, n = 10, for which numpy's complex
        # quotient lam/lam gives 1 - 2**-53
        lam = 0.027277393194555254
        assert _quotient(*_axis_pair([lam], [lam, 1.0], [0.0]))[0] == 1.0


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        import platoon_lab

        assert all(hasattr(platoon_lab, name) for name in platoon_lab.__all__)
        for name in ("make_block", "rtf_eval", "poly_mul", "poly_roots"):
            assert name not in platoon_lab.__all__ and not hasattr(platoon_lab, name)


class TestKappaModulus:
    def test_kappa_one_equals_block_modulus(self):
        cfg = make_cfg(20, eps=0.5)
        rep = spectrum_report(cfg)
        M = open_loop(cfg)
        blk = make_block(rep.fiedler, M)
        _, w0 = hinf_norm(lambda w: rtf_eval(blk, 1j * np.asarray(w, dtype=float)))
        ab = rep.fiedler * rtf_eval(M, 1j * w0)
        direct_sq = abs(rtf_eval(blk, 1j * w0)) ** 2
        assert kappa_modulus_sq(1.0, ab.real, ab.imag) == pytest.approx(direct_sq, rel=1e-9)

    def test_boundary_alpha_gives_exactly_one(self):
        assert kappa_modulus_sq(1.0, -0.5, 0.7) == pytest.approx(1.0, abs=1e-15)

    def test_amplification_for_all_kappa(self):
        for alpha, beta in [(-0.75, -0.76), (-0.6, 0.2), (-2.0, 1.0)]:
            for kappa in np.linspace(1.0, 40.0, 200):
                assert kappa_modulus_sq(kappa, alpha, beta) > 1.0

    def test_zero_denominator_raises(self):
        with pytest.raises(ValueError, match="zero denominator"):
            kappa_modulus_sq(1.0, -1.0, 0.0)


class TestZetaMin:
    def test_exceeds_one_when_peak_does(self):
        z = zeta_min(make_cfg(20, eps=0.5))
        assert z > 1.0

    def test_collapsed_interval_single_eigenvalue(self):
        cfg = make_cfg(2)
        rep = spectrum_report(cfg)
        M = open_loop(cfg)
        blk = make_block(rep.fiedler, M)
        gamma, w0 = hinf_norm(lambda w: rtf_eval(blk, 1j * np.asarray(w, dtype=float)))
        assert zeta_min(cfg) == pytest.approx(abs(rtf_eval(blk, 1j * w0)), rel=1e-9)

    def test_none_without_a_peak_above_one(self):
        # 1/(1+s) with unit control: every block lam/(s + 1 + lam) peaks below 1 at DC
        cfg = make_cfg(6, vehicle=RationalTF(num=(1.0,), den=(1.0, 1.0)),
                       controller=RationalTF(num=(1.0,), den=(1.0,)))
        assert zeta_min(cfg) is None
        assert [p.zeta_min_lower for p in gamma_sequence(cfg, [3, 6])] == [None, None]

    def test_peak_gain_dominates_block_growth(self):
        cfg = make_cfg(20, eps=0.5)
        z = zeta_min(cfg)
        gamma, _ = hinf_norm(lambda w: product_response(cfg, w))
        assert gamma >= z ** 19

    def test_closed_form_matches_dense_kappa_grid(self):
        # the block modulus has no interior minimum in kappa, so the closed
        # form (an end of the interval) must match a fine grid's minimum
        rng = np.random.default_rng(41)
        for _ in range(500):
            alpha, beta = rng.uniform(-3.0, -0.5), rng.uniform(-3.0, 3.0)
            kappa_max = rng.uniform(1.0, 100.0)
            ks = np.linspace(1.0, kappa_max, 10_000)
            grid = 1.0 - (2.0 * ks * alpha + 1.0) / ((ks * alpha + 1.0) ** 2 + (ks * beta) ** 2)
            zeta = _min_block_modulus(alpha, beta, kappa_max)
            assert abs(zeta - math.sqrt(grid.min())) <= 4 * math.ulp(zeta)


class TestHarmonicTest:
    def test_benchmark_asymmetric_is_harmonically_unstable(self):
        v = harmonic_test(make_cfg(20, eps=0.5))
        assert v.verdict == HARMONICALLY_UNSTABLE
        assert v.lambda_min_used == pytest.approx(0.25 / 3.0)
        assert v.hinf_gamma_min > 1.0
        assert v.alpha < -0.5 + 1e-9
        assert v.zeta_min > 1.0
        assert v.hinf_gamma_fiedler > 1.0

    def test_symmetric_is_inconclusive_not_unstable(self):
        v = harmonic_test(make_cfg(20, eps=1.0))
        assert v.verdict == TEST_INCONCLUSIVE
        assert v.fiedler_lower is None
        assert v.hinf_gamma_min is None
        # the per-size diagnostic still exists and exceeds one (two integrators)
        assert v.hinf_gamma_fiedler > 1.0

    def test_predecessor_following_two_integrators_unstable(self):
        v = harmonic_test(make_cfg(10, eps=0.0))
        assert v.verdict == HARMONICALLY_UNSTABLE
        assert v.lambda_min_used == pytest.approx(0.5)

    def test_destabilized_controller_reports_unstable_blocks(self):
        v = harmonic_test(make_cfg(5, controller=BAD_CONTROLLER))
        assert v.verdict == UNSTABLE_BLOCKS
        assert v.hinf_gamma_min is None

    def test_verdict_iff_contract(self):
        for cfg in [make_cfg(8, eps=0.5), make_cfg(8, eps=1.0),
                    make_cfg(8, eps=0.0), make_cfg(5, controller=BAD_CONTROLLER)]:
            v = harmonic_test(cfg)
            fired = v.verdict == HARMONICALLY_UNSTABLE
            hypothesis = (v.verdict != UNSTABLE_BLOCKS
                          and v.hinf_gamma_min is not None and v.hinf_gamma_min > 1.0)
            assert fired == hypothesis

    def test_alpha_below_half_whenever_peak_exceeds_one(self):
        for eps in (0.0, 0.3, 0.5, 0.8):
            v = harmonic_test(make_cfg(12, eps=eps))
            if v.hinf_gamma_min is not None and v.hinf_gamma_min > 1.0:
                assert v.alpha < -0.5 + 1e-9


class TestGammaSequence:
    def test_growth_and_block_bound(self):
        pts = gamma_sequence(make_cfg(5, eps=0.5), [5, 10, 15])
        gammas = [p.gamma for p in pts]
        assert gammas == sorted(gammas)
        for p in pts:
            assert p.zeta_min_lower is not None
            assert p.gamma >= p.zeta_min_lower ** (p.n - 1)

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_block_bound_holds_at_two_vehicles(self, eps):
        # one block, whose peak and modulus round apart: the order holds here, not by construction
        (p,) = gamma_sequence(make_cfg(20, eps=eps), [2])
        assert p.zeta_min_lower is not None
        assert p.gamma >= p.zeta_min_lower ** (p.n - 1)

    def test_instantiate_family_cycles_rules(self):
        template = PlatoonConfig(n=4, gains=(1.0, 2.0, 3.0), asymmetries=(0.1, 0.2, 0.0),
                                 vehicle=VEHICLE, controller=CONTROLLER)
        cfg = instantiate_family(template, 6)
        assert cfg.gains == (1.0, 2.0, 3.0, 1.0, 2.0)
        assert cfg.asymmetries == (0.1, 0.2, 0.1, 0.2, 0.0)

    def test_constant_template_broadcasts(self):
        cfg = instantiate_family(make_cfg(5, eps=0.5, mu=1.5), 9)
        assert cfg.gains == (1.5,) * 8
        assert cfg.asymmetries == (0.5,) * 7 + (0.0,)

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_sweep_equals_per_size_product_peaks(self, eps):
        # the continuant pass only seeds the refinement, which runs on the product
        template, sizes = make_cfg(20, eps=eps), range(5, 201, 5)
        got = [(p.n, p.gamma, p.zeta_min_lower) for p in gamma_sequence(template, sizes)]
        want = []
        for n in sizes:
            cfg = instantiate_family(template, n)
            want.append((n, hinf_norm(lambda w: product_response(cfg, w))[0], zeta_min(cfg)))
        assert got == want

    def test_unsorted_sizes_with_repeats_keep_their_order(self):
        template = PlatoonConfig(n=4, gains=(1.0, 2.0, 0.5), asymmetries=(0.3, 1.2, 0.0),
                                 vehicle=VEHICLE, controller=CONTROLLER)
        sizes = [9, 2, 9, 4, 3]
        got = gamma_sequence(template, sizes)
        assert [p.n for p in got] == sizes
        assert got[0] == got[2]
        assert [p.gamma for p in got] == [p.gamma for n in sizes for p in gamma_sequence(template, [n])]

    @pytest.mark.parametrize("template, omegas", [
        (make_cfg(20, eps=0.5), [0.0, 1e-3, 2.45, 7.0, 1e3]),
        # num(M) = 1 + s^2 vanishes at omega = 1: z is infinite and T is 0 there
        (make_cfg(5, vehicle=RationalTF((1.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0)), controller=RationalTF((1.0,), (1.0,))),
         [0.0, 1.0, 0.5, 3.0, 1.0]),
    ], ids=["golden-loop", "infinite-z"])
    def test_batched_probes_are_single_product_calls(self, template, omegas):
        # one round over five sizes, each probe in one buffer, against one product_response call each;
        # the search takes Python's abs of each value, as of a single call's
        cfgs = [instantiate_family(template, n) for n in (40, 2, 13, 200, 5)]
        preps = [_prepared(cfg) for cfg in cfgs]
        for shift in range(len(omegas)):  # every size meets every frequency
            ws = omegas[shift:] + omegas[:shift]
            values, error = analysis._probe_values([p.rep.eigenvalues for p in preps], template.gains[0],
                                                   preps[0].M, ws)
            assert error is None
            want = [product_response(cfg, w) for cfg, w in zip(cfgs, ws)]
            assert np.array(values).tobytes() == np.array(want).tobytes()
            assert [abs(complex(v)) for v in values] == [abs(v) for v in want]

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_refinement_budget(self, monkeypatch, eps):
        # at most 16 probes per size on average, the DC probe included: Brent's method
        # needs 9 to 24 for one size and 12.3 (eps 0.5) and 11.0 (eps 1.0) on average; the
        # golden section took 33 for every size
        probes = []
        real = analysis._probe_values

        def counting(eigs, mu, M, omegas):
            probes.extend(omegas)
            return real(eigs, mu, M, omegas)

        monkeypatch.setattr(analysis, "_probe_values", counting)
        sizes = range(5, 201, 5)
        gamma_sequence(make_cfg(20, eps=eps), sizes)
        assert len(sizes) <= len(probes) <= 16 * len(sizes)

    def test_sweep_at_n2000_holds_no_grid(self):
        _prepared.cache_clear()
        tracemalloc.start()
        try:
            gamma_sequence(make_cfg(20, eps=0.5), [2000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6  # the 1999-by-2000 complex grid of the product alone is 64 MB

    def test_sweep_of_large_sizes_holds_one_block(self):
        # 15 sizes with 36 000 eigenvalues in all: one round's buffer holds a group's, about 256 KiB
        _prepared.cache_clear()
        tracemalloc.start()
        try:
            points = gamma_sequence(make_cfg(20, eps=0.5), range(1000, 3801, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [p.n for p in points] == list(range(1000, 3801, 200))
        assert peak < 5e6

    def test_overflow_names_the_first_frequency(self):
        # log|T| is finite at n = 4000, but T itself exceeds double range
        with pytest.raises(ValueError, match=r"non-finite response at omega=5\.6088"):
            gamma_sequence(make_cfg(20, eps=0.5), [4000])

    def test_zero_pivot_is_a_pole_on_the_axis(self):
        # M = 1/s^2: every block lam/(lam + s^2) has a pole at omega = 1 = grid[0]
        # (at n = 2 the zero pivot closes the determinant, at n = 5 it is the first of four)
        template = make_cfg(5, eps=0.0, controller=RationalTF((1.0,), (1.0,)))
        s = 1j * np.logspace(0.0, 1.0, 2000)
        rows = _family_log_gains(template, [2, 5], s ** 2, np.ones_like(s))
        assert np.isnan(rows[2][0]) and np.isnan(rows[5][0])
        for n in (2, 5):
            with pytest.raises(ConfigError, match=r"response undefined at omega=1\.0: closed-loop pole"):
                gamma_sequence(template, [n], (1.0, 10.0))

    def test_zero_pivot_scan_from_the_product_in_blocks(self):
        # the scan that the continuant leaves NaN comes from the product in ~256 KiB blocks,
        # not from one 1999-by-2000 complex grid (64 MB), and fails at the same frequency
        template = make_cfg(5, eps=0.0, controller=RationalTF((1.0,), (1.0,)))
        _prepared(instantiate_family(template, 2000))  # the spectrum is cached outside the trace
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^response undefined at omega=1\.0: closed-loop pole on the "
                                                  r"imaginary axis$"):
                gamma_sequence(template, [2000], (1.0, 10.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_infinite_z_gives_zero(self):
        # num(M) = 1 + s^2 vanishes at omega = 1 = grid[0]: T = 0 there
        template = make_cfg(5, vehicle=RationalTF((1.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0)),
                            controller=RationalTF((1.0,), (1.0,)))
        grid = np.logspace(0.0, 1.0, 2000)
        M = open_loop(template)
        a, b = poly_eval(M.den, 1j * grid), poly_eval(M.num, 1j * grid)
        assert b[0] == 0
        rows = _family_log_gains(template, [3, 8], a, b)
        assert rows[3][0] == rows[8][0] == -np.inf
        assert np.all(np.isfinite(rows[8][1:]))
        for p in gamma_sequence(template, [3, 8], (1.0, 10.0)):
            cfg = instantiate_family(template, p.n)
            assert p.gamma == pytest.approx(hinf_norm(lambda w: product_response(cfg, w), 1.0, 10.0)[0],
                                            rel=1e-12)

    def test_symmetric_root_gain_peaks_at_n51(self):
        # the README's note on criterion 5: gamma_N^(1/N) rises after N = 10 and peaks at N = 51
        pts = gamma_sequence(make_cfg(20, eps=1.0), range(30, 101))
        best = max(pts, key=lambda p: p.gamma_root_n)
        assert best.n == 51
        assert best.gamma_root_n == pytest.approx(1.0162628, abs=1e-7)


class PivotPassCalled(Exception):
    pass


class TestUniformFamilyScan:
    """A one-gain, one-asymmetry template's scan comes from the continuant's closed form."""

    @pytest.mark.parametrize("mu, eps, n, tol", [
        (1.0, 0.5, 200, 1e-12),
        (1.0, 0.5, 1000, 1e-12),
        (1.0, 1.0, 60, 1e-12),
        # the double root at low frequency: forming d + z would cost z its low bits, 5.6e-12 here
        (1.0, 1.0, 300, 1e-12),
        # eps > 1: the float bands round mu + mu*eps, and the pass was off by 7.1e-3 and 3.6e-5 here
        (0.987, 1.30, 113, 1e-8),
        (0.980, 1.29, 99, 1e-8),
    ])
    def test_matches_the_exact_continuant(self, mu, eps, n, tol):
        template = make_cfg(20, eps=eps, mu=mu)
        omegas = np.logspace(-3.0, 1.5, 28)
        M = open_loop(template)
        rows = _family_log_gains(template, [n], *_axis_pair(M.den.coeffs, M.num.coeffs, omegas))
        want = continuant_log_gain(instantiate_family(template, n), omegas)
        assert np.max(np.abs(rows[n] - want)) <= tol

    @pytest.fixture
    def no_pivot_pass(self, monkeypatch):
        def refuse(*args):
            raise PivotPassCalled

        monkeypatch.setattr(platoon, "_pivot_log_gains", refuse)

    def test_uniform_template_skips_the_pivot_pass(self, no_pivot_pass):
        (p,) = gamma_sequence(make_cfg(20, eps=0.5), [1000])
        assert p.n == 1000 and math.isfinite(p.gamma)

    def test_heterogeneous_template_takes_the_pivot_pass(self, no_pivot_pass):
        rng = np.random.default_rng(2813)
        template = PlatoonConfig(n=5, gains=rng.uniform(1.0, 2.0, 4), asymmetries=[*rng.uniform(0.2, 0.8, 3), 0.0],
                                 vehicle=VEHICLE, controller=CONTROLLER)
        with pytest.raises(PivotPassCalled):
            gamma_sequence(template, [5, 10])


def hinf_hamiltonian(A, b, c, tol=1e-14):
    """H-infinity norm of c (sI - A)^-1 b, A stable, by the Bruinsma-Steinbuch iteration.

    Independent of the band scan: for gamma above every |G(j*omega)| the
    Hamiltonian [[A, b b^T/gamma], [-c^T c/gamma, -A^T]] has no imaginary
    eigenvalue, and otherwise its imaginary eigenvalues j*omega_i are the
    frequencies where |G| = gamma.  Each step raises the lower bound to the
    largest |G| at the midpoints of consecutive omega_i (Bruinsma & Steinbuch,
    1990), over all frequencies, not only a band.  Dense, so for d <= 200.
    The eigenvalues near a peak carry errors far above rounding, so an
    eigenvalue counts as imaginary up to |Re| <= 1e-6 |lambda|, and the
    iteration stops when no midpoint raises the bound by more than ``tol``.
    """
    d = A.shape[0]
    assert d <= 200
    eye = np.eye(d)

    def gain(w):
        return abs(c @ np.linalg.solve(1j * w * eye - A, b))

    poles = np.linalg.eigvals(A)
    cx = poles[poles.imag != 0]
    # initial frequency: the most lightly damped pole's modulus (Bruinsma & Steinbuch)
    p = cx[np.argmax(np.abs(cx.imag / cx.real) / np.abs(cx))] if cx.size else poles[np.argmin(np.abs(poles))]
    lower = max(gain(0.0), gain(abs(p)))
    for _ in range(30):
        g = (1 + 2 * tol) * lower
        ev = np.linalg.eigvals(np.block([[A, np.outer(b, b) / g], [-np.outer(c, c) / g, -A.T]]))
        w = np.sort(ev.imag[(np.abs(ev.real) <= 1e-6 * np.abs(ev)) & (ev.imag > 0)])
        mids = (w[:-1] + w[1:]) / 2 if w.size > 1 else w
        best = max((gain(m) for m in mids), default=0.0)
        if best <= lower * (1 + tol):
            return lower
        lower = best
    raise AssertionError("the Hamiltonian iteration did not converge")


class TestHamiltonianOracle:
    def test_pins_the_symmetric_sweep_of_criterion_5(self):
        sizes = list(range(5, 51, 5))
        template = make_cfg(5, eps=1.0)
        got = [p.gamma for p in gamma_sequence(template, sizes)]
        expect = []
        for n in sizes:
            cfg = instantiate_family(template, n)
            A, B, C = kron_state_space(cfg)
            expect.append(hinf_hamiltonian(A, B / cfg.gains[0], C[-1]))
        assert np.allclose(got, expect, rtol=1e-12, atol=0)
        # the norm over all frequencies confirms the sweep's shape: gamma_N^(1/N)
        # dips at N = 10 and rises after it, so it is not non-increasing
        roots = np.array(expect) ** (1.0 / np.array(sizes))
        assert roots[1] < roots[0] and np.all(np.diff(roots[1:]) > 0)


class TestEigenIdentities:
    def test_three_vehicle_residuals_tiny(self):
        power_res, inverse_res = verify_eigen_identities(make_cfg(3, eps=0.5))
        assert power_res.shape == (1,)  # only m = 0
        assert power_res[0] <= 1e-10
        assert inverse_res <= 1e-10

    def test_inverse_sum_uses_first_gain(self):
        cfg = PlatoonConfig(n=4, gains=(2.0, 1.0, 1.0), asymmetries=(0.4, 0.3, 0.0),
                            vehicle=VEHICLE, controller=CONTROLLER)
        _, inverse_res = verify_eigen_identities(cfg)
        assert inverse_res <= 1e-10  # residual against 1/mu_2 = 0.5

    def test_defective_spectrum_rejected(self):
        # uniform predecessor following: reduced matrix is triangular with
        # repeated diagonal 1, hence a defective eigenvalue
        with pytest.raises(ValueError, match="simple eigenvalues"):
            verify_eigen_identities(make_cfg(4, eps=0.0))

    def test_moderate_sizes_meet_tolerance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 16))
            cfg = PlatoonConfig(
                n=n,
                gains=tuple(rng.uniform(0.8, 1.5, n - 1)),
                asymmetries=tuple(rng.uniform(0.05, 0.85, n - 1)),
                vehicle=VEHICLE, controller=CONTROLLER,
            )
            power_res, inverse_res = verify_eigen_identities(cfg)
            assert max([inverse_res, *power_res]) <= 1e-6


class TestFrequencySeries:
    def test_grid_and_csv_shape(self):
        series = frequency_series(make_cfg(5), n_points=50)
        assert len(series.omegas) == 50
        assert np.all(np.diff(series.omegas) > 0)
        buf = io.StringIO()
        write_freq_csv(series, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "omega_rad_s,re,im,mag_db"
        assert len(lines) == 51

    def test_dc_magnitude_zero_db_with_integrator(self):
        series = frequency_series(make_cfg(5), n_points=50)
        assert series.magnitudes_db[0] == pytest.approx(0.0, abs=1e-3)

    def test_values_match_direct_oracle(self):
        cfg = make_cfg(6)
        series = frequency_series(cfg, n_points=20)
        for w, v in zip(series.omegas[::5], series.values[::5]):
            assert v == pytest.approx(cfg.gains[0] * direct_response(cfg, w), rel=1e-6)

    def test_memory_is_bounded_by_the_block(self):
        cfg = make_cfg(2000)
        _prepared(cfg)  # the spectrum and poles are cached outside the trace
        tracemalloc.start()
        try:
            frequency_series(cfg, n_points=400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # the whole 1999-by-400 complex grid is 12.8 MB

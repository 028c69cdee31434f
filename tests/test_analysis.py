import io
import logging
import math

import numpy as np
import pytest

from platoon_lab import (
    PlatoonConfig,
    RationalTF,
    block_stable,
    direct_response,
    frequency_series,
    gamma_sequence,
    harmonic_test,
    hinf_norm,
    instantiate_family,
    kappa_modulus_sq,
    make_block,
    open_loop,
    product_response,
    rtf_eval,
    spectrum_report,
    verify_eigen_identities,
    zeta_min,
)
from platoon_lab.analysis import (
    HARMONICALLY_UNSTABLE,
    TEST_INCONCLUSIVE,
    UNSTABLE_BLOCKS,
    _min_block_modulus,
    _prepared,
    write_freq_csv,
)

from conftest import BAD_CONTROLLER, CONTROLLER, VEHICLE, make_cfg


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

    def test_array_evaluation_matches_scalars(self):
        cfg = make_cfg(5)
        w = np.array([0.1, 1.0, 10.0])
        arr = product_response(cfg, w)
        assert np.allclose(arr, [product_response(cfg, x) for x in w], rtol=1e-13)

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
        def bad(w):
            w = np.asarray(w, dtype=float)
            return np.where(w > 1.0, np.inf, 1.0) + 0j

        with pytest.raises(ValueError, match="non-finite response at omega="):
            hinf_norm(bad)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            hinf_norm(lambda w: np.ones_like(w), omega_lo=1.0, omega_hi=0.1)


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

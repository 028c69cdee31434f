import logging
import tracemalloc

import numpy as np
import pytest

from platoon_lab import (
    ConfigError,
    PlatoonConfig,
    build_laplacian,
    dominance_certificate,
    fiedler_lower_bound,
    laplacian_bands,
    spectrum,
    spectrum_report,
)

from conftest import VEHICLE, CONTROLLER, dense_reduced_eigs, make_cfg


def random_cfg(rng, n_max=50, mu_lo=0.5, mu_hi=5.0, eps_lo=0.0, eps_hi=2.0, zero_frac=0.0):
    n = int(rng.integers(2, n_max + 1))
    mus = rng.uniform(mu_lo, mu_hi, n - 1)
    eps = rng.uniform(eps_lo, eps_hi, n - 1)
    if zero_frac:
        eps[rng.random(n - 1) < zero_frac] = 0.0
    return PlatoonConfig(n=n, gains=tuple(mus), asymmetries=tuple(eps),
                         vehicle=VEHICLE, controller=CONTROLLER)


class TestConfigValidation:
    def test_single_follower(self):
        cfg = PlatoonConfig(n=2, gains=(1.0,), asymmetries=(0.0,),
                            vehicle=VEHICLE, controller=CONTROLLER)
        assert cfg.asymmetries == (0.0,)

    def test_last_asymmetry_forced_to_zero(self):
        cfg = make_cfg(4, eps=0.5)
        assert cfg.asymmetries == (0.5, 0.5, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="gains"):
            PlatoonConfig(n=3, gains=(1.0,), asymmetries=(0.0, 0.0),
                          vehicle=VEHICLE, controller=CONTROLLER)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="gains"):
            PlatoonConfig(n=3, gains=(1.0, 0.0), asymmetries=(0.0, 0.0),
                          vehicle=VEHICLE, controller=CONTROLLER)

    def test_negative_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="asymmetries"):
            PlatoonConfig(n=3, gains=(1.0, 1.0), asymmetries=(-0.1, 0.0),
                          vehicle=VEHICLE, controller=CONTROLLER)

    def test_overflowing_diagonal_rejected(self):
        # 1e308 * (1 + 1) overflows; the forced trailing zero keeps the last row finite
        with pytest.raises(ConfigError, match=r"gain\*\(1 \+ asymmetry\) must be finite"):
            make_cfg(4, eps=1.0, mu=1e308)
        assert make_cfg(2, eps=1.0, mu=1e308).asymmetries == (0.0,)

    def test_too_few_vehicles(self):
        with pytest.raises(ValueError, match="n must be"):
            PlatoonConfig(n=1, gains=(), asymmetries=(),
                          vehicle=VEHICLE, controller=CONTROLLER)


class TestBuildLaplacian:
    def test_single_follower(self):
        cfg = PlatoonConfig(n=2, gains=(1.0,), asymmetries=(0.0,),
                            vehicle=VEHICLE, controller=CONTROLLER)
        assert np.array_equal(build_laplacian(cfg), [[0.0, 0.0], [-1.0, 1.0]])

    def test_three_vehicle_pattern(self):
        L = build_laplacian(make_cfg(3, eps=0.5))
        assert np.array_equal(L, [[0.0, 0.0, 0.0], [-1.0, 1.5, -0.5], [0.0, -1.0, 1.0]])

    def test_predecessor_following(self):
        cfg = PlatoonConfig(n=3, gains=(2.0, 3.0), asymmetries=(0.0, 0.0),
                            vehicle=VEHICLE, controller=CONTROLLER)
        assert np.array_equal(build_laplacian(cfg),
                              [[0.0, 0.0, 0.0], [-2.0, 2.0, 0.0], [0.0, -3.0, 3.0]])

    def test_row_sums_exactly_zero(self):
        # L @ ones evaluated column-by-column (left-to-right): the derived
        # superdiagonal makes each row telescope to exactly 0.0
        rng = np.random.default_rng(10)
        for _ in range(100):
            L = build_laplacian(random_cfg(rng, zero_frac=0.3))
            acc = np.zeros(L.shape[0])
            for j in range(L.shape[1]):
                acc += L[:, j]
            assert np.all(acc == 0.0)

    def test_sign_pattern(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            L = build_laplacian(random_cfg(rng))
            off = L[~np.eye(L.shape[0], dtype=bool)]
            assert np.all(off <= 0) and np.all(np.diag(L) >= 0)


class TestReduce:
    """laplacian_bands: the reduced Laplacian, leader row and column dropped."""

    def test_single_follower(self):
        cfg = PlatoonConfig(n=2, gains=(1.0,), asymmetries=(0.0,),
                            vehicle=VEHICLE, controller=CONTROLLER)
        sub, diag, sup = laplacian_bands(cfg)
        assert sub.shape == (0,) and sup.shape == (0,)
        assert np.array_equal(diag, [1.0])

    def test_block_extraction(self):
        sub, diag, sup = laplacian_bands(make_cfg(3, eps=0.5))
        assert np.array_equal(sub, [-1.0])
        assert np.array_equal(diag, [1.5, 1.0])
        assert np.array_equal(sup, [-0.5])

    def test_drops_first_row_and_column(self):
        rng = np.random.default_rng(12)
        cfg = random_cfg(rng)
        R = build_laplacian(cfg)[1:, 1:]
        sub, diag, sup = laplacian_bands(cfg)
        assert np.array_equal(sub, np.diag(R, -1))
        assert np.array_equal(diag, np.diag(R))
        assert np.array_equal(sup, np.diag(R, 1))


class TestSpectrum:
    def test_two_by_two_characteristic_polynomial(self):
        rep = spectrum([-1.0], [1.5, 1.0], [-0.5])
        assert np.allclose(rep.eigenvalues, [0.5, 2.0], atol=1e-12)
        assert rep.fiedler == pytest.approx(0.5)

    def test_triangular_case_reads_diagonal(self):
        cfg = PlatoonConfig(n=3, gains=(2.0, 3.0), asymmetries=(0.0, 0.0),
                            vehicle=VEHICLE, controller=CONTROLLER)
        rep = spectrum(*laplacian_bands(cfg))
        assert np.allclose(rep.eigenvalues, [2.0, 3.0])

    def test_homogeneous_min_eigenvalue_bound(self):
        rep = spectrum_report(make_cfg(20, eps=0.5))
        assert rep.fiedler >= (1 - np.sqrt(0.5)) ** 2

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            spectrum([-1.0], [1.0, 1.0], [np.nan])

    def test_band_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="band lengths"):
            spectrum([-1.0, -1.0], [2.0, 2.0, 1.0], [-0.5])

    def test_unsymmetrizable_signs_rejected(self):
        with pytest.raises(ValueError, match="not symmetrizable"):
            spectrum([1.0], [1.5, 1.0], [-0.5])

    def test_out_of_range_products_rejected(self):
        # -1e200 * -0.5e200 overflows; -1e-200 * -0.5e-200 underflows to 0
        for scale in (1e200, 1e-200):
            with pytest.raises(ConfigError, match=r"sub\*sup must be finite"):
                spectrum([-scale], [1.5 * scale, scale], [-0.5 * scale])

    def test_matches_dense_oracle_with_zero_splits(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            cfg = random_cfg(rng, n_max=30, zero_frac=0.3)
            rep = spectrum_report(cfg)
            assert np.allclose(rep.eigenvalues, dense_reduced_eigs(cfg), atol=1e-8)

    def test_reduced_spectrum_is_nonzero_spectrum_of_full(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            cfg = random_cfg(rng, n_max=20, zero_frac=0.25)
            rep = spectrum_report(cfg)
            mine = np.sort(np.concatenate([[0.0], rep.eigenvalues]))
            dense = np.sort(np.linalg.eigvals(build_laplacian(cfg)).real)
            assert np.allclose(mine, dense, atol=1e-8)

    def test_eigenvalues_nonnegative_and_below_gershgorin(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            rep = spectrum_report(random_cfg(rng))
            eigs = np.asarray(rep.eigenvalues)
            assert np.all(eigs >= -1e-12)
            assert eigs.max() <= rep.gershgorin_upper + 1e-12


class TestFiedlerLowerBound:
    def test_half_asymmetry(self):
        assert fiedler_lower_bound(make_cfg(5, eps=0.5)) == pytest.approx(0.25 / 3.0)

    def test_zero_asymmetry(self):
        assert fiedler_lower_bound(make_cfg(5, eps=0.0)) == pytest.approx(0.5)

    def test_absent_at_unit_asymmetry(self):
        assert fiedler_lower_bound(make_cfg(5, eps=1.0)) is None

    def test_small_gain_warning(self, caplog):
        cfg = make_cfg(5, eps=0.5, mu=0.5)
        with caplog.at_level(logging.WARNING):
            bound = fiedler_lower_bound(cfg)
        assert bound == pytest.approx(0.5 * 0.25 / 3.0)
        assert any("min gain" in r.message for r in caplog.records)

    def test_bound_holds_for_gains_below_one(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            cfg = random_cfg(rng, mu_lo=1e-3, mu_hi=5.0, eps_lo=0.0, eps_hi=0.95)
            rep = spectrum_report(cfg)
            assert rep.fiedler >= rep.fiedler_lower
            assert dominance_certificate(cfg).lower_bound >= rep.fiedler_lower - 1e-12

    def test_proven_inequality_holds_with_zero_tolerance(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            cfg = random_cfg(rng, mu_lo=1.0, mu_hi=5.0, eps_lo=0.0, eps_hi=0.9)
            rep = spectrum_report(cfg)
            assert rep.fiedler >= rep.fiedler_lower


class TestDominanceCertificate:
    def test_uniform_asymmetry_margin(self):
        # interior margins hit the closed-form bound exactly when eps_i == eps_max
        cfg = make_cfg(10, eps=0.5)
        cert = dominance_certificate(cfg)
        bound = 0.25 / 3.0
        assert cert.p == pytest.approx(1.5)
        for margin in cert.row_margins[1:-1]:
            assert margin == pytest.approx(bound, abs=1e-12)
        assert min(cert.row_margins) >= bound - 1e-12
        assert cert.lower_bound == pytest.approx(min(cert.row_margins))

    def test_zero_asymmetry_rows_have_margin_mu_times_one_minus_inv_p(self):
        cfg = PlatoonConfig(n=4, gains=(1.0, 2.0, 1.0), asymmetries=(0.5, 0.0, 0.0),
                            vehicle=VEHICLE, controller=CONTROLLER)
        cert = dominance_certificate(cfg)
        p = cert.p
        # row for the vehicle with zero asymmetry keeps only the subdiagonal
        assert cert.row_margins[1] == pytest.approx(2.0 * (1 - 1 / p))

    def test_certificate_is_conservative(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            cfg = random_cfg(rng, mu_lo=1.0, eps_lo=0.0, eps_hi=0.95)
            cert = dominance_certificate(cfg)
            rep = spectrum_report(cfg)
            assert cert.lower_bound <= rep.fiedler + 1e-12
            assert cert.lower_bound >= rep.fiedler_lower - 1e-12
            assert min(cert.row_margins) > 0

    def test_unit_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="certificate requires eps_max < 1"):
            dominance_certificate(make_cfg(5, eps=1.0))

    def test_predecessor_following_limit(self):
        cfg = PlatoonConfig(n=4, gains=(1.5, 2.0, 3.0), asymmetries=(0.0, 0.0, 0.0),
                            vehicle=VEHICLE, controller=CONTROLLER)
        cert = dominance_certificate(cfg)
        assert cert.p == np.inf
        assert cert.row_margins == (1.5, 2.0, 3.0)
        assert cert.lower_bound == 1.5

    def test_memory_is_linear_in_platoon_length(self):
        cfg = make_cfg(3000, eps=0.5)
        tracemalloc.start()
        try:
            spectrum_report(cfg)
            dominance_certificate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense 2999-by-2999 matrix alone would take 72 MB
        assert peak < 10e6

    def test_long_platoon_does_not_overflow(self):
        # scaling powers p**k overflow for n in the hundreds; margins must not
        cfg = make_cfg(300, eps=0.01)
        cert = dominance_certificate(cfg)
        assert np.all(np.isfinite(cert.row_margins))
        assert cert.lower_bound > 0

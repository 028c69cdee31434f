import logging
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

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
from platoon_lab import platoon

from conftest import VEHICLE, CONTROLLER, dense_reduced_eigs, make_cfg, sturm_fiedler


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


UNIFORM_GRID = [(mu, eps) for mu in (0.5, 2.0) for eps in (1e-6, 0.5, 1.0)]


class LapackCalled(Exception):
    pass


@pytest.fixture
def no_lapack(monkeypatch):
    """``platoon.eigh_tridiagonal`` raises LapackCalled; the spectrum cache starts and ends cold."""
    def forbidden(*args, **kwargs):
        raise LapackCalled

    monkeypatch.setattr(platoon, "eigh_tridiagonal", forbidden)
    spectrum_report.cache_clear()
    yield
    spectrum_report.cache_clear()


def mp_eigenvalues(sub, diag, sup):
    """Eigenvalues of the float bands, symmetrized and solved by ``mpmath.eigsy`` at 30 digits."""
    m = diag.size
    with mpmath.workdps(30):
        S = mpmath.matrix(m, m)
        for i in range(m):
            S[i, i] = mpmath.mpf(float(diag[i]))
        for i in range(m - 1):
            S[i, i + 1] = S[i + 1, i] = mpmath.sqrt(mpmath.mpf(float(sub[i])) * mpmath.mpf(float(sup[i])))
        return np.array(sorted(float(x) for x in mpmath.eigsy(S, eigvals_only=True)))


class TestUniformSpectrumRoute:
    @pytest.mark.parametrize("mu, eps", UNIFORM_GRID)
    @pytest.mark.parametrize("n", [3, 200, 10**5])
    def test_uniform_bands_need_no_eigensolver(self, no_lapack, n, mu, eps):
        rep = spectrum_report(make_cfg(n, eps=eps, mu=mu))
        lam = rep.eigenvalues
        assert lam.shape == (n - 1,) and not lam.flags.writeable
        assert np.all(np.diff(lam) > 0) and rep.fiedler == lam[0]
        # a - 2b <= lam <= a + 2b with a = mu(1 + eps), b = mu sqrt(eps)
        assert lam[0] >= mu * (1 - math.sqrt(eps)) ** 2 * (1 - 1e-15)
        assert lam[-1] <= mu * (1 + math.sqrt(eps)) ** 2 * (1 + 1e-15)

    @pytest.mark.parametrize("cfg", [
        PlatoonConfig(n=6, gains=(1.0, 1.5, 1.0, 1.5, 1.0), asymmetries=(0.5,) * 5,
                      vehicle=VEHICLE, controller=CONTROLLER),
        make_cfg(6, eps=1.5),
        make_cfg(6, eps=0.0),
        make_cfg(2, eps=0.5),
    ], ids=["array-gains", "eps-1.5", "eps-0", "n-2"])
    def test_other_bands_reach_the_eigensolver(self, no_lapack, cfg):
        with pytest.raises(LapackCalled):
            spectrum_report(cfg)

    @pytest.mark.parametrize("mu, eps", UNIFORM_GRID)
    def test_relative_accuracy_against_mpmath(self, mu, eps):
        for n in (3, 4, 11, 30):
            bands = laplacian_bands(make_cfg(n, eps=eps, mu=mu))
            want = mp_eigenvalues(*bands)
            got = spectrum(*bands).eigenvalues
            assert np.max(np.abs(got - want) / want) <= 1e-14, n

    @pytest.mark.parametrize("mu, eps", UNIFORM_GRID)
    def test_matches_lapack_at_n_1000(self, mu, eps):
        sub, diag, sup = laplacian_bands(make_cfg(1000, eps=eps, mu=mu))
        want = eigh_tridiagonal(diag, np.sqrt(sub * sup), eigvals_only=True)
        got = spectrum(sub, diag, sup).eigenvalues
        assert np.max(np.abs(got - want)) <= 1e-13 * want[-1]

    def test_fiedler_value_keeps_its_relative_accuracy_at_large_n(self):
        # eps = 1: theta_k = (2k - 1) pi / (2m + 1) exactly, lambda_1 = 4 mu sin(theta_1 / 2)**2 ~ 1e-9
        n, mu = 10**5, 1.3
        with mpmath.workdps(30):
            want = float(4 * mu * mpmath.sin(mpmath.pi / (2 * (2 * n - 1))) ** 2)
        assert spectrum_report(make_cfg(n, eps=1.0, mu=mu)).fiedler == pytest.approx(want, rel=1e-14, abs=0)


class TestFiedlerAgainstSturmOracle:
    # the dense eigensolver's error grows like eps**(-(n-2)/2) on these configs; the oracle's does not
    @pytest.mark.parametrize("cfg", [
        make_cfg(100, eps=1e-6, mu=0.7),
        make_cfg(40, eps=0.1, mu=1.3),
        make_cfg(120, eps=1.0),
        PlatoonConfig(n=60, gains=(1.0, 1.5) * 29 + (1.0,), asymmetries=(0.8,) * 59,
                      vehicle=VEHICLE, controller=CONTROLLER),
        pytest.param(make_cfg(113, eps=1.3, mu=0.987), marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP Known defect: tiny eigenvalues lose their relative accuracy (eps > 1); "
                                "5.8e-3 relative here")),
    ], ids=["eps-1e-6", "eps-0.1", "eps-1", "alternating-gains", "eps-1.3"])
    def test_fiedler_value_is_the_exact_matrix_s(self, cfg):
        assert spectrum_report(cfg).fiedler == pytest.approx(sturm_fiedler(cfg), rel=1e-13, abs=0)


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


def exact_margins(cfg):
    """Gershgorin margins of P^-1 R P in rational arithmetic, with the rows' largest terms.

    Row i of the scaled reduced Laplacian is [-mu_i/p, mu_i*(1 + eps_i),
    -p*mu_i*eps_i] with p = (1 + 1/eps_max)/2, without the subdiagonal in the
    first row and the superdiagonal in the last.
    """
    mu = [Fraction(g) for g in cfg.gains]
    eps = [Fraction(e) for e in cfg.asymmetries]
    p = (1 + 1 / max(eps)) / 2
    m = len(mu)
    margins, scales = [], []
    for i in range(m):
        terms = [mu[i] * (1 + eps[i]), mu[i] / p if i > 0 else 0, p * mu[i] * eps[i] if i < m - 1 else 0]
        margins.append(terms[0] - terms[1] - terms[2])
        scales.append(max(terms))
    return margins, scales


CERT_EPS_MAX = (5e-324, 1e-309, 1e-12, 1e-6, 2e-5, 0.3, 0.9)


def heterogeneous_cfg(seed, eps_max):
    """Seeded platoon of at most 12 vehicles whose largest asymmetry is exactly eps_max."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    eps = eps_max * rng.uniform(0.0, 1.0, n - 1)
    eps[rng.random(n - 1) < 0.2] = 0.0
    eps[int(rng.integers(0, n - 2))] = eps_max
    return PlatoonConfig(n=n, gains=tuple(rng.uniform(0.1, 5.0, n - 1)), asymmetries=tuple(eps),
                         vehicle=VEHICLE, controller=CONTROLLER)


class TestDominanceCertificate:
    @pytest.mark.parametrize("eps_max", CERT_EPS_MAX)
    @pytest.mark.parametrize("template", ["uniform", 0, 1, 2, 3])
    def test_margins_match_exact_rational_margins(self, eps_max, template):
        if template == "uniform":
            cfg = make_cfg(12, eps=eps_max, mu=0.7)
        else:
            cfg = heterogeneous_cfg(2200 + template, eps_max)
        cert = dominance_certificate(cfg)
        margins, scales = exact_margins(cfg)
        assert len(cert.row_margins) == cfg.n - 1
        for got, want, scale in zip(cert.row_margins, margins, scales):
            assert math.isfinite(got)
            assert abs(Fraction(got) - want) <= 4 * Fraction(math.ulp(float(scale))), (got, float(want))
        assert cert.lower_bound == min(cert.row_margins)
        assert cert.lower_bound >= fiedler_lower_bound(cfg) - 1e-12

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

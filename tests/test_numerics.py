import numpy as np
import pytest

from platoon_lab import ConfigError, PlatoonConfig, Polynomial, RationalTF, numerics, open_loop, poly_eval, zeta_min
from platoon_lab.blockpeak import _block_peaks
from platoon_lab.numerics import companion_roots


def tf_at(tf, s):
    """``tf`` at ``s`` as the ratio of its two Horner evaluations."""
    return poly_eval(tf.num, s) / poly_eval(tf.den, s)


class TestPolynomial:
    def test_normalization_drops_trailing_roundoff(self):
        p = Polynomial((1.0, 2.0, 1e-16))
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1

    def test_zero_polynomial_is_single_zero(self):
        assert Polynomial((0.0, 0.0, 0.0)).coeffs == (0.0,)
        assert Polynomial((0.0,)).is_zero

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            Polynomial(())
        with pytest.raises(ValueError):
            Polynomial((1.0, float("nan")))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(num=(1.0,), den=(0.0,))


class TestPolyEval:
    def test_constant(self):
        assert poly_eval(Polynomial((1.0,)), 3 + 4j) == 1.0

    def test_s_squared_at_j(self):
        assert poly_eval(Polynomial((0.0, 0.0, 1.0)), 1j) == pytest.approx(-1.0)

    def test_controller_numerator_at_zero(self):
        assert poly_eval(Polynomial((3.0, 43.0, 110.0)), 0.0) == pytest.approx(3.0)

    def test_matches_numpy_polyval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = rng.standard_normal(rng.integers(1, 9))
            s = complex(*rng.standard_normal(2))
            mine = poly_eval(Polynomial(tuple(c)), s)
            ref = np.polyval(Polynomial(tuple(c)).coeffs[::-1], s)
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_array_argument(self):
        s = np.array([0.0, 1j, 2.0])
        out = poly_eval(Polynomial((1.0, 1.0)), s)
        assert np.allclose(out, 1.0 + s)


class TestPolyRoots:
    """Polynomial roots from :func:`companion_roots`."""

    def test_factorable(self):
        roots = companion_roots((-1.0, 0.0, 1.0))
        assert np.allclose(sorted(roots.real), [-1.0, 1.0])
        assert np.all(np.abs(roots.imag) < 1e-12)

    def test_repeated_root(self):
        roots = companion_roots((1.0, 2.0, 1.0))
        assert np.allclose(roots.real, [-1.0, -1.0], atol=1e-7)

    def test_vieta_on_controller_denominator(self):
        roots = companion_roots((1.0, 2.9, 1.0))
        assert np.all(np.abs(roots.imag) < 1e-12)
        prod = roots[0] * roots[1]
        total = roots[0] + roots[1]
        assert prod.real == pytest.approx(1.0, rel=1e-12)
        assert total.real == pytest.approx(-2.9, rel=1e-12)

    @staticmethod
    def _poly_with_bounded_roots(rng, degree):
        """Real polynomial whose roots live in |r| <= 3 (desk-scale poles)."""
        roots = []
        while len(roots) < degree:
            if degree - len(roots) >= 2 and rng.random() < 0.5:
                re, im = rng.uniform(-3, 3), rng.uniform(0.1, 3)
                roots += [complex(re, im), complex(re, -im)]
            else:
                roots.append(complex(rng.uniform(-3, 3), 0.0))
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, [-r, 1.0])
        return Polynomial(tuple((coeffs * rng.uniform(0.2, 5.0)).real))

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = self._poly_with_bounded_roots(rng, int(rng.integers(1, 11)))
            norm = np.linalg.norm(p.coeffs)
            for r in companion_roots(p.coeffs):
                assert abs(poly_eval(p, r)) <= 1e-8 * norm

    def test_reexpansion_reproduces_coefficients(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = self._poly_with_bounded_roots(rng, int(rng.integers(1, 9)))
            rebuilt = np.array([1.0 + 0j])
            for r in companion_roots(p.coeffs):
                rebuilt = np.convolve(rebuilt, [-r, 1.0])
            rebuilt = rebuilt * p.coeffs[-1]
            assert np.allclose(rebuilt.real, p.coeffs, rtol=1e-6, atol=1e-6 * np.abs(p.coeffs).max())

    def test_stacked_rows_match_single_solves(self):
        rng = np.random.default_rng(6)
        rows = np.array([self._poly_with_bounded_roots(rng, 4).coeffs for _ in range(6)])
        stacked = companion_roots(rows.reshape(2, 3, 5))
        assert stacked.shape == (2, 3, 4)
        for row, roots in zip(rows, stacked.reshape(6, 4)):
            assert np.array_equal(roots, companion_roots(row))

    def test_no_roots_defined(self):
        with pytest.raises(ValueError, match="no roots defined"):
            companion_roots((1.0,))
        with pytest.raises(ValueError, match="no roots defined"):
            companion_roots((0.0,))


class TestRtfEval:
    """A rational transfer function evaluated as the ratio of its numerator and denominator."""

    def test_double_integrator_at_j(self):
        tf = RationalTF(num=(1.0,), den=(0.0, 0.0, 1.0))
        assert tf_at(tf, 1j) == pytest.approx(-1.0)

    def test_common_factor_not_cancelled(self):
        tf = RationalTF(num=(0.0, 1.0), den=(0.0, 1.0))
        assert tf.num.degree == 1 and tf.den.degree == 1
        assert tf_at(tf, 2.0) == pytest.approx(1.0)

    def test_controller_dc_gain(self):
        tf = RationalTF(num=(3.0, 43.0, 110.0), den=(1.0, 2.9, 1.0))
        assert tf_at(tf, 0.0) == pytest.approx(3.0)

    def test_pole_raises(self):
        # 1/s is infinite at DC, the block peak's last candidate: a NaN peak there, which zeta_min
        # raises for the block 1/s of M = 1/(s - 1) at lam = 1
        peaks, omegas = _block_peaks(np.array([[1.0]]), np.array([[0.0, 1.0]]), 1e-3, 1e3)
        assert np.isnan(peaks[0]) and omegas == [0.0]
        cfg = PlatoonConfig(n=2, gains=(1.0,), asymmetries=(0.0,), vehicle=RationalTF((1.0,), (-1.0, 1.0)),
                            controller=RationalTF((1.0,), (1.0,)))
        with pytest.raises(ConfigError, match=r"non-finite response at omega=0\.0"):
            zeta_min(cfg)

    def test_cascade_eval_identity(self):
        rng = np.random.default_rng(5)
        C = RationalTF(num=(3.0, 43.0, 110.0), den=(1.0, 2.9, 1.0))
        G = RationalTF(num=(1.0,), den=(0.0, 0.0, 1.0))
        M = open_loop(PlatoonConfig(n=2, gains=(1.0,), asymmetries=(0.0,), vehicle=G, controller=C))
        for _ in range(50):
            s = complex(*rng.standard_normal(2))
            if abs(s) < 1e-3:
                continue
            assert tf_at(M, s) == pytest.approx(tf_at(C, s) * tf_at(G, s), rel=1e-12)


class TestColumnBlocks:
    def test_a_one_byte_budget_gives_one_frequency_per_block(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", 1)
        assert [b.tolist() for b in numerics._column_blocks(np.arange(3.0), 2)] == [[0.0], [1.0], [2.0]]

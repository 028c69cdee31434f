import numpy as np
import pytest

from platoon_lab import (
    Polynomial,
    RationalTF,
    poly_eval,
    poly_mul,
    poly_roots,
    rtf_eval,
)
from platoon_lab.numerics import companion_roots


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


class TestPolyMul:
    def test_identity_element(self):
        assert poly_mul(Polynomial((1.0,)), Polynomial((0.0, 1.0))).coeffs == (0.0, 1.0)

    def test_binomial_square(self):
        assert poly_mul(Polynomial((1.0, 1.0)), Polynomial((1.0, 1.0))).coeffs == (1.0, 2.0, 1.0)

    def test_hand_convolution(self):
        out = poly_mul(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0, 2.9, 1.0)))
        assert out.coeffs == (0.0, 0.0, 1.0, 2.9, 1.0)

    def test_eval_of_product_is_product_of_evals(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = Polynomial(tuple(rng.standard_normal(rng.integers(1, 8))))
            b = Polynomial(tuple(rng.standard_normal(rng.integers(1, 8))))
            s = complex(*rng.standard_normal(2))
            lhs = poly_eval(poly_mul(a, b), s)
            rhs = poly_eval(a, s) * poly_eval(b, s)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_degree_adds(self):
        a = Polynomial((1.0, 0.0, 2.0))
        b = Polynomial((3.0, 1.0))
        assert poly_mul(a, b).degree == a.degree + b.degree


class TestPolyRoots:
    def test_factorable(self):
        roots = poly_roots(Polynomial((-1.0, 0.0, 1.0)))
        assert np.allclose(sorted(r.real for r in roots), [-1.0, 1.0])
        assert all(abs(r.imag) < 1e-12 for r in roots)

    def test_repeated_root(self):
        roots = poly_roots(Polynomial((1.0, 2.0, 1.0)))
        assert np.allclose([r.real for r in roots], [-1.0, -1.0], atol=1e-7)

    def test_vieta_on_controller_denominator(self):
        roots = poly_roots(Polynomial((1.0, 2.9, 1.0)))
        assert all(abs(r.imag) < 1e-12 for r in roots)
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
            for r in poly_roots(p):
                assert abs(poly_eval(p, r)) <= 1e-8 * norm

    def test_reexpansion_reproduces_coefficients(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = self._poly_with_bounded_roots(rng, int(rng.integers(1, 9)))
            rebuilt = np.array([1.0 + 0j])
            for r in poly_roots(p):
                rebuilt = np.convolve(rebuilt, [-r, 1.0])
            rebuilt = rebuilt * p.coeffs[-1]
            assert np.allclose(rebuilt.real, p.coeffs, rtol=1e-6, atol=1e-6 * np.abs(p.coeffs).max())

    def test_stacked_rows_match_single_solves(self):
        rng = np.random.default_rng(6)
        rows = np.array([self._poly_with_bounded_roots(rng, 4).coeffs for _ in range(6)])
        stacked = companion_roots(rows.reshape(2, 3, 5))
        assert stacked.shape == (2, 3, 4)
        for row, roots in zip(rows, stacked.reshape(6, 4)):
            got = sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))
            assert got == poly_roots(Polynomial(tuple(row)))

    def test_no_roots_defined(self):
        with pytest.raises(ValueError, match="no roots defined"):
            poly_roots(Polynomial((1.0,)))
        with pytest.raises(ValueError, match="no roots defined"):
            poly_roots(Polynomial((0.0,)))


class TestRtfEval:
    def test_double_integrator_at_j(self):
        tf = RationalTF(num=(1.0,), den=(0.0, 0.0, 1.0))
        assert rtf_eval(tf, 1j) == pytest.approx(-1.0)

    def test_common_factor_not_cancelled(self):
        tf = RationalTF(num=(0.0, 1.0), den=(0.0, 1.0))
        assert tf.num.degree == 1 and tf.den.degree == 1
        assert rtf_eval(tf, 2.0) == pytest.approx(1.0)

    def test_controller_dc_gain(self):
        tf = RationalTF(num=(3.0, 43.0, 110.0), den=(1.0, 2.9, 1.0))
        assert rtf_eval(tf, 0.0) == pytest.approx(3.0)

    def test_pole_raises(self):
        tf = RationalTF(num=(1.0,), den=(0.0, 1.0))
        with pytest.raises(ValueError, match="pole at evaluation point"):
            rtf_eval(tf, 0.0)

    def test_cascade_eval_identity(self):
        rng = np.random.default_rng(5)
        C = RationalTF(num=(3.0, 43.0, 110.0), den=(1.0, 2.9, 1.0))
        G = RationalTF(num=(1.0,), den=(0.0, 0.0, 1.0))
        M = RationalTF(num=poly_mul(C.num, G.num), den=poly_mul(C.den, G.den))
        for _ in range(50):
            s = complex(*rng.standard_normal(2))
            if abs(s) < 1e-3:
                continue
            assert rtf_eval(M, s) == pytest.approx(rtf_eval(C, s) * rtf_eval(G, s), rel=1e-12)

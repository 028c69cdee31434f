import math

import numpy as np
import pytest

from platoon_lab import closedform_eigenvalues, solve_thetas, spectrum_report

from conftest import dense_reduced_eigs, make_cfg


def residual(theta, n, eps):
    return math.sin((n - 1) * theta) - math.sqrt(1.0 / eps) * math.sin(n * theta)


class TestSolveThetas:
    def test_root_count(self):
        roots = solve_thetas(10, 0.5)
        assert len(roots.thetas) == 9

    def test_residuals_below_contract(self):
        for n, eps in [(5, 0.25), (10, 0.5), (25, 0.1), (40, 0.9)]:
            roots = solve_thetas(n, eps)
            assert all(abs(residual(t, n, eps)) <= 1e-10 for t in roots.thetas)

    def test_roots_strictly_increasing_in_open_interval(self):
        roots = solve_thetas(12, 0.3)
        th = np.asarray(roots.thetas)
        assert np.all(np.diff(th) > 0)
        assert th[0] > 0 and th[-1] < math.pi

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            solve_thetas(1, 0.5)
        with pytest.raises(ValueError):
            solve_thetas(5, 0.0)
        with pytest.raises(ValueError):
            solve_thetas(5, 1.0)


class TestClosedformEigenvalues:
    def test_values_inside_band(self):
        for n, eps in [(3, 0.1), (10, 0.5), (30, 0.9)]:
            lam = closedform_eigenvalues(n, eps)
            lo, hi = (1 - math.sqrt(eps)) ** 2, (1 + math.sqrt(eps)) ** 2
            assert np.all(lam >= lo) and np.all(lam <= hi)

    def test_sorted_ascending(self):
        lam = closedform_eigenvalues(5, 0.4)
        assert np.all(np.diff(lam) > 0)

    def test_two_vehicle_case_matches_single_gain(self):
        # one follower: the reduced matrix is [mu] = [1]
        lam = closedform_eigenvalues(2, 0.5)
        assert lam.shape == (1,)
        assert lam[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_numerical_spectrum(self):
        for n, eps in [(3, 0.5), (20, 0.5), (15, 0.25), (8, 0.9), (2000, 1e-6), (2000, 0.999999)]:
            cfg = make_cfg(n, eps=eps)
            rep = spectrum_report(cfg)
            assert np.allclose(closedform_eigenvalues(n, eps), rep.eigenvalues, atol=1e-8)
            # the dense general solver: independent of both phase equations, well conditioned
            # on the small sizes (eps**(-(n - 2)/2) <= 1e6) and too slow at n = 2000
            if n <= 200:
                assert np.allclose(dense_reduced_eigs(cfg), rep.eigenvalues, atol=1e-8)

    def test_uniform_boundedness_over_sizes(self):
        # min eigenvalue decreases with size but never below the band floor
        eps = 0.5
        floor = (1 - math.sqrt(eps)) ** 2
        prev = math.inf
        for n in range(3, 201):
            lam_min = closedform_eigenvalues(n, eps)[0]
            assert lam_min <= prev + 1e-12
            assert lam_min >= floor
            prev = lam_min

"""Tests for spectral differentiation and integration."""

import numpy as np
import pytest

import bicheb as bc
import bicheb.paper as bp
from bicheb import diff_x, diff_y, integrate

from conftest import f_cosxy, f_example2

FOUR_SI_ONE = 3.78433228147  # 4 * SinIntegral(1), the exact cos(x y) integral


def _padded(a, rows, cols):
    out = np.zeros((rows, cols))
    out[: a.shape[0], : a.shape[1]] = a
    return out


class TestDiff:
    def test_constant_derivative_is_zero(self):
        c = bc.Cheb2(np.array([[7.0]]))
        d = diff_x(c)
        assert (d.degree_x, d.degree_y) == (0, 0)
        assert d.coeffs[0, 0] == 0.0
        assert diff_y(c).coeffs[0, 0] == 0.0

    def test_quadratic_basis_function_x(self):
        # d/dx T2(x) = 4x = 4 T1(x)
        c = bc.Cheb2(np.array([[0.0], [0.0], [1.0]]))
        d = diff_x(c)
        assert d.coeffs.shape == (2, 1)
        assert np.allclose(d.coeffs, [[0.0], [4.0]], atol=1e-15)

    def test_quadratic_basis_function_y(self):
        c = bc.Cheb2(np.array([[0.0, 0.0, 1.0]]))
        d = diff_y(c)
        assert d.coeffs.shape == (1, 2)
        assert np.allclose(d.coeffs, [[0.0, 4.0]], atol=1e-15)

    def test_cosxy_partial_x(self, cosxy):
        d = diff_x(cosxy)
        rng = np.random.default_rng(31)
        for x, y in rng.uniform(-0.95, 0.95, size=(20, 2)):
            exact = -y * np.sin(x * y)
            assert bc.evaluate_matrix(d, x, y) == pytest.approx(exact, abs=1e-8)

    def test_cosxy_partial_y(self, cosxy):
        d = diff_y(cosxy)
        rng = np.random.default_rng(32)
        for x, y in rng.uniform(-0.95, 0.95, size=(20, 2)):
            exact = -x * np.sin(x * y)
            assert bc.evaluate_matrix(d, x, y) == pytest.approx(exact, abs=1e-8)

    def test_chain_rule_on_shifted_domain(self):
        domain = bc.Domain2(0.0, 2.0, -1.0, 1.0)
        c = bc.build_adaptive(lambda x, y: x ** 2 + 0.0 * y, 1e-13,
                              domain=domain)
        d = diff_x(c)
        for x in (0.1, 0.9, 1.7):
            assert bc.evaluate_matrix(d, x, 0.0) == pytest.approx(2 * x, abs=1e-10)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 142])
    def test_equals_the_paper_loop_bit_for_bit(self, degree):
        # the running sums add in the order of the paper's backward loop;
        # the domain's chain-rule factors are not powers of two
        domain = bc.Domain2(-0.5, 2.5, 1.0, 1.7)
        a = np.random.default_rng(degree).standard_normal((degree + 1, 6))
        for diff, coeffs, width in ((diff_x, a, 3.0), (diff_y, a.T, 1.7 - 1.0)):
            got = diff(bc.Cheb2(coeffs, domain)).coeffs
            if degree == 0:
                expected = np.zeros((1, 1))
            else:
                expected = bp._diff_first_axis(a) * (2.0 / width)
                expected = expected if diff is diff_x else expected.T
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_recurrence_residual_is_tiny(self, cosxy):
        n, m = cosxy.degree_x, cosxy.degree_y
        a = cosxy.coeffs
        b = _padded(diff_x(cosxy).coeffs, n + 2, m + 1)
        assert np.abs(b[0] - 0.5 * b[2] - a[1]).max() <= 1e-12
        for k in range(2, n + 1):
            residual = (b[k - 1] - b[k + 1]) / (2.0 * k) - a[k]
            assert np.abs(residual).max() <= 1e-12

    def test_mixed_partials_commute(self, cosxy):
        first = diff_y(diff_x(cosxy)).coeffs
        second = diff_x(diff_y(cosxy)).coeffs
        assert first.shape == second.shape
        assert np.abs(first - second).max() <= 1e-10

    def test_mixed_coefficients_recover_original(self, cosxy):
        # difference quotient of the mixed-series coefficients returns the
        # originals: (d[k-1,j-1] - d[k-1,j+1] - d[k+1,j-1] + d[k+1,j+1])
        # equals 4 k j a[k, j]
        n, m = cosxy.degree_x, cosxy.degree_y
        a = cosxy.coeffs
        d = _padded(diff_y(diff_x(cosxy)).coeffs, n + 2, m + 2)
        for k in range(2, n - 1):
            for j in range(2, m - 1):
                folded = (d[k - 1, j - 1] - d[k - 1, j + 1]
                          - d[k + 1, j - 1] + d[k + 1, j + 1]) / (4.0 * k * j)
                assert folded == pytest.approx(a[k, j], abs=1e-10)

    def test_against_central_differences(self, cosxy):
        d = diff_x(cosxy)
        h = 1e-5
        rng = np.random.default_rng(33)
        for x, y in rng.uniform(-0.9, 0.9, size=(20, 2)):
            fd = (bc.evaluate_matrix(cosxy, x + h, y)
                  - bc.evaluate_matrix(cosxy, x - h, y)) / (2 * h)
            assert bc.evaluate_matrix(d, x, y) == pytest.approx(fd, abs=1e-6)


class TestIntegrate:
    def test_unit_constant(self):
        assert integrate(bc.Cheb2(np.array([[1.0]]))) == pytest.approx(4.0)

    def test_quadratic_basis_function(self):
        c = bc.Cheb2(np.array([[0.0], [0.0], [1.0]]))
        assert integrate(c) == pytest.approx(-4.0 / 3.0, abs=1e-14)

    def test_domain_jacobian(self):
        c = bc.Cheb2(np.array([[1.0]]), bc.Domain2(0.0, 2.0, -1.0, 3.0))
        assert integrate(c) == pytest.approx(8.0)

    def test_cosxy(self, cosxy):
        assert abs(integrate(cosxy) - FOUR_SI_ONE) <= 1e-4
        # the value obtained from the displayed 5x5 corner sits in the
        # same tolerance band
        assert abs(3.784330902 - FOUR_SI_ONE) <= 1e-4
        truncated = bc.truncate(cosxy, 4, 4)
        assert integrate(truncated) == pytest.approx(3.784330902, abs=1e-6)

    def test_example2(self, example2):
        assert integrate(example2) == pytest.approx(4.590369905, abs=1e-6)

    @pytest.mark.parametrize("shape,seed", [((9, 9), 1), ((7, 5), 2), ((3, 9), 3)])
    def test_exact_for_polynomials(self, shape, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=shape)
        expected = self._monomial_integral(a)
        assert integrate(bc.Cheb2(a)) == pytest.approx(expected, abs=1e-13)

    @staticmethod
    def _monomial_integral(a):
        # independent oracle: expand each basis polynomial into monomials
        # and integrate x^p exactly
        from numpy.polynomial import chebyshev

        def basis_integral(k):
            p = chebyshev.cheb2poly(np.eye(k + 1)[k])
            return sum(c * (1.0 + (-1.0) ** m) / (m + 1)
                       for m, c in enumerate(p))

        ix = [basis_integral(k) for k in range(a.shape[0])]
        iy = [basis_integral(j) for j in range(a.shape[1])]
        return float(np.asarray(ix) @ a @ np.asarray(iy))

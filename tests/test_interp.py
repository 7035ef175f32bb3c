"""Tests for Lagrange interpolation on the Lobatto grid and coefficient aliasing."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import bicheb as bc
import bicheb.paper as bp
from bicheb import lagrange_cheb_coeffs
from bicheb.paper import aliasing_coeffs, interp_error_bound_gap, lobatto_grid
from bicheb.errors import ValidationError

from conftest import f_cosxy


def t8x(x, y):
    return np.cos(8 * np.arccos(np.clip(x, -1.0, 1.0))) + 0.0 * y


class TestLobattoGrid:
    def test_two_point_grid(self):
        g = lobatto_grid(1)
        assert np.array_equal(g.nodes, [1.0, -1.0])
        assert np.array_equal(g.weights, [0.5, 0.5])
        assert np.array_equal(g.edge_scale, [1.0, 1.0])

    def test_three_point_grid(self):
        g = lobatto_grid(2)
        assert np.array_equal(g.nodes, [1.0, 0.0, -1.0])
        assert np.array_equal(g.weights, [0.5, 1.0, 0.5])
        assert np.array_equal(g.edge_scale, [1.0, 0.5, 1.0])

    def test_five_point_grid_node(self):
        g = lobatto_grid(4)
        assert g.nodes[1] == pytest.approx(0.7071067812, abs=1e-9)

    def test_nodes_decrease_and_mirror(self):
        for n in (3, 4, 7, 8):
            g = lobatto_grid(n)
            assert len(g.nodes) == n + 1
            assert np.all(np.diff(g.nodes) < 0)
            assert np.array_equal(g.nodes, -g.nodes[::-1])

    def test_degenerate_degree(self):
        with pytest.raises(ValidationError):
            lobatto_grid(0)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_discrete_orthogonality(self, n):
        g = lobatto_grid(n)
        basis = bc.cheb_basis(n, g.nodes)
        gram = basis.T @ (g.weights[:, None] * basis)
        expected = np.diag(n * g.edge_scale)
        assert np.abs(gram - expected).max() <= 1e-11


class TestLagrangeCoeffs:
    def test_bilinear(self):
        c = lagrange_cheb_coeffs(lambda x, y: x * y, 3, 3)
        assert c[1, 1] == pytest.approx(1.0, abs=1e-13)
        c[1, 1] = 0.0
        assert np.abs(c).max() <= 1e-13

    def test_degree_2n_folds_to_constant(self):
        # T8 takes the value 1 at every node cos(k pi / 4), so the
        # interpolant is the constant 1
        c = lagrange_cheb_coeffs(t8x, 4, 2)
        assert c[0, 0] == pytest.approx(1.0, abs=1e-12)
        c[0, 0] = 0.0
        assert np.abs(c).max() <= 1e-12

    def test_cosxy_interpolates_nodes(self):
        c = bc.Cheb2(lagrange_cheb_coeffs(f_cosxy, 8, 8))
        nodes = lobatto_grid(8).nodes
        values = bc.evaluate_grid(c, nodes, nodes)
        exact = np.cos(np.outer(nodes, nodes))
        assert np.abs(values - exact).max() <= 1e-12

    def test_cosxy_off_grid_error(self):
        c = bc.Cheb2(lagrange_cheb_coeffs(f_cosxy, 8, 8))
        xs = np.linspace(-1.0, 1.0, 50)
        values = bc.evaluate_grid(c, xs, xs)
        exact = np.cos(np.outer(xs, xs))
        assert np.abs(values - exact).max() <= 1e-6

    def test_interpolation_conditions_random_smooth(self):
        rng = np.random.default_rng(3)
        for n, m in ((4, 6), (7, 5)):
            coeffs = rng.uniform(-1.0, 1.0, size=(5, 5))

            def f(x, y):
                xb, yb = np.broadcast_arrays(x, y)
                return chebyshev.chebval2d(xb, yb, coeffs)

            c = bc.Cheb2(lagrange_cheb_coeffs(f, n, m))
            xs = lobatto_grid(n).nodes
            ys = lobatto_grid(m).nodes
            values = bc.evaluate_grid(c, xs, ys)
            exact = f(xs[:, None], ys[None, :])
            assert np.abs(values - exact).max() <= 1e-11 * np.abs(exact).max()

    def test_rejects_degenerate_degrees(self):
        with pytest.raises(ValidationError):
            lagrange_cheb_coeffs(f_cosxy, 0, 3)

    @pytest.mark.parametrize("n, m", [(2.5, 2), (2, np.float64(2.0)), (True, 2)],
                             ids=["float-n", "numpy-float-m", "bool-n"])
    def test_non_integer_degrees_are_invalid(self, n, m):
        with pytest.raises(ValidationError, match="must be an integer"):
            lagrange_cheb_coeffs(f_cosxy, n, m)

    def test_domain_must_be_a_domain2(self):
        with pytest.raises(ValidationError, match="Domain2"):
            lagrange_cheb_coeffs(f_cosxy, 2, 2, domain="nope")

    def test_over_budget_refused_before_sampling(self):
        calls = []
        with pytest.raises(ValidationError, match="100001 x 100001 interpolation "
                                                  "grid needs .* over the budget"):
            lagrange_cheb_coeffs(lambda x, y: calls.append(1) or x * y,
                                 100000, 100000)
        assert calls == []

    def test_domain_mapping(self):
        domain = bc.Domain2(0.0, 2.0, 0.0, 4.0)
        coeffs = lagrange_cheb_coeffs(lambda x, y: x * y, 3, 3, domain=domain)
        c = bc.Cheb2(coeffs, domain)
        assert bc.evaluate_matrix(c, 0.5, 3.0) == pytest.approx(1.5, abs=1e-12)


class TestAliasing:
    def test_identity_term(self):
        alpha = np.zeros((2, 2))
        alpha[1, 1] = 1.0
        c = aliasing_coeffs(alpha, 4, 4)
        assert c[1, 1] == 1.0
        c[1, 1] = 0.0
        assert np.abs(c).max() == 0.0

    def test_first_fold_lands_on_constant(self):
        # T_{2n}(x) T_{2m}(y) equals 1 on the whole grid; its single
        # coefficient folds onto (0, 0) exactly once, matching the
        # interpolation oracle
        n = m = 4
        alpha = np.zeros((9, 9))
        alpha[2 * n, 2 * m] = 1.0
        c = aliasing_coeffs(alpha, n, m)
        assert c[0, 0] == 1.0
        oracle = lagrange_cheb_coeffs(
            lambda x, y: t8x(x, 0.0) * t8x(y, 0.0), n, m)
        assert oracle[0, 0] == pytest.approx(1.0, abs=1e-12)
        c[0, 0] = 0.0
        assert np.abs(c).max() == 0.0

    def test_matches_interpolation_for_cosxy(self, cosxy_alpha32):
        folded = aliasing_coeffs(cosxy_alpha32, 4, 4)
        direct = lagrange_cheb_coeffs(f_cosxy, 4, 4)
        assert np.abs(folded - direct).max() <= 1e-10

    def test_matches_interpolation_for_expxy(self):
        def f(x, y):
            return np.exp(x * y)

        alpha = bp.coeffs_from_samples(bp.sample_grid(f, 64), 31)
        for n, m in ((4, 4), (5, 7), (12, 3)):
            folded = aliasing_coeffs(alpha, n, m)
            direct = lagrange_cheb_coeffs(f, n, m)
            assert direct.shape == (n + 1, m + 1)
            assert np.abs(folded - direct).max() <= 1e-9

    def test_cutoff_limits_folds(self):
        alpha = np.zeros((17, 1))
        alpha[16, 0] = 1.0  # index 2*2*n with n = 4
        assert aliasing_coeffs(alpha, 4, 4, cutoff=1)[0, 0] == 0.0
        assert aliasing_coeffs(alpha, 4, 4, cutoff=2)[0, 0] == 1.0

    def test_rejects_a_matrix_that_is_not_2d(self):
        with pytest.raises(ValidationError, match=r"^coefficient matrix must be 2-D$"):
            aliasing_coeffs(np.ones(5), 4, 4)


class TestErrorBoundGap:
    def test_zero_tail(self):
        alpha = np.zeros((6, 6))
        alpha[:3, :3] = 1.0
        assert interp_error_bound_gap(alpha, 2, 2) == 0.0

    def test_single_tail_entry(self):
        alpha = np.zeros((4, 6))
        alpha[0, 4] = 0.25
        assert interp_error_bound_gap(alpha, 3, 3) == 0.25

    @pytest.mark.parametrize("alpha, message", [
        (np.ones(5), "coefficient matrix must be 2-D"),
        (np.array([[1.0, np.inf], [0.0, 0.0]]), "coefficient matrix must be finite"),
        (np.array([[1.0, 0.0], [np.nan, 0.0]]), "coefficient matrix must be finite"),
    ], ids=["1-d", "inf", "nan"])
    def test_rejects_a_bad_matrix(self, alpha, message):
        with pytest.raises(ValidationError, match=rf"^{message}$"):
            interp_error_bound_gap(alpha, 1, 1)

    def test_bounds_observed_gap(self, cosxy_alpha32, cosxy):
        gap = interp_error_bound_gap(cosxy_alpha32, 4, 4)
        interpolant = bc.Cheb2(lagrange_cheb_coeffs(f_cosxy, 4, 4))
        series = bc.Cheb2(cosxy_alpha32[:5, :5])
        xs = np.linspace(-1.0, 1.0, 50)
        observed = np.abs(bc.evaluate_grid(interpolant, xs, xs)
                          - bc.evaluate_grid(series, xs, xs)).max()
        assert gap > 0
        assert observed <= gap + 1e-12


class TestConvergence:
    def test_interpolant_error_is_monotone_in_degree(self):
        xs = np.linspace(-1.0, 1.0, 50)
        exact = np.cos(np.outer(xs, xs))
        errors = []
        for n in (4, 8, 16):
            c = bc.Cheb2(lagrange_cheb_coeffs(f_cosxy, n, n))
            errors.append(np.abs(bc.evaluate_grid(c, xs, xs) - exact).max())
        assert errors[1] <= errors[0] + 1e-14
        assert errors[2] <= errors[1] + 1e-14

"""Tests for the 2-D discrete Fourier transforms."""

import numpy as np
import pytest

from bicheb.paper import dft2_naive, fft2
from bicheb.errors import ValidationError


def _random_complex(rng, p, q):
    return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))


class TestNaive:
    def test_constant_input_is_pure_dc(self):
        out = dft2_naive(np.ones((2, 2)))
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 0] = 4.0
        assert np.allclose(out, expected, atol=1e-13)

    def test_single_entry_is_identity(self):
        out = dft2_naive(np.array([[3.0 - 2.0j]]))
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - (3.0 - 2.0j)) < 1e-15

    def test_single_harmonic_concentrates_on_mirror_rows(self):
        # x[k, j] = cos(2 pi k / 4): energy pq/2 at rows 1 and 3, column 0
        k = np.arange(4)
        x = np.repeat(np.cos(2 * np.pi * k / 4)[:, None], 4, axis=1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 0] = expected[3, 0] = 8.0
        assert np.allclose(dft2_naive(x), expected, atol=1e-12)

    def test_non_power_of_two_shapes_are_fine(self):
        out = dft2_naive(np.ones((3, 5)))
        assert abs(out[0, 0] - 15.0) < 1e-12

    def test_rejects_non_finite(self):
        bad = np.ones((2, 2), dtype=complex)
        bad[1, 1] = np.nan
        with pytest.raises(ValidationError):
            dft2_naive(bad)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValidationError):
            dft2_naive(np.ones(4))


class TestFast:
    def test_same_contract_on_naive_examples(self):
        ones = np.ones((2, 2))
        assert np.allclose(fft2(ones), dft2_naive(ones), atol=1e-12)
        single = np.array([[3.0 - 2.0j]])
        assert np.allclose(fft2(single), dft2_naive(single), atol=1e-12)
        k = np.arange(4)
        harmonic = np.repeat(np.cos(2 * np.pi * k / 4)[:, None], 4, axis=1)
        assert np.allclose(fft2(harmonic), dft2_naive(harmonic), atol=1e-12)

    def test_matches_naive_on_random_8x8(self):
        rng = np.random.default_rng(1234)
        x = _random_complex(rng, 8, 8)
        assert np.abs(fft2(x) - dft2_naive(x)).max() < 1e-10

    def test_separable_harmonic_grid(self):
        # samples of T2(cos t) T2(cos s) put (16^2)/4 at entry (2, 2)
        t = 2 * np.pi * np.arange(16) / 16
        x = np.outer(np.cos(2 * t), np.cos(2 * t))
        out = fft2(x)
        assert abs(out[2, 2].real - 16 ** 2 / 4) < 1e-9
        assert np.allclose(out, dft2_naive(x), atol=1e-10)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            fft2(np.ones((3, 4)))
        with pytest.raises(ValidationError):
            fft2(np.ones((4, 6)))

    def test_rejects_non_finite(self):
        bad = np.ones((4, 4))
        bad[0, 0] = np.inf
        with pytest.raises(ValidationError):
            fft2(bad)


class TestProperties:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("q", [1, 2, 4, 8, 16, 32, 64])
    def test_oracle_equivalence(self, p, q):
        rng = np.random.default_rng(p * 1000 + q)
        x = _random_complex(rng, p, q)
        bound = 1e-10 * np.abs(x).max() * p * q
        assert np.abs(fft2(x) - dft2_naive(x)).max() <= bound

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = _random_complex(rng, 8, 8)
        y = _random_complex(rng, 8, 8)
        a, b = 1.7 - 0.3j, -2.2 + 1.1j
        combined = fft2(a * x + b * y)
        separate = a * fft2(x) + b * fft2(y)
        scale = np.abs(separate).max()
        assert np.abs(combined - separate).max() <= 1e-12 * scale

    def test_discrete_parseval(self):
        rng = np.random.default_rng(6)
        x = _random_complex(rng, 16, 8)
        y = fft2(x)
        lhs = np.sum(np.abs(y) ** 2)
        rhs = 16 * 8 * np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_even_real_input_gives_real_output(self):
        rng = np.random.default_rng(7)
        p, q = 16, 8
        r = rng.standard_normal((p, q))
        mi = (p - np.arange(p)) % p
        mj = (q - np.arange(q)) % q
        x = r + r[mi, :]
        x = x + x[:, mj]
        assert np.array_equal(x, x[mi, :]) and np.array_equal(x, x[:, mj])
        out = fft2(x)
        assert np.abs(out.imag).max() <= 1e-10 * p * q * np.abs(x).max()

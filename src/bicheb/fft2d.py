"""Two-dimensional discrete Fourier transform over complex matrices.

The forward transform of a p-by-q matrix x is

    y[r, s] = sum_k sum_j x[k, j] * exp(-2i pi k r / p) * exp(-2i pi j s / q)

with no normalization.  ``fft2`` computes it with radix-2 decimation-in-time
transforms along rows and then columns, for power-of-two dimensions, and
``dft2_naive`` evaluates the double sum directly as its oracle.  ``fft2`` is
the paper's transform of the periodicized sample grid; production takes the
DCT-I of the distinct Lobatto samples in ``chebcore``, with ``fft2`` as oracle.
"""

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError


def _as_valid_matrix(x):
    a = np.asarray(x)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"expected a 2-D matrix, got shape {a.shape!r}")
    a = a.astype(np.complex128)
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise InvalidInputError("matrix contains NaN or Inf entries")
    return a


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n):
    """Smallest power of two that is >= n (n >= 1)."""
    p = 1
    while p < n:
        p *= 2
    return p


def dft2_naive(x):
    """Direct evaluation of the transform's double sum.  O((pq)^2), any shape.

    This is the reference implementation the fast path is tested against.
    """
    a = _as_valid_matrix(x)
    p, q = a.shape
    er = np.exp((-2j * np.pi / p) * np.outer(np.arange(p), np.arange(p)))
    ec = np.exp((-2j * np.pi / q) * np.outer(np.arange(q), np.arange(q)))
    return er @ a @ ec


def _bit_reversed(n):
    """Index permutation of range(n) with reversed bit order; n a power of two."""
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev = (rev << 1) | ((idx >> b) & 1)
    return rev


def _fft_last_axis(a):
    """Radix-2 decimation-in-time FFT along the last axis of a complex array."""
    n = a.shape[-1]
    out = a[..., _bit_reversed(n)]
    size = 2
    while size <= n:
        half = size // 2
        twiddle = np.exp((-2j * np.pi / size) * np.arange(half))
        blocks = out.reshape(out.shape[:-1] + (n // size, size))
        odd = blocks[..., half:] * twiddle
        upper = blocks[..., :half] + odd
        lower = blocks[..., :half] - odd
        blocks[..., :half] = upper
        blocks[..., half:] = lower
        size *= 2
    return out


def fft2(x):
    """Fast 2-D transform, identical in contract to ``dft2_naive``.

    Both dimensions must be powers of two; other sizes raise
    UnsupportedSizeError rather than silently falling back.
    """
    a = _as_valid_matrix(x)
    p, q = a.shape
    if not (is_power_of_two(p) and is_power_of_two(q)):
        raise UnsupportedSizeError(
            f"dimensions must be powers of two, got {p}x{q}")
    rows = _fft_last_axis(a)
    return _fft_last_axis(rows.T).T

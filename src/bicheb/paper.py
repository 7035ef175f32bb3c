"""The paper's algorithm and the other oracles the tests check production by.

The paper samples f on the periodicized grid cos(2 pi k / m), which repeats
each Lobatto node cos(i pi / (m/2)) up to four times, and takes its 2-D DFT
with a radix-2 FFT (``sample_grid``, ``fft2``, ``coeffs_from_samples``).
Production computes the same coefficients with a DCT-I of the distinct
Lobatto samples in ``chebcore``.  The other oracles are the naive DFT, the
coefficients by midpoint quadrature, the second-derivative decay bounds, the
aliasing fold that ties series coefficients to the interpolant's, one
point's Chebyshev vector, which every row of ``cheb_basis`` must equal bit
for bit, and the derivative's backward loop, which ``calculus._derivative``
must equal bit for bit.

Neither ``bicheb`` nor ``bicheb.cli`` imports this module; import it as
``bicheb.paper``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chebcore import (
    UNIT_SQUARE,
    _OVERSHOOT,
    _index,
    _is_power_of_two,
    _sample_on,
    lobatto_nodes,
)
from .errors import DomainError, ValidationError


# ---------------------------------------------------------------------------
# Chebyshev polynomials at one point


def cheb_vector(n, x):
    """(T_0(x), ..., T_n(x)) by the recurrence T_{k+1} = 2 x T_k - T_{k-1}.

    x may overshoot [-1, 1] by up to 1e-12 and is clamped; anything further
    out, or NaN, raises DomainError.  n must be an integer >= 0.
    """
    n = _index(n, "degree")
    if n < 0:
        raise ValidationError("degree must be >= 0")
    if not abs(x) <= 1.0 + _OVERSHOOT:  # NaN too
        raise DomainError(f"argument {x!r} lies outside [-1, 1]")
    x = min(1.0, max(-1.0, float(x)))
    out = np.ones(n + 1)
    if n >= 1:
        out[1] = x
    for k in range(2, n + 1):
        out[k] = 2.0 * x * out[k - 1] - out[k - 2]
    return out


# ---------------------------------------------------------------------------
# derivative coefficients by the backward loop


def _diff_first_axis(a):
    """Backward solve for the derivative coefficients along axis 0.

    With b read as zero at and beyond row n, the recurrence is
    b[k] = 2 (k + 1) a[k + 1] + b[k + 2] for k = n-1 .. 1 and
    b[0] = a[1] + b[2] / 2.  ``calculus._derivative`` must equal it bit for
    bit, before its chain-rule factor, along either axis.
    """
    n = a.shape[0] - 1
    b = np.zeros((n, a.shape[1]))
    for k in range(n - 1, 0, -1):
        b[k] = 2.0 * (k + 1) * a[k + 1]
        if k + 2 <= n - 1:
            b[k] += b[k + 2]
    b[0] = a[1]
    if n >= 3:
        b[0] += 0.5 * b[2]
    return b


# ---------------------------------------------------------------------------
# two-dimensional DFT
#
# The forward transform of a p-by-q matrix x is
#
#     y[r, s] = sum_k sum_j x[k, j] exp(-2i pi k r / p) exp(-2i pi j s / q)
#
# with no normalization.


def _as_valid_matrix(x):
    a = np.asarray(x)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"expected a 2-D matrix, got shape {a.shape!r}")
    a = a.astype(np.complex128)
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValidationError("matrix contains NaN or Inf entries")
    return a


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
    ValidationError rather than silently falling back.
    """
    a = _as_valid_matrix(x)
    p, q = a.shape
    if not (_is_power_of_two(p) and _is_power_of_two(q)):
        raise ValidationError(
            f"dimensions must be powers of two, got {p}x{q}")
    rows = _fft_last_axis(a)
    return _fft_last_axis(rows.T).T


# ---------------------------------------------------------------------------
# the paper's coefficients and their independent cross-checks


def _periodic_nodes(m):
    """cos(2 pi k / m), k = 0..m-1 (m even): the Lobatto nodes of degree m / 2
    and their interior mirror, so node[m-k] equals node[k] bit-for-bit."""
    u = lobatto_nodes(m // 2)
    return np.concatenate([u, u[-2:0:-1]])


def sample_grid(f, m, domain=UNIT_SQUARE):
    """Samples of f on the m-point periodicized Chebyshev grid of the domain.

    Returns the m x m array values[k, j] = f(x(cos(2 pi k / m)),
    y(cos(2 pi j / m))), where x(), y() map the unit interval onto the
    domain edges.  The nodes are built by mirroring, so the values inherit
    the grid's even symmetry bit for bit whenever f is deterministic.
    """
    if not _is_power_of_two(m) or m < 2:
        raise ValidationError(f"grid size must be a power of two >= 2, got {m}")
    u = _periodic_nodes(m)
    return _sample_on(f, domain.x_from_unit(u), domain.y_from_unit(u))


def coeffs_from_samples(values, n):
    """Trapezoid-rule Chebyshev coefficients up to degree n in each variable.

    Parameters
    ----------
    values : array
        ``sample_grid`` samples on an m-point grid with m >= 2 (n + 1), so
        the retained degrees stay below the aliasing fold at m / 2.
    n : int
        Degree bound; the result has shape (n + 1, n + 1).

    The transform output g = fft2(values) / m^2 estimates the Fourier
    coefficients of f(cos t, cos s); the Chebyshev coefficients are 4 Re g
    with the first row and column halved and the corner quartered.
    """
    if n < 1:
        raise ValidationError("degree bound must be >= 1")
    m = np.shape(values)[0]
    if m < 2 * (n + 1):
        raise ValidationError(
            f"grid size {m} too small for degree {n}; need at least {2 * (n + 1)}")
    g = fft2(values) / (m * m)
    coeffs = 4.0 * g.real[: n + 1, : n + 1]
    coeffs[0, 0] /= 4.0
    coeffs[0, 1:] /= 2.0
    coeffs[1:, 0] /= 2.0
    return coeffs


def coeffs_by_quadrature(f, k, j, nodes):
    """Single coefficient by midpoint quadrature of the weighted inner product.

    Integrates f(cos t, cos s) cos(k t) cos(j s) over [0, pi]^2 on an
    N-by-N midpoint grid and applies the 4/pi^2 scaling with the usual
    halvings for k = 0 or j = 0.  Entirely independent of the transform
    path, which it cross-checks.
    """
    if k < 0 or j < 0:
        raise ValidationError("coefficient indices must be >= 0")
    if nodes < 4 * max(k, j) + 16:
        raise ValidationError(
            f"need at least {4 * max(k, j) + 16} quadrature nodes for index "
            f"({k}, {j}), got {nodes}")
    t = (np.arange(nodes) + 0.5) * (np.pi / nodes)
    xs = np.cos(t)
    values = _sample_on(f, xs, xs)
    weights = np.cos(k * t)[:, None] * np.cos(j * t)[None, :]
    estimate = 4.0 / nodes ** 2 * float(np.sum(values * weights))
    if k == 0:
        estimate /= 2.0
    if j == 0:
        estimate /= 2.0
    return estimate


@dataclass(frozen=True)
class DecayBounds:
    """Sup-norm bounds on the second partial derivatives of f over the domain.

    dxx bounds |d2f/dx2|, dyy bounds |d2f/dy2| and dxy bounds the mixed
    partial; all must be nonnegative and finite.  Supplied by the caller,
    these drive the coefficient-decay property checks.
    """

    dxx: float
    dyy: float
    dxy: float

    def __post_init__(self):
        for name in ("dxx", "dyy", "dxy"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValidationError(f"{name} must be finite and >= 0")


def decay_bound_excess(c, bounds):
    """Largest violation of the second-derivative decay bounds; <= 0 if all hold.

    Checks |coeffs[k, 0]| <= 2 dxx / (k - 1)^2 and
    |coeffs[k, 1]| <= 8 dxx / (pi (k - 1)^2) for every stored k > 1, plus
    the mirrored column bounds with dyy.
    """
    a = c.coeffs
    excesses = []
    for k in range(2, c.degree_x + 1):
        denom = float(k - 1) ** 2
        excesses.append(abs(a[k, 0]) - 2.0 * bounds.dxx / denom)
        if c.degree_y >= 1:
            excesses.append(abs(a[k, 1]) - 8.0 * bounds.dxx / (math.pi * denom))
    for j in range(2, c.degree_y + 1):
        denom = float(j - 1) ** 2
        excesses.append(abs(a[0, j]) - 2.0 * bounds.dyy / denom)
        if c.degree_x >= 1:
            excesses.append(abs(a[1, j]) - 8.0 * bounds.dyy / (math.pi * denom))
    return max(excesses, default=float("-inf"))


# ---------------------------------------------------------------------------
# interpolation on the Lobatto grid
#
# Because T_k and T_{2pn +/- k} coincide on the n-grid, the interpolant's
# coefficients are folded sums of the underlying series coefficients.


@dataclass(frozen=True)
class LobattoGrid:
    """Chebyshev-Lobatto nodes cos(i pi / n), i = 0..n, with companion weights.

    weights carries 1/2 at the two endpoints and 1 inside; edge_scale is the
    complementary pattern (1 at the endpoints, 1/2 inside) that appears in
    the discrete orthogonality sums.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    edge_scale: np.ndarray


def lobatto_grid(n):
    """Grid of the n + 1 extremum nodes, strictly decreasing from 1 to -1."""
    nodes = lobatto_nodes(n)
    weights = np.ones(n + 1)
    weights[0] = weights[n] = 0.5
    edge_scale = np.full(n + 1, 0.5)
    edge_scale[0] = edge_scale[n] = 1.0
    return LobattoGrid(n, nodes, weights, edge_scale)


def _alias_class(i, n, cutoff):
    """Distinct indices k <= 2 cutoff n + i with T_k matching T_i on the n-grid.

    The matching classes are 2 p n + i and 2 p n - i; at the grid edges
    i = 0 and i = n the two enumerations meet, so a set keeps each index
    once.
    """
    members = {2 * p * n + i for p in range(cutoff + 1)}
    members.update(2 * p * n - i for p in range(1, cutoff + 1))
    return sorted(k for k in members if k >= 0)


def aliasing_coeffs(alpha, n, m, cutoff=8):
    """Interpolation coefficients folded from a series coefficient matrix.

    Every alpha[r, s] whose basis pair coincides with T_i(x) T_j(y) on the
    (n, m) Lobatto grid is accumulated into c[i, j], each aliased index
    counted once; indices beyond alpha's shape read as zero, and cutoff
    bounds the fold count per variable.  This is the oracle tying series
    coefficients to ``lagrange_cheb_coeffs``.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 2:
        raise ValidationError("coefficient matrix must be 2-D")
    rows, cols = a.shape
    out = np.zeros((n + 1, m + 1))
    col_classes = [
        [s for s in _alias_class(j, m, cutoff) if s < cols]
        for j in range(m + 1)
    ]
    for i in range(n + 1):
        row_class = [r for r in _alias_class(i, n, cutoff) if r < rows]
        for j in range(m + 1):
            out[i, j] = a[np.ix_(row_class, col_classes[j])].sum()
    return out


def interp_error_bound_gap(alpha, n, m):
    """Tail coefficient mass bounding |interpolant - truncated series|.

    Returns sum_{i <= n, j > m} |alpha[i, j]| + sum_{i > n} |alpha[i, :]|.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 2:
        raise ValidationError("coefficient matrix must be 2-D")
    if not np.all(np.isfinite(a)):
        raise ValidationError("coefficient matrix must be finite")
    a = np.abs(a)
    top = a[: n + 1, m + 1:].sum()
    rest = a[n + 1:, :].sum()
    return float(top + rest)

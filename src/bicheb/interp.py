"""Lagrange interpolation on the Chebyshev-Lobatto product grid.

The Chebyshev coefficients of the interpolant through f on the nodes
cos(i pi / n) x cos(j pi / m) come from the builder's DCT-I; the paper's
periodic grid and radix-2 FFT compute them too and serve as the oracle.
Because T_k and T_{2pn +/- k} coincide on the n-grid, they are folded sums
of the underlying series coefficients, which ``aliasing_coeffs`` reproduces.
"""

from dataclasses import dataclass

import numpy as np

from .chebcore import UNIT_SQUARE, _lobatto_coeffs, _sample_on, lobatto_nodes
from .errors import InvalidInputError


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


def lagrange_cheb_coeffs(f, n, m, domain=UNIT_SQUARE):
    """Chebyshev-basis coefficients of the (n, m)-degree interpolant of f.

    Parameters
    ----------
    f : callable
        Function of two real arguments, sampled at the (n + 1)(m + 1)
        Lobatto node pairs (mapped onto the domain).
    n, m : int
        Degrees in the first and second variable, both >= 1.

    Returns
    -------
    (n + 1) x (m + 1) array c with

        c[i, j] = 4 / (n m) * w_i w_j *
                  sum_k sum_l w_k w_l f(x_k, y_l) T_i(x_k) T_j(y_l)

    where w is the half-at-the-endpoints weight vector, computed as a DCT-I
    along each axis.  The resulting polynomial matches f at every grid node.
    """
    if n < 1 or m < 1:
        raise InvalidInputError("interpolation degrees must be >= 1")
    xs = domain.x_from_unit(lobatto_nodes(n))
    ys = domain.y_from_unit(lobatto_nodes(m))
    return _lobatto_coeffs(_sample_on(f, xs, ys))


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
        raise InvalidInputError("coefficient matrix must be 2-D")
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
        raise InvalidInputError("coefficient matrix must be 2-D")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("coefficient matrix must be finite")
    a = np.abs(a)
    top = a[: n + 1, m + 1:].sum()
    rest = a[n + 1:, :].sum()
    return float(top + rest)

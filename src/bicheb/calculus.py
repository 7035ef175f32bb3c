"""Spectral differentiation and integration of Chebyshev approximants.

Derivative coefficients come from the linear system tying a series to the
series of its derivative through T'_k; because the coefficients beyond the
stored degree are treated as zero, the system is triangular and solved
exactly by backward substitution: a running sum from the top degree down,
one for each parity of the index.  Integration uses the closed form of the
basis integrals: over [-1, 1], T_k integrates to 2 / (1 - k^2) for even k
and to 0 for odd k.
"""

import numpy as np

from .chebcore import Cheb2, _check_grid_budget


def _derivative(c, axis):
    """The coefficient matrix of c's derivative along axis 0 (x) or 1 (y), a
    new array that nothing else holds, with the chain-rule factor of the
    domain's affine map applied: 2 / (hi - lo) of that axis.  A degree-0
    axis yields the zero function's single coefficient.

    With the chosen axis first and b read as zero at and beyond row n,
    b[k] = 2 (k + 1) a[k + 1] + b[k + 2] for k = n-1 .. 1: within each
    parity of k, a running sum of the terms 2 (k + 1) a[k + 1] from the top,
    which np.cumsum adds in the order of the paper's backward loop
    (``bicheb.paper._diff_first_axis``), so the bits are the loop's.  Then
    b[0] = a[1] + b[2] / 2.
    """
    a = np.moveaxis(c.coeffs, axis, 0)
    n = a.shape[0] - 1
    if n == 0:
        return np.zeros((1, 1))
    b = np.multiply(np.arange(2.0, 2 * n + 1, 2.0)[:, None], a[1:])
    top_down = b[::-1]
    for rows in (top_down[0::2], top_down[1::2]):
        np.cumsum(rows, axis=0, out=rows)
    b[0] = a[1]
    if n >= 3:
        b[0] += 0.5 * b[2]
    lo, hi = (c.domain.xlo, c.domain.xhi) if axis == 0 else (c.domain.ylo, c.domain.yhi)
    b *= 2.0 / (hi - lo)
    return np.moveaxis(b, 0, axis)


def diff_x(c):
    """Approximant of df/dx, with degrees (degree_x - 1, degree_y).

    A degree-0 first variable yields the zero function.  On a non-unit
    domain every coefficient carries the chain-rule factor of the affine
    map, 2 / (xhi - xlo).  The result holds the one matrix it computes.
    """
    return Cheb2._owning(_derivative(c, 0), c.domain, c.tol)


def diff_y(c):
    """Approximant of df/dy; mirror of diff_x along the second index."""
    return Cheb2._owning(_derivative(c, 1), c.domain, c.tol)


def integrate(c):
    """Double integral of the approximant over its rectangle.

    Only even-indexed coefficients contribute; the sum
    4 * sum_{k, j even} coeffs[k, j] / ((1 - k^2)(1 - j^2)) is the unit-square
    value, scaled by the Jacobian (xhi - xlo)(yhi - ylo) / 4.  The sum runs
    over a contiguous copy of the even-indexed quarter of the matrix: a
    strided view's product rounds differently in the last bit.  The matrix
    and that copy are charged to the grid budget before the copy is made;
    over it, ValidationError.
    """
    a = c.coeffs
    _check_grid_budget(
        f"integrating a dense {a.shape[0]} x {a.shape[1]} coefficient matrix",
        a.size + ((a.shape[0] + 1) // 2) * ((a.shape[1] + 1) // 2))
    ks = np.arange(0, a.shape[0], 2)
    js = np.arange(0, a.shape[1], 2)
    wk = 1.0 / (1.0 - ks.astype(float) ** 2)
    wj = 1.0 / (1.0 - js.astype(float) ** 2)
    unit = 4.0 * float(wk @ np.ascontiguousarray(a[::2, ::2]) @ wj)
    jacobian = (c.domain.xhi - c.domain.xlo) * (c.domain.yhi - c.domain.ylo) / 4.0
    return unit * jacobian

"""Spectral differentiation and integration of Chebyshev approximants.

Derivative coefficients come from the linear system tying a series to the
series of its derivative through T'_k; because the coefficients beyond the
stored degree are treated as zero, the system is triangular and solved
exactly by backward substitution.  Integration uses the closed form of the
basis integrals: over [-1, 1], T_k integrates to 2 / (1 - k^2) for even k
and to 0 for odd k.
"""

import numpy as np

from .chebcore import Cheb2


def _diff_first_axis(a):
    """Backward solve for the derivative coefficients along axis 0.

    With b read as zero at and beyond row n, the recurrence is
    b[k] = 2 (k + 1) a[k + 1] + b[k + 2] for k = n-1 .. 1 and
    b[0] = a[1] + b[2] / 2.
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


def _derivative(c, axis):
    """The coefficient matrix of c's derivative along axis 0 (x) or 1 (y), a
    new array that nothing else holds, with the chain-rule factor of the
    domain's affine map applied: 2 / (hi - lo) of that axis.  A degree-0
    axis yields the zero function's single coefficient."""
    if c.coeffs.shape[axis] == 1:
        return np.zeros((1, 1))
    if axis == 0:
        b = _diff_first_axis(c.coeffs)
        b *= 2.0 / (c.domain.xhi - c.domain.xlo)
    else:
        b = _diff_first_axis(c.coeffs.T).T
        b *= 2.0 / (c.domain.yhi - c.domain.ylo)
    return b


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
    value, scaled by the Jacobian (xhi - xlo)(yhi - ylo) / 4.
    """
    a = c.coeffs
    ks = np.arange(0, a.shape[0], 2)
    js = np.arange(0, a.shape[1], 2)
    wk = 1.0 / (1.0 - ks.astype(float) ** 2)
    wj = 1.0 / (1.0 - js.astype(float) ** 2)
    unit = 4.0 * float(wk @ a[np.ix_(ks, js)] @ wj)
    jacobian = (c.domain.xhi - c.domain.xlo) * (c.domain.yhi - c.domain.ylo) / 4.0
    return unit * jacobian

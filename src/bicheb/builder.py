"""The adaptive builder and the Parseval indicator of its approximants.

The builder keeps a degree bound per axis and refines by one rule, which
its tensor passes and its slice passes share, one function per part:
- the threshold is tol, or with a relative tol, tol times the largest |f|
  sampled so far (_peak);
- an axis' tail is the largest entry of the last two rows (x) or columns
  (y) of the coefficients, and the axis grows unless its tail is below the
  threshold or 0.  One function gives the tails, the axes that grow and
  the reason a failing pass reports (_tail_test); phase 2 reads the same
  verdict.  A tensor pass of 129 x 129 entries or more first estimates its
  tails from the samples: per axis, one product with two fixed rows of the
  DCT-I, then the DCT-I of the other axis on the two rows it gives
  (_tail_rows).  If the estimates prove that both axes fail, by a margin
  that covers their rounding, the pass takes no 2-D transform and doubles
  both bounds, as its tails would have it (_proven_failure).  Any other
  pass is transformed, and the transform's own tails decide, so the
  estimates never accept a pass.  Nor may a pass after which the build
  could stop, at max_n or at the budget, skip: one with a bound at max_n,
  or whose next pass, with both bounds doubled, would exceed the budget;
- a growing axis doubles its bound, unless that would pass max_n
  (_doubled);
- a doubled axis' even-indexed nodes are the previous grid's nodes bit for
  bit, so the previous samples are copied in (_spread) and f is sampled at
  the new nodes only (_sample_new);
- once both tails pass, the trimmed approximant must also match f at a
  fixed set of off-grid check points, within (nx + 1)(ny + 1) times the
  threshold (_rejection).  f's 32 x 32 check samples are taken in one
  place, a cached call in build_adaptive (_check_samples), at the build's
  first check, and every check reads them, a tensor pass's and phase 2's.
  The approximant is evaluated at the check points' unit coordinates
  cos((2i + 1) pi / 66), where T_k repeats with period 132 in k, so the
  bases of every degree are rows of one read-only period of them, computed
  at import (_check_basis).
Before each pass the builder checks the bytes that pass will hold against
the grid budget.  Samples finite but so large that the transform of a pass
overflows give a tail that is not finite, and the build stops there; a pass
whose samples could overflow the transform's sums takes no estimate.  Every
error follows a pass that was transformed, and reports that pass's tail.

Most functions worth a large grid have low numerical rank, so the builder
has a second phase, the construction of Chebfun2 (Townsend and Trefethen,
SIAM J. Sci. Comput. 35(6), 2013).  Once per build, on the first pass whose
tails fail and whose next grid would hold 513 x 513 entries or more, a
rank test runs Gaussian elimination with complete pivoting on all of that
pass's samples.  For a rank r of 1 to 8 the builder then samples only the r
pivot columns f(x, y_J) and rows f(x_I, y), two tensor grids with one axis
each, x_nodes x y_J and x_I x y_nodes, and refines them by the same rule,
with the same DCT-I, until the tails of the rank-r coefficients pass.  Their
factors bound the entries of each row and
column of the dense matrix, so only the leading block that holds every
entry the trim can keep is expanded.  Its entries are computed as the whole
product's are, so the trimmed block is the trimmed dense matrix bit for bit;
it is checked off the grid against the tensor passes' bound, and if an axis
would pass max_n or the check fails, the tensor passes resume.  The block
is trimmed in place and the Cheb2 holds its kept corner as a view, without
a copy, so the step's one dense array is the block.  Once written, the
block is read whole only by the trim's zeroing, and again only in the
trim's far-end slabs, up to the first that holds a kept entry.  The bounds,
when all are finite, prove every entry finite, so the block is not scanned
for NaN and inf.  The check uses the factors: their product's misfit at
the check points, plus bounds on the mass the trim drops and on rounding,
within the check's bound, proves it passes (_factor_proof); only when that
cannot decide does the dense product of the kept block decide.  Each step
is charged against the budget before it samples: the tested grid, the
slices and three dense grids, since the block can be the whole matrix;
the charge leaves two grids to spare.  The bounds and the expansion are
elementwise numpy, not a BLAS product, so they too give the same bytes on
any number of CPUs.

A pass holds about two grid-sized arrays: the samples, which f's values
are written into directly (the previous samples are let go once copied
in), and one transform array, whose second axis is transformed in place.
A pass proven to fail holds no transform array, only its tail estimates,
4 (n + m + 2) doubles.  The relative threshold and the trim read and zero
the arrays in place, with no grid of magnitudes.  f's own result for the
new nodes and a trimmed copy of the coefficients are the only other large
arrays.  The budget charges the samples, the previous samples and the
transform's two grids plus its chunk buffers (_pass_entries,
_transform_entries), so it covers what a pass holds with a grid to spare.
It also charges the off-grid check's bases at the pass's larger bound, 32
doubles per degree, which outgrow the grid when one bound is large: above
degree 131 the check repeats the period into a new array.

The transform, the sampling, the trim rule and the grid budget are
``bicheb.chebcore``'s.  The package loads this module on the first lookup
of ``bicheb.build_adaptive`` or ``bicheb.parseval_indicator``.
"""

import functools
import math

import numpy as np

from . import chebcore
from .chebcore import (
    UNIT_SQUARE,
    _MAX_N,
    Cheb2,
    Domain2,
    _check_grid_budget,
    _dct_rows,
    _index,
    _is_power_of_two,
    _lobatto_coeffs,
    _require_real,
    _sample_on,
    _transform_entries,
    _trim_in_place,
    cheb_basis,
    lobatto_nodes,
)
from .errors import ConvergenceError, ValidationError

# Per-axis points of the builder's off-grid check: cos((i + 1/2) pi / 33),
# i = 0..32, without the centre i = 16.  (2i + 1) / 66 = j / 2^k forces
# 2i + 1 = 33, so no other point is a node of a power-of-two Lobatto grid.
_CHECK_NODES = np.delete(np.cos((np.arange(33) + 0.5) * np.pi / 33), 16)
_CHECK_NODES.setflags(write=False)

# Row k of _CHECK_PERIOD is T_k(_CHECK_NODES) for k = 0..131, by cheb_basis's
# recurrence.  T_k(cos t) = cos(k t) and t = (2i + 1) pi / 66, so T_(k + 132)
# is T_k at every check point, and one period of 132 x 32 doubles holds the
# check's bases for both axes, at any degree, of every build in the process.
_CHECK_PERIOD = np.ascontiguousarray(cheb_basis(131, _CHECK_NODES).T)
_CHECK_PERIOD.setflags(write=False)
# The largest |T_k| in the period, 1 + 22 eps by the recurrence's rounding
# (_factor_proof).
_CHECK_PEAK = float(np.abs(_CHECK_PERIOD).max())

# The builder's rank test runs once, on the first pass that fails its tail
# test and whose next grid would hold at least _RANK_ENTRIES entries (a
# 513 x 513 grid), on that pass's whole grid, and accepts a rank of 1 to
# _MAX_RANK.  Higher ranks can cost more in slices than they save:
# 1/(1 + 100 (x^2 + y^2)), rank 23, built in 27-29 ms through them against
# 18 ms on its tensor grids (medians of 15 builds, 2 vCPUs).
_RANK_ENTRIES = 513 * 513
_MAX_RANK = 8

# A tensor pass whose grid holds at least _SKIP_ENTRIES entries estimates
# its tails before it transforms (_proven_failure).  One axis' estimate took
# 20 us against the transform's 300 us at 129 x 129, 32 against 1,190 at
# 257 x 257, but 18 against 70 at 65 x 65, where a pass that converges
# would pay a quarter of a transform for it (best of 5 x 200 calls, 2
# vCPUs, BLAS at one thread).
# An estimate fails an axis only by a margin of _ESTIMATE_SLACK times the
# pass's largest |f|: on random and smooth grids of 129 x 129 to
# 2049 x 2049 it was within 0.36 eps times that of the transform's tail.
_SKIP_ENTRIES = 129 * 129
_ESTIMATE_SLACK = 8 * np.finfo(float).eps


def _bounds(nx, ny):
    """'degree bound N' for a square grid, 'degree bounds NX x NY' otherwise."""
    return f"degree bound {nx}" if nx == ny else f"degree bounds {nx} x {ny}"


def _check_basis(degree):
    """T_k(_CHECK_NODES) for k = 0..degree, one row per degree, row k being
    row k mod 132 of _CHECK_PERIOD: below 132 a read-only view of its
    leading rows, with cheb_basis's bits, and from 132 on a new array of
    the period repeated, 32 (degree + 1) doubles (_pass_entries)."""
    if degree < len(_CHECK_PERIOD):
        return _CHECK_PERIOD[:degree + 1]
    return np.resize(_CHECK_PERIOD, (degree + 1, _CHECK_NODES.size))


def _check_samples(f, domain):
    """f at _CHECK_NODES mapped onto the domain: the check's reference, 32 x
    32, which build_adaptive samples once, at its first check."""
    return _sample_on(f, domain.x_from_unit(_CHECK_NODES),
                      domain.y_from_unit(_CHECK_NODES))


def _rejection(reference, c, nx, ny, factors=None):
    """None if c, trimmed from the degree bounds (nx, ny), matches f at the
    check points within the bound, else the misfit against it.  The trim
    drops at most (nx + 1)(ny + 1) entries, each below c.tol.

    reference is f at the check points (_check_samples), and c is evaluated
    at _CHECK_NODES themselves, the unit points of those samples, as
    evaluate_grid evaluates a tensor grid: the bases of the two axes on
    either side of the coefficients.  The bases are rows of one period
    computed at import (_check_basis), not a recurrence per call.  Given
    the factors (left, right) that c is the trimmed product of
    (_trimmed_product), they first try to prove c within the bound
    (_factor_proof), and the dense product runs only if they cannot: the
    verdict is the same."""
    bound = (nx + 1) * (ny + 1) * c.tol
    if factors is not None and _factor_proof(*factors, reference, c.tol, bound):
        return None
    basis = _check_basis(max(c.degree_x, c.degree_y))
    values = basis[:c.degree_x + 1].T @ c.coeffs @ basis[:c.degree_y + 1]
    misfit = np.abs(values - reference).max()
    return (None if misfit <= bound
            else f"off-grid misfit {misfit:.3e} above {bound:.3e}")


# ---------------------------------------------------------------------------
# the refinement rule, shared by the builder's tensor passes and slice passes


def _peak(*samples):
    """The largest |f| in samples, found with no array of magnitudes: with
    a relative tol, the trim threshold is tol times the largest |f| sampled
    so far.  The 0.0 first makes the peak of samples that are all -0.0 0.0.
    Python's max of the same doubles is exact, so peaks taken apart and
    then compared are the peak of all of them."""
    return float(max(0.0, *(m for s in samples for m in (s.max(), -s.min()))))


def _tail_test(last_rows, last_cols, threshold, square=True):
    """The tail test's verdict (tails, grows, why).  The tails are the
    largest |entry| of the last two rows and of the last two columns of the
    coefficients, and grows says for each axis whether it grows: it does
    unless its tail is below the threshold or 0, so a zero tail passes even
    a zero threshold (f zero on the grid).  why is None if neither axis
    grows, else the reason: the larger tail against the threshold, or with
    unequal degree bounds (not square) the tail of each axis that grows."""
    tails = np.abs(last_rows).max(), np.abs(last_cols).max()
    grows = [not (t < threshold or t == 0.0) for t in tails]
    if not (grows[0] or grows[1]):
        return tails, grows, None
    told = (f"{max(tails):.3e}" if square else " and ".join(
        f"{t:.3e} in {axis}" for axis, t, grow in zip("xy", tails, grows) if grow))
    return tails, grows, f"coefficient tail {told} still at or above {threshold:.3e}"


def _tail_rows(values, axis):
    """The last two rows (axis 0) or columns (axis 1, as two rows) of
    _lobatto_coeffs(values), without the 2-D transform, whose tails they
    estimate.  Rows n and n - 1 of the DCT-I of n + 1 points are
    (1/n) w_i (-1)^i and (2/n) w_i (-1)^i x_i, w = (1/2, 1, ..., 1, 1/2)
    and x = lobatto_nodes(n), as cos((n - 1) i pi / n) = (-1)^i x_i.  The
    two lines times the samples are the axis' last two rows before the
    other axis is transformed, and _dct_rows transforms those rows alone.
    Equal to the transform's tail in exact arithmetic; the two round
    differently."""
    grid = values if axis == 0 else values.T
    n = grid.shape[0] - 1
    lines = np.empty((2, n + 1))
    lines[1, ::2] = 1.0 / n
    lines[1, 1::2] = -1.0 / n
    lines[1, ::n] *= 0.5
    np.multiply(lines[1], lobatto_nodes(n), out=lines[0])
    lines[0] *= 2.0
    tails = lines @ grid
    _dct_rows(tails, tails)
    return tails


def _proven_failure(values, threshold, slack):
    """Whether tail estimates prove that both axes of the pass fail its tail
    test.  An estimate t clearly fails if t - slack is at or above the
    threshold and above 0, so a tail within slack of it fails too.  x is
    probed first, and the first probe that does not clearly fail ends the
    estimates: a pass that may converge pays for one, and decides on the
    transform's own tails."""
    for axis in (0, 1):
        t = np.abs(_tail_rows(values, axis)).max() - slack
        if not (t >= threshold and t > 0.0):
            return False
    return True


def _pass_entries(nx, ny, previous):
    """Float64 entries charged for a tensor pass at degree bounds (nx, ny)
    while `previous` entries of the last pass's samples are held: the
    samples, the previous samples, the transform's arrays and the off-grid
    check's bases at the larger bound (_check_basis), which outgrow the
    grid when one bound is large."""
    return ((nx + 1) * (ny + 1) + previous + _transform_entries(nx + 1, ny + 1)
            + _CHECK_NODES.size * (max(nx, ny) + 1))


def _doubled(nx, ny, grow_x, grow_y, max_n, error):
    """The next degree bounds, each growing axis doubled; error() is raised
    instead if one would pass max_n."""
    if (grow_x and 2 * nx > max_n) or (grow_y and 2 * ny > max_n):
        raise error()
    return nx * (1 + grow_x), ny * (1 + grow_y)


def _spread(previous, grow_x, grow_y):
    """A grid whose axes are those of the samples `previous`, doubled where
    grow_x or grow_y is set, holding those samples at their nodes: every
    second node of a doubled axis, since lobatto_nodes(2 n)[::2] is
    lobatto_nodes(n) bit for bit.  The caller lets go of previous before
    _sample_new calls f, so that previous is not held beside f's result."""
    rows, cols = previous.shape
    grid = np.empty(((rows - 1) * (1 + grow_x) + 1, (cols - 1) * (1 + grow_y) + 1))
    grid[:: 1 + grow_x, :: 1 + grow_y] = previous
    return grid


def _sample_new(f, grid, xs, ys, grow_x, grow_y):
    """Sample f into grid, the tensor grid xs x ys from _spread, at the nodes
    it lacks and nowhere else: the odd rows if x doubled, and the odd
    columns of the other rows if y doubled."""
    if grow_x:
        _sample_on(f, xs[1::2], ys, grid[1::2, :])
    if grow_y:
        _sample_on(f, xs[:: 1 + grow_x], ys[1::2], grid[:: 1 + grow_x, 1::2])


def _rank_test(values, threshold):
    """The (row, column) pivots, in order, of Gaussian elimination with
    complete pivoting on values, which stops once no residual entry is at or
    above threshold, or all are 0: if that takes 1 to _MAX_RANK steps, else
    None.  Holds two arrays the size of values."""
    residual = np.array(values)
    scratch = np.empty_like(residual)
    pivots = []
    while True:
        k = int(np.abs(residual, out=scratch).argmax())
        i, j = divmod(k, residual.shape[1])
        pivot = residual[i, j]
        if pivot == 0.0 or abs(pivot) < threshold:
            return pivots or None
        if len(pivots) == _MAX_RANK:
            return None
        pivots.append((i, j))
        residual -= np.multiply(residual[:, j:j + 1], residual[i] / pivot, out=scratch)


def _expand(left, right):
    """sum_k outer(left[k], right[k]), added in order of k with elementwise
    numpy and no BLAS product, so the bytes do not depend on the CPUs."""
    # the caller finds the entries that are not finite, so numpy need not
    # warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply.outer(left[0], right[0])
        for k in range(1, len(left)):
            out += np.multiply.outer(left[k], right[k])
    return out


def _trimmed_product(left, right, threshold, domain):
    """The Cheb2 of _expand(left, right) trimmed (_trim_in_place), bit for
    bit, with only the leading block of the product that the trim can keep
    expanded, and the kept corner of that block held as the Cheb2's array.

    Row i of the product is at most sum_k |left[k, i]| max |right[k]| in
    magnitude, column j sum_k |right[k, j]| max |left[k]|.  The bounds are
    summed as _expand sums, in order of k with elementwise numpy.  Rounding
    to nearest is monotone, so each product and partial sum _expand
    computes is, in magnitude, at most the bound's: an entry of a row or
    column whose bound is below the threshold is below it too, and the trim
    zeroes it.  The cut is at half the threshold all the same, which also
    covers a sum in another order: an entry then exceeds its bound by at
    most 2 r 2^-53 relative, to first order, and r <= _MAX_RANK.  A NaN
    bound keeps its row.  The block's entries are computed as _expand
    computes them, and the trim drops only trailing all-zero rows and
    columns, so it keeps the same matrix from the block as from the whole
    product.

    By the same rounding, finite bounds prove every entry finite: then the
    Cheb2 is made without Cheb2._owning's scan of the block for NaN and
    inf, whose other checks the builder's domain and a finite threshold
    pass.  A bound that overflows or is NaN sends the block to that scan,
    which refuses a block that is not finite and passes one whose terms
    cancel, as for factors of 1e154 and -1e154.  The bounds and the
    expansion overflow with no numpy warning, as the transform does.

    The block is trimmed in place and the Cheb2 takes its kept corner as a
    view, with no copy, so the step holds one dense array, and the result
    keeps the block's buffer, a few rows and columns more than it needs
    (666 x 692 for the bump's 659 x 683).  The view is not C-contiguous
    unless the trim kept every column; the evaluators, the calculus and
    to_sparse give the same bytes for it as for its copy.  Once written,
    the block is read again only by the trim, by its zeroing and its
    far-end slabs: the off-grid check reads the factors, and the dense
    product of the kept block only when they cannot decide (_factor_proof).
    """
    cut = 0.5 * threshold
    row_peaks = np.abs(right).max(axis=1)
    col_peaks = np.abs(left).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        row_bound = np.abs(left[0]) * row_peaks[0]
        col_bound = np.abs(right[0]) * col_peaks[0]
        for k in range(1, len(left)):
            row_bound += np.abs(left[k]) * row_peaks[k]
            col_bound += np.abs(right[k]) * col_peaks[k]
    rows = np.flatnonzero(~(row_bound < cut))
    cols = np.flatnonzero(~(col_bound < cut))
    # no row or column kept: a 1 x 1 block, trimmed to the zero coefficient
    nr = rows[-1] + 1 if rows.size else 1
    nc = cols[-1] + 1 if cols.size else 1
    kept = _trim_in_place(_expand(left[:, :nr], right[:, :nc]), threshold)
    if (math.isfinite(threshold) and np.isfinite(row_bound).all()
            and np.isfinite(col_bound).all()):
        return Cheb2._of(kept, domain, threshold)
    return Cheb2._owning(kept, domain, threshold)


def _folded(factor):
    """factor @ _check_basis(n), r x 32, for factor r x (n + 1), with no
    (n + 1) x 32 bases: the bases repeat with period 132, so factor's
    columns are first summed mod 132, onto one period."""
    period = len(_CHECK_PERIOD)
    folded = factor[:, :period].copy()
    for lo in range(period, factor.shape[1], period):
        part = factor[:, lo:lo + period]
        folded[:, :part.shape[1]] += part
    return folded @ _CHECK_PERIOD[:folded.shape[1]]


def _dropped_mass(left, right, threshold):
    """D = sum_k sum_ij min(|left[k, i]| |right[k, j]|, threshold), one k
    at a time in O(n log n): with |right[k]| sorted and its prefix sums,
    row i adds |left[k, i]| times the sum of the entries below
    threshold / |left[k, i]| (searchsorted), and the threshold for each of
    the others.  An entry that rounding puts on the wrong side adds its
    product or the threshold, either at least its min, so D stays an upper
    bound up to its sums' rounding."""
    d = 0.0
    for k in range(len(left)):
        a, b = np.abs(left[k]), np.sort(np.abs(right[k]))
        sums = np.concatenate(([0.0], np.cumsum(b)))
        below = np.searchsorted(b, threshold / a)
        d += float(a @ sums[below]) + threshold * float(a.size * b.size - below.sum())
    return d


def _factor_proof(left, right, reference, threshold, bound):
    """Whether the factors prove that _rejection's dense misfit of
    K = _trimmed_product(left, right, threshold) is at most bound, without
    the product; False when they cannot decide.

    Let P be the product as _expand computes it, L = sum_k outer(left[k],
    right[k]) exactly, B the check bases as the table holds them, each at
    most p = _CHECK_PEAK in magnitude, u = eps / 2 and S = sum_k
    ||left[k]||_1 ||right[k]||_1.  To first order in u, the dense misfit at
    a check point is at most the sum of
    - |B^T (K - P) B| <= p^2 sum_ij min(|P_ij|, threshold), as K is P less
      its entries below the threshold.  |P_ij| <= (1 + r u) sum_k
      |left[k, i]| |right[k, j]| and min(., threshold) is subadditive, so
      this is at most p^2 (1 + r u) D (_dropped_mass);
    - |B^T (P - L) B| <= r u p^2 S, the expansion's rounding;
    - |B^T L B - reference| <= m + (nx + ny + r + 4) u p^2 S, where m is
      the misfit of (left B)^T (right B), computed through _folded;
    - the dense product's own rounding, at most (nx + ny + 2) u p^2 sum |K|,
      and sum |K| <= (1 + r u) S.
    D's sums round it by at most (nx + ny + r + 4) u relative, and the
    differences and this test's sums by a few u.  All of that is within
    margin = 2 (nx + ny + r + 2) eps (S + D + m), and 2^-900 covers what
    products that underflow lose, at most 2^-1075 each.  So
    m + p^2 D + margin <= bound proves the dense misfit within bound.  A
    factor, S, m or bound that is not finite, or a zero threshold, cannot
    decide."""
    r, nx, ny = len(left), left.shape[1] - 1, right.shape[1] - 1
    if not (threshold > 0.0 and math.isfinite(bound)):
        return False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = float(np.abs(left).sum(axis=1) @ np.abs(right).sum(axis=1))
        if not math.isfinite(s):
            return False
        m = float(np.abs(_folded(left).T @ _folded(right) - reference).max())
        d = _dropped_mass(left, right, threshold)
        margin = 2 * (nx + ny + r + 2) * math.ulp(1.0) * (s + d + m) + 2.0 ** -900
        return m + _CHECK_PEAK ** 2 * d + margin <= bound


def _skeleton(along_x, along_y, core):
    """Rank-r Chebyshev coefficients sum_k outer(left[k], right[k]) of
    f(x, y_J) f(x_I, y_J)^-1 f(x_I, y): along_x holds the coefficients of
    the r slices f(x, y_J), along_y those of f(x_I, y), core f(x_I, y_J).
    The elimination runs on core in pivot order, and each step applies to
    the slices' coefficients as it would to the slices: it is linear."""
    left, right, core = along_x.copy(), along_y.copy(), core.copy()
    for k in range(len(core)):
        d = core[k, k]
        left[k + 1:] -= np.multiply.outer(core[k, k + 1:] / d, left[k])
        right[k + 1:] -= np.multiply.outer(core[k + 1:, k] / d, right[k])
        core[k + 1:, k + 1:] -= np.multiply.outer(core[k + 1:, k] / d, core[k, k + 1:])
        left[k] /= d
    return left, right


class _Refused(Exception):
    """A phase-2 step over the grid budget or max_n; phase 1 resumes and
    decides."""


def _slice_phase(f, values, peak, pivots, tol, relative, max_n, domain):
    """Phase 2 of build_adaptive on the phase-1 grid `values`, whose largest
    |f| is peak, with the pivots (I, J) of _rank_test: the trimmed Cheb2,
    its degree bounds (nx, ny) and the rank-r factors (left, right) for the
    off-grid check (_rejection), or None if an axis would pass max_n or a
    step the grid budget.  The Cheb2 is expanded from the block of the
    rank-r coefficients that the trim can keep (_trimmed_product), and
    equals the trimmed dense matrix.

    The slices refine by the tensor passes' rule.  The threshold covers
    every sample in hand, the grid's and both slices' (_peak); the grid
    does not change, so its peak is taken once, by phase 1.  The tails are
    the last two rows and columns of the rank-r coefficients (_skeleton),
    and each axis doubles on its own (_tail_test, _doubled, which raises
    _Refused at max_n).  The slices f(x, y_J), (nx + 1) x r,
    and f(x_I, y), r x (ny + 1), are tensor grids with one refined axis
    each, so a doubled axis samples f at the new nodes of its r slices
    only (_spread, _sample_new).  Each step is charged
    against the budget first: the phase-1 grid, which stays held for phase
    1 to resume from, the slices with their transforms, and three grids for
    the dense matrix.  The step holds one: the expanded block, which at
    worst is the whole product of _expand, and which is trimmed in place
    and held, as a view of its kept corner, by the Cheb2.  So the charge
    leaves two grids to spare.  Of the 8 r (nx + ny + 2) doubles charged
    for the slices, their transforms and the factors, only the factors,
    r (nx + ny + 2), are held at the check.  The factor proof adds about
    3 (nx + ny + 2) doubles, one term at a time, within the rest (the
    bump's took 2.6).
    """
    rows_i, cols_j = np.array(pivots).T
    r = rows_i.size
    nx, ny = values.shape[0] - 1, values.shape[1] - 1
    x_pivots = domain.x_from_unit(lobatto_nodes(nx))[rows_i]
    y_pivots = domain.y_from_unit(lobatto_nodes(ny))[cols_j]
    core = values[np.ix_(rows_i, cols_j)]
    # the slices as tensor grids, one axis of each refined: f(x, y_J) on
    # Lobatto(nx) x y_J, (nx + 1) x r, and f(x_I, y) on x_I x Lobatto(ny)
    along_x, along_y = values[:, cols_j], values[rows_i, :]

    def charge(nx, ny):
        _check_grid_budget(
            f"the rank-{r} pass at {_bounds(nx, ny)}",
            values.size + 3 * (nx + 1) * (ny + 1) + 8 * r * (nx + ny + 2),
            _Refused)

    try:
        charge(nx, ny)
        while True:
            threshold = tol * max(peak, _peak(along_x, along_y)) if relative else tol
            cx, cy = np.empty((r, nx + 1)), np.empty((r, ny + 1))
            _dct_rows(along_x.T, cx)
            _dct_rows(along_y, cy)
            left, right = _skeleton(cx, cy, core)
            _, (grow_x, grow_y), _ = _tail_test(_expand(left[:, -2:], right),
                                                _expand(left, right[:, -2:]), threshold)
            if not (grow_x or grow_y):
                break
            nx, ny = _doubled(nx, ny, grow_x, grow_y, max_n, _Refused)
            charge(nx, ny)
            along_x = _spread(along_x, grow_x, False)
            _sample_new(f, along_x, domain.x_from_unit(lobatto_nodes(nx)),
                        y_pivots, grow_x, False)
            along_y = _spread(along_y, False, grow_y)
            _sample_new(f, along_y, x_pivots,
                        domain.y_from_unit(lobatto_nodes(ny)), False, grow_y)
    except _Refused:
        return None
    return _trimmed_product(left, right, threshold, domain), nx, ny, (left, right)


def build_adaptive(f, tol, n0=8, max_n=_MAX_N, domain=UNIT_SQUARE,
                   relative=False):
    """Construct a Cheb2 for f, doubling each degree until its tail is negligible.

    At degree bounds (nx, ny), f is sampled on the (nx + 1) x (ny + 1)
    Lobatto grid, only at the nodes the previous grid lacks (_spread,
    _sample_new), and the interpolant's coefficients on it are computed.
    The x tail is the largest entry of the last two rows, the y tail that
    of the last two columns; each axis whose tail is at or above the
    threshold (_peak) doubles its bound, and the other keeps it
    (_tail_test, _doubled).  When both tails are below the threshold the
    entries below it are trimmed, and the pass converges if the
    approximant matches f within (nx + 1)(ny + 1) times the threshold at
    32 x 32 fixed check points that are nodes of no power-of-two Lobatto
    grid (_rejection); otherwise both bounds double.

    A pass of 129 x 129 entries or more first estimates its tails, each
    from two fixed rows of the DCT-I times the samples (_tail_rows), x
    first.  If both estimates fail the threshold by more than a margin of
    8 eps times the pass's largest |f|, the pass is proven to fail: it
    computes no coefficients, and both bounds double, as the transform's
    tails would have them (_proven_failure).  Otherwise the pass
    transforms and its tails decide as above, so an estimate never
    accepts a pass.  Only a pass with both bounds below max_n, whose
    next pass would fit the grid budget with both bounds doubled, takes
    the estimates.  The Runge function's 129 x 129 pass and the bump's
    129 x 129 and 257 x 257 passes are proven to fail.

    Phase 2: the first pass whose tails fail and whose next grid would hold
    at least 513 x 513 entries runs the rank test, once per build: Gaussian
    elimination with complete pivoting on all of that pass's samples,
    stopped at the threshold.  If it stops after 1 to 8 steps, their pivots
    are the nodes (x_I, y_J).  The builder then refines the r slices
    f(x, y_J) and f(x_I, y) by the same rule and the same functions, each
    axis on its own, with the tails of the rank-r coefficients
    C_x M^-1 C_y^T, M = f(x_I, y_J), and a threshold over the grid's and
    the slices' samples.
    The factors bound each row and column of the dense matrix of those
    coefficients, and only its leading block that can hold an entry at or
    above the threshold is expanded; trimmed, it is the trimmed dense
    matrix bit for bit, and it is checked off the grid as above, from the
    factors when they decide and by the dense product when not
    (_rejection, _factor_proof): the same verdict either way.  If an
    axis would pass max_n, a step would exceed the grid budget or the check
    fails, the tensor passes resume from the grid of the tested pass, and
    the rank test does not run again.  The narrow bump builds from its
    257 x 257 grid, 2 x 768 slice nodes and the check points: 68,609
    samples, where the 1025 x 1025 grid takes 1,051,649.  Its rank-1
    coefficients are 1025 x 1025, of which the 659 x 683 block is expanded.

    The check catches a feature that every grid so far has stepped over,
    but no test on finitely many samples can be complete.  Phase 2 sees
    even less of f: a feature that lies between the nodes of the tested
    grid, where it adds no rank, and off the pivot slices, the only lines
    phase 2 samples more finely, is seen by the check points alone.

    Parameters
    ----------
    f : callable
        Function of two real arguments, total on the domain.  It may accept
        numpy arrays for fast sampling; callables that raise TypeError or
        ValueError on arrays are sampled sequentially.
    tol : float
        Trim threshold, absolute by default.  With relative=True the
        threshold is tol times the largest magnitude sampled on the current
        grid (in phase 2, on that grid and the slices), which keeps
        machine-precision targets reachable for large-magnitude functions.
        If f is 0 at every node, that threshold is 0 and a zero tail
        passes; the off-grid check then decides.
    n0, max_n : int
        Degree bound of the first grid on each axis, and the largest either
        axis may reach, both powers of two.  The default max_n,
        chebcore._MAX_N, is the largest square pass the 1 GiB grid budget
        allows; with a larger one the build stops before the pass at
        8192 x 8192 (see Raises).
    domain : Domain2
        Rectangle on which f is approximated.

    Returns
    -------
    Cheb2
        Trimmed coefficients with trailing all-zero rows and columns
        removed; the zero function comes back as a single zero coefficient.

    Raises
    ------
    ValidationError
        If tol is not a positive finite number, n0 or max_n not an integer
        power of two with 2 <= n0 <= max_n, or domain not a Domain2.  Also
        at the first pass whose tail is not finite: its samples are, so the
        transform's sums overflowed, as for samples near the largest double.
    ConvergenceError
        If a pass does not converge and an axis it would double is at max_n
        (or the largest power of two reached from n0).  The message gives
        the tail, and the axis when the bounds differ, against the
        threshold, or the off-grid misfit and its bound when both tails
        passed; ``tail_magnitude`` is the larger of that pass's two tails,
        from its transform: a pass that could end the build never skips it.
        Also before a tensor pass whose arrays would exceed the 1 GiB grid
        budget (a phase-2 step over it lets the tensor passes resume):
        the message names its degree bounds and bytes, then why the pass
        before it failed; ``tail_magnitude`` is that pass's tail, NaN if
        none ran.  Bounds are written ``degree bound N`` when both axes
        have N, ``degree bounds NX x NY`` otherwise.
    """
    tol = _require_real(tol, "tol")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError("tol must be positive and finite")
    n0, max_n = _index(n0, "n0"), _index(max_n, "max_n")
    if not _is_power_of_two(n0) or n0 < 2:
        raise ValidationError(f"n0 must be a power of two >= 2, got {n0}")
    if not _is_power_of_two(max_n) or max_n < n0:
        raise ValidationError(f"max_n must be a power of two >= n0, got {max_n}")
    if not isinstance(domain, Domain2):
        raise ValidationError(f"domain must be a Domain2, got {domain!r}")

    # f at the check points, sampled once, at the first check
    reference = functools.cache(lambda: _check_samples(f, domain))

    def refused(*message):
        # the budget's message, if any, then why the last pass, which was
        # transformed, failed
        if values is not None:
            message += (f"{why} at {_bounds(*(s - 1 for s in values.shape))}",)
        return ConvergenceError("; ".join(message), float(tail))

    nx = ny = n0
    values = None
    tail = math.nan
    tested = False  # the rank test runs at most once per build
    while True:
        # checked before any of the pass's arrays is allocated
        _check_grid_budget(f"the pass at {_bounds(nx, ny)}",
                           _pass_entries(nx, ny, 0 if values is None else values.size),
                           refused)
        xs = domain.x_from_unit(lobatto_nodes(nx))
        ys = domain.y_from_unit(lobatto_nodes(ny))
        if values is None:
            values = _sample_on(f, xs, ys)
        else:
            values = _spread(values, grow_x, grow_y)
            _sample_new(f, values, xs, ys, grow_x, grow_y)
        # one scan for the relative threshold, the estimates' margin and
        # the guard that keeps estimates off samples whose sums overflow
        large = values.size >= _SKIP_ENTRIES
        peak = _peak(values) if relative or large else None
        threshold = tol * peak if relative else tol
        grows = [True, True]  # the verdict of a pass proven to fail
        # a pass may skip its transform only if the build cannot stop right
        # after it, at max_n or at the budget (not a charge: the next pass
        # is charged when it comes), so every error follows a transformed
        # pass and reports that pass's own tail
        if not (large and math.isfinite(4 * peak * values.size) and max(nx, ny) < max_n
                and 8 * _pass_entries(2 * nx, 2 * ny, values.size)
                <= chebcore._GRID_BUDGET
                and _proven_failure(values, threshold, _ESTIMATE_SLACK * peak)):
            coeffs = _lobatto_coeffs(values)
            tails, grows, why = _tail_test(coeffs[-2:, :], coeffs[:, -2:],
                                           threshold, nx == ny)
            if not (math.isfinite(tails[0]) and math.isfinite(tails[1])):
                raise ValidationError(
                    f"the transform overflowed at {_bounds(nx, ny)}: samples up "
                    f"to {_peak(values):.3e} in magnitude give coefficients "
                    "that are not finite")
            tail = max(tails)
            if why is None:
                # Cheb2 copies the kept block, so the pass's grid of
                # coefficients, often several times its size, is let go
                c = Cheb2(_trim_in_place(coeffs, threshold), domain, threshold)
                why = _rejection(reference(), c, nx, ny)
                if why is None:
                    return c
                why += (f" although the coefficient tail {tail:.3e} passed "
                        f"against {threshold:.3e}")
            del coeffs  # only the samples stay: the rank test holds two grids
        tails_failed = grows[0] or grows[1]
        grow_x, grow_y = grows if tails_failed else (True, True)
        nx, ny = _doubled(nx, ny, grow_x, grow_y, max_n, refused)
        if tails_failed and not tested and (nx + 1) * (ny + 1) >= _RANK_ENTRIES:
            tested = True
            pivots = _rank_test(values, threshold)
            found = pivots and _slice_phase(f, values, peak, pivots, tol,
                                            relative, max_n, domain)
            if found and _rejection(reference(), *found) is None:
                return found[0]


# ---------------------------------------------------------------------------
# quality measures


def parseval_indicator(c, f):
    """Weighted L2 mass of f minus the mass captured by the stored coefficients.

    The weighted integral of f^2 is estimated by the Gauss-Chebyshev-Lobatto
    rule, weights 1/2, 1, ..., 1, 1/2 over n on each axis (Mason and
    Handscomb, Chebyshev Polynomials, 2003, sec. 4.6), on the Lobatto grid
    whose degree n on each axis is the smallest power of two above that
    axis' stored degree d.  The rule is the constant coefficient of the
    interpolant of f^2 on that grid.  On n + 1 nodes it is exact up to
    degree 2 n - 1, so from n >= d + 1 it integrates f^2 exactly when f is
    the stored polynomial, whose square has degree 2 d.  It is summed with
    numpy reductions and no BLAS product, so the result does not depend on
    the number of CPUs.
    Rounding can make the result slightly negative; it is returned
    unmodified.  ValidationError, before f is sampled, if the samples and
    f's own result would exceed the grid budget; the squares overwrite the
    samples.  ValidationError too, with no numpy warning, if the result is
    not finite: the squares or their sums overflowed.
    """
    a = c.coeffs
    n = 1 << c.degree_x.bit_length()
    m = 1 << c.degree_y.bit_length()
    _check_grid_budget(f"the Parseval indicator's {n + 1} x {m + 1} grid",
                       2 * (n + 1) * (m + 1))
    values = _sample_on(f, c.domain.x_from_unit(lobatto_nodes(n)),
                        c.domain.y_from_unit(lobatto_nodes(m)))
    peak = _peak(values)
    with np.errstate(over="ignore", invalid="ignore"):
        mass = a[0, 0] ** 2
        mass += 0.5 * np.sum(a[1:, 0] ** 2) + 0.5 * np.sum(a[0, 1:] ** 2)
        mass += 0.25 * np.sum(a[1:, 1:] ** 2)
        squares = np.square(values, out=values)
        rows = 0.5 * (squares[:, 0] + squares[:, -1]) + squares[:, 1:-1].sum(axis=1)
        total = 0.5 * (rows[0] + rows[-1]) + rows[1:-1].sum()
        indicator = float(total / (n * m) - mass)
    if not math.isfinite(indicator):
        raise ValidationError(
            f"the Parseval indicator overflowed on its {n + 1} x {m + 1} grid: "
            f"the squares or sums of samples up to {peak:.3e} in magnitude, or "
            "of the coefficients, are not finite")
    return indicator

"""The adaptive builder and the Parseval indicator of its approximants.

The builder keeps a degree bound per axis and refines by one rule, which
its tensor passes and its slice passes share, one function per part:
- the threshold is tol, or with a relative tol, tol times the largest |f|
  sampled so far (_threshold);
- an axis' tail is the largest entry of the last two rows (x) or columns
  (y) of the coefficients, and the axis grows unless its tail is below the
  threshold or 0 (_tail_test);
- a growing axis doubles its bound, unless that would pass max_n
  (_doubled);
- a doubled axis' even-indexed nodes are the previous grid's nodes bit for
  bit, so the previous samples are copied in (_spread) and f is sampled at
  the new nodes only (_sample_new);
- once both tails pass, the trimmed approximant must also match f at a
  fixed set of off-grid check points, within (nx + 1)(ny + 1) times the
  threshold (build_adaptive's rejection).
Before each pass the builder checks the bytes that pass will hold against
the grid budget.  Samples finite but so large that the transform of a pass
overflows give a tail that is not finite, and the build stops there.

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
it is checked off the grid as a tensor pass is, and if an axis would pass
max_n or the check fails, the tensor passes resume.  The block is trimmed
in place and the Cheb2 holds its kept corner as a view, without a copy, so
the step's one dense array is the block.  Each step is charged against the
budget before it samples: the tested grid, the slices and three dense
grids, since the block can be the whole matrix; the charge leaves two
grids to spare.  The bounds and the
expansion are elementwise numpy, not a BLAS product, so they too give the
same bytes on any number of CPUs.

A pass holds about two grid-sized arrays: the samples, which f's values
are written into directly (the previous samples are let go once copied
in), and one transform array, whose second axis is transformed in place.
The relative threshold and the trim read and zero the arrays in place,
with no grid of magnitudes.  f's own result for the new nodes and a
trimmed copy of the coefficients are the only other large arrays.  The
budget charges the samples, the previous samples and the transform's two
grids plus its chunk buffers (_transform_entries), so it covers what a
pass holds with a grid to spare.

The transform, the sampling, the trim rule and the grid budget are
``bicheb.chebcore``'s.  The package loads this module on the first lookup
of ``bicheb.build_adaptive`` or ``bicheb.parseval_indicator``.
"""

import math

import numpy as np

from .chebcore import (
    UNIT_SQUARE,
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
    evaluate_grid,
    lobatto_nodes,
)
from .errors import ConvergenceError, ValidationError

# Per-axis points of the builder's off-grid check: cos((i + 1/2) pi / 33),
# i = 0..32, without the centre i = 16.  (2i + 1) / 66 = j / 2^k forces
# 2i + 1 = 33, so no other point is a node of a power-of-two Lobatto grid.
_CHECK_NODES = np.delete(np.cos((np.arange(33) + 0.5) * np.pi / 33), 16)

# The builder's rank test runs once, on the first pass that fails its tail
# test and whose next grid would hold at least _RANK_ENTRIES entries (a
# 513 x 513 grid), on that pass's whole grid, and accepts a rank of 1 to
# _MAX_RANK.  Higher ranks can cost more in slices than they save:
# 1/(1 + 100 (x^2 + y^2)), rank 23, built in 27-29 ms through them against
# 18 ms on its tensor grids (medians of 15 builds, 2 vCPUs).
_RANK_ENTRIES = 513 * 513
_MAX_RANK = 8


def _bounds(nx, ny):
    """'degree bound N' for a square grid, 'degree bounds NX x NY' otherwise."""
    return f"degree bound {nx}" if nx == ny else f"degree bounds {nx} x {ny}"


# ---------------------------------------------------------------------------
# the refinement rule, shared by the builder's tensor passes and slice passes


def _threshold(tol, relative, *samples):
    """The trim threshold: tol, or with relative tol times the largest |f|
    in samples, found with no array of magnitudes.  The 0.0 first makes the
    threshold of samples that are all -0.0 0.0, as their largest |f| is."""
    if not relative:
        return tol
    return tol * max(0.0, *(m for s in samples for m in (s.max(), -s.min())))


def _tail_test(last_rows, last_cols, threshold):
    """The tails, the largest |entry| of the last two rows and of the last
    two columns of the coefficients, and for each axis whether it grows: it
    does unless its tail is below the threshold or 0, so a zero tail passes
    even a zero threshold (f zero on the grid)."""
    tails = np.abs(last_rows).max(), np.abs(last_cols).max()
    return tails, [not (t < threshold or t == 0.0) for t in tails]


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

    The block is trimmed in place and the Cheb2 takes its kept corner as a
    view, with no copy, so the step holds one dense array, and the result
    keeps the block's buffer, a few rows and columns more than it needs
    (666 x 692 for the bump's 659 x 683).  The view is not C-contiguous
    unless the trim kept every column; the evaluators, the calculus and
    to_sparse give the same bytes for it as for its copy.
    """
    cut = 0.5 * threshold
    row_peaks = np.abs(right).max(axis=1)
    col_peaks = np.abs(left).max(axis=1)
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
    block = _expand(left[:, :nr], right[:, :nc])
    return Cheb2._owning(_trim_in_place(block, threshold), domain, threshold)


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


def _slice_phase(f, values, pivots, tol, relative, max_n, domain):
    """Phase 2 of build_adaptive on the phase-1 grid `values` with the pivots
    (I, J) of _rank_test: the trimmed Cheb2 and its degree bounds (nx, ny),
    or None if an axis would pass max_n or a step the grid budget.  The
    Cheb2 is expanded from the block of the rank-r coefficients that the
    trim can keep (_trimmed_product), and equals the trimmed dense matrix.

    The slices refine by the tensor passes' rule.  The threshold covers
    every sample in hand, the grid's and both slices' (_threshold).  The
    tails are the last two rows and columns of the rank-r coefficients
    (_skeleton), and each axis doubles on its own (_tail_test, _doubled,
    which raises _Refused at max_n).  The slices f(x, y_J), (nx + 1) x r,
    and f(x_I, y), r x (ny + 1), are tensor grids with one refined axis
    each, so a doubled axis samples f at the new nodes of its r slices
    only (_spread, _sample_new).  Each step is charged
    against the budget first: the phase-1 grid, which stays held for phase
    1 to resume from, the slices with their transforms, and three grids for
    the dense matrix.  The step holds one: the expanded block, which at
    worst is the whole product of _expand, and which is trimmed in place
    and held, as a view of its kept corner, by the Cheb2.  So the charge
    leaves two grids to spare.
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
            threshold = _threshold(tol, relative, values, along_x, along_y)
            cx, cy = np.empty((r, nx + 1)), np.empty((r, ny + 1))
            _dct_rows(along_x.T, cx)
            _dct_rows(along_y, cy)
            left, right = _skeleton(cx, cy, core)
            _, (grow_x, grow_y) = _tail_test(_expand(left[:, -2:], right),
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
    return _trimmed_product(left, right, threshold, domain), nx, ny


def build_adaptive(f, tol, n0=8, max_n=4096, domain=UNIT_SQUARE,
                   relative=False):
    """Construct a Cheb2 for f, doubling each degree until its tail is negligible.

    At degree bounds (nx, ny), f is sampled on the (nx + 1) x (ny + 1)
    Lobatto grid, only at the nodes the previous grid lacks (_spread,
    _sample_new), and the interpolant's coefficients on it are computed.
    The x tail is the largest entry of the last two rows, the y tail that
    of the last two columns; each axis whose tail is at or above the
    threshold (_threshold) doubles its bound, and the other keeps it
    (_tail_test, _doubled).  When both tails are below the threshold the
    entries below it are trimmed, and the pass converges if the
    approximant matches f within (nx + 1)(ny + 1) times the threshold at
    32 x 32 fixed check points that are nodes of no power-of-two Lobatto
    grid (rejection); otherwise both bounds double.

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
    matrix bit for bit, and it is checked off the grid as above.  If an
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
        axis may reach, both powers of two.  The default max_n, 4096, is
        the largest square pass the 1 GiB grid budget allows; with a larger
        one the build stops before the pass at 8192 x 8192 (see Raises).
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
        passed; ``tail_magnitude`` is the larger of that pass's two tails.
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

    check_x = domain.x_from_unit(_CHECK_NODES)
    check_y = domain.y_from_unit(_CHECK_NODES)
    reference = None  # f on the check grid, sampled at most once

    def rejection(c, nx, ny):
        """None if c, trimmed from the degree bounds (nx, ny), matches f at
        the check points within the bound, else the misfit against it.  The
        trim drops at most (nx + 1)(ny + 1) entries, each below c.tol."""
        nonlocal reference
        if reference is None:
            reference = _sample_on(f, check_x, check_y)
        misfit = np.abs(evaluate_grid(c, check_x, check_y) - reference).max()
        bound = (nx + 1) * (ny + 1) * c.tol
        return (None if misfit <= bound
                else f"off-grid misfit {misfit:.3e} above {bound:.3e}")

    def refused(*message):
        # the budget's message, if any, then why the last pass failed
        if values is not None:
            message += (f"{why} at {_bounds(*(s - 1 for s in values.shape))}",)
        return ConvergenceError("; ".join(message), float(tail))

    nx = ny = n0
    values = None
    tail = math.nan
    tested = False  # the rank test runs at most once per build
    while True:
        # the samples, the previous samples and the transform's arrays,
        # checked before any of them is allocated
        held = ((nx + 1) * (ny + 1) + (0 if values is None else values.size)
                + _transform_entries(nx + 1, ny + 1))
        _check_grid_budget(f"the pass at {_bounds(nx, ny)}", held, refused)
        xs = domain.x_from_unit(lobatto_nodes(nx))
        ys = domain.y_from_unit(lobatto_nodes(ny))
        if values is None:
            values = _sample_on(f, xs, ys)
        else:  # grow_x and grow_y name the axes the last pass doubled
            values = _spread(values, grow_x, grow_y)
            _sample_new(f, values, xs, ys, grow_x, grow_y)
        coeffs = _lobatto_coeffs(values)
        threshold = _threshold(tol, relative, values)
        (tail_x, tail_y), (grow_x, grow_y) = _tail_test(
            coeffs[-2:, :], coeffs[:, -2:], threshold)
        if not (math.isfinite(tail_x) and math.isfinite(tail_y)):
            peak = max(values.max(), -values.min())
            raise ValidationError(
                f"the transform overflowed at {_bounds(nx, ny)}: samples up to "
                f"{peak:.3e} in magnitude give coefficients that are not finite")
        tail = max(tail_x, tail_y)
        tails_failed = grow_x or grow_y
        if not tails_failed:
            # Cheb2 copies the kept block, so the pass's grid of
            # coefficients, often several times its size, is let go
            c = Cheb2(_trim_in_place(coeffs, threshold), domain, threshold)
            why = rejection(c, nx, ny)
            if why is None:
                return c
            why += (f" although the coefficient tail {tail:.3e} passed "
                    f"against {threshold:.3e}")
            grow_x = grow_y = True
        elif nx == ny:
            why = f"coefficient tail {tail:.3e} still at or above {threshold:.3e}"
        else:
            failed = [f"{t:.3e} in {axis}" for axis, t, grow in
                      (("x", tail_x, grow_x), ("y", tail_y, grow_y)) if grow]
            why = (f"coefficient tail {' and '.join(failed)} still at or "
                   f"above {threshold:.3e}")
        nx, ny = _doubled(nx, ny, grow_x, grow_y, max_n, refused)
        if tails_failed and not tested and (nx + 1) * (ny + 1) >= _RANK_ENTRIES:
            tested = True
            del coeffs  # the rank test holds two grids besides the samples
            pivots = _rank_test(values, threshold)
            found = pivots and _slice_phase(f, values, pivots, tol, relative,
                                            max_n, domain)
            if found and rejection(*found) is None:
                return found[0]


# ---------------------------------------------------------------------------
# quality measures


def parseval_indicator(c, f):
    """Weighted L2 mass of f minus the mass captured by the stored coefficients.

    The weighted integral of f^2 is estimated by the Gauss-Chebyshev-Lobatto
    rule, weights 1/2, 1, ..., 1, 1/2 over n on each axis (Mason and
    Handscomb, Chebyshev Polynomials, 2003, sec. 4.6), on the Lobatto grid
    whose degree n on each axis is the smallest power of two at least twice
    that axis' stored degree plus one.  The rule is the constant coefficient
    of the interpolant of f^2 on that grid, so it integrates f^2 exactly
    when f is the stored polynomial.  It is summed with numpy reductions and
    no BLAS product, so the result does not depend on the number of CPUs.
    Rounding can make the result slightly negative; it is returned
    unmodified.  ValidationError, before f is sampled, if the samples and
    f's own result would exceed the grid budget; the squares overwrite the
    samples.  ValidationError too, with no numpy warning, if the result is
    not finite: the squares or their sums overflowed.
    """
    a = c.coeffs
    n = 1 << (2 * c.degree_x + 1).bit_length()
    m = 1 << (2 * c.degree_y + 1).bit_length()
    _check_grid_budget(f"the Parseval indicator's {n + 1} x {m + 1} grid",
                       2 * (n + 1) * (m + 1))
    values = _sample_on(f, c.domain.x_from_unit(lobatto_nodes(n)),
                        c.domain.y_from_unit(lobatto_nodes(m)))
    peak = max(values.max(), -values.min())
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

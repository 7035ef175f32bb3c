"""Construction, storage and evaluation of bivariate Chebyshev approximants.

A function f on a rectangle is represented as

    f(x, y) ~ sum_k sum_j coeffs[k, j] * T_k(u) * T_j(v)

where (u, v) is (x, y) mapped affinely onto the unit square [-1, 1]^2.
Coefficients come from one transform, a DCT-I of samples on the distinct
Chebyshev-Lobatto nodes cos(i pi / N), which ``lagrange_cheb_coeffs``
applies on any (n, m) grid.  The paper's radix-2 2-D FFT over the
periodicized grid gives the same numbers; it is the tests' oracle, in
``bicheb.paper``.  The adaptive builder keeps a degree bound per axis and
refines by one rule, which its tensor passes and its slice passes share,
one function per part:
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
the grid budget.

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
in place, its kept corner is moved to the head of its own buffer, and the
Cheb2 takes that buffer without a copy, so the step's one dense array is
the block.  Each step is charged against the budget before it samples: the
tested grid, the slices and three dense grids, since the block can be the
whole matrix; the charge leaves two grids to spare.  The bounds and the
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

The transform makes one pass per axis over chunks of rows (of columns in
the second pass) on the caller's thread: each chunk's even extension, real
FFT and scaling, in a buffer laid out like its input and small enough to
stay in cache.  Each row's FFT is independent of the others and runs the
same operations whichever chunk it falls in, so the coefficients are
bit-for-bit the same for any chunk size and any number of CPUs.

Evaluation has one kernel, the basis matrices of the points on either
side of the coefficient matrix, both from one run of the Chebyshev
recurrence over the points of the two axes: ``evaluate_matrix`` takes whole
arrays of scattered points (in bounded blocks), ``evaluate_grid`` a tensor
grid.  A scalar point goes through the same kernel as a one-point array.
Clenshaw's recurrence (``evaluate_clenshaw``) is kept as the oracle, and
maps its point as the kernel does.  The basis matrices grow with the
degrees, not with the points' arrays: _basis_entries gives their size,
which the CLI charges against the grid budget before it evaluates.

Coefficients are trimmed by one rule, the builder's (``_trim_in_place``).
A tensor pass (``_trimmed``) copies the kept block into a Cheb2, phase 2
keeps its own block, and ``trim`` and the CLI's ``diff`` trim a matrix of
their own in place and turn its nonzeros into a document
(``_sparse_trimmed``, ``to_sparse``), with no second copy.
"""

import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ConvergenceError,
    ParseError,
    SamplingError,
    ValidationError,
)

# Tolerated relative overshoot of evaluation points beyond the unit square.
_OVERSHOOT = 1e-12

# Points per block of the batched evaluate_matrix: each block runs the
# recurrence over its 2 _EVAL_BLOCK coordinates (_basis_entries).
_EVAL_BLOCK = 1024

# Per-axis points of the builder's off-grid check: cos((i + 1/2) pi / 33),
# i = 0..32, without the centre i = 16.  (2i + 1) / 66 = j / 2^k forces
# 2i + 1 = 33, so no other point is a node of a power-of-two Lobatto grid.
_CHECK_NODES = np.delete(np.cos((np.arange(33) + 0.5) * np.pi / 33), 16)

# The transform extends and transforms its rows in chunks of about
# _CHUNK_ENTRIES entries (256 KiB).
_CHUNK_ENTRIES = 2 ** 15

# Bytes the float64 arrays of one grid may take: an evaluation, export or
# interpolation grid, a document's dense coefficient matrix, or one pass of
# the builder.  A larger grid is refused before any of them is allocated.
_GRID_BUDGET = 2 ** 30

# The builder's rank test runs once, on the first pass that fails its tail
# test and whose next grid would hold at least _RANK_ENTRIES entries (a
# 513 x 513 grid), on that pass's whole grid, and accepts a rank of 1 to
# _MAX_RANK.  Higher ranks can cost more in slices than they save:
# 1/(1 + 100 (x^2 + y^2)), rank 23, built in 27-29 ms through them against
# 18 ms on its tensor grids (medians of 15 builds, 2 vCPUs).
_RANK_ENTRIES = 513 * 513
_MAX_RANK = 8


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Domain2:
    """Axis-aligned rectangle [xlo, xhi] x [ylo, yhi]."""

    xlo: float = -1.0
    xhi: float = 1.0
    ylo: float = -1.0
    yhi: float = 1.0

    def __post_init__(self):
        bounds = (self.xlo, self.xhi, self.ylo, self.yhi)
        if not all(math.isfinite(b) for b in bounds):
            raise ValidationError("domain bounds must be finite")
        if not (self.xlo < self.xhi and self.ylo < self.yhi):
            raise ValidationError(
                "domain must satisfy xlo < xhi and ylo < yhi, got "
                f"[{self.xlo}, {self.xhi}] x [{self.ylo}, {self.yhi}]")

    def x_from_unit(self, u):
        return 0.5 * (self.xlo + self.xhi) + 0.5 * (self.xhi - self.xlo) * u

    def y_from_unit(self, v):
        return 0.5 * (self.ylo + self.yhi) + 0.5 * (self.yhi - self.ylo) * v

    def unit_from_x(self, x):
        return (2.0 * x - self.xlo - self.xhi) / (self.xhi - self.xlo)

    def unit_from_y(self, y):
        return (2.0 * y - self.ylo - self.yhi) / (self.yhi - self.ylo)


UNIT_SQUARE = Domain2()


@dataclass(frozen=True)
class Cheb2:
    """Dense bivariate Chebyshev approximant on a rectangle.

    coeffs has shape (degree_x + 1, degree_y + 1); tol records the trim
    threshold that produced it (entries below tol are stored as exact
    zeros).  Instances are immutable and safe to share across threads.
    """

    coeffs: np.ndarray
    domain: Domain2 = UNIT_SQUARE
    tol: float = 0.0

    def __post_init__(self):
        self._adopt(np.array(self.coeffs, dtype=float))

    @classmethod
    def _owning(cls, a, domain, tol):
        """Cheb2 of a, a float64 array that nothing else will write, without
        the constructor's copy: the same checks, and a is made read-only."""
        c = object.__new__(cls)
        object.__setattr__(c, "domain", domain)
        object.__setattr__(c, "tol", tol)
        c._adopt(a)
        return c

    def _adopt(self, a):
        """Check a, tol and domain, and store a, read-only, as coeffs."""
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValidationError(
                f"coefficients must form a 2-D matrix, got shape {a.shape!r}")
        # min and max propagate NaN: no grid-sized mask beside the copy
        if not (math.isfinite(a.min()) and math.isfinite(a.max())):
            raise ValidationError("coefficients must be finite")
        tol = _require_real(self.tol, "tol")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValidationError("tol must be finite and >= 0")
        if not isinstance(self.domain, Domain2):
            raise ValidationError(f"domain must be a Domain2, got {self.domain!r}")
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)
        object.__setattr__(self, "tol", tol)

    @property
    def degree_x(self):
        return self.coeffs.shape[0] - 1

    @property
    def degree_y(self):
        return self.coeffs.shape[1] - 1


@dataclass(frozen=True)
class SparseCoeffs:
    """Trimmed coefficients as sorted (row, col, value) triplets.

    This is the persistence form: no zero values, integer indices within the
    degree bounds (below 2^63), strictly increasing lexicographic order.
    load checks a document's fields with this constructor.
    """

    degree_x: int
    degree_y: int
    domain: Domain2
    tol: float
    entries: tuple

    def __post_init__(self):
        degree_x = _index(self.degree_x, "degree_x")
        degree_y = _index(self.degree_y, "degree_y")
        if degree_x < 0 or degree_y < 0:
            raise ValidationError("degrees must be nonnegative")
        if max(degree_x, degree_y) >= 2 ** 63:  # keeps the budget's arithmetic in range
            raise ValidationError("degrees must be below 2^63")
        if not isinstance(self.domain, Domain2):
            raise ValidationError(f"domain must be a Domain2, got {self.domain!r}")
        tol = _require_real(self.tol, "tol")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValidationError("tol must be finite and >= 0")
        if not isinstance(self.entries, (list, tuple)):
            raise ValidationError("entries must be a list or tuple, got "
                                  f"{type(self.entries).__name__}")
        normalized = []
        previous = None
        for entry in self.entries:
            # type() tests cost less per entry than isinstance
            if type(entry) is not tuple and type(entry) is not list or len(entry) != 3:
                raise ValidationError(
                    f"each entry must be [row, col, value], got {reprlib.repr(entry)}")
            i, j, v = entry
            # plain ints and floats, as trim and load give, skip the calls
            if not (type(i) is int and type(j) is int):
                i, j = _index(i, "entry row"), _index(j, "entry column")
            if type(v) is not float:
                v = _require_real(v, f"entry ({i}, {j}) value")
            if not (0 <= i <= degree_x and 0 <= j <= degree_y):
                raise ValidationError(
                    f"entry index ({i}, {j}) outside degree bounds "
                    f"({degree_x}, {degree_y})")
            if v == 0.0 or not math.isfinite(v):
                raise ValidationError(
                    f"entry ({i}, {j}) has invalid value {v!r}")
            if previous is not None and (i, j) <= previous:
                raise ValidationError(
                    f"entries not strictly increasing at ({i}, {j})")
            previous = (i, j)
            normalized.append((i, j, v))
        object.__setattr__(self, "degree_x", degree_x)
        object.__setattr__(self, "degree_y", degree_y)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "entries", tuple(normalized))


def _index(v, what):
    """v as an int if it is a Python or numpy integer other than a bool; else
    ValidationError, where int() would truncate a float or convert a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {reprlib.repr(v)}")
    return int(v)


def _require_real(v, what):
    """v as a float if it is a Python int or float other than a bool; else
    ValidationError, where float() would convert a bool or a string."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValidationError(f"{what} must be a number")
    try:
        return float(v)
    except OverflowError:  # an integer literal beyond the largest double
        raise ValidationError(f"{what} is too large for a double") from None


# ---------------------------------------------------------------------------
# Chebyshev polynomial evaluation


def cheb_basis(n, t):
    """C-ordered matrix with entry [i, k] = T_k(t[i]) for k = 0..n (no
    clamping).

    The recurrence fills one contiguous row of points per degree, in place,
    with the operations of one point's recurrence (bicheb.paper.cheb_vector,
    the oracle) in the same order, so each entry is bit for bit the
    oracle's; the result is the transpose of those rows.
    n must be an integer >= 0.
    """
    n = _index(n, "degree")
    if n < 0:
        raise ValidationError("degree must be >= 0")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    by_degree = np.empty((n + 1, t.size))
    by_degree[0] = 1.0
    if n >= 1:
        by_degree[1] = t
    twice = 2.0 * t
    # the rows as views, taken one at a time as the loop walks them, which
    # costs less than by_degree[k] and holds three, not one per degree
    older, old = by_degree[0], by_degree[min(n, 1)]
    for row in by_degree[2:]:
        np.multiply(twice, old, row)
        np.subtract(row, older, row)
        older, old = old, row
    return np.ascontiguousarray(by_degree.T)


def _basis_entries(degree_x, degree_y, points):
    """Float64 entries that the basis matrices of degrees up to (degree_x,
    degree_y) take for `points` coordinates of the two axes together: the
    rows of the one recurrence of _basis_pair and their transposed copy.
    evaluate_grid runs it once over both axes' points, evaluate_matrix once
    per block of up to _EVAL_BLOCK points, each with two coordinates."""
    return 2 * (max(degree_x, degree_y) + 1) * points


def _basis_pair(c, u, v):
    """C-ordered cheb_basis(c.degree_x, u) and cheb_basis(c.degree_y, v),
    from one recurrence over the points of both."""
    basis = cheb_basis(max(c.degree_x, c.degree_y), np.concatenate((u, v)))
    return (np.ascontiguousarray(basis[: u.size, : c.degree_x + 1]),
            np.ascontiguousarray(basis[u.size:, : c.degree_y + 1]))


# ---------------------------------------------------------------------------
# sampling


def _check_grid_budget(what, entries, error=ValidationError):
    """Raise error if `entries` float64 values would take more than
    _GRID_BUDGET bytes; the message names `what` and both byte counts."""
    need = 8 * entries
    if need > _GRID_BUDGET:
        raise error(f"{what} needs {need} bytes ({need / 2 ** 30:.3g} GiB) of "
                    f"arrays, over the budget of {_GRID_BUDGET} bytes "
                    f"({_GRID_BUDGET / 2 ** 30:.3g} GiB)")


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def lobatto_nodes(n):
    """cos(i pi / n) for i = 0..n, mirrored so node[n-i] equals -node[i]
    bit-for-bit (an exact 0 in the middle when n is even)."""
    if n < 1:
        raise ValidationError("degenerate degree: need n >= 1")
    nodes = np.empty(n + 1)
    half = n // 2
    nodes[: half + 1] = np.cos(np.pi * np.arange(half + 1) / n)
    nodes[n - half:] = -nodes[half::-1]
    if n % 2 == 0:
        nodes[half] = 0.0
    return nodes


def _sample_on(f, xs, ys, out=None):
    """Evaluate f on the tensor grid xs x ys into out, a (len(xs), len(ys))
    array or view (a new array if None), and return out.

    A single broadcast call is attempted first and its result is written
    straight into out, with no copy of its own, so the builder's pass holds
    its grid and f's result, not a third array.  If the call raises
    TypeError or ValueError, the errors of scalar-only callables given
    arrays, f is sampled by a sequential per-node loop instead; any other
    error propagates.  A non-finite sample raises SamplingError naming the
    node's (x, y).
    """
    shape = (len(xs), len(ys))
    values = np.empty(shape) if out is None else out
    try:
        raw = np.asarray(f(xs[:, None], ys[None, :]), dtype=float)
        values[...] = np.broadcast_to(raw, shape)
    except (TypeError, ValueError):
        for k in range(shape[0]):
            for j in range(shape[1]):
                values[k, j] = f(xs[k], ys[j])
    if not np.all(np.isfinite(values)):
        k, j = np.argwhere(~np.isfinite(values))[0]
        raise SamplingError("non-finite sample at node (x, y) = "
                            f"({float(xs[k])!r}, {float(ys[j])!r})")
    return values


# ---------------------------------------------------------------------------
# coefficients


def _dct_rows(values, out):
    """out[i] = the DCT-I of values[i]: the real FFT of the row's even
    extension, real part over n, first and last entries halved.  values and
    out (any strides) have n + 1 >= 2 columns.

    The rows go through in chunks of about _CHUNK_ENTRIES extension entries,
    so that reading a transposed input and writing a transposed output stay
    in cache, and so that the buffers take about 1 MiB, not four grids: a
    257 x 257 transform took 1.5-1.7 ms against 3.2-3.5 ms in one chunk
    (2 vCPUs).  out may be values itself: a chunk copies its rows into its
    extension before it writes them, and no other chunk reads them.
    """
    rows, n = values.shape[0], values.shape[1] - 1
    chunks = min(rows, -(-rows * 2 * n // _CHUNK_ENTRIES))
    step = -(-rows // chunks)

    # the extension is laid out like values, row- or column-major, so that
    # filling it and writing out (a transposed view in the second pass of
    # _lobatto_coeffs) walk memory in order
    order = "C" if values.strides[1] <= values.strides[0] else "F"
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        ext = np.empty((hi - lo, 2 * n), order=order)
        ext[:, : n + 1] = values[lo:hi]
        ext[:, n + 1:] = values[lo:hi, -2:0:-1]
        np.divide(np.fft.rfft(ext).real, n, out=out[lo:hi])
    out[:, 0] /= 2.0
    out[:, n] /= 2.0


def _transform_entries(rows, cols):
    """Float64 entries charged for what _lobatto_coeffs holds besides a
    rows x cols input: two grids, and one chunk's even extension and
    complex FFT output.  Those take at most 4 (_CHUNK_ENTRIES + n + 1) for
    rows of n + 1, and never more than 4 rows cols.  The second axis runs
    in place in the first axis' output, so the transform holds one grid
    and the charge leaves a grid to spare, which covers the trimmed copy a
    builder pass makes of the coefficients."""
    chunk = 4 * min(rows * cols, _CHUNK_ENTRIES + max(rows, cols))
    return 2 * rows * cols + chunk


def _lobatto_coeffs(values):
    """Chebyshev coefficients of the interpolant through samples on the
    (n + 1) x (m + 1) Lobatto grid, n, m >= 1: the DCT-I of each row, then
    of each column of the result (_dct_rows).  The builder and
    lagrange_cheb_coeffs are its callers.

    The second axis runs in place, in the first axis' output, so the
    transform holds one grid-sized array besides values.  That is safe
    because each chunk of columns is copied into its extension before its
    coefficients are written back, and chunks own disjoint columns.  Every
    row's FFT is independent of the others and runs the same operations
    whichever chunk it falls in, so the result is the same for any chunk
    size, bit for bit, and it runs on the caller's thread only.
    """
    coeffs = np.empty(values.shape)
    _dct_rows(values, coeffs)
    _dct_rows(coeffs.T, coeffs.T)
    return coeffs


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

    Raises ValidationError, before f is sampled, if the samples and the
    transform's arrays would exceed the grid budget.
    """
    n, m = _index(n, "n"), _index(m, "m")
    if n < 1 or m < 1:
        raise ValidationError("interpolation degrees must be >= 1")
    if not isinstance(domain, Domain2):
        raise ValidationError(f"domain must be a Domain2, got {domain!r}")
    _check_grid_budget(f"the {n + 1} x {m + 1} interpolation grid",
                       (n + 1) * (m + 1) + _transform_entries(n + 1, m + 1))
    xs = domain.x_from_unit(lobatto_nodes(n))
    ys = domain.y_from_unit(lobatto_nodes(m))
    return _lobatto_coeffs(_sample_on(f, xs, ys))


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


def _trim_in_place(a, threshold):
    """The trim rule: zero the entries of a with |value| < threshold, in
    place, and return the (rows, cols) of the leading block that holds every
    entry left nonzero, (0, 0) if none.  NaN counts as nonzero, -0.0 as
    zero.  The entries are zeroed in chunks of about _CHUNK_ENTRIES, a few
    rows each, so the masks take a chunk, not a grid."""
    step = max(1, _CHUNK_ENTRIES // max(1, a.shape[1]))
    for lo in range(0, a.shape[0], step):
        chunk = a[lo:lo + step]
        np.copyto(chunk, 0.0, where=(chunk < threshold) & (chunk > -threshold))
    rows = np.flatnonzero(a.any(axis=1))
    if rows.size == 0:
        return 0, 0
    cols = np.flatnonzero(a[: rows[-1] + 1].any(axis=0))
    return int(rows[-1]) + 1, int(cols[-1]) + 1


def _trimmed(coeffs, threshold, domain):
    """The builder's Cheb2 of coeffs trimmed in place (_trim_in_place),
    trailing all-zero rows and columns dropped; all zero gives a single zero
    coefficient.  Cheb2 copies the kept block, so coeffs, a pass's grid of
    coefficients, often several times its size, is not held by the
    result."""
    rows, cols = _trim_in_place(coeffs, threshold)
    kept = coeffs[:rows, :cols] if rows else np.zeros((1, 1))
    return Cheb2(kept, domain=domain, tol=threshold)


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
    """_trimmed(_expand(left, right), threshold, domain) bit for bit, with
    only the leading block of the product that the trim can keep expanded,
    and that block's buffer kept as the Cheb2's array.

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

    The block is trimmed in place and its kept corner moved to the head of
    its buffer, a chunk of rows at a time; the Cheb2 takes that head with no
    copy, so the step holds one dense array, and the result keeps the
    block's buffer, a few rows and columns more than it needs (666 x 692
    for the bump's 659 x 683).
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
    rows, cols = _trim_in_place(block, threshold)
    if not rows:
        return Cheb2._owning(np.zeros((1, 1)), domain, threshold)
    # move the kept corner to the head of the block's own (C-ordered) buffer
    # in forward chunks of rows: a chunk's destination ends before the next
    # chunk's rows begin, and numpy buffers a chunk that overlaps its own
    flat = block.reshape(-1)
    if cols < nc:
        step = max(1, _CHUNK_ENTRIES // cols)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            flat[lo * cols:hi * cols].reshape(hi - lo, cols)[...] = block[lo:hi, :cols]
    return Cheb2._owning(flat[:rows * cols].reshape(rows, cols), domain, threshold)


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
    worst is the whole product of _expand, and which is trimmed and
    compacted in place into the Cheb2's array.  So the charge leaves two
    grids to spare.
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
        power of two with 2 <= n0 <= max_n, or domain not a Domain2.
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
        tail = max(tail_x, tail_y)
        tails_failed = grow_x or grow_y
        if not tails_failed:
            c = _trimmed(coeffs, threshold, domain)
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


def trim(coeffs, tol, domain=UNIT_SQUARE):
    """The document of coeffs trimmed as the builder trims: |value| < tol
    zeroed, trailing all-zero rows and columns dropped.  coeffs is copied
    once, and the copy is trimmed in place (_sparse_trimmed)."""
    tol = _require_real(tol, "tol")
    a = np.array(coeffs, dtype=float)
    if a.ndim != 2:
        raise ValidationError("coefficients must form a 2-D matrix")
    return _sparse_trimmed(a, tol, domain)


def _sparse_trimmed(a, tol, domain):
    """to_sparse of a, a float64 matrix its caller gives up, trimmed in
    place by the builder's rule (_trim_in_place) and held by a Cheb2 with no
    copy; the zero document if no entry is kept."""
    if _trim_in_place(a, tol) == (0, 0):
        return SparseCoeffs(0, 0, domain, tol, ())
    return to_sparse(Cheb2._owning(a, domain, tol))


def to_sparse(c):
    """SparseCoeffs carrying every stored nonzero of a Cheb2."""
    rows, cols = np.nonzero(c.coeffs)
    if rows.size == 0:
        return SparseCoeffs(0, 0, c.domain, c.tol, ())
    entries = tuple(zip(rows.tolist(), cols.tolist(), c.coeffs[rows, cols].tolist()))
    return SparseCoeffs(int(rows.max()), int(cols.max()), c.domain, c.tol, entries)


def to_cheb2(sparse):
    """Dense Cheb2 from a sparse coefficient document, which holds the
    matrix it fills with no copy.  ValidationError if that matrix would
    exceed the grid budget."""
    _check_grid_budget(
        f"a dense {sparse.degree_x + 1} x {sparse.degree_y + 1} coefficient matrix",
        (sparse.degree_x + 1) * (sparse.degree_y + 1))
    coeffs = np.zeros((sparse.degree_x + 1, sparse.degree_y + 1))
    for i, j, v in sparse.entries:
        coeffs[i, j] = v
    return Cheb2._owning(coeffs, sparse.domain, sparse.tol)


def truncate(c, degree_x, degree_y):
    """Corner block of a Cheb2 up to the requested degrees (clipped to c's)."""
    degree_x, degree_y = _index(degree_x, "degree_x"), _index(degree_y, "degree_y")
    if degree_x < 0 or degree_y < 0:
        raise ValidationError("truncation degrees must be >= 0")
    nx = min(degree_x, c.degree_x)
    ny = min(degree_y, c.degree_y)
    return Cheb2(c.coeffs[: nx + 1, : ny + 1], c.domain, c.tol)


# ---------------------------------------------------------------------------
# evaluation


def _unit_points(c, x, y):
    """x and y mapped onto [-1, 1] as fresh arrays, an overshoot of up to
    1e-12 clamped in place.

    x and y are arrays that broadcast against each other; a scalar is a
    one-point array.  The first point (x, y) of the broadcast, in row-major
    order, that lies further out or is not finite raises DomainError.
    """
    x, y = np.atleast_1d(x, y)  # a 0-d map gives a scalar, which out= refuses
    u = c.domain.unit_from_x(x)
    v = c.domain.unit_from_y(y)
    bad_u = ~(np.abs(u) <= 1.0 + _OVERSHOOT)
    bad_v = ~(np.abs(v) <= 1.0 + _OVERSHOOT)
    if bad_u.any() or bad_v.any():
        bad = bad_u | bad_v
        k = np.flatnonzero(bad)[0]
        x0 = float(np.broadcast_to(x, bad.shape).flat[k])
        y0 = float(np.broadcast_to(y, bad.shape).flat[k])
        d = c.domain
        raise DomainError(
            f"point ({x0!r}, {y0!r}) lies outside the domain rectangle "
            f"[{d.xlo}, {d.xhi}] x [{d.ylo}, {d.yhi}]")
    return tuple(np.minimum(np.maximum(t, -1.0, out=t), 1.0, out=t) for t in (u, v))


def evaluate_matrix(c, x, y):
    """Values at the points (x, y) as the bilinear form V'(u) coeffs V(v).

    Arrays give an array of their broadcast shape; 1-D arrays of equal
    length pair up point by point.  Scalar x and y are a one-point array
    and give its value as a float, bit for bit.  Every point is checked
    first, then the values are computed _EVAL_BLOCK points at a time as the
    row sums of (cheb_basis(u) @ coeffs) * cheb_basis(v).
    """
    try:
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
    except ValueError:
        raise ValidationError(
            f"point coordinates of shapes {np.shape(x)} and {np.shape(y)} "
            "do not broadcast") from None
    u, v = (t.ravel() for t in _unit_points(c, x, y))
    values = np.empty(u.size)
    for start in range(0, u.size, _EVAL_BLOCK):
        block = slice(start, start + _EVAL_BLOCK)
        basis_x, basis_y = _basis_pair(c, u[block], v[block])
        values[block] = np.einsum("ij,ij->i", basis_x @ c.coeffs, basis_y)
        del basis_x, basis_y  # views of the whole basis: not beside the next
    return values.reshape(x.shape) if x.ndim else float(values[0])


def evaluate_clenshaw(c, x, y):
    """Same polynomial as evaluate_matrix at one point, via backward
    recurrences (Clenshaw 1955); the tests' oracle for the matrix form.

    Each row of the coefficient matrix is collapsed with a Clenshaw pass in
    the second variable, then one more pass runs across the rows.
    """
    (u,), (v,) = _unit_points(c, float(x), float(y))
    a = c.coeffs
    b1 = np.zeros(a.shape[0])
    b2 = np.zeros(a.shape[0])
    for j in range(a.shape[1] - 1, 0, -1):
        b1, b2 = a[:, j] + 2.0 * v * b1 - b2, b1
    row_sums = a[:, 0] + v * b1 - b2
    c1 = 0.0
    c2 = 0.0
    for k in range(len(row_sums) - 1, 0, -1):
        c1, c2 = row_sums[k] + 2.0 * u * c1 - c2, c1
    return float(row_sums[0] + u * c1 - c2)


def evaluate_grid(c, xs, ys):
    """Values on the tensor grid xs x ys as a (len(xs), len(ys)) matrix."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValidationError(
            f"grid axes must be 1-D, got shapes {xs.shape} and {ys.shape}")
    u, v = _unit_points(c, xs[:, None], ys[None, :])
    basis_x, basis_y = _basis_pair(c, u.ravel(), v.ravel())
    return basis_x @ c.coeffs @ basis_y.T


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
    samples.
    """
    a = c.coeffs
    mass = a[0, 0] ** 2
    mass += 0.5 * np.sum(a[1:, 0] ** 2) + 0.5 * np.sum(a[0, 1:] ** 2)
    mass += 0.25 * np.sum(a[1:, 1:] ** 2)
    n = 1 << (2 * c.degree_x + 1).bit_length()
    m = 1 << (2 * c.degree_y + 1).bit_length()
    _check_grid_budget(f"the Parseval indicator's {n + 1} x {m + 1} grid",
                       2 * (n + 1) * (m + 1))
    values = _sample_on(f, c.domain.x_from_unit(lobatto_nodes(n)),
                        c.domain.y_from_unit(lobatto_nodes(m)))
    squares = np.square(values, out=values)
    rows = 0.5 * (squares[:, 0] + squares[:, -1]) + squares[:, 1:-1].sum(axis=1)
    total = 0.5 * (rows[0] + rows[-1]) + rows[1:-1].sum()
    return float(total / (n * m) - mass)


# ---------------------------------------------------------------------------
# persistence

_DOC_KEYS = ("degree_x", "degree_y", "domain", "tol", "entries")


def document_text(sparse):
    """JSON text of a sparse coefficient document, one entry per line.

    Reals are written with 17 significant digits so that save/load is an
    exact round trip and repeated saves are byte-identical.
    """
    d = sparse.domain
    lines = [
        "{",
        f'  "degree_x": {sparse.degree_x},',
        f'  "degree_y": {sparse.degree_y},',
        '  "domain": [%.17g, %.17g, %.17g, %.17g],' % (d.xlo, d.xhi, d.ylo, d.yhi),
        '  "tol": %.17g,' % sparse.tol,
    ]
    if sparse.entries:
        lines.append('  "entries": [')
        lines.append(",\n".join("    [%d, %d, %.17g]" % entry for entry in sparse.entries))
        lines.append("  ]")
    else:
        lines.append('  "entries": []')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save(sparse, sink):
    """Write a SparseCoeffs document to a path or text file object."""
    text = document_text(sparse)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="ascii") as handle:
            handle.write(text)


def _read_ascii(path, what):
    """Text of an ASCII file; another byte raises ParseError at its offset."""
    with open(path, "r", encoding="ascii") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} holds a non-ASCII byte", exc.start) from None


def load(source):
    """Read a SparseCoeffs document from a path or text file object.

    Malformed JSON or a non-ASCII byte in the file raises ParseError with
    the offending location; nesting too deep for the parser and an integer
    literal longer than Python converts raise it at offset 0.  A well-formed
    document that violates the coefficient invariants, holds a number
    beyond the largest double or declares a degree of 2^63 or more raises
    ValidationError.  So does a text whose parse is charged more than the
    grid budget, before it is parsed: one byte per character, 256 bytes per
    '[' or '{' and 64 per ',', ':' or '"', or 8 bytes per character if that
    is more, which covers the text, the parser's objects and the checked
    entries, whatever the length of their values, and any value under a
    key that load ignores.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = _read_ascii(source, "coefficient document")
    # in doubles.  Under tracemalloc load peaked at the text plus about 235
    # bytes per entry, whether its value took 1 digit or 17; 200,000 short
    # values under a key that load ignores, each after a ',', at the text
    # plus 72 bytes for each '{}', 59 for '"ab"' and 36 for '999'
    _check_grid_budget(f"parsing the {len(text)}-character coefficient document",
                       max(len(text), (len(text) + 7) // 8
                           + 32 * (text.count("[") + text.count("{"))
                           + 8 * (text.count(",") + text.count(":") + text.count('"'))))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed coefficient document: {exc.msg} "
            f"at line {exc.lineno} column {exc.colno}", exc.pos) from None
    except RecursionError:
        raise ParseError("coefficient document nests too deeply to parse", 0) from None
    except ValueError:  # an integer literal over Python's int-string limit
        raise ParseError("coefficient document holds an integer literal "
                         "too long to convert", 0) from None
    if not isinstance(doc, dict):
        raise ValidationError("document root must be an object")
    missing = [k for k in _DOC_KEYS if k not in doc]
    if missing:
        raise ValidationError(f"document is missing keys: {missing}")
    raw_domain = doc["domain"]
    if not (isinstance(raw_domain, list) and len(raw_domain) == 4):
        raise ValidationError('"domain" must be a list of four numbers')
    domain = Domain2(*(_require_real(b, "domain bound") for b in raw_domain))
    return SparseCoeffs(doc["degree_x"], doc["degree_y"], domain, doc["tol"],
                        doc["entries"])

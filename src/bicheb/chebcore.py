"""Construction, storage and evaluation of bivariate Chebyshev approximants.

A function f on a rectangle is represented as

    f(x, y) ~ sum_k sum_j coeffs[k, j] * T_k(u) * T_j(v)

where (u, v) is (x, y) mapped affinely onto the unit square [-1, 1]^2.
Coefficients come from one transform, a DCT-I of samples on the distinct
Chebyshev-Lobatto nodes cos(i pi / N), which ``lagrange_cheb_coeffs``
applies on any (n, m) grid.  The paper's radix-2 2-D FFT over the
periodicized grid gives the same numbers; it is the tests' oracle, in
``bicheb.paper``.  The adaptive builder and the Parseval indicator are in
``bicheb.builder``, which calls the transform, the sampling, the trim and
the grid budget defined here.

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
grid.  A scalar point goes through the same kernel as a one-point array,
and the builder's off-grid check forms evaluate_grid's product from the
bases of its fixed points, whose T_k repeat in k: cheb_basis computes one
period of them once, at import (``bicheb.builder._check_basis``).  The
kept Lobatto nodes are computed at the first call that reads them
(``lobatto_nodes``).
Clenshaw's recurrence (``evaluate_clenshaw``) is kept as the oracle, and
maps its point as the kernel does.  The basis matrices grow with the
degrees, not with the points' arrays: _basis_entries gives their size,
which the CLI charges against the grid budget before it evaluates.

Coefficients are trimmed by one rule, the builder's (``_trim_in_place``),
which zeroes a matrix in place and returns its kept block as a view.  A
builder pass copies that block into a Cheb2, phase 2's Cheb2 holds the view
of its own expanded block, and ``trim`` and the CLI's ``diff`` trim a
matrix of their own and turn the view's nonzeros into a document
(``_sparse_trimmed``, ``to_sparse``), with no second copy.

A document, SparseCoeffs, holds its entries as three arrays, which
``to_sparse`` takes from np.nonzero and ``to_cheb2`` scatters with one
indexed assignment, into a Cheb2 that is not scanned again, since every
value of a SparseCoeffs is finite.  Its constructor checks the
[row, col, value] triples that ``load`` parses in one pass, which fills
the three arrays.  The value
types are plain classes with __slots__, not dataclasses, and ``load``
imports json when it runs: a start-up of the CLI loads neither module
(_Record).
"""

import functools
import math
import os
import reprlib
import sys

import numpy as np

from .errors import DomainError, ParseError, SamplingError, ValidationError

# Tolerated relative overshoot of evaluation points beyond the unit square.
_OVERSHOOT = 1e-12

# Points per block of the batched evaluate_matrix: each block runs the
# recurrence over its 2 _EVAL_BLOCK coordinates (_basis_entries).
_EVAL_BLOCK = 1024

# The transform extends and transforms its rows in chunks of about
# _CHUNK_ENTRIES entries (256 KiB).
_CHUNK_ENTRIES = 2 ** 15

# The largest magnitude of a domain bound.  Within it the affine maps'
# intermediates, up to 2 xhi - xlo, stay finite for every point of the
# rectangle.
_DOMAIN_LIMIT = sys.float_info.max / 4

# The degree cap: the default max_n of the builder and the CLI, and the
# largest n whose Lobatto nodes the process keeps (_kept_nodes).
_MAX_N = 4096

# Bytes the float64 arrays of one grid may take: an evaluation, export or
# interpolation grid, a document's dense coefficient matrix, or one pass of
# the builder.  A larger grid is refused before any of them is allocated.
_GRID_BUDGET = 2 ** 30


# ---------------------------------------------------------------------------
# domain types


class _Record:
    """Base of the value types, plain classes with their fields in
    __slots__: three frozen dataclasses and the dataclasses module took
    about 2 ms of every start of a process.  Each class checks its
    arguments in __new__, which makes the record with _of; then assignment
    and deletion raise AttributeError.  repr, == and hash are those of the
    tuple of _FIELDS, the constructor's arguments, which a copy or a pickle
    passes to it again; two records of different classes are not equal."""

    __slots__ = ()

    @classmethod
    def _of(cls, *values):
        """A record of the fields of __slots__, in that order, unchecked; an
        array among them is made read-only."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(record, name, value)
        return record

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__

    def _fields(self):
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._FIELDS, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class Domain2(_Record):
    """Axis-aligned rectangle [xlo, xhi] x [ylo, yhi], each bound at most
    _DOMAIN_LIMIT (about 4.494e307) in magnitude, and its width and height
    at least the smallest normal double, sys.float_info.min (about
    2.225e-308): the affine maps of a narrower side would round in
    subnormals, and the derivative's factor 2 / (xhi - xlo) overflow."""

    __slots__ = _FIELDS = ("xlo", "xhi", "ylo", "yhi")

    def __new__(cls, xlo=-1.0, xhi=1.0, ylo=-1.0, yhi=1.0):
        bounds = (xlo, xhi, ylo, yhi)
        if not all(math.isfinite(b) for b in bounds):
            raise ValidationError("domain bounds must be finite")
        if not all(abs(b) <= _DOMAIN_LIMIT for b in bounds):
            raise ValidationError(
                f"domain bounds must be at most {_DOMAIN_LIMIT:.4g} in magnitude, "
                f"got [{xlo}, {xhi}] x [{ylo}, {yhi}]")
        if not (xlo < xhi and ylo < yhi):
            raise ValidationError(
                "domain must satisfy xlo < xhi and ylo < yhi, got "
                f"[{xlo}, {xhi}] x [{ylo}, {yhi}]")
        if min(xhi - xlo, yhi - ylo) < sys.float_info.min:
            raise ValidationError(
                f"domain width and height must be at least {sys.float_info.min:.4g}, "
                f"got [{xlo}, {xhi}] x [{ylo}, {yhi}]")
        return cls._of(*bounds)

    def x_from_unit(self, u):
        return 0.5 * (self.xlo + self.xhi) + 0.5 * (self.xhi - self.xlo) * u

    def y_from_unit(self, v):
        return 0.5 * (self.ylo + self.yhi) + 0.5 * (self.yhi - self.ylo) * v

    def unit_from_x(self, x):
        return (2.0 * x - self.xlo - self.xhi) / (self.xhi - self.xlo)

    def unit_from_y(self, y):
        return (2.0 * y - self.ylo - self.yhi) / (self.yhi - self.ylo)


UNIT_SQUARE = Domain2()


class Cheb2(_Record):
    """Dense bivariate Chebyshev approximant on a rectangle.

    coeffs has shape (degree_x + 1, degree_y + 1); tol records the trim
    threshold that produced it (entries below tol are stored as exact
    zeros).  Instances are immutable and safe to share across threads.
    Two are equal when their domains and tols are and their coefficients
    are np.array_equal; a Cheb2 is unhashable, as its array is.
    """

    __slots__ = _FIELDS = ("coeffs", "domain", "tol")

    def __new__(cls, coeffs, domain=UNIT_SQUARE, tol=0.0):
        return cls._owning(np.array(coeffs, dtype=float), domain, tol)

    @classmethod
    def _owning(cls, a, domain, tol):
        """Cheb2 of a, a float64 array that nothing else will write, without
        the constructor's copy: a, tol and domain are checked, and a is made
        read-only."""
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValidationError(
                f"coefficients must form a 2-D matrix, got shape {a.shape!r}")
        # min and max propagate NaN: no grid-sized mask beside the copy
        if not (math.isfinite(a.min()) and math.isfinite(a.max())):
            raise ValidationError("coefficients must be finite")
        tol = _require_real(tol, "tol")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValidationError("tol must be finite and >= 0")
        if not isinstance(domain, Domain2):
            raise ValidationError(f"domain must be a Domain2, got {domain!r}")
        return cls._of(a, domain, tol)

    def __eq__(self, other):
        return (type(other) is type(self)
                and (self.domain, self.tol) == (other.domain, other.tol)
                and np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    @property
    def degree_x(self):
        return self.coeffs.shape[0] - 1

    @property
    def degree_y(self):
        return self.coeffs.shape[1] - 1


class SparseCoeffs(_Record):
    """Trimmed coefficients: the persistence form.

    The entries are three read-only arrays, rows and cols (int64) and
    values (float64): no zero or non-finite value, indices within the
    degree bounds (below 2^63), and (row, col) in strictly increasing
    lexicographic order.  The constructor takes them as a list or tuple of
    [row, col, value] triples, as load reads them, and checks them one at a
    time as it fills the arrays (_entry_arrays); ``entries`` builds the
    triples again, of ints and floats, on each call.  load checks a
    document's fields with this constructor.
    """

    __slots__ = ("degree_x", "degree_y", "domain", "tol", "rows", "cols", "values")
    _FIELDS = ("degree_x", "degree_y", "domain", "tol", "entries")

    def __new__(cls, degree_x, degree_y, domain, tol, entries):
        degree_x, degree_y = _index(degree_x, "degree_x"), _index(degree_y, "degree_y")
        if degree_x < 0 or degree_y < 0:
            raise ValidationError("degrees must be nonnegative")
        if max(degree_x, degree_y) >= 2 ** 63:  # keeps the budget's arithmetic in range
            raise ValidationError("degrees must be below 2^63")
        if not isinstance(domain, Domain2):
            raise ValidationError(f"domain must be a Domain2, got {domain!r}")
        tol = _require_real(tol, "tol")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValidationError("tol must be finite and >= 0")
        if not isinstance(entries, (list, tuple)):
            raise ValidationError("entries must be a list or tuple, got "
                                  f"{type(entries).__name__}")
        return cls._of(degree_x, degree_y, domain, tol,
                       *_entry_arrays(entries, degree_x, degree_y))

    @property
    def entries(self):
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist()))


def _entry_arrays(entries, degree_x, degree_y):
    """The rows, cols and values arrays of [row, col, value] entries, each
    checked in order: the first bad one raises ValidationError naming it.
    Indices are bounded before their int64 conversion; numpy integer
    indices, int values and float subclasses pass as ints and floats."""
    rows, cols, values = [], [], []
    # the previous index pair, below every valid one
    pi, pj = -1, 0
    for entry in entries:
        # type() tests cost less per entry than isinstance
        if type(entry) is not tuple and type(entry) is not list or len(entry) != 3:
            raise ValidationError(
                f"each entry must be [row, col, value], got {reprlib.repr(entry)}")
        i, j, v = entry
        # plain ints and floats, as load gives, skip the calls
        if not (type(i) is int and type(j) is int):
            i, j = _index(i, "entry row"), _index(j, "entry column")
        if type(v) is not float:
            v = _require_real(v, f"entry ({i}, {j}) value")
        if not (0 <= i <= degree_x and 0 <= j <= degree_y):
            raise ValidationError(f"entry index ({i}, {j}) outside degree bounds "
                                  f"({degree_x}, {degree_y})")
        if v == 0.0 or not math.isfinite(v):
            raise ValidationError(f"entry ({i}, {j}) has invalid value {v!r}")
        if i < pi or i == pi and j <= pj:
            raise ValidationError(f"entries not strictly increasing at ({i}, {j})")
        pi, pj = i, j
        rows.append(i)
        cols.append(j)
        values.append(v)
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(values, dtype=float))


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
    older, old = by_degree[0], by_degree[min(n, 1)]
    # T_k = 2 t T_(k-1) - T_(k-2), the rows as views, taken one at a time as
    # the loop walks them, which costs less than by_degree[k] and holds
    # three, not one per degree
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
                    f"memory, over the budget of {_GRID_BUDGET} bytes "
                    f"({_GRID_BUDGET / 2 ** 30:.3g} GiB)")


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def lobatto_nodes(n):
    """cos(i pi / n) for i = 0..n, mirrored so node[n-i] equals -node[i]
    bit-for-bit (an exact 0 in the middle when n is even).

    For a power of two n up to _MAX_N, the default max_n of the builder,
    the nodes are a read-only view, every (_MAX_N / n)-th node, of the
    nodes of _MAX_N, which the first such call computes and the process
    keeps (_kept_nodes, 4097 doubles, about 32 KiB).
    lobatto_nodes(2 n)[::2] is lobatto_nodes(n) bit for bit, so the view
    holds the bits computed for n.  Any other n gives a new array, which
    is not kept."""
    if n < 1:
        raise ValidationError("degenerate degree: need n >= 1")
    if n <= _MAX_N and _is_power_of_two(n):
        return _kept_nodes()[:: _MAX_N // n]
    return _computed_nodes(n)


def _computed_nodes(n):
    """lobatto_nodes(n) as a new array, n >= 1."""
    nodes = np.empty(n + 1)
    half = n // 2
    nodes[: half + 1] = np.cos(np.pi * np.arange(half + 1) / n)
    nodes[n - half:] = -nodes[half::-1]
    if n % 2 == 0:
        nodes[half] = 0.0
    return nodes


@functools.cache
def _kept_nodes():
    """The nodes of _MAX_N, read-only, of which lobatto_nodes returns views,
    computed at the first call, not at import.  Threads whose first calls
    race may each compute them, to the same bits."""
    nodes = _computed_nodes(_MAX_N)
    nodes.setflags(write=False)
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
    # finite samples near the largest double overflow the FFT's sums; the
    # callers find the coefficients that are not finite, so numpy need not
    # warn of them
    with np.errstate(over="ignore", invalid="ignore"):
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


def _trim_in_place(a, threshold):
    """The trim rule: zero the entries of a with |value| < threshold, in
    place, and return the leading block of a that holds every entry left
    nonzero, as a view of a, or a new 1 x 1 zero if none is.  NaN counts as
    nonzero, -0.0 as zero.  The entries are zeroed in chunks of about
    _CHUNK_ENTRIES, a few rows each, so the masks take a chunk, not a
    grid.  The kept extent is then found from the far end, the last kept
    row first and within the kept rows the last kept column, in slabs of
    about _CHUNK_ENTRIES (_kept_extent): only the slabs after the kept
    block's edges, and the one that holds each edge, are read again."""
    step = max(1, _CHUNK_ENTRIES // max(1, a.shape[1]))
    for lo in range(0, a.shape[0], step):
        chunk = a[lo:lo + step]
        np.copyto(chunk, 0.0, where=(chunk < threshold) & (chunk > -threshold))
    rows = _kept_extent(a, step)
    if rows == 0:
        return np.zeros((1, 1))
    cols = _kept_extent(a[:rows].T, max(1, _CHUNK_ENTRIES // rows))
    return a[:rows, :cols]


def _kept_extent(a, step):
    """1 + the index of the last row of a with an entry that is nonzero or
    NaN, or 0 if it has none: slabs of step rows are read from the last
    one back, up to the first that holds such an entry."""
    for hi in range(a.shape[0], 0, -step):
        lo = max(0, hi - step)
        rows = np.flatnonzero(a[lo:hi].any(axis=1))
        if rows.size:
            return lo + rows[-1] + 1
    return 0


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
    place by the builder's rule (_trim_in_place), whose kept block a Cheb2
    holds with no copy; the zero document if no entry is kept."""
    return to_sparse(Cheb2._owning(_trim_in_place(a, tol), domain, tol))


def to_sparse(c):
    """SparseCoeffs carrying every stored nonzero of a Cheb2: the arrays of
    np.nonzero and the values they index, which hold the invariants by
    construction, with no check and no copy."""
    rows, cols = np.nonzero(c.coeffs)
    return SparseCoeffs._of(int(rows.max(initial=0)), int(cols.max(initial=0)),
                            c.domain, c.tol, rows, cols, c.coeffs[rows, cols])


def to_cheb2(sparse):
    """Dense Cheb2 from a sparse coefficient document, which holds the
    matrix it fills with no copy.  ValidationError if that matrix would
    exceed the grid budget.  A SparseCoeffs holds only finite values, a
    Domain2 and a finite tol >= 0, so the matrix is not scanned again
    (Cheb2._owning's checks)."""
    _check_grid_budget(
        f"a dense {sparse.degree_x + 1} x {sparse.degree_y + 1} coefficient matrix",
        (sparse.degree_x + 1) * (sparse.degree_y + 1))
    coeffs = np.zeros((sparse.degree_x + 1, sparse.degree_y + 1))
    coeffs[sparse.rows, sparse.cols] = sparse.values
    return Cheb2._of(coeffs, sparse.domain, sparse.tol)


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
    order, that lies further out or is not finite raises DomainError, with
    no numpy warning for a far point whose map overflows.
    """
    x, y = np.atleast_1d(x, y)  # a 0-d map gives a scalar, which out= refuses
    with np.errstate(over="ignore", invalid="ignore"):
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
# persistence

_DOC_KEYS = ("degree_x", "degree_y", "domain", "tol", "entries")

# Entries that document_text formats at a time: the Python ints and floats
# of one block are alive at once, not the whole document's.
_DOC_BLOCK = 4096


def document_text(sparse):
    """JSON text of a sparse coefficient document, one entry per line.

    Reals are written with 17 significant digits so that save/load is an
    exact round trip and repeated saves are byte-identical.  The entries
    are formatted _DOC_BLOCK at a time and the blocks joined once, so the
    text is held twice, and a save to a file encodes a third copy.  Three
    copies of the longest line, 80 bytes, are charged per entry before
    any is formatted, and once the text is joined, what load would charge
    to parse it back (_parse_entries), with the counts its layout gives:
    over the grid budget, ValidationError, so no document is written that
    load refuses.
    """
    n = sparse.values.size
    _check_grid_budget(f"the text of a {n}-entry coefficient document", 30 * n)
    d = sparse.domain
    parts = ['{\n  "degree_x": %d,\n  "degree_y": %d,\n'
             '  "domain": [%.17g, %.17g, %.17g, %.17g],\n  "tol": %.17g,\n  "entries": ['
             % (sparse.degree_x, sparse.degree_y, d.xlo, d.xhi, d.ylo, d.yhi, sparse.tol)]
    entry = "    [%d, %d, %.17g]".__mod__
    for lo in range(0, n, _DOC_BLOCK):
        block = slice(lo, lo + _DOC_BLOCK)
        lines = map(entry, zip(sparse.rows[block].tolist(), sparse.cols[block].tolist(),
                               sparse.values[block].tolist()))
        parts += (",\n" if lo else "\n", ",\n".join(lines))
    parts.append("\n  ]\n}\n" if n else "]\n}\n")
    text = "".join(parts)
    # load's charge for the text, from its layout's counts: '[' and '{',
    # three and one per entry; ',', ':' and '"', 22 in the header, two per
    # entry and one between entries.  The text is held already, so this is
    # no charge of document_text's: only a refusal goes through the budget
    entries = _parse_entries(len(text), n + 3, 22 + 3 * n - (n > 0))
    if 8 * entries > _GRID_BUDGET:
        _check_grid_budget(f"loading back the {len(text)}-character text of a "
                           f"{n}-entry coefficient document", entries)
    return text


def save(sparse, sink):
    """Write a SparseCoeffs document to a path or text file object."""
    text = document_text(sparse)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="ascii") as handle:
            handle.write(text)


def _read_ascii(path, what):
    """Text of an ASCII file; another byte raises ParseError at its offset.
    The file's size is charged first, two bytes per byte for the bytes and
    their text, which the read holds together: over the grid budget,
    ValidationError, and the file is not read."""
    with open(path, "r", encoding="ascii") as handle:
        size = os.fstat(handle.fileno()).st_size
        _check_grid_budget(f"reading the {size}-byte {what}", (size + 3) // 4)
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} holds a non-ASCII byte", exc.start) from None


def _parse_entries(length, brackets, separators):
    """Float64 entries that load charges for parsing a text of `length`
    characters that holds `brackets` '[' and '{' and `separators` ',', ':'
    and '"' (see load).  Under tracemalloc load peaked at the text plus
    about 235 bytes per entry, whether its value took 1 digit or 17;
    200,000 short values under a key that load ignores, each after a ',',
    at the text plus 72 bytes for each '{}', 59 for '"ab"' and 36 for
    '999'."""
    return max(length, (length + 7) // 8 + 32 * brackets + 8 * separators)


def load(source):
    """Read a SparseCoeffs document from a path or text file object.

    Malformed JSON or a non-ASCII byte in the file raises ParseError with
    the offending location; nesting too deep for the parser and an integer
    literal longer than Python converts raise it at offset 0.  A well-formed
    document that violates the coefficient invariants, holds a number
    beyond the largest double or declares a degree of 2^63 or more raises
    ValidationError.  So does a text whose parse is charged more than the
    grid budget, before it is parsed (_parse_entries): one byte per
    character, 256 bytes per '[' or '{' and 64 per ',', ':' or '"', or 8
    bytes per character if that is more, which covers the text, the
    parser's objects and the checked entries, whatever the length of their
    values, and any value under a key that load ignores.  The parse runs
    with Python's cyclic garbage collector paused, and load leaves the
    collector on or off as it found it, whether it returns or raises.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = _read_ascii(source, "coefficient document")
    brackets = text.count("[") + text.count("{")
    separators = text.count(",") + text.count(":") + text.count('"')
    _check_grid_budget(f"parsing the {len(text)}-character coefficient document",
                       _parse_entries(len(text), brackets, separators))
    import gc  # here, not at the top: only load parses JSON
    import json

    # the cyclic collector, left on, walks the growing lists of entries again
    # and again while they are parsed; the parse makes no cycles.  load of
    # the bump's 13.3 MB document took ~265 ms with it, ~233 ms without
    # (in-process medians of 7, 2 vCPUs)
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()
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

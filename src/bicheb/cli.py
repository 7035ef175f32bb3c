"""Batch command-line front end.

Subcommands: approx, eval, integrate, diff, interp, export.  All numeric
output uses 17 significant digits, every run is deterministic given its
inputs, and failures map to documented exit codes:

    0  success
    2  expression or document syntax error
    3  adaptive construction did not converge, or its next pass would
       exceed the memory budget
    4  validation failure (inconsistent document, bad option values or
       usage, a grid, a file or a document's declared degrees over the
       memory budget, samples whose transform overflows, a domain bound
       above max / 4 in magnitude, a rectangle narrower than the smallest
       normal double, an integral or a derivative that overflows)
    5  I/O failure, or stdout cannot be flushed
    6  evaluation failure (outside domain, non-finite sample)

The parser converts and checks every argument, defaults included: the
numbers, the rectangles, each --point, the formulas, which it parses into
callables, and --tol, whose default is $BICHEB_TOL or else 1e-15 for the
two commands that take it (approx, interp); the others ignore BICHEB_TOL.
So every command fails in one order: a bad argument first, then eval's
--points-file, then the coefficient document, then the work.

The parser's, the builder's and the calculus' functions are looked up in
the package when they are first called, which loads their modules then:
only a formula argument loads ``bicheb.exprparse``, only ``approx`` loads
``bicheb.builder``, and only ``integrate`` and ``diff`` load
``bicheb.calculus``.  Only ``approx`` and ``interp`` build from a formula;
the commands that take a coefficient document only read it.

``eval`` evaluates all its points in one call of ``evaluate_matrix`` and its
--compare-expr reference in one call of ``eval_ast``, before it opens its
output, so a bad point or reference leaves no partial output.  ``eval`` and
``export`` write their rows in blocks, each value as ``%.17g``; from 4096
rows on, with two or more usable CPUs, forked children format some of the
blocks and the parent writes every block in order, so the bytes are those
of one process (``_write_rows``).

A ``bicheb`` process (the console script, or ``python -m bicheb.cli``) runs
``run``: once ``main`` returns it flushes stdout and stderr and ends with
``os._exit``, skipping the interpreter's teardown of numpy's modules and
objects, 15-35 ms a command on 2 vCPUs.  So ``atexit`` handlers, such as
coverage's, do not run in a CLI process; code that needs them calls
``main(argv)`` in-process, which returns the exit code.  A failed flush of
stdout exits 5.
"""

import argparse
import contextlib
import itertools
import math
import os
import re
import sys
import time
import warnings

# BLAS at one thread unless the user set its thread count: the evaluators'
# matrix products round differently with another, so without this the
# values eval and export write would depend on the number of CPUs.  It
# must precede numpy's import, which starts BLAS's threads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

import bicheb

from .chebcore import (
    Cheb2,
    Domain2,
    UNIT_SQUARE,
    _EVAL_BLOCK,
    _MAX_N,
    _basis_entries,
    _check_grid_budget,
    _read_ascii,
    _sparse_trimmed,
    evaluate_grid,
    evaluate_matrix,
    lagrange_cheb_coeffs,
    load,
    lobatto_nodes,
    save,
    to_cheb2,
    to_sparse,
    trim,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EvalError,
    ParseError,
    SamplingError,
    ValidationError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_VALIDATION = 4
EXIT_IO = 5
EXIT_EVAL = 6

_TOL_ENV = "BICHEB_TOL"


def _parse_domain(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(
            f"domain must be 'xlo,xhi,ylo,yhi', got {text!r}")
    try:
        bounds = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"domain bounds must be numbers, got {text!r}") from None
    return Domain2(*bounds)


def _parse_point(text):
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValidationError(f"point must be 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"point coordinates must be numbers, got {text!r}") from None


def _parse_tolerance(text):
    """--tol, whose default is $BICHEB_TOL or else 1e-15: a finite number > 0."""
    with contextlib.suppress(ValueError):
        if 0 < (tol := float(text)) < math.inf:
            return tol
    raise ValidationError(
        f"tolerance (--tol or ${_TOL_ENV}) must be a finite number > 0, got {text!r}")


class _Formula(str):
    """A formula argument: its source text, parsed, and callable as f(x, y).
    parse_expression and eval_ast are looked up in the package when they
    run, which loads the parser with the first formula, and a wrapper put in
    their place there sees every call."""

    def __init__(self, text):
        self.ast = bicheb.parse_expression(text)

    def __call__(self, x, y):
        return bicheb.eval_ast(self.ast, x, y)


def _check_resolution(args, grids):
    """Refuse a --resolution below 2, or one for which `grids` arrays the
    size of its grid would exceed the grid budget."""
    if args.resolution < 2:
        raise ValidationError("resolution must be >= 2")
    _check_grid_budget(f"--resolution {args.resolution}", grids * args.resolution ** 2)


def _write_document(sparse, output):
    """Save a SparseCoeffs to output and print its file, degrees and size."""
    save(sparse, output)
    print(f"wrote {output}")
    print(f"degrees: {sparse.degree_x} {sparse.degree_y}")
    print(f"nonzero coefficients: {sparse.values.size}")


def cmd_approx(args):
    # looked up in the package, which loads the builder before the clock starts
    build_adaptive = bicheb.build_adaptive
    parseval_indicator = bicheb.parseval_indicator
    started = time.perf_counter()
    c = build_adaptive(args.expression, args.tol, n0=args.n0, max_n=args.max_n,
                       domain=args.domain, relative=args.relative_tol)
    try:
        indicator = "%.17g" % parseval_indicator(c, args.expression)
    except ValidationError as exc:  # over the budget, or overflowed; c is fine
        indicator = f"skipped ({exc})"
    elapsed = time.perf_counter() - started
    _write_document(to_sparse(c), args.output)
    print(f"parseval indicator: {indicator}")
    print(f"wall time: {elapsed:.3f} s")
    return EXIT_OK


def _given_points(args):
    """The points of --point and then of --points-file, one 'x,y' per line
    and blank lines skipped, as a C-ordered 2 x k array of xs and ys.

    The file's text is charged before it is parsed: two bytes per
    character, the file's bytes and their text, which the read held
    together, and 32 per line, for the coordinates parsed, with room to
    grow, and their copy that is returned."""
    points = np.reshape(args.point, (-1, 2)).T
    if args.points_file is not None:
        text = _read_ascii(args.points_file, "points file")
        _check_grid_budget(f"parsing the {len(text)}-character points file",
                           (len(text) + 3) // 4 + 4 * (text.count("\n") + 1))
        lines = (match.group().strip() for match in re.finditer("[^\n]+", text))
        coords = np.fromiter(itertools.chain.from_iterable(
            _parse_point(line) for line in lines if line), float)
        points = np.concatenate([points, coords.reshape(-1, 2).T], axis=1)
    return np.ascontiguousarray(points)


def _value_columns(values, compare, x, y):
    """The columns eval and export write: the values and, given a reference
    formula, its values at the points (x, y) and the absolute errors."""
    if compare is None:
        return [values]
    reference = np.broadcast_to(np.asarray(compare(x, y), dtype=float), values.shape)
    return [values, reference, np.abs(values - reference)]


# Rows formatted per write by eval.
_ROWS_PER_WRITE = 4096
# The fewest rows that eval or export split across processes.  Below it a
# fork costs more than the formatting it takes off the parent: on 2 vCPUs,
# export with --compare-expr of Runge's document broke even at 64 x 64
# rows, lost 1.6 ms at 48 x 48 and saved 3 ms at 80 x 80 (30 pairs each).
# And the most processes, the parent among them, that format one output.
_SPLIT_ROWS = 4096
_MAX_WRITERS = 4


def _write_rows(sink, rows, blocks, format_block):
    """Write format_block(0), ..., format_block(blocks - 1), the text of
    `rows` rows, to sink in that order.

    K processes format the blocks, block i by writer i % K.  K is 1 below
    _SPLIT_ROWS rows or without os.fork and os.sched_getaffinity, and
    otherwise one per usable CPU, at most _MAX_WRITERS and `blocks`.  The
    parent is writer 0; each other writer is a forked child that sends its
    blocks through its own pipe, length-prefixed.  The parent formats the
    blocks of a child it could not start or whose pipe ends early, so sink
    gets the same bytes whatever K is.  Before it returns or raises, the
    parent closes every pipe and then reaps every child."""
    writers = 1
    if rows >= _SPLIT_ROWS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        writers = min(len(os.sched_getaffinity(0)), _MAX_WRITERS, blocks)
    pipes = [None] * writers  # the parent's read end of each child's pipe
    children = []
    try:
        for writer in range(1, writers):
            read_end, write_end = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns of a fork while BLAS threads run;
                    # the child only formats, writes its pipe and calls
                    # os._exit, and never calls BLAS
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process to spare: the pipe ends at once
                pid = None
            if pid == 0:
                # the child never unwinds into main, where it would run the
                # rest of the command and flush the sink it inherited
                try:
                    # with no reader but the parent's, a write after the
                    # parent closes its end fails instead of blocking
                    os.close(read_end)
                    with open(write_end, "wb") as out:
                        for i in range(writer, blocks, writers):
                            data = format_block(i).encode("ascii")
                            out.write(len(data).to_bytes(8, "little") + data)
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append(pid)
            os.close(write_end)
            pipes[writer] = open(read_end, "rb")
        for i in range(blocks):
            # after an early end, every read of the pipe returns b""
            pipe = pipes[i % writers]
            head = pipe.read(8) if pipe else b""
            size = int.from_bytes(head, "little")
            data = pipe.read(size) if pipe else b""
            if len(head) == 8 and len(data) == size:
                sink.write(data.decode("ascii"))
            else:
                sink.write(format_block(i))
    finally:
        for pipe in filter(None, pipes):
            pipe.close()
        for pid in filter(None, children):
            # where SIGCHLD is ignored, as an exec can inherit, the kernel
            # reaps the child itself: waitpid waits for it, then finds none
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def cmd_eval(args):
    # every point is checked, evaluated and compared before the sink opens,
    # so a failure leaves no partial output.  A large grid peaks at about
    # 5.3 arrays of its size inside evaluate_matrix: the points' two
    # coordinates, their unit coordinates, clamped in place, and the domain
    # check's magnitudes; later the values join them.  With --compare-expr
    # it peaks at about 6.0, when the reference and the error join the
    # points and their values.  The grid, evaluated with --grid-domain or
    # when there is no point, is charged as seven arrays once the points
    # are read, before the document is; all the points are charged again
    # with one block's basis matrices, which grow with the document's
    # degrees, before any point is evaluated.
    xs, ys = _given_points(args)
    if grid := (args.grid_domain is not None or not xs.size):
        _check_resolution(args, 7)
    c = to_cheb2(load(args.input))
    if grid:
        # x-major: each x of the grid with every y in turn
        g = args.grid_domain or c.domain
        gx = np.linspace(g.xlo, g.xhi, args.resolution)
        gy = np.linspace(g.ylo, g.yhi, args.resolution)
        xs = np.concatenate([xs, np.repeat(gx, args.resolution)])
        ys = np.concatenate([ys, np.tile(gy, args.resolution)])
    _check_grid_budget(
        f"evaluating {xs.size} points at degrees {c.degree_x} x {c.degree_y}",
        7 * xs.size + _basis_entries(c.degree_x, c.degree_y,
                                     2 * min(xs.size, _EVAL_BLOCK)))
    columns = _value_columns(evaluate_matrix(c, xs, ys), args.compare_expr, xs, ys)
    row = " ".join(["%.17g"] * len(columns)) + "\n"

    def rows(i):
        block = slice(i * _ROWS_PER_WRITE, (i + 1) * _ROWS_PER_WRITE)
        return "".join(row % cells for cells in
                       zip(*(column[block].tolist() for column in columns)))

    with (contextlib.nullcontext(sys.stdout) if args.output is None
          else open(args.output, "w", encoding="ascii")) as sink:
        _write_rows(sink, xs.size, -(-xs.size // _ROWS_PER_WRITE), rows)
        if args.compare_expr is not None:
            sink.write("max_abs_error %.17g\n" % columns[2].max())
    return EXIT_OK


def cmd_integrate(args):
    print("%.17g" % bicheb.integrate(to_cheb2(load(args.input))))
    return EXIT_OK


def cmd_diff(args):
    from .calculus import _derivative  # here, as only diff differentiates

    c = to_cheb2(load(args.input))
    # the input's dense matrix and its derivative's, which the trim zeroes
    # in place: the two matrices the command holds, charged before the second
    rows, cols = c.coeffs.shape
    _check_grid_budget(
        f"a dense {rows} x {cols} coefficient matrix and its derivative",
        2 * rows * cols)
    b = _derivative(c, 0 if args.axis == "x" else 1)
    _write_document(_sparse_trimmed(b, c.tol, c.domain), args.output)
    return EXIT_OK


def cmd_interp(args):
    n, m = args.n, args.m
    if args.verify and n >= 1 and m >= 1:
        # the coefficients and Cheb2's copy of them, the values at the nodes
        # and f's, and evaluate_grid's basis matrices of both axes' nodes
        _check_grid_budget(
            f"--verify on the {n + 1} x {m + 1} grid",
            4 * (n + 1) * (m + 1) + _basis_entries(n, m, n + m + 2))
    coeffs = lagrange_cheb_coeffs(args.expression, n, m, domain=args.domain)
    _write_document(trim(coeffs, args.tol, args.domain), args.output)
    if args.verify:
        c = Cheb2(coeffs, args.domain, args.tol)
        del coeffs
        xs = args.domain.x_from_unit(lobatto_nodes(n))
        ys = args.domain.y_from_unit(lobatto_nodes(m))
        residual = evaluate_grid(c, xs, ys)
        residual -= args.expression(xs[:, None], ys[None, :])
        worst = np.abs(residual, out=residual).max()
        print("max node residual: %.17g" % worst)
    return EXIT_OK


def cmd_export(args):
    # the values, and with --compare-expr the reference, the difference
    # and the error: a peak of about 1.05 arrays of the grid's size, or
    # 4.05, charged before the document is read and again with the basis
    # matrices of both axes' points, which grow with its degrees
    grids = 5 if args.compare_expr is None else 7
    _check_resolution(args, grids)
    c = to_cheb2(load(args.input))
    _check_grid_budget(
        f"the {args.resolution} x {args.resolution} grid at degrees "
        f"{c.degree_x} x {c.degree_y}",
        grids * args.resolution ** 2
        + _basis_entries(c.degree_x, c.degree_y, 2 * args.resolution))
    grid = args.grid_domain or c.domain
    xs = np.linspace(grid.xlo, grid.xhi, args.resolution)
    ys = np.linspace(grid.ylo, grid.yhi, args.resolution)
    columns = _value_columns(evaluate_grid(c, xs, ys), args.compare_expr,
                             xs[:, None], ys[None, :])
    header = ",".join(["x", "y", "value", "reference", "abs_error"][: 2 + len(columns)])
    # x and y text once per grid line, one %-format per row
    row = "%s,%s" + ",%.17g" * len(columns) + "\n"
    fys = ["%.17g" % y for y in ys]

    def line(i):
        fx = "%.17g" % xs[i]
        cells = zip(fys, *(column[i].tolist() for column in columns))
        return "".join(row % (fx, *cell) for cell in cells)

    with open(args.output, "w", encoding="ascii") as sink:
        sink.write(header + "\n")
        _write_rows(sink, xs.size * ys.size, xs.size, line)
    if args.compare_expr is not None:
        print("max_abs_error %.17g" % columns[2].max())
    print(f"wrote {args.resolution * args.resolution} rows to {args.output}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (a missing value, an unknown option, a
    non-integer count) as ValidationError, exit 4, without the usage text;
    the subcommand parsers are of this class too."""

    def error(self, message):
        raise ValidationError(message)


def _add_formula_options(sub, tol_help):
    """--domain and --tol, taken by every command that samples a formula."""
    sub.add_argument("--domain", type=_parse_domain, default=UNIT_SQUARE,
                     metavar="XLO,XHI,YLO,YHI",
                     help="approximation rectangle (default -1,1,-1,1); "
                          + _NEGATIVE_XLO_HELP.format("--domain"))
    # a string, which argparse converts and checks as it does a given value
    sub.add_argument("--tol", type=_parse_tolerance,
                     default=os.environ.get(_TOL_ENV, "1e-15"),
                     help=f"{tol_help} (default 1e-15 or ${_TOL_ENV})")


def _add_grid_options(sub, grid_help):
    sub.add_argument("--grid-domain", type=_parse_domain, default=None,
                     metavar="XLO,XHI,YLO,YHI",
                     help=f"{grid_help}; {_NEGATIVE_XLO_HELP.format('--grid-domain')}")
    sub.add_argument("--resolution", type=int, default=50,
                     help="grid points per axis (default 50)")


# argparse reads an argument that starts with "-" as an option
_MINUS_HELP = ("one that starts with a minus sign goes in parentheses, "
               "'(-x*y)', or last, after every option and --: -o p.json -- '-x*y'")
_NEGATIVE_XLO_HELP = "a negative XLO needs the = spelling, {}=-1,1,-1,1"


def _build_parser():
    parser = _Parser(
        prog="bicheb",
        description="Bivariate Chebyshev approximation toolbox.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("approx", help="build an approximant from a formula")
    p.set_defaults(run=cmd_approx)
    p.add_argument("expression", type=_Formula,
                   help=f"formula in x and y, e.g. 'cos(x*y)'; {_MINUS_HELP}")
    p.add_argument("-o", "--output", default="coeffs.json",
                   help="coefficient file to write (default coeffs.json)")
    _add_formula_options(p, "trim tolerance")
    p.add_argument("--max-n", type=int, default=_MAX_N,
                   help="largest degree bound of either axis of a sampled "
                        f"grid; the axes double separately (default {_MAX_N})")
    p.add_argument("--n0", type=int, default=8,
                   help="degree of the first sampled grid (default 8)")
    p.add_argument("--relative-tol", action="store_true",
                   help="scale the tolerance by the largest sampled magnitude")

    p = subs.add_parser("eval", help="evaluate a coefficient file")
    p.set_defaults(run=cmd_eval)
    p.add_argument("input", help="coefficient file")
    p.add_argument("--point", type=_parse_point, action="append", default=[],
                   metavar="X,Y", help="evaluation point (repeatable)")
    p.add_argument("--points-file", default=None,
                   help="file with one 'x,y' pair per line")
    _add_grid_options(p, "evaluate on a grid over this rectangle too, after the points")
    p.add_argument("--compare-expr", type=_Formula, default=None,
                   help="reference formula; adds error columns and a max line")
    p.add_argument("-o", "--output", default=None,
                   help="write values here instead of stdout")

    p = subs.add_parser("integrate", help="integrate over the domain")
    p.set_defaults(run=cmd_integrate)
    p.add_argument("input", help="coefficient file")

    p = subs.add_parser("diff", help="differentiate a coefficient file")
    p.set_defaults(run=cmd_diff)
    p.add_argument("input", help="coefficient file")
    p.add_argument("--axis", choices=("x", "y"), required=True)
    p.add_argument("-o", "--output", default="deriv.json",
                   help="coefficient file to write")

    p = subs.add_parser("interp", help="interpolate a formula on the Lobatto grid")
    p.set_defaults(run=cmd_interp)
    p.add_argument("expression", type=_Formula, help=f"formula in x and y; {_MINUS_HELP}")
    p.add_argument("-n", type=int, required=True, help="degree in x")
    p.add_argument("-m", type=int, required=True, help="degree in y")
    p.add_argument("-o", "--output", default="interp.json",
                   help="coefficient file to write")
    _add_formula_options(p, "trim tolerance for the written file")
    p.add_argument("--verify", action="store_true",
                   help="print the largest residual at the grid nodes")

    p = subs.add_parser("export", help="export grid values as CSV")
    p.set_defaults(run=cmd_export)
    p.add_argument("input", help="coefficient file")
    p.add_argument("-o", "--output", required=True, help="CSV file to write")
    _add_grid_options(p, "report rectangle (default: the file's domain)")
    p.add_argument("--compare-expr", type=_Formula, default=None,
                   help="reference formula; adds reference and abs_error columns")

    return parser


# the exit code of each error class that main reports: the first row whose
# classes the error is an instance of
_EXIT_CODES = (
    ((ParseError,), EXIT_PARSE),
    ((ConvergenceError,), EXIT_CONVERGENCE),
    ((ValidationError,), EXIT_VALIDATION),
    ((OSError,), EXIT_IO),
    ((DomainError, SamplingError, EvalError), EXIT_EVAL),
)
_REPORTED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)


def main(argv=None):
    try:
        # inside the try: a usage error or a bad --domain raises
        # ValidationError from the parser
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES
                    if isinstance(exc, classes))


def run():
    """The process entry point: ``main`` on sys.argv, then stdout and stderr
    flushed and the process ended with ``os._exit``, skipping the
    interpreter's teardown.  Every file a command writes is closed before
    ``main`` returns.  A flush that fails exits 5 with one ``error:`` line,
    written if stderr still takes it.  An exception out of ``main``,
    ``SystemExit`` from ``-h`` among them, takes the interpreter's usual
    way out."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        # stderr is line-buffered: main's lines there are out already
        code = EXIT_IO
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()

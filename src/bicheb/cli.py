"""Batch command-line front end.

Subcommands: approx, eval, integrate, diff, interp, export.  All numeric
output uses 17 significant digits, every run is deterministic given its
inputs, and failures map to documented exit codes:

    0  success
    2  expression or document syntax error
    3  adaptive construction did not converge, or its next pass would
       exceed the memory budget
    4  validation failure (inconsistent document, bad option values or
       usage, a grid or a document's declared degrees over the memory
       budget)
    5  I/O failure, or stdout cannot be flushed
    6  evaluation failure (outside domain, non-finite sample)

Each command reads the parsed arguments, whose defaults live in the parser.
BICHEB_TOL overrides the default tolerance, 1e-15, of the commands that
take --tol (approx, integrate, interp); the others ignore it.

``eval`` evaluates all its points in one call of ``evaluate_matrix`` and its
--compare-expr reference in one call of ``eval_ast``, before it opens its
output, so a bad point or reference leaves no partial output.  ``eval`` and
``export`` write their rows in blocks, each value as ``%.17g``.

A ``bicheb`` process (the console script, or ``python -m bicheb.cli``) runs
``run``: once ``main`` returns it flushes stdout and stderr and ends with
``os._exit``, skipping the interpreter's teardown of numpy's modules and
objects, 15-35 ms a command on 2 vCPUs.  So ``atexit`` handlers, such as
coverage's, do not run in a CLI process; code that needs them calls
``main(argv)`` in-process, which returns the exit code.  A failed flush of
stdout exits 5.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from .calculus import _derivative, integrate
from .chebcore import (
    Cheb2,
    Domain2,
    UNIT_SQUARE,
    _EVAL_BLOCK,
    _basis_entries,
    _check_grid_budget,
    _read_ascii,
    _trim_in_place,
    build_adaptive,
    evaluate_grid,
    evaluate_matrix,
    lagrange_cheb_coeffs,
    load,
    lobatto_nodes,
    parseval_indicator,
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
from .exprparse import eval_ast, parse_expression

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


def _tolerance(args):
    """--tol, else $BICHEB_TOL, else 1e-15; it must be a finite number > 0."""
    raw = args.tol if args.tol is not None else os.environ.get(_TOL_ENV, "1e-15")
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(
            f"tolerance (--tol or ${_TOL_ENV}) must be a finite number > 0, got {raw!r}")
    return tol


def _check_resolution(args, grids):
    """Refuse a --resolution below 2, or one for which `grids` arrays the
    size of its grid would exceed the grid budget."""
    if args.resolution < 2:
        raise ValidationError("resolution must be >= 2")
    _check_grid_budget(f"--resolution {args.resolution}", grids * args.resolution ** 2)


def _ast_function(ast):
    return lambda x, y: eval_ast(ast, x, y)


def _build_from_expression(args, expression, tol):
    f = _ast_function(parse_expression(expression))
    c = build_adaptive(f, tol, n0=args.n0, max_n=args.max_n,
                       domain=args.domain, relative=args.relative_tol)
    return c, f


def _write_document(sparse, output):
    """Save a SparseCoeffs to output and print its file, degrees and size."""
    save(sparse, output)
    print(f"wrote {output}")
    print(f"degrees: {sparse.degree_x} {sparse.degree_y}")
    print(f"nonzero coefficients: {len(sparse.entries)}")


def cmd_approx(args):
    tol = _tolerance(args)
    started = time.perf_counter()
    c, f = _build_from_expression(args, args.expression, tol)
    try:
        indicator = "%.17g" % parseval_indicator(c, f)
    except ValidationError as exc:  # its grid is over the budget; c is not
        indicator = f"skipped ({exc})"
    elapsed = time.perf_counter() - started
    _write_document(to_sparse(c), args.output)
    print(f"parseval indicator: {indicator}")
    print(f"wall time: {elapsed:.3f} s")
    return EXIT_OK


def _collect_points(args, domain):
    """The points to evaluate as two arrays, xs and ys."""
    points = [_parse_point(p) for p in args.point]
    if args.points_file is not None:
        for line in _read_ascii(args.points_file, "points file").split("\n"):
            line = line.strip()
            if line:
                points.append(_parse_point(line))
    xs = np.array([x for x, _ in points], dtype=float)
    ys = np.array([y for _, y in points], dtype=float)
    if args.grid_domain is not None or not points:
        _check_resolution(args, 7)  # again: a --points-file may hold no point
        grid = args.grid_domain or domain
        gx, gy = np.meshgrid(np.linspace(grid.xlo, grid.xhi, args.resolution),
                             np.linspace(grid.ylo, grid.yhi, args.resolution),
                             indexing="ij")
        xs = np.concatenate([xs, gx.ravel()])
        ys = np.concatenate([ys, gy.ravel()])
    return xs, ys


def _open_sink(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="ascii"), True


def _compare_ast(args):
    if args.compare_expr is None:
        return None
    return parse_expression(args.compare_expr)


def _value_columns(values, compare_ast, x, y):
    """The columns eval and export write: the values and, given a reference
    formula, its values at the points (x, y) and the absolute errors."""
    if compare_ast is None:
        return [values]
    reference = np.broadcast_to(
        np.asarray(eval_ast(compare_ast, x, y), dtype=float), values.shape)
    return [values, reference, np.abs(values - reference)]


# Rows formatted per write by eval.
_ROWS_PER_WRITE = 4096


def cmd_eval(args):
    # every point is checked, evaluated and compared before the sink opens,
    # so a failure leaves no partial output.  A large grid peaks at about
    # 5.3 arrays of its size inside evaluate_matrix: the points' two
    # coordinates, their unit coordinates, clamped in place, and the domain
    # check's magnitudes; later the values join them.  With --compare-expr
    # it peaks at about 6.0, when the reference and the error join the
    # points and their values.  Seven arrays are charged before the
    # document is read, and again with one block's basis matrices, which
    # grow with its degrees, before any point is evaluated.  The grid is
    # charged only if one is evaluated: with --grid-domain or no points.
    if args.grid_domain is not None or not (args.point or args.points_file is not None):
        _check_resolution(args, 7)
    c = to_cheb2(load(args.input))
    xs, ys = _collect_points(args, c.domain)
    _check_grid_budget(
        f"evaluating {xs.size} points at degrees {c.degree_x} x {c.degree_y}",
        7 * xs.size + _basis_entries(c.degree_x, c.degree_y,
                                     2 * min(xs.size, _EVAL_BLOCK)))
    compare_ast = _compare_ast(args)
    columns = _value_columns(evaluate_matrix(c, xs, ys), compare_ast, xs, ys)
    row = " ".join(["%.17g"] * len(columns)) + "\n"
    sink, owned = _open_sink(args.output)
    try:
        for start in range(0, xs.size, _ROWS_PER_WRITE):
            block = [column[start:start + _ROWS_PER_WRITE].tolist()
                     for column in columns]
            sink.write("".join(row % cells for cells in zip(*block)))
        if compare_ast is not None:
            sink.write("max_abs_error %.17g\n" % columns[2].max())
    finally:
        if owned:
            sink.close()
    return EXIT_OK


def cmd_integrate(args):
    if (args.input is None) == (args.expr is None):
        raise ValidationError(
            "integrate takes either a coefficient file or --expr; "
            f"got file {args.input!r} and --expr {args.expr!r}")
    tol = _tolerance(args)
    if args.input is not None:
        c = to_cheb2(load(args.input))
    else:
        c, _ = _build_from_expression(args, args.expr, tol)
    print("%.17g" % integrate(c))
    return EXIT_OK


def cmd_diff(args):
    # the input's dense matrix and its derivative's, which the trim zeroes
    # in place: the two matrices the command holds, charged before either
    sparse = load(args.input)
    shape = (sparse.degree_x + 1, sparse.degree_y + 1)
    _check_grid_budget(
        f"a dense {shape[0]} x {shape[1]} coefficient matrix and its derivative",
        2 * shape[0] * shape[1])
    c = to_cheb2(sparse)
    del sparse  # load's entries, Python objects, can outweigh the matrix
    b = _derivative(c, 0 if args.axis == "x" else 1)
    _trim_in_place(b, c.tol)
    _write_document(to_sparse(Cheb2._owning(b, c.domain, c.tol)), args.output)
    return EXIT_OK


def cmd_interp(args):
    tol = _tolerance(args)
    ast = parse_expression(args.expression)
    n, m = args.n, args.m
    if args.verify and n >= 1 and m >= 1:
        # the coefficients and Cheb2's copy of them, the values at the nodes
        # and f's, and evaluate_grid's basis matrices of both axes' nodes
        _check_grid_budget(
            f"--verify on the {n + 1} x {m + 1} grid",
            4 * (n + 1) * (m + 1) + _basis_entries(n, m, n + m + 2))
    f = _ast_function(ast)
    coeffs = lagrange_cheb_coeffs(f, n, m, domain=args.domain)
    _write_document(trim(coeffs, tol, args.domain), args.output)
    if args.verify:
        c = Cheb2(coeffs, args.domain, tol)
        del coeffs
        xs = args.domain.x_from_unit(lobatto_nodes(n))
        ys = args.domain.y_from_unit(lobatto_nodes(m))
        residual = evaluate_grid(c, xs, ys)
        residual -= eval_ast(ast, xs[:, None], ys[None, :])
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
    compare_ast = _compare_ast(args)
    columns = _value_columns(evaluate_grid(c, xs, ys), compare_ast,
                             xs[:, None], ys[None, :])
    header = ",".join(["x", "y", "value", "reference", "abs_error"][: 2 + len(columns)])
    # x and y text once per grid line, one %-format per row
    row = "%s,%s" + ",%.17g" * len(columns) + "\n"
    fys = ["%.17g" % y for y in ys]
    with open(args.output, "w", encoding="ascii") as sink:
        sink.write(header + "\n")
        for i, x in enumerate(xs):
            fx = "%.17g" % x
            cells = zip(fys, *(column[i].tolist() for column in columns))
            sink.write("".join(row % (fx, *cell) for cell in cells))
    if compare_ast is not None:
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
                     help="approximation rectangle (default -1,1,-1,1)")
    # parsed and checked by _tolerance, which also reads the environment
    sub.add_argument("--tol", default=None,
                     help=f"{tol_help} (default 1e-15 or ${_TOL_ENV})")


def _add_grid_options(sub, grid_help):
    sub.add_argument("--grid-domain", type=_parse_domain, default=None,
                     metavar="XLO,XHI,YLO,YHI", help=grid_help)
    sub.add_argument("--resolution", type=int, default=50,
                     help="grid points per axis (default 50)")


def _add_build_options(sub):
    _add_formula_options(sub, "trim tolerance")
    sub.add_argument("--max-n", type=int, default=4096,
                     help="largest degree bound of either axis of a sampled "
                          "grid; the axes double separately (default 4096)")
    sub.add_argument("--n0", type=int, default=8,
                     help="degree of the first sampled grid (default 8)")
    sub.add_argument("--relative-tol", action="store_true",
                     help="scale the tolerance by the largest sampled magnitude")


# argparse reads an argument that starts with "-" as an option
_MINUS_HELP = ("one that starts with a minus sign goes in parentheses, "
               "'(-x*y)', or last, after every option and --: -o p.json -- '-x*y'")


def _build_parser():
    parser = _Parser(
        prog="bicheb",
        description="Bivariate Chebyshev approximation toolbox.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("approx", help="build an approximant from a formula")
    p.set_defaults(run=cmd_approx)
    p.add_argument("expression", help=f"formula in x and y, e.g. 'cos(x*y)'; {_MINUS_HELP}")
    p.add_argument("-o", "--output", default="coeffs.json",
                   help="coefficient file to write (default coeffs.json)")
    _add_build_options(p)

    p = subs.add_parser("eval", help="evaluate a coefficient file")
    p.set_defaults(run=cmd_eval)
    p.add_argument("input", help="coefficient file")
    p.add_argument("--point", action="append", default=[], metavar="X,Y",
                   help="evaluation point (repeatable)")
    p.add_argument("--points-file", default=None,
                   help="file with one 'x,y' pair per line")
    _add_grid_options(p, "evaluate on a grid over this rectangle instead")
    p.add_argument("--compare-expr", default=None,
                   help="reference formula; adds error columns and a max line")
    p.add_argument("-o", "--output", default=None,
                   help="write values here instead of stdout")

    p = subs.add_parser("integrate", help="integrate over the domain")
    p.set_defaults(run=cmd_integrate)
    p.add_argument("input", nargs="?", default=None, help="coefficient file")
    p.add_argument("--expr", default=None,
                   help="build from this formula instead of a file")
    _add_build_options(p)

    p = subs.add_parser("diff", help="differentiate a coefficient file")
    p.set_defaults(run=cmd_diff)
    p.add_argument("input", help="coefficient file")
    p.add_argument("--axis", choices=("x", "y"), required=True)
    p.add_argument("-o", "--output", default="deriv.json",
                   help="coefficient file to write")

    p = subs.add_parser("interp", help="interpolate a formula on the Lobatto grid")
    p.set_defaults(run=cmd_interp)
    p.add_argument("expression", help=f"formula in x and y; {_MINUS_HELP}")
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
    p.add_argument("--compare-expr", default=None,
                   help="reference formula; adds reference and abs_error columns")

    return parser


def main(argv=None):
    try:
        # inside the try: a usage error or a bad --domain raises
        # ValidationError from the parser
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, SamplingError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


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

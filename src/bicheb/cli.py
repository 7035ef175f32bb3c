"""Batch command-line front end.

Subcommands: approx, eval, integrate, diff, interp, export.  All numeric
output uses 17 significant digits, every run is deterministic given its
inputs, and failures map to documented exit codes:

    0  success
    2  expression or document syntax error
    3  adaptive construction did not converge
    4  validation failure (inconsistent document, bad option values)
    5  I/O failure
    6  evaluation failure (outside domain, non-finite sample)

The default trim tolerance is 1e-15 and may be overridden with the
BICHEB_TOL environment variable.

``eval`` evaluates all its points in one call of ``evaluate_matrix`` and its
--compare-expr reference in one call of ``eval_ast``, before it opens its
output, so a bad point or reference leaves no partial output.  ``eval`` and
``export`` write their rows in blocks, each value as ``%.17g``.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .calculus import diff_x, diff_y, integrate
from .chebcore import (
    Cheb2,
    Domain2,
    UNIT_SQUARE,
    _read_ascii,
    build_adaptive,
    evaluate_grid,
    evaluate_matrix,
    load,
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
    InvalidInputError,
    LexError,
    ParseError,
    SamplingError,
    ValidationError,
)
from .exprparse import eval_ast, parse_expression
from .interp import lagrange_cheb_coeffs, lobatto_grid

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_VALIDATION = 4
EXIT_IO = 5
EXIT_EVAL = 6

_TOL_ENV = "BICHEB_TOL"


@dataclass
class RunConfig:
    """Everything a subcommand needs, assembled from the parsed arguments."""

    subcommand: str
    expression: str = None
    domain: Domain2 = UNIT_SQUARE
    tol: float = 1e-15
    max_n: int = 8192
    n0: int = 8
    relative: bool = False
    input_path: str = None
    output_path: str = None
    resolution: int = 50
    points: list = field(default_factory=list)
    points_file: str = None
    grid_domain: Domain2 = None
    compare_expr: str = None
    axis: str = "x"
    degree_n: int = 8
    degree_m: int = 8
    verify: bool = False

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValidationError("tolerance must be positive")
        if self.resolution < 2:
            raise ValidationError("resolution must be >= 2")


def _fmt(v):
    return format(float(v), ".17g")


def _parse_domain(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(
            f"domain must be 'xlo,xhi,ylo,yhi', got {text!r}")
    try:
        bounds = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"domain bounds must be numbers, got {text!r}") from None
    try:
        return Domain2(*bounds)
    except InvalidInputError as exc:
        raise ValidationError(str(exc)) from None


def _parse_point(text):
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValidationError(f"point must be 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"point coordinates must be numbers, got {text!r}") from None


def _default_tol():
    raw = os.environ.get(_TOL_ENV)
    if raw is None:
        return 1e-15
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(
            f"{_TOL_ENV} must be a number, got {raw!r}") from None


def _ast_function(ast):
    return lambda x, y: eval_ast(ast, x, y)


def _build_from_expression(config):
    ast = parse_expression(config.expression)
    f = _ast_function(ast)
    c = build_adaptive(f, config.tol, n0=config.n0, max_n=config.max_n,
                       domain=config.domain, relative=config.relative)
    return c, f


def cmd_approx(config):
    started = time.perf_counter()
    c, f = _build_from_expression(config)
    indicator = parseval_indicator(c, f)
    elapsed = time.perf_counter() - started
    sparse = to_sparse(c)
    save(sparse, config.output_path)
    print(f"wrote {config.output_path}")
    print(f"degrees: {c.degree_x} {c.degree_y}")
    print(f"nonzero coefficients: {len(sparse.entries)}")
    print(f"parseval indicator: {_fmt(indicator)}")
    print(f"wall time: {elapsed:.3f} s")
    return EXIT_OK


def _collect_points(config, domain):
    """The points to evaluate as two arrays, xs and ys."""
    points = [_parse_point(p) for p in config.points]
    if config.points_file is not None:
        for line in _read_ascii(config.points_file, "points file").split("\n"):
            line = line.strip()
            if line:
                points.append(_parse_point(line))
    xs = np.array([x for x, _ in points], dtype=float)
    ys = np.array([y for _, y in points], dtype=float)
    if config.grid_domain is not None or not points:
        grid = config.grid_domain or domain
        gx, gy = np.meshgrid(np.linspace(grid.xlo, grid.xhi, config.resolution),
                             np.linspace(grid.ylo, grid.yhi, config.resolution),
                             indexing="ij")
        xs = np.concatenate([xs, gx.ravel()])
        ys = np.concatenate([ys, gy.ravel()])
    return xs, ys


def _open_sink(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="ascii"), True


def _compare_ast(config):
    if config.compare_expr is None:
        return None
    return parse_expression(config.compare_expr)


def _value_columns(values, compare_ast, x, y):
    """The columns eval and export write: the values and, given a reference
    formula, its values at the points (x, y) and the absolute errors."""
    if compare_ast is None:
        return [values]
    reference = np.broadcast_to(
        np.asarray(eval_ast(compare_ast, x, y), dtype=float), values.shape)
    return [values, reference, np.abs(values - reference)]


# Rows formatted per write by eval; "%.17g" gives the text of _fmt.
_ROWS_PER_WRITE = 4096


def cmd_eval(config):
    # every point is checked, evaluated and compared before the sink opens,
    # so a failure leaves no partial output
    c = to_cheb2(load(config.input_path))
    xs, ys = _collect_points(config, c.domain)
    compare_ast = _compare_ast(config)
    columns = _value_columns(evaluate_matrix(c, xs, ys), compare_ast, xs, ys)
    row = " ".join(["%.17g"] * len(columns)) + "\n"
    sink, owned = _open_sink(config.output_path)
    try:
        for start in range(0, xs.size, _ROWS_PER_WRITE):
            block = [column[start:start + _ROWS_PER_WRITE].tolist()
                     for column in columns]
            sink.write("".join(row % cells for cells in zip(*block)))
        if compare_ast is not None:
            sink.write(f"max_abs_error {_fmt(columns[2].max())}\n")
    finally:
        if owned:
            sink.close()
    return EXIT_OK


def cmd_integrate(config):
    if config.input_path is not None:
        c = to_cheb2(load(config.input_path))
    else:
        c, _ = _build_from_expression(config)
    print(_fmt(integrate(c)))
    return EXIT_OK


def cmd_diff(config):
    c = to_cheb2(load(config.input_path))
    derivative = diff_x(c) if config.axis == "x" else diff_y(c)
    sparse = trim(derivative.coeffs, derivative.tol, derivative.domain)
    save(sparse, config.output_path)
    print(f"wrote {config.output_path}")
    print(f"degrees: {sparse.degree_x} {sparse.degree_y}")
    print(f"nonzero coefficients: {len(sparse.entries)}")
    return EXIT_OK


def cmd_interp(config):
    ast = parse_expression(config.expression)
    f = _ast_function(ast)
    coeffs = lagrange_cheb_coeffs(f, config.degree_n, config.degree_m,
                                  domain=config.domain)
    sparse = trim(coeffs, config.tol, config.domain)
    save(sparse, config.output_path)
    print(f"wrote {config.output_path}")
    print(f"degrees: {sparse.degree_x} {sparse.degree_y}")
    print(f"nonzero coefficients: {len(sparse.entries)}")
    if config.verify:
        c = Cheb2(coeffs, config.domain, config.tol)
        xs = config.domain.x_from_unit(lobatto_grid(config.degree_n).nodes)
        ys = config.domain.y_from_unit(lobatto_grid(config.degree_m).nodes)
        approx = evaluate_grid(c, xs, ys)
        exact = eval_ast(ast, xs[:, None], ys[None, :])
        residual = float(np.abs(approx - exact).max())
        print(f"max node residual: {_fmt(residual)}")
    return EXIT_OK


def cmd_export(config):
    c = to_cheb2(load(config.input_path))
    grid = config.grid_domain or c.domain
    xs = np.linspace(grid.xlo, grid.xhi, config.resolution)
    ys = np.linspace(grid.ylo, grid.yhi, config.resolution)
    compare_ast = _compare_ast(config)
    columns = _value_columns(evaluate_grid(c, xs, ys), compare_ast,
                             xs[:, None], ys[None, :])
    header = ",".join(["x", "y", "value", "reference", "abs_error"][: 2 + len(columns)])
    # x and y text once per grid line, one %-format per row
    row = "%s,%s" + ",%.17g" * len(columns) + "\n"
    fys = [_fmt(y) for y in ys]
    with open(config.output_path, "w", encoding="ascii") as sink:
        sink.write(header + "\n")
        for i, x in enumerate(xs):
            fx = _fmt(x)
            cells = zip(fys, *(column[i].tolist() for column in columns))
            sink.write("".join(row % (fx, *cell) for cell in cells))
    if compare_ast is not None:
        print(f"max_abs_error {_fmt(columns[2].max())}")
    print(f"wrote {config.resolution * config.resolution} rows to {config.output_path}")
    return EXIT_OK


_DISPATCH = {
    "approx": cmd_approx,
    "eval": cmd_eval,
    "integrate": cmd_integrate,
    "diff": cmd_diff,
    "interp": cmd_interp,
    "export": cmd_export,
}


def _add_build_options(sub):
    sub.add_argument("--domain", default=None, metavar="XLO,XHI,YLO,YHI",
                     help="approximation rectangle (default -1,1,-1,1)")
    sub.add_argument("--tol", type=float, default=None,
                     help=f"trim tolerance (default 1e-15 or ${_TOL_ENV})")
    sub.add_argument("--max-n", type=int, default=8192,
                     help="degree cap for the adaptive loop")
    sub.add_argument("--n0", type=int, default=8,
                     help="initial degree bound")
    sub.add_argument("--relative-tol", action="store_true",
                     help="scale the tolerance by the largest sampled magnitude")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bicheb",
        description="Bivariate Chebyshev approximation toolbox.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("approx", help="build an approximant from a formula")
    p.add_argument("expression", help="formula in x and y, e.g. 'cos(x*y)'")
    p.add_argument("-o", "--output", default="coeffs.json",
                   help="coefficient file to write (default coeffs.json)")
    _add_build_options(p)

    p = subs.add_parser("eval", help="evaluate a coefficient file")
    p.add_argument("input", help="coefficient file")
    p.add_argument("--point", action="append", default=[], metavar="X,Y",
                   help="evaluation point (repeatable)")
    p.add_argument("--points-file", default=None,
                   help="file with one 'x,y' pair per line")
    p.add_argument("--grid-domain", default=None, metavar="XLO,XHI,YLO,YHI",
                   help="evaluate on a grid over this rectangle instead")
    p.add_argument("--resolution", type=int, default=50,
                   help="grid points per axis (default 50)")
    p.add_argument("--compare-expr", default=None,
                   help="reference formula; adds error columns and a max line")
    p.add_argument("-o", "--output", default=None,
                   help="write values here instead of stdout")

    p = subs.add_parser("integrate", help="integrate over the domain")
    p.add_argument("input", nargs="?", default=None, help="coefficient file")
    p.add_argument("--expr", default=None,
                   help="build from this formula instead of a file")
    _add_build_options(p)

    p = subs.add_parser("diff", help="differentiate a coefficient file")
    p.add_argument("input", help="coefficient file")
    p.add_argument("--axis", choices=("x", "y"), required=True)
    p.add_argument("-o", "--output", default="deriv.json",
                   help="coefficient file to write")

    p = subs.add_parser("interp", help="interpolate a formula on the Lobatto grid")
    p.add_argument("expression", help="formula in x and y")
    p.add_argument("-n", type=int, required=True, help="degree in x")
    p.add_argument("-m", type=int, required=True, help="degree in y")
    p.add_argument("-o", "--output", default="interp.json",
                   help="coefficient file to write")
    p.add_argument("--domain", default=None, metavar="XLO,XHI,YLO,YHI")
    p.add_argument("--tol", type=float, default=None,
                   help="trim tolerance for the written file")
    p.add_argument("--verify", action="store_true",
                   help="print the largest residual at the grid nodes")

    p = subs.add_parser("export", help="export grid values as CSV")
    p.add_argument("input", help="coefficient file")
    p.add_argument("-o", "--output", required=True, help="CSV file to write")
    p.add_argument("--grid-domain", default=None, metavar="XLO,XHI,YLO,YHI",
                   help="report rectangle (default: the file's domain)")
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--compare-expr", default=None,
                   help="reference formula; adds reference and abs_error columns")

    return parser


def _config_from_args(args):
    tol = getattr(args, "tol", None)
    if tol is None:
        tol = _default_tol()
    domain = UNIT_SQUARE
    if getattr(args, "domain", None):
        domain = _parse_domain(args.domain)
    grid_domain = None
    if getattr(args, "grid_domain", None):
        grid_domain = _parse_domain(args.grid_domain)
    if args.subcommand == "integrate" and args.input is None and args.expr is None:
        raise ValidationError("integrate needs a coefficient file or --expr")
    return RunConfig(
        subcommand=args.subcommand,
        expression=getattr(args, "expression", None) or getattr(args, "expr", None),
        domain=domain,
        tol=tol,
        max_n=getattr(args, "max_n", 8192),
        n0=getattr(args, "n0", 8),
        relative=getattr(args, "relative_tol", False),
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
        resolution=getattr(args, "resolution", 50),
        points=getattr(args, "point", []),
        points_file=getattr(args, "points_file", None),
        grid_domain=grid_domain,
        compare_expr=getattr(args, "compare_expr", None),
        axis=getattr(args, "axis", "x"),
        degree_n=getattr(args, "n", 8),
        degree_m=getattr(args, "m", 8),
        verify=getattr(args, "verify", False),
    )


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return _DISPATCH[config.subcommand](config)
    except (LexError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValidationError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, SamplingError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())

"""Bivariate Chebyshev approximation via the two-dimensional FFT.

Build approximants of functions on a rectangle, evaluate, differentiate and
integrate them spectrally, interpolate on the Lobatto grid, and persist
trimmed coefficients as JSON documents.  The paper's own transform and the
tests' other oracles are in ``bicheb.paper``, which is imported explicitly.
"""

from .calculus import diff_x, diff_y, integrate
from .chebcore import (
    Cheb2,
    Domain2,
    SparseCoeffs,
    UNIT_SQUARE,
    build_adaptive,
    cheb_basis,
    document_text,
    evaluate_clenshaw,
    evaluate_grid,
    evaluate_matrix,
    lagrange_cheb_coeffs,
    load,
    parseval_indicator,
    save,
    to_cheb2,
    to_sparse,
    trim,
    truncate,
)
from .errors import (
    ChebError,
    ConvergenceError,
    DomainError,
    EvalError,
    ParseError,
    SamplingError,
    ValidationError,
)
from .exprparse import eval_ast, parse_expression

__version__ = "0.1.0"

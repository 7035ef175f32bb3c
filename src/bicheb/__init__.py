"""Bivariate Chebyshev approximation via the two-dimensional FFT.

Build approximants of functions on a rectangle, evaluate, differentiate and
integrate them spectrally, interpolate on the Lobatto grid, and persist
trimmed coefficients as JSON documents.  The paper's own transform and the
tests' other oracles are in ``bicheb.paper``, which is imported explicitly.

The namespace is lazy (PEP 562): ``import bicheb`` loads no submodule, and
the first lookup of a public name loads the module that defines it, so a
process compiles only the modules it uses.
"""

__version__ = "0.1.0"

# Each module and the public names it defines.
_MODULES = {
    "builder": ("build_adaptive", "parseval_indicator"),
    "calculus": ("diff_x", "diff_y", "integrate"),
    "chebcore": ("Cheb2", "Domain2", "SparseCoeffs", "UNIT_SQUARE", "cheb_basis",
                 "document_text", "evaluate_clenshaw", "evaluate_grid",
                 "evaluate_matrix", "lagrange_cheb_coeffs", "load", "save",
                 "to_cheb2", "to_sparse", "trim", "truncate"),
    "errors": ("ChebError", "ConvergenceError", "DomainError", "EvalError",
               "ParseError", "SamplingError", "ValidationError"),
    "exprparse": ("eval_ast", "parse_expression"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name, from its module, imported on this first lookup; the
    name is then bound here, so later lookups find it without this call."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which python -X importtime reports,
    # as it does not importlib.import_module's
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

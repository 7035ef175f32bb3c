"""Fixed inputs of the three workloads: functions, tolerances and sizes.

Only the seed varies between runs; it picks check points, scattered query
points, grid coordinates and the CLI points file.  The ``smoke`` profile
swaps the two expensive bump cases for a wide bump and shrinks the point
counts, so the smoke test can run every workload in a few seconds.
"""

from dataclasses import dataclass

import numpy as np

RUNGE_FORMULA = "1/(1+25*(x^2+y^2))"


def cosxy(x, y):
    return np.cos(x * y)


def example2(x, y):
    return np.cos(10.0 * x * y ** 2) + np.exp(-x ** 2)


def runge(x, y):
    return 1.0 / (1.0 + 25.0 * (x ** 2 + y ** 2))


def sin60cos50(x, y):
    return np.sin(60.0 * x) * np.cos(50.0 * y)


def sin80(x, y):
    return np.sin(80.0 * x) + 0.0 * y


def bump(x, y):
    return np.exp(-5000.0 * ((x - 0.31) ** 2 + (y + 0.17) ** 2))


def wide_bump(x, y):
    return np.exp(-50.0 * ((x - 0.31) ** 2 + (y + 0.17) ** 2))


@dataclass(frozen=True)
class Case:
    """One function built by ``build_adaptive`` at a fixed tolerance.

    limit is the largest max-abs error on the check grid that still counts
    as correct: about 20x the largest error measured over 40 check-grid
    seeds when the benchmark was introduced.
    """

    f: object
    tol: float
    relative: bool
    limit: float


# Size group each case is timed in: "small" is one pass over four cheap
# builds, "mid" the Runge build, "large" the narrow bump.
BUILD_GROUPS = {
    "small": ("cosxy", "example2", "sin60cos50", "sin80"),
    "mid": ("runge",),
    "large": ("bump",),
}


def build_cases(smoke=False):
    return {
        "cosxy": Case(cosxy, 1e-15, False, 5e-14),
        "example2": Case(example2, 1e-15, False, 1e-13),
        "sin60cos50": Case(sin60cos50, 1e-14, True, 3e-12),
        "sin80": Case(sin80, 1e-14, True, 3e-13),
        "runge": Case(runge, 1e-14, True, 6e-11),
        "bump": (Case(wide_bump, 1e-14, True, 3e-10) if smoke
                 else Case(bump, 1e-14, True, 3e-10)),
    }


# Query documents in pass order, with the size group each is reported in.
# The bump document is built at absolute 1e-15, which gives 691x714
# coefficients (366k stored entries, 14.6 MB of text).
QUERY_DOCS = ("sin60cos50", "runge", "bump")
QUERY_GROUPS = {"small": "sin60cos50", "mid": "runge", "large": "bump"}


def query_specs(smoke=False):
    """name -> (callable, tol, relative, scattered points per pass)."""
    return {
        "sin60cos50": (sin60cos50, 1e-14, True, 100 if smoke else 1000),
        "runge": (runge, 1e-14, True, 100 if smoke else 1000),
        "bump": ((wide_bump if smoke else bump), 1e-15, False,
                 20 if smoke else 200),
    }


QUERY_GRID = 200          # tensor grid is QUERY_GRID x QUERY_GRID per document
QUERY_ORACLE_POINTS = 20  # points per document checked against Clenshaw
QUERY_ORACLE_LIMIT = 5e-14  # also bounds evaluate_grid against evaluate_matrix
CHECK_GRID = 48           # build check grid is CHECK_GRID x CHECK_GRID

CLI_POINTS = 2500
CLI_EXPORT_RESOLUTION = 200
CLI_INTERP_DEGREE = 128
CLI_ERROR_LIMIT = 5e-11      # reported max_abs_error of eval and export
CLI_RESIDUAL_LIMIT = 3e-13   # interp --verify node residual
CLI_DIFF_LIMIT = 5e-9        # written x derivative against the exact one
CLI_INTEGRAL_LIMIT = 5e-13   # integrate against a Gauss-Legendre rule


def rng(seed, stream):
    """Independent generator per input stream, fixed by the seed."""
    return np.random.default_rng([int(seed), stream])


def check_grid(seed):
    r = rng(seed, 1)
    xs = np.sort(r.uniform(-1.0, 1.0, CHECK_GRID))
    ys = np.sort(r.uniform(-1.0, 1.0, CHECK_GRID))
    return xs, ys

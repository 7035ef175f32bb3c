"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import io
import time

import numpy as np
import pytest

import bicheb as bc
import bicheb.paper as bp

from conftest import f_cosxy, f_example2

COSXY_DISTINCT_VALUES = {
    (0, 0): 0.880725579,
    (2, 0): -0.117388011,
    (2, 2): -0.114883808,
    (4, 0): 0.001873213,
    (4, 2): 0.002484444,
    (4, 4): 0.000603385,
}
FOUR_SI_ONE = 3.78433228147


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} -- {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_coefficient_table():
    started = time.perf_counter()
    c = bc.build_adaptive(f_cosxy, 1e-15)
    elapsed = time.perf_counter() - started
    worst = max(abs(c.coeffs[i, j] - v)
                for (i, j), v in COSXY_DISTINCT_VALUES.items())
    odd = max(np.abs(c.coeffs[1::2, :]).max(), np.abs(c.coeffs[:, 1::2]).max())
    ok = worst <= 1e-6 and odd <= 1e-12 and elapsed < 1.0
    _report(1, ok,
            f"coeff deviation {worst:.2e} (tol 1e-6), odd entries {odd:.2e} "
            f"(tol 1e-12), build time {elapsed:.3f}s (< 1s)")


def test_criterion_2_truncation_error(cosxy):
    started = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 50)
    exact = np.cos(np.outer(xs, xs))
    truncated = bc.truncate(cosxy, 4, 4)
    err_truncated = np.abs(bc.evaluate_grid(truncated, xs, xs) - exact).max()
    err_full = np.abs(bc.evaluate_grid(cosxy, xs, xs) - exact).max()
    elapsed = time.perf_counter() - started
    ok = (abs(err_truncated - 0.000082141) <= 2e-5
          and err_full <= 1e-10 and elapsed < 1.0)
    _report(2, ok,
            f"truncated grid error {err_truncated:.9f} (0.000082141 +/- 2e-5), "
            f"full error {err_full:.2e} (<= 1e-10), time {elapsed:.3f}s (< 1s)")


def test_criterion_3_quadrature():
    started = time.perf_counter()
    value_1 = bc.integrate(bc.build_adaptive(f_cosxy, 1e-15))
    value_2 = bc.integrate(bc.build_adaptive(f_example2, 1e-15))
    elapsed = time.perf_counter() - started
    dev_1 = abs(value_1 - FOUR_SI_ONE)
    # the value integrated from the displayed 5x5 corner lies in the band too
    dev_corner = abs(3.784330902 - FOUR_SI_ONE)
    dev_2 = abs(value_2 - 4.590369905)
    ok = (dev_1 <= 1e-4 and dev_corner <= 1e-4 and dev_2 <= 1e-6
          and elapsed < 2.0)
    _report(3, ok,
            f"cos(xy) integral {value_1:.11f} (+/- 1e-4 of {FOUR_SI_ONE}), "
            f"corner value off by {dev_corner:.2e}, "
            f"second integral off by {dev_2:.2e} (<= 1e-6), "
            f"time {elapsed:.3f}s (< 2s)")


def test_criterion_4_adaptive_sizing(example2):
    rows = example2.degree_x + 1
    cols = example2.degree_y + 1
    ok = 25 <= rows <= 70 and 25 <= cols <= 70
    _report(4, ok,
            f"retained block {rows}x{cols}, within one doubling of 33x43")


def test_criterion_5_indicator(cosxy, example2):
    truncated = bc.truncate(cosxy, 4, 4)
    ind_truncated = bc.parseval_indicator(truncated, f_cosxy)
    ind_full = bc.parseval_indicator(example2, f_example2)
    ok = (3.97247e-11 <= ind_truncated <= 3.97247e-9
          and abs(ind_full) <= 1e-12)
    _report(5, ok,
            f"truncated indicator {ind_truncated:.5e} "
            f"(within one order of 3.97247e-10), "
            f"full indicator {ind_full:.2e} (<= 1e-12)")


def test_criterion_6_property_suite(cosxy, cosxy_alpha32):
    started = time.perf_counter()
    checks = []

    # transform against the naive oracle on all power-of-two sizes up to 64
    rng = np.random.default_rng(64)
    worst = 0.0
    sizes = (1, 2, 4, 8, 16, 32, 64)
    for p in sizes:
        for q in sizes:
            x = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            gap = np.abs(bp.fft2(x) - bp.dft2_naive(x)).max()
            worst = max(worst, gap / (np.abs(x).max() * p * q))
    checks.append(("fft oracle", worst <= 1e-10, f"{worst:.2e} <= 1e-10"))

    # transform-path coefficients against the quadrature oracle
    worst = max(abs(cosxy_alpha32[k, j]
                    - bp.coeffs_by_quadrature(f_cosxy, k, j, 512))
                for k in range(9) for j in range(9))
    checks.append(("coeff quadrature", worst <= 1e-8, f"{worst:.2e} <= 1e-8"))

    # second-derivative decay bounds with unit analytic bounds
    excess = bp.decay_bound_excess(cosxy, bp.DecayBounds(1.0, 1.0, 1.0))
    checks.append(("decay bounds", excess <= 0.0, f"excess {excess:.2e} <= 0"))

    # derivative recurrence residuals
    a = cosxy.coeffs
    b = np.zeros((cosxy.degree_x + 2, cosxy.degree_y + 1))
    derivative = bc.diff_x(cosxy).coeffs
    b[: derivative.shape[0]] = derivative
    residual = np.abs(b[0] - 0.5 * b[2] - a[1]).max()
    for k in range(2, cosxy.degree_x + 1):
        residual = max(residual,
                       np.abs((b[k - 1] - b[k + 1]) / (2.0 * k) - a[k]).max())
    checks.append(("recurrence residual", residual <= 1e-12,
                   f"{residual:.2e} <= 1e-12"))

    # mixed partials commute
    gap = np.abs(bc.diff_y(bc.diff_x(cosxy)).coeffs
                 - bc.diff_x(bc.diff_y(cosxy)).coeffs).max()
    checks.append(("mixed partials", gap <= 1e-10, f"{gap:.2e} <= 1e-10"))

    # interpolation matches the function at the grid nodes
    coeffs = bc.lagrange_cheb_coeffs(f_cosxy, 8, 8)
    nodes = bp.lobatto_grid(8).nodes
    residual = np.abs(bc.evaluate_grid(bc.Cheb2(coeffs), nodes, nodes)
                      - np.cos(np.outer(nodes, nodes))).max()
    checks.append(("node residuals", residual <= 1e-11,
                   f"{residual:.2e} <= 1e-11"))

    # aliasing folds reproduce the interpolation coefficients
    gap = np.abs(bp.aliasing_coeffs(cosxy_alpha32, 4, 4)
                 - bc.lagrange_cheb_coeffs(f_cosxy, 4, 4)).max()
    checks.append(("aliasing equivalence", gap <= 1e-9, f"{gap:.2e} <= 1e-9"))

    # serialization round trip is bitwise stable
    sparse = bc.to_sparse(cosxy)
    text = bc.document_text(sparse)
    reloaded = bc.load(io.StringIO(text))
    stable = (bc.document_text(reloaded) == text
              and np.array_equal(bc.to_cheb2(reloaded).coeffs, cosxy.coeffs))
    checks.append(("serialization", stable, "bitwise round trip"))

    elapsed = time.perf_counter() - started
    checks.append(("property runtime", elapsed < 30.0,
                   f"{elapsed:.2f}s < 30s"))

    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    detail = "; ".join(f"{name} {detail}" for name, ok, detail in checks)
    _report(6, not failed, detail)


def test_criterion_7_convergence_as_inequalities(cosxy, cosxy_alpha32):
    # monotone truncation error on a fixed grid
    xs = np.linspace(-1.0, 1.0, 50)
    exact = np.cos(np.outer(xs, xs))
    errors = []
    for n in (4, 8, 16):
        t = bc.truncate(cosxy, n, n)
        errors.append(np.abs(bc.evaluate_grid(t, xs, xs) - exact).max())
    monotone = (errors[1] <= errors[0] + 1e-14
                and errors[2] <= errors[1] + 1e-14)

    # interpolant-vs-truncation gap bounded by the tail mass
    gap = bp.interp_error_bound_gap(cosxy_alpha32, 4, 4)
    interpolant = bc.Cheb2(bc.lagrange_cheb_coeffs(f_cosxy, 4, 4))
    series = bc.Cheb2(cosxy_alpha32[:5, :5])
    observed = np.abs(bc.evaluate_grid(interpolant, xs, xs)
                      - bc.evaluate_grid(series, xs, xs)).max()
    bounded = observed <= gap + 1e-12

    ok = monotone and bounded
    _report(7, ok,
            f"errors {errors[0]:.2e} >= {errors[1]:.2e} >= {errors[2]:.2e} "
            f"(monotone), interpolation gap {observed:.2e} <= bound {gap:.2e}")

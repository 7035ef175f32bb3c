"""Tests for approximant construction, evaluation, quality and persistence."""

import copy
import gc
import io
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import bicheb as bc
import bicheb.paper as bp
from bicheb.errors import (
    ConvergenceError,
    DomainError,
    EvalError,
    ParseError,
    SamplingError,
    ValidationError,
)

from bicheb import builder, chebcore

from conftest import f_cosxy, f_example2

# published reference values for the cos(x y) coefficient corner
COSXY_CORNER = {
    (0, 0): 0.880725579,
    (2, 0): -0.117388011,
    (0, 2): -0.117388011,
    (2, 2): -0.114883808,
    (4, 0): 0.001873213,
    (0, 4): 0.001873213,
    (4, 2): 0.002484444,
    (2, 4): 0.002484444,
    (4, 4): 0.000603385,
}


def narrow_bump(x, y):
    return np.exp(-5000.0 * ((x - 0.31) ** 2 + (y + 0.17) ** 2))


def runge(x, y):
    return 1.0 / (1.0 + 25.0 * (x ** 2 + y ** 2))


class TestPackage:
    def test_public_names(self):
        # the parser's tokens and AST nodes stay in bicheb.exprparse
        names = sorted(name for name in dir(bc) if not name.startswith("_")
                       and not isinstance(getattr(bc, name), types.ModuleType))
        assert names == [
            "Cheb2", "ChebError", "ConvergenceError", "Domain2", "DomainError",
            "EvalError", "ParseError", "SamplingError", "SparseCoeffs",
            "UNIT_SQUARE", "ValidationError",
            "build_adaptive", "cheb_basis", "diff_x", "diff_y",
            "document_text", "eval_ast", "evaluate_clenshaw", "evaluate_grid",
            "evaluate_matrix", "integrate", "lagrange_cheb_coeffs", "load",
            "parse_expression", "parseval_indicator", "save", "to_cheb2",
            "to_sparse", "trim", "truncate"]


class TestChebT:
    # T_k(x) is the last entry of cheb_vector(k, x)
    def test_degree_zero_is_one(self):
        assert bp.cheb_vector(0, 0.37)[0] == 1.0

    def test_degree_two(self):
        assert bp.cheb_vector(2, 0.5)[2] == pytest.approx(-0.5, abs=1e-15)

    def test_degree_three(self):
        assert bp.cheb_vector(3, 0.8)[3] == pytest.approx(-0.352, abs=1e-12)

    def test_clamps_tiny_overshoot(self):
        assert bp.cheb_vector(5, 1.0 + 1e-13)[5] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_material_overshoot(self):
        with pytest.raises(DomainError):
            bp.cheb_vector(2, 1.1)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValidationError):
            bp.cheb_vector(-1, 0.0)


class TestChebVector:
    def test_all_ones_at_one(self):
        assert np.allclose(bp.cheb_vector(2, 1.0), [1, 1, 1], atol=1e-15)

    def test_alternating_at_minus_one(self):
        assert np.allclose(bp.cheb_vector(3, -1.0), [1, -1, 1, -1], atol=1e-15)

    def test_pattern_at_zero(self):
        assert np.allclose(bp.cheb_vector(4, 0.0), [1, 0, -1, 0, 1], atol=1e-15)

    def test_matches_cheb_t(self):
        v = bp.cheb_vector(7, 0.3)
        for k in range(8):
            assert v[k] == pytest.approx(bp.cheb_vector(k, 0.3)[k], abs=1e-14)

    def test_rejects_nan(self):
        # NaN fails every comparison, so it must not reach the clamp, which
        # would turn it into -1 and return T_k(-1)
        with pytest.raises(DomainError):
            bp.cheb_vector(3, float("nan"))


class TestChebBasis:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 142, 700])
    def test_rows_are_cheb_vector_bit_for_bit(self, n):
        t = np.concatenate(([-1.0, 0.0, 1.0],
                            np.random.default_rng(n).uniform(-1.0, 1.0, 61)))
        basis = bc.cheb_basis(n, t)
        assert basis.shape == (t.size, n + 1) and basis.flags.c_contiguous
        assert np.array_equal(basis, [bp.cheb_vector(n, x) for x in t])

    @pytest.mark.parametrize("shape", [(6, 10), (10, 6), (1, 4), (7, 7)])
    def test_evaluators_equal_a_basis_per_axis(self, shape):
        # one recurrence for both axes gives the values of one per axis,
        # over two blocks of evaluate_matrix
        rng = np.random.default_rng(shape[0])
        c = bc.Cheb2(rng.standard_normal(shape))
        block = chebcore._EVAL_BLOCK
        xs, ys = rng.uniform(-1.0, 1.0, 2 * block), rng.uniform(-1.0, 1.0, 37)
        grid = bc.cheb_basis(c.degree_x, xs) @ c.coeffs @ bc.cheb_basis(c.degree_y, ys).T
        assert np.array_equal(bc.evaluate_grid(c, xs, ys), grid)
        ys = rng.uniform(-1.0, 1.0, xs.size)
        values = np.concatenate([
            np.einsum("ij,ij->i", bc.cheb_basis(c.degree_x, xs[k:k + block]) @ c.coeffs,
                      bc.cheb_basis(c.degree_y, ys[k:k + block]))
            for k in (0, block)])
        assert np.array_equal(bc.evaluate_matrix(c, xs, ys), values)

    @pytest.mark.parametrize("call", [
        lambda: bp.cheb_vector(2.5, 0.1),
        lambda: bc.cheb_basis(2.5, [0.1]),
        lambda: bp.cheb_vector(True, 0.1),
        lambda: bc.cheb_basis(True, [0.1]),
        lambda: bc.cheb_basis(-1, [0.1]),
    ], ids=["vector-float", "basis-float", "vector-bool", "basis-bool",
            "basis-negative"])
    def test_degree_must_be_a_nonnegative_integer(self, call):
        with pytest.raises(ValidationError, match="degree must be"):
            call()

    def test_numpy_integer_degree(self):
        assert np.array_equal(bp.cheb_vector(np.int64(3), 0.3), bp.cheb_vector(3, 0.3))
        assert np.array_equal(bc.cheb_basis(np.int64(3), [0.3]), bc.cheb_basis(3, [0.3]))

    def test_leading_columns_are_the_lower_degree_basis(self):
        # the builder's period of check bases rests on this: T_k's bits do
        # not depend on how far the recurrence runs past k
        t = np.concatenate(([-1.0, 0.0, 1.0], builder._CHECK_NODES,
                            np.random.default_rng(5).uniform(-1.0, 1.0, 29)))
        full = bc.cheb_basis(700, t)
        for d in (0, 1, 2, 3, 64, 129, 699):
            assert np.array_equal(full[:, :d + 1], bc.cheb_basis(d, t))

    def test_check_table_rows_are_cheb_basis(self):
        # below 132, views of the period, with cheb_basis's bits
        for d in (0, 1, 5, 123, 131):
            basis = builder._check_basis(d)
            assert basis.base is builder._CHECK_PERIOD and not basis.flags.writeable
            assert basis.tobytes() == bc.cheb_basis(d, builder._CHECK_NODES).T.tobytes()

    @pytest.mark.parametrize("d", [131, 132, 683, 4096, 8192])
    def test_check_basis_repeats_the_period(self, d):
        basis = builder._check_basis(d)
        assert basis.shape == (d + 1, 32)
        assert np.array_equal(basis, builder._CHECK_PERIOD[np.arange(d + 1) % 132])

    def test_check_basis_rows_are_the_exact_cosines(self):
        # T_k(cos t) = cos(k t) at t = (2i + 1) pi / 66, with k (2i + 1)
        # reduced mod 132 before the cosine, so the exact value is rounded
        # once; the recurrence alone drifts to 1.5e-12 by degree 4096
        odd = 2 * np.delete(np.arange(33), 16) + 1
        k = np.arange(8193)[:, None]
        exact = np.cos((k * odd % 132) * np.pi / 66)
        assert np.abs(builder._check_basis(8192) - exact).max() <= 1e-13


class TestSampleGrid:
    def test_constant(self):
        grid = bp.sample_grid(lambda x, y: 5.0, 4)
        assert grid.shape == (4, 4)
        assert np.all(grid == 5.0)

    def test_coordinate_function_column_pattern(self):
        grid = bp.sample_grid(lambda x, y: x + 0.0 * y, 4)
        expected = np.repeat(np.array([1.0, 0.0, -1.0, 0.0])[:, None], 4, axis=1)
        assert np.allclose(grid, expected, atol=1e-12)

    def test_matches_direct_evaluation(self):
        grid = bp.sample_grid(f_cosxy, 16)
        u = np.cos(2 * np.pi * np.arange(16) / 16)
        direct = np.cos(np.outer(u, u))
        assert np.abs(grid - direct).max() < 1e-14

    def test_symmetry_is_exact(self):
        m = 16
        grid = bp.sample_grid(f_cosxy, m)
        mirror = (m - np.arange(m)) % m
        assert np.array_equal(grid, grid[mirror, :])
        assert np.array_equal(grid, grid[:, mirror])

    def test_scalar_fallback_matches_vectorized(self):
        vec = bp.sample_grid(f_cosxy, 8)
        loop = bp.sample_grid(lambda x, y: float(np.cos(x * y)), 8)
        assert np.array_equal(vec, loop)

    def test_non_finite_sample_names_node(self):
        def bad(x, y):
            return np.where(x > 0.9, np.nan, 1.0) + 0.0 * y

        with pytest.raises(SamplingError, match="node"):
            bp.sample_grid(bad, 8)

    def test_rejects_bad_size(self):
        with pytest.raises(ValidationError):
            bp.sample_grid(f_cosxy, 12)
        with pytest.raises(ValidationError):
            bp.sample_grid(f_cosxy, 1)

    def test_domain_mapping(self):
        domain = bc.Domain2(0.0, 2.0, -1.0, 3.0)
        grid = bp.sample_grid(lambda x, y: x + 10.0 * y, 4, domain)
        # node 0 maps to (xhi, yhi)
        assert grid[0, 0] == pytest.approx(2.0 + 30.0, abs=1e-12)


class TestCoeffsFromSamples:
    def test_constant_is_pure_dc(self):
        grid = bp.sample_grid(lambda x, y: 1.0, 16)
        a = bp.coeffs_from_samples(grid, 7)
        assert a[0, 0] == pytest.approx(1.0, abs=1e-14)
        a[0, 0] = 0.0
        assert np.abs(a).max() <= 1e-14

    def test_separable_basis_product(self):
        def f(x, y):
            return (2 * x ** 2 - 1) * (4 * y ** 3 - 3 * y)

        a = bp.coeffs_from_samples(bp.sample_grid(f, 16), 7)
        assert a[2, 3] == pytest.approx(1.0, abs=1e-12)
        a[2, 3] = 0.0
        assert np.abs(a).max() <= 1e-12

    def test_cosxy_reference_corner(self):
        a = bp.coeffs_from_samples(bp.sample_grid(f_cosxy, 32), 15)
        for (i, j), v in COSXY_CORNER.items():
            assert a[i, j] == pytest.approx(v, abs=1e-6)
        odd = np.abs(a[1::2, :]).max()
        odd = max(odd, np.abs(a[:, 1::2]).max())
        assert odd <= 1e-12

    def test_rejects_undersized_grid(self):
        grid = bp.sample_grid(f_cosxy, 16)
        with pytest.raises(ValidationError):
            bp.coeffs_from_samples(grid, 8)  # needs m >= 18
        with pytest.raises(ValidationError):
            bp.coeffs_from_samples(grid, 0)


class TestLobatto:
    def test_nodes_nest_bit_for_bit(self):
        for n in (1, 2, 3, 8, 100, 1024):
            assert np.array_equal(chebcore.lobatto_nodes(2 * n)[::2],
                                  chebcore.lobatto_nodes(n))

    def test_power_of_two_nodes_are_kept_read_only(self):
        for k in range(13):
            nodes = chebcore.lobatto_nodes(2 ** k)
            assert not nodes.flags.writeable
            assert nodes.base is chebcore._kept_nodes()
            assert nodes.tobytes() == chebcore._computed_nodes(2 ** k).tobytes()
            with pytest.raises(ValueError):
                nodes[0] = 0.0
        assert chebcore._kept_nodes().nbytes <= 64 * 1024

    @pytest.mark.parametrize("n", [3, 100, 1000, 8192])
    def test_other_nodes_are_not_kept(self, n):
        first, second = chebcore.lobatto_nodes(n), chebcore.lobatto_nodes(n)
        assert first is not second and first.base is None and second.base is None
        assert first.flags.writeable and np.array_equal(first, second)
        assert chebcore._kept_nodes().size == 4097

    def test_import_computes_no_nodes(self):
        # in a fresh interpreter: the kept nodes wait for the first
        # power-of-two call, which computes them once
        script = (
            "import bicheb.builder, bicheb.chebcore as cc, bicheb.cli\n"
            "assert cc._kept_nodes.cache_info().misses == 0\n"
            "nodes = cc.lobatto_nodes(8)\n"
            "assert not nodes.flags.writeable and nodes.base is cc._kept_nodes()\n"
            "assert nodes.base.size == 4097 and not nodes.base.flags.writeable\n"
            "assert nodes.tobytes() == cc._computed_nodes(8).tobytes()\n"
            "cc.lobatto_nodes(4096)\n"
            "assert cc._kept_nodes.cache_info().misses == 1\n")
        env = dict(os.environ)
        src = str(Path(bc.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", script], env=env, timeout=60, check=True)

    def test_second_axis_runs_in_place(self):
        # one grid besides the input, and one chunk's buffers of 256 KiB each
        values = np.random.default_rng(4).standard_normal((513, 1025))
        tracemalloc.start()
        try:
            coeffs = chebcore._lobatto_coeffs(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * coeffs.nbytes

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("chunk", [1, 40, chebcore._CHUNK_ENTRIES])
    def test_split_matches_serial(self, monkeypatch, cpus, chunk):
        # chunks of one row up to the default size, with a short last
        # chunk, and the transform called from cpus threads at once with
        # frequent thread switches: a chunk lost or taken twice, or a buffer
        # shared between calls, would leave garbage or break the bit-for-bit
        # match with one chunk on one thread
        rng = np.random.default_rng(11)
        cases = [rng.standard_normal(shape)
                 for shape in ((9, 17), (17, 9), (33, 33), (257, 257))]
        monkeypatch.setattr(chebcore, "_CHUNK_ENTRIES", 2 ** 30)
        serial = [chebcore._lobatto_coeffs(values) for values in cases]
        monkeypatch.setattr(chebcore, "_CHUNK_ENTRIES", chunk)
        results = [[None] * len(cases) for _ in range(cpus)]

        def transform_all(slot):
            for k, values in enumerate(cases):
                results[slot][k] = chebcore._lobatto_coeffs(values)

        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=transform_all, args=(slot,))
                       for slot in range(cpus)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join()
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads  # every caller joined
        for got_all in results:
            for got, expected in zip(got_all, serial):
                assert got is not None
                assert got.flags.c_contiguous
                assert np.array_equal(got, expected)

    def test_f_runs_only_on_the_calling_thread(self):
        callers = set()

        def runge(x, y):
            callers.add(threading.current_thread())
            return 1.0 / (1.0 + 25.0 * (x ** 2 + y ** 2))

        c = bc.build_adaptive(runge, 1e-14, relative=True)
        bc.parseval_indicator(c, runge)
        assert callers == {threading.current_thread()}


class TestBuildAdaptive:
    def test_constant_collapses_to_single_coefficient(self):
        c = bc.build_adaptive(lambda x, y: 3.5, 1e-15)
        assert (c.degree_x, c.degree_y) == (0, 0)
        assert c.coeffs[0, 0] == pytest.approx(3.5, abs=1e-14)

    def test_cosxy_corner(self, cosxy):
        for (i, j), v in COSXY_CORNER.items():
            assert cosxy.coeffs[i, j] == pytest.approx(v, abs=1e-6)

    def test_example2_block_size(self, example2):
        assert 25 <= example2.degree_x + 1 <= 70
        assert 25 <= example2.degree_y + 1 <= 70

    def test_exactly_representable_polynomial_recovered(self):
        rng = np.random.default_rng(7)
        target = rng.uniform(-1.0, 1.0, size=(5, 5))
        reference = bc.Cheb2(target)

        def f(x, y):
            return bc.evaluate_matrix(reference, x, y)

        c = bc.build_adaptive(f, 1e-15)
        assert c.coeffs.shape == (5, 5)
        assert np.abs(c.coeffs - target).max() <= 1e-12
        pts = rng.uniform(-1.0, 1.0, size=(100, 2))
        for x, y in pts:
            assert bc.evaluate_matrix(c, x, y) == pytest.approx(f(x, y), abs=1e-11)

    def test_relative_tolerance_mode(self):
        c = bc.build_adaptive(lambda x, y: 1e6 * np.cos(x * y), 1e-15,
                              relative=True)
        assert c.tol == pytest.approx(1e-9, rel=1e-6)
        assert c.coeffs[0, 0] == pytest.approx(1e6 * 0.880725579, rel=1e-6)

    def test_coefficients_match_paper_transform(self, monkeypatch):
        # on every Lobatto grid of degree N the builder samples, the leading
        # N x N block of the transform's coefficients is that of the paper's
        # radix-2 FFT over the periodicized grid of m = 2N points
        def runge(x, y):
            return 1.0 / (1.0 + 25.0 * (x ** 2 + y ** 2))

        grids = recording_grids(monkeypatch)
        transformed = recording_transforms(monkeypatch)
        bc.build_adaptive(runge, 1e-14, relative=True)
        degrees = [len(values) - 1 for values in grids]
        assert degrees == [8, 16, 32, 64, 128, 256]
        # the tail estimates prove that the 129 x 129 pass fails: it takes
        # no transform
        assert transformed == [8, 16, 32, 64, 256]
        for n, values in zip(degrees, grids):
            block = chebcore._lobatto_coeffs(values)
            assert block.shape == (n + 1, n + 1)
            paper = bp.coeffs_from_samples(bp.sample_grid(runge, 2 * n), n - 1)
            assert np.abs(block[:n, :n] - paper).max() <= 1e-15

    def test_samples_each_node_once(self):
        # over all the calls of one build: every node of the final Lobatto
        # grid exactly once, the previous grids' nodes reused, plus the
        # off-grid check points
        points = []

        def recorder(x, y):
            xb, yb = np.broadcast_arrays(x, y)
            points.extend(zip(xb.ravel().tolist(), yb.ravel().tolist()))
            return np.cos(x * y)

        bc.build_adaptive(recorder, 1e-15)
        assert len(set(points)) == len(points)
        check = builder._CHECK_NODES.tolist()
        on_grid = {x for x, _ in points} - set(check)
        final = chebcore.lobatto_nodes(len(on_grid) - 1).tolist()
        assert set(points) == ({(x, y) for x in final for y in final}
                               | {(x, y) for x in check for y in check})
        assert len(points) == len(final) ** 2 + len(check) ** 2

    def test_overflow_stops_at_the_first_pass(self):
        # finite samples whose transform overflows: one ValidationError after
        # the first grid's one call of f, and no numpy warning
        shapes = []

        def f(x, y):
            shapes.append(np.broadcast(x, y).shape)
            return np.full(shapes[-1], 1e308)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match="transform overflowed at degree bound 8"):
                bc.build_adaptive(f, 1e-15)
        assert shapes == [(9, 9)]

    def test_error_on_arrays_is_not_retried_per_node(self):
        calls = []

        def f(x, y):
            calls.append(np.shape(x))
            raise EvalError("log of a nonpositive value", "log(x)")

        with pytest.raises(EvalError):
            bc.build_adaptive(f, 1e-15)
        assert len(calls) == 1

    def test_scalar_only_callable_still_builds(self, cosxy):
        c = bc.build_adaptive(lambda x, y: math.cos(x * y), 1e-15)
        assert c.coeffs.shape == cosxy.coeffs.shape
        assert np.abs(c.coeffs - cosxy.coeffs).max() <= 1e-15

    def test_no_convergence_carries_tail(self):
        with pytest.raises(ConvergenceError) as info:
            bc.build_adaptive(lambda x, y: np.abs(x) + 0.0 * y, 1e-15, max_n=16)
        assert info.value.tail_magnitude > 0

    @pytest.mark.parametrize("tol", [1e-10, 1e-15])
    def test_narrow_bump_between_nodes_is_resolved(self, tol):
        # the coarse grids miss the bump, so their tails pass; the off-grid
        # check must reject them rather than return a zero approximant
        c = bc.build_adaptive(narrow_bump, tol)
        assert c.degree_x + 1 > 400 and c.degree_y + 1 > 400
        g = np.linspace(-1.0, 1.0, 101)
        exact = narrow_bump(g[:, None], g[None, :])
        assert np.abs(bc.evaluate_grid(c, g, g) - exact).max() <= 1e-6

    def test_missed_feature_at_the_cap_names_the_misfit(self):
        with pytest.raises(ConvergenceError, match="off-grid misfit"):
            bc.build_adaptive(narrow_bump, 1e-10, max_n=16)

    @pytest.mark.parametrize("f, tol, max_n, message", [
        (lambda x, y: np.abs(x) + np.abs(y), 1e-15, 64,
         r"coefficient tail (\S+) still at or above 1\.000e-15 at degree bound 64"),
        (lambda x, y: np.sin(80.0 * x) * np.cos(y / 2.0), 1e-15, 64,
         r"coefficient tail (\S+) in x still at or above 1\.000e-15 "
         r"at degree bounds 64 x 16"),
        (narrow_bump, 1e-10, 16,
         r"off-grid misfit \S+ above \S+ although the coefficient tail (\S+) "
         r"passed against 1\.000e-10 at degree bound 16"),
    ], ids=["tail", "tail-in-x", "check"])
    def test_failure_message_shapes(self, f, tol, max_n, message):
        # each kind of failure at the cap gives its reason in one shape, and
        # the tail it prints is tail_magnitude's
        with pytest.raises(ConvergenceError) as info:
            bc.build_adaptive(f, tol, max_n=max_n)
        match = re.fullmatch(message, str(info.value))
        assert match and match[1] == f"{info.value.tail_magnitude:.3e}"

    @pytest.mark.parametrize("f, tol, relative, calls", [
        # the tensor passes' tails fail up to 257 x 257, the slices pass at
        # 513, and the check comes after them
        (narrow_bump, 1e-14, True,
         [(9, 9), (8, 17), (9, 8), (16, 33), (17, 16), (32, 65), (33, 32),
          (64, 129), (65, 64), (128, 257), (129, 128), (256, 1), (1, 256),
          (512, 1), (1, 512), (32, 32)]),
        # the first pass's tails pass and its check rejects it; phase 2's
        # result is checked against the same samples
        (narrow_bump, 1e-10, False,
         [(9, 9), (32, 32), (8, 17), (9, 8), (16, 33), (17, 16), (32, 65),
          (33, 32), (64, 129), (65, 64), (128, 257), (129, 128), (256, 1),
          (1, 256), (1, 512)]),
        (lambda x, y: np.cos(x * y), 1e-15, False,
         [(9, 9), (8, 17), (9, 8), (32, 32)]),
    ], ids=["bump-relative", "bump-absolute", "cosxy"])
    def test_check_samples_are_taken_once_at_the_first_check(
            self, f, tol, relative, calls):
        shapes = []

        def sampled(x, y):
            shapes.append(np.broadcast(x, y).shape)
            return f(x, y)

        bc.build_adaptive(sampled, tol, relative=relative)
        assert shapes == calls

    def test_check_points_are_off_every_power_of_two_grid(self):
        check = builder._CHECK_NODES
        assert check.size == 32
        for k in range(1, 14):
            nodes = chebcore.lobatto_nodes(2 ** k)
            assert np.abs(check[:, None] - nodes[None, :]).min() > 0

    @pytest.mark.parametrize("f", [lambda x, y: 0.0 * x * y,
                                   lambda x, y: 1e-20 * x + 0.0 * y])
    def test_negligible_function_is_one_zero_coefficient(self, f):
        c = bc.build_adaptive(f, 1e-15)
        assert c.coeffs.shape == (1, 1) and c.coeffs[0, 0] == 0.0

    def test_zero_function_converges_with_relative_tolerance(self):
        # the threshold is tol * 0 = 0; the zero tail must still pass
        c = bc.build_adaptive(lambda x, y: 0.0 * x * y, 1e-15, relative=True)
        assert np.array_equal(c.coeffs, [[0.0]])

    def test_negative_zero_function_writes_zero_tol(self):
        # max |values| of an all -0.0 grid is 0.0, so the threshold is too
        c = bc.build_adaptive(lambda x, y: np.full(np.broadcast(x, y).shape, -0.0),
                              1e-15, relative=True)
        assert math.copysign(1.0, c.tol) == 1.0
        assert '"tol": 0,' in bc.document_text(bc.to_sparse(c))

    def test_relative_threshold_of_a_negative_function(self):
        # largest magnitude 3, at x = 1, where f is most negative
        c = bc.build_adaptive(lambda x, y: -(2.0 + x) + 0.0 * y, 1e-14,
                              relative=True)
        assert c.tol == 1e-14 * 3.0

    def test_budget_covers_what_a_pass_allocates(self, monkeypatch):
        # the bump's last pass is 1025 x 1025; everything the build
        # allocates, f's own arrays included, fits in the largest charge
        charged = []
        check = chebcore._check_grid_budget

        def recording(what, entries, error=ValidationError):
            charged.append(entries)
            check(what, entries, error)

        monkeypatch.setattr(builder, "_check_grid_budget", recording)
        tracemalloc.start()
        try:
            c = bc.build_adaptive(narrow_bump, 1e-14, relative=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert min(c.coeffs.shape) > 513
        assert peak <= 8 * max(charged)

    def test_zero_on_the_grid_only_names_the_misfit(self):
        def f(x, y):
            return np.where(np.isin(x, chebcore.lobatto_nodes(8)), 0.0, 1.0) + 0.0 * y

        with pytest.raises(ConvergenceError, match="off-grid misfit"):
            bc.build_adaptive(f, 1e-15, n0=8, max_n=8, relative=True)

    def test_pass_over_budget_refused_before_allocation(self, monkeypatch):
        # a budget that holds the pass at degree bound 512 but not at 1024;
        # the check's bases at degree 512 are 513 rows of 32
        held = (513 ** 2 + 257 ** 2 + chebcore._transform_entries(513, 513)
                + builder._CHECK_NODES.size * 513)
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 8 * held)
        degrees = recording_transforms(monkeypatch)
        with pytest.raises(ConvergenceError,
                           match=r"degree bound 1024 needs .* over the budget.*"
                                 r"coefficient tail .* at degree bound 512") as info:
            bc.build_adaptive(lambda x, y: np.abs(x) + np.abs(y), 1e-15)
        assert degrees[-1] == 512
        assert info.value.tail_magnitude > 1e-15

    def test_each_axis_doubles_on_its_own(self):
        # x needs degree 123, y only 10: the final grid is 129 x 17
        points = []

        def f(x, y):
            points.append(np.broadcast(x, y).size)
            return np.sin(80.0 * x) * np.cos(y / 2.0)

        c = bc.build_adaptive(f, 1e-14, relative=True)
        assert (c.degree_x, c.degree_y) == (123, 10)
        assert sum(points) == 129 * 17 + 1024

    def test_same_as_one_pass_on_the_final_grid(self):
        def runge(x, y):
            return 1.0 / (1.0 + 25.0 * (x ** 2 + y ** 2))

        c = bc.build_adaptive(runge, 1e-14, relative=True)
        once = bc.build_adaptive(runge, 1e-14, n0=256, max_n=256, relative=True)
        assert np.array_equal(c.coeffs, once.coeffs) and c.tol == once.tol

    def test_resolved_axis_stays_at_its_bound(self):
        ys = set()

        def f(x, y):
            ys.update(np.ravel(y).tolist())
            return np.abs(x) + 0.0 * y

        with pytest.raises(ConvergenceError,
                           match=r"tail .* in x still at or above .* "
                                 r"at degree bounds 4096 x 8$") as info:
            bc.build_adaptive(f, 1e-15)
        assert ys == set(chebcore.lobatto_nodes(8).tolist())
        assert info.value.tail_magnitude > 1e-15

    def test_first_pass_over_budget(self, monkeypatch):
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 8)
        with pytest.raises(ConvergenceError, match="degree bound 8 needs") as info:
            bc.build_adaptive(f_cosxy, 1e-15)
        assert math.isnan(info.value.tail_magnitude)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            bc.build_adaptive(f_cosxy, 0.0)
        with pytest.raises(ValidationError):
            bc.build_adaptive(f_cosxy, 1e-15, n0=3)
        with pytest.raises(ValidationError):
            bc.build_adaptive(f_cosxy, 1e-15, n0=8, max_n=4)

    @pytest.mark.parametrize("bounds", [{"n0": 8.0}, {"max_n": 64.0},
                                        {"n0": np.float64(8.0)}],
                             ids=["float-n0", "float-max_n", "numpy-float-n0"])
    def test_non_integer_degree_bounds_are_invalid(self, bounds):
        with pytest.raises(ValidationError, match="must be an integer"):
            bc.build_adaptive(f_cosxy, 1e-15, **bounds)

    def test_domain_must_be_a_domain2(self):
        with pytest.raises(ValidationError, match="Domain2"):
            bc.build_adaptive(f_cosxy, 1e-15, domain="nope")


def recording_transforms(monkeypatch):
    """The degree x of every grid the builder transforms, in order."""
    degrees = []
    transform = chebcore._lobatto_coeffs

    def recording(values):
        degrees.append(len(values) - 1)
        return transform(values)

    monkeypatch.setattr(builder, "_lobatto_coeffs", recording)
    return degrees


def recording_grids(monkeypatch):
    """A copy of every tensor pass's samples, in order, as _peak sees them
    once per pass; a relative tol makes it look at every pass."""
    grids = []
    peak = builder._peak

    def recording(*samples):
        if len(samples) == 1:  # a slice pass passes two
            grids.append(samples[0].copy())
        return peak(*samples)

    monkeypatch.setattr(builder, "_peak", recording)
    return grids


def recording_estimates(monkeypatch):
    """(degree x, whether the pass skipped its transform) for every pass
    that estimated its tails, in order."""
    estimates = []
    proven_failure = builder._proven_failure

    def recording(values, *args):
        skipped = proven_failure(values, *args)
        estimates.append((len(values) - 1, skipped))
        return skipped

    monkeypatch.setattr(builder, "_proven_failure", recording)
    return estimates


def recording_probes(monkeypatch):
    """(grid shape, axis) of every tail estimate, in order."""
    probes = []
    tail_rows = builder._tail_rows

    def recording(values, axis):
        probes.append((values.shape, axis))
        return tail_rows(values, axis)

    monkeypatch.setattr(builder, "_tail_rows", recording)
    return probes


def two_bumps(x, y):
    return (np.exp(-5000.0 * ((x - 0.31) ** 2 + (y + 0.17) ** 2))
            + np.exp(-3000.0 * ((x + 0.4) ** 2 + (y - 0.5) ** 2)))


def recording_rank_tests(monkeypatch):
    """The results of build_adaptive's rank tests, one per call."""
    results = []
    rank_test = builder._rank_test

    def recording(values, threshold):
        results.append(rank_test(values, threshold))
        return results[-1]

    monkeypatch.setattr(builder, "_rank_test", recording)
    return results


def decaying_factors(rng, r, rows, cols):
    """Rank-r factors whose entries fall by 0.9 per row and per column;
    term k is scaled by 10^-k on the left and 10^k on the right, so that a
    bound that mixed up the terms would be off."""
    scale = 10.0 ** np.arange(r)[:, None]
    left = rng.standard_normal((r, rows)) * 0.9 ** np.arange(rows) / scale
    right = rng.standard_normal((r, cols)) * 0.9 ** np.arange(cols) * scale
    return left, right


def recording_expansions(monkeypatch):
    """The (rows, columns) of every product _expand computes."""
    shapes = []
    expand = builder._expand

    def recording(left, right):
        shapes.append((left.shape[1], right.shape[1]))
        return expand(left, right)

    monkeypatch.setattr(builder, "_expand", recording)
    return shapes


# The six functions of the benchmark's builds, built in a fresh interpreter.
# argv holds the steps, in order: a name builds that function and prints
# its name and a digest of its Cheb2, and "threads" builds the six on four
# threads at once, each in its own order, from frequent thread switches.
SIX_BUILDS = """
import hashlib, sys, threading
import numpy as np
from bicheb import builder

CASES = {
    "cosxy": (lambda x, y: np.cos(x * y), 1e-15, False),
    "example2": (lambda x, y: np.cos(10.0 * x * y ** 2) + np.exp(-x ** 2), 1e-15, False),
    "sin60cos50": (lambda x, y: np.sin(60.0 * x) * np.cos(50.0 * y), 1e-14, True),
    "sin80": (lambda x, y: np.sin(80.0 * x) + 0.0 * y, 1e-14, True),
    "runge": (lambda x, y: 1.0 / (1.0 + 25.0 * (x ** 2 + y ** 2)), 1e-14, True),
    "bump": (lambda x, y: np.exp(-5000.0 * ((x - 0.31) ** 2 + (y + 0.17) ** 2)),
             1e-14, True),
}
NAMES = list(CASES)

def build(name):
    f, tol, relative = CASES[name]
    c = builder.build_adaptive(f, tol, relative=relative)
    digest = hashlib.sha256(c.coeffs.tobytes()).hexdigest()
    return f"{name} {c.coeffs.shape} {c.tol!r} {digest}"

for step in sys.argv[1:]:
    if step == "threads":
        lines = []
        orders = [NAMES[k:] + NAMES[:k] for k in range(4)]
        workers = [threading.Thread(target=lambda order: lines.extend(map(build, order)),
                                    args=(order,)) for order in orders]
        sys.setswitchinterval(1e-6)
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        assert len(lines) == 4 * len(NAMES)
        print("\\n".join(lines))
    else:
        print(build(step))
"""


def six_builds(*steps):
    """The lines SIX_BUILDS prints for steps, in a fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(bc.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SIX_BUILDS, *steps], env=env,
                            capture_output=True, text=True, timeout=300, check=True)
    return result.stdout.splitlines()


SIX = ("cosxy", "example2", "sin60cos50", "sin80", "runge", "bump")


class TestCheckTable:
    """The builder's process-wide tables, the kept Lobatto nodes and the
    period of check bases, leave no trace in its results."""

    def test_builds_do_not_depend_on_the_tables_history(self):
        # each function first in a fresh process
        fresh = [line for name in SIX for line in six_builds(name)]
        assert [line.split()[0] for line in fresh] == list(SIX)
        # after the others, in either order
        assert six_builds(*SIX) == fresh
        assert six_builds(*SIX[::-1]) == fresh[::-1]
        # four threads at once
        assert sorted(six_builds("threads")) == sorted(fresh * 4)

    @pytest.mark.parametrize("module", [chebcore, builder], ids=lambda m: m.__name__)
    def test_module_arrays_are_read_only(self, module):
        # the module's arrays, and the kept nodes, which its cache holds
        arrays = {name: value for name, value in vars(module).items()
                  if isinstance(value, np.ndarray)}
        if module is chebcore:
            arrays["_kept_nodes()"] = chebcore._kept_nodes()
        assert arrays
        assert [name for name, a in arrays.items() if a.flags.writeable] == []

    def test_build_above_the_period_is_within_its_charge(self, monkeypatch):
        # the check at degree 6165 repeats the period into 6166 rows of 32,
        # which the last pass, at 8192 x 8, charges with its grid
        charged = []
        check = chebcore._check_grid_budget

        def recording(what, entries, error=ValidationError):
            charged.append(entries)
            check(what, entries, error)

        monkeypatch.setattr(builder, "_check_grid_budget", recording)
        tracemalloc.start()
        try:
            c = bc.build_adaptive(lambda x, y: np.sin(6000.0 * x) + 0.0 * y, 1e-13,
                                  max_n=8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (c.degree_x, c.degree_y) == (6165, 0)
        assert peak <= 8 * max(charged)


def assert_same_trim(left, right, threshold):
    """_trimmed_product equals the trim of the whole product, bit for bit."""
    block = builder._trimmed_product(left, right, threshold, bc.UNIT_SQUARE)
    full = bc.Cheb2(chebcore._trim_in_place(builder._expand(left, right), threshold),
                    bc.UNIT_SQUARE, threshold)
    assert block.coeffs.shape == full.coeffs.shape
    assert np.array_equal(block.coeffs, full.coeffs) and block.tol == full.tol
    return block


class TestLowRankPhase:
    def test_bump_matches_one_tensor_pass(self, monkeypatch):
        ranks = recording_rank_tests(monkeypatch)
        c = bc.build_adaptive(narrow_bump, 1e-14, relative=True)
        assert [len(p) for p in ranks] == [1]
        once = bc.build_adaptive(narrow_bump, 1e-14, n0=1024, max_n=1024,
                                 relative=True)
        assert c.coeffs.shape == once.coeffs.shape == (659, 683)
        assert np.abs(c.coeffs - once.coeffs).max() <= 1e-17

    def test_bump_samples_few_nodes_once(self):
        # the 257 x 257 grid, the new nodes of one row and one column
        # slice, and the check points
        points = []

        def recorder(x, y):
            xb, yb = np.broadcast_arrays(x, y)
            points.extend(zip(xb.ravel().tolist(), yb.ravel().tolist()))
            return narrow_bump(x, y)

        bc.build_adaptive(recorder, 1e-14, relative=True)
        assert len(set(points)) == len(points) <= 100_000
        assert len(points) == 257 ** 2 + 2 * 768 + 1024

    def test_two_separated_bumps_have_rank_two(self, monkeypatch):
        ranks = recording_rank_tests(monkeypatch)
        c = bc.build_adaptive(two_bumps, 1e-14, relative=True)
        assert [len(p) for p in ranks] == [2]
        g = np.linspace(-1.0, 1.0, 301)
        exact = two_bumps(g[:, None], g[None, :])
        assert np.abs(bc.evaluate_grid(c, g, g) - exact).max() <= 1e-10

    def test_rank_test_runs_once(self, monkeypatch):
        # tol is below the rounding of f's samples: the tails fail at every
        # pass from 256 on, and the grids are not low-rank at that threshold
        ranks = recording_rank_tests(monkeypatch)
        with pytest.raises(ConvergenceError, match="at degree bound 1024$"):
            bc.build_adaptive(lambda x, y: 1000.0 * np.exp(x + y), 1e-15,
                              max_n=1024)
        assert len(ranks) == 1

    def test_slices_at_max_n_resume_phase_1(self, monkeypatch):
        # |x| + |y| has rank 2, but no slice resolves; phase 1 resumes from
        # its 257 x 257 grid and stops at max_n itself
        ranks = recording_rank_tests(monkeypatch)
        estimates = recording_estimates(monkeypatch)
        transformed = recording_transforms(monkeypatch)
        with pytest.raises(ConvergenceError,
                           match=r"coefficient tail .* at degree bound 1024$"):
            bc.build_adaptive(lambda x, y: np.abs(x) + np.abs(y), 1e-15,
                              max_n=1024)
        assert [len(p) for p in ranks] == [2]
        # every pass from 128 to 512 is proven to fail; the 1024 pass, at
        # max_n, takes no estimate, and its transform gives the error's tail
        assert estimates == [(128, True), (256, True), (512, True)]
        assert transformed == [8, 16, 32, 64, 1024]

    def test_narrower_bump_is_found_on_the_whole_grid(self, monkeypatch):
        # ten times narrower than narrow_bump: below the threshold at every
        # node of a 65 x 65 sub-grid of the 257 x 257 grid, but rank 1 on it
        def f(x, y):
            return np.exp(-50000.0 * ((x - 0.31) ** 2 + (y + 0.17) ** 2))

        points = 0

        def counting(x, y):
            nonlocal points
            points += np.broadcast(x, y).size
            return f(x, y)

        ranks = recording_rank_tests(monkeypatch)
        c = bc.build_adaptive(counting, 1e-14, relative=True)
        assert [len(p) for p in ranks if p] == [1] and len(ranks) == 1
        # the 257 x 257 grid, the new nodes of one row and one column slice
        # (to degrees 2048 and 1024) and the check points
        assert points == 257 ** 2 + 2 * 1792 + 1024
        g = np.linspace(-1.0, 1.0, 301)
        exact = f(g[:, None], g[None, :])
        assert np.abs(bc.evaluate_grid(c, g, g) - exact).max() <= 1e-9

    def test_full_rank_stays_on_the_tensor_grids(self, monkeypatch):
        def f(x, y):
            return 1.0 / (1.0 + 100.0 * (x ** 2 + y ** 2))

        ranks = recording_rank_tests(monkeypatch)
        c = bc.build_adaptive(f, 1e-14, relative=True)
        assert ranks == [None]
        once = bc.build_adaptive(f, 1e-14, n0=512, max_n=512, relative=True)
        assert np.array_equal(c.coeffs, once.coeffs) and c.tol == once.tol

    def test_phase_two_over_budget_ends_in_convergence_error(self, monkeypatch):
        # the budget holds the tensor pass at degree bound 512 but not the
        # bump's 1025 x 1025 dense matrix: phase 2 stops before it, and
        # phase 1 refuses its own pass at 1024
        held = (513 ** 2 + 257 ** 2 + chebcore._transform_entries(513, 513)
                + builder._CHECK_NODES.size * 513)
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 8 * held)
        refused = []
        check = chebcore._check_grid_budget

        def recording(what, entries, error=ValidationError):
            if 8 * entries > chebcore._GRID_BUDGET:
                refused.append(what)
            check(what, entries, error)

        monkeypatch.setattr(builder, "_check_grid_budget", recording)
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError,
                               match=r"degree bound 1024 needs .* over the "
                                     r"budget.* at degree bound 512$"):
                bc.build_adaptive(narrow_bump, 1e-14, relative=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused == ["the rank-1 pass at degree bound 1024",
                           "the pass at degree bound 1024"]
        assert peak <= 8 * held

    def test_phase_two_holds_no_dense_grid(self):
        # the bump's rank-1 coefficients are 1025 x 1025, but the trim keeps
        # 659 x 683: only that block is expanded, beside the 257 x 257 grid
        tracemalloc.start()
        try:
            c = bc.build_adaptive(narrow_bump, 1e-14, relative=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.coeffs.shape == (659, 683)
        assert peak < 8 * 1025 ** 2

    @pytest.mark.parametrize("r", range(1, builder._MAX_RANK + 1))
    def test_block_equals_the_full_expansion(self, monkeypatch, r):
        left, right = decaying_factors(np.random.default_rng(r), r, 300, 280)
        shapes = recording_expansions(monkeypatch)
        c = assert_same_trim(left, right, 1e-6)
        # the block is smaller than the product, and holds the trimmed result
        rows, cols = shapes[0]
        assert c.degree_x < rows < 300 and c.degree_y < cols < 280

    def test_everything_below_the_threshold_is_one_zero(self, monkeypatch):
        left, right = decaying_factors(np.random.default_rng(9), 3, 40, 50)
        shapes = recording_expansions(monkeypatch)
        c = assert_same_trim(left, right, 1e3)
        assert shapes[0] == (1, 1)
        assert c.coeffs.shape == (1, 1) and c.coeffs[0, 0] == 0.0

    @pytest.mark.parametrize("toward, rows", [(np.inf, 31), (0.0, 30)])
    def test_row_at_the_cut(self, monkeypatch, toward, rows):
        # row 30's bound is one ulp above or below half the threshold, and
        # every row after it is 0: the block ends after it or before it
        threshold = 1e-6
        left, right = decaying_factors(np.random.default_rng(5), 1, 40, 50)
        right /= np.abs(right).max()
        left[0, 30] = np.nextafter(0.5 * threshold, toward)
        left[0, 31:] = 0.0
        shapes = recording_expansions(monkeypatch)
        assert_same_trim(left, right, threshold)
        assert shapes[0][0] == rows

    def test_cancelling_terms_keep_a_loose_bound(self, monkeypatch):
        # the second term cancels the first to within 1e-9: the bounds keep
        # every row and column, the trim far fewer
        rng = np.random.default_rng(7)
        left, right = decaying_factors(rng, 1, 60, 60)
        left = np.concatenate((left, left))
        near = 1.0 - 1e-9 * 0.5 ** np.arange(60)
        right = np.concatenate((right, -right * near))
        shapes = recording_expansions(monkeypatch)
        c = assert_same_trim(left, right, 1e-12)
        assert shapes[0] == (60, 60)
        assert c.degree_x < 59 and c.degree_y < 20


class TestCoverage:
    """A second feature, 1e-2 high and of width ~1/sqrt(w), next to the
    narrow bump: a build that samples too coarsely near it returns the
    bump's approximant, which misses the feature's whole height."""

    WIDTH = 2e5
    # entries 3, 16, 20 and 23 of 30 centres uniform in +-0.95: with the
    # rank test run from the 129 x 129 pass on, each of these builds
    # returned the bump's 686 x 710 approximant, with error 9.907e-3
    CENTRES = np.random.default_rng(11).uniform(-0.95, 0.95, (30, 2))[[3, 16, 20, 23]]

    @pytest.mark.parametrize("cx, cy", CENTRES.tolist(),
                             ids=["c3", "c16", "c20", "c23"])
    def test_second_feature_is_resolved_or_refused(self, cx, cy):
        def f(x, y):
            return narrow_bump(x, y) + 1e-2 * np.exp(
                -self.WIDTH * ((x - cx) ** 2 + (y - cy) ** 2))

        try:
            c = bc.build_adaptive(f, 1e-14, relative=True)
        except ConvergenceError:
            return
        near = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 3000))
        near *= 3.0 / math.sqrt(self.WIDTH)
        xs = np.clip(cx + near[0], -1.0, 1.0)
        ys = np.clip(cy + near[1], -1.0, 1.0)
        assert np.abs(bc.evaluate_matrix(c, xs, ys) - f(xs, ys)).max() <= 1e-6


def trimmed_by_masks(a, threshold):
    """The trim with full-size masks on a copy of a, as the builder once
    applied it: the oracle of the chunked, in-place trim."""
    a = a.copy()
    a[(a < threshold) & (a > -threshold)] = 0.0
    rows, cols = np.flatnonzero(a.any(axis=1)), np.flatnonzero(a.any(axis=0))
    if rows.size == 0:
        return np.zeros((1, 1))
    return a[: rows[-1] + 1, : cols[-1] + 1]


def rank_one(left, right):
    return np.array([left], dtype=float), np.array([right], dtype=float)


# Factors, threshold and the kept shape.  Entries of 0.6 against a threshold
# of 1 have bounds above half the threshold: the block keeps their rows and
# columns, and the trim drops them.
OWNED_CASES = {
    "neither": (*rank_one([2] * 9, [2] * 7), 1.0, (9, 7)),
    "rows": (*rank_one([2] * 7 + [0.3] * 2, [2] * 7), 1.0, (7, 7)),
    "columns": (*rank_one([2] * 9, [2] * 5 + [0.3] * 2), 1.0, (9, 5)),
    "both": (*rank_one([2] * 7 + [0.3] * 2, [2] * 5 + [0.3] * 2), 1.0, (7, 5)),
    "one-row": (*rank_one([2] + [0.3] * 8, [2] * 5 + [0.3] * 2), 1.0, (1, 5)),
    "one-column": (*rank_one([2] * 7 + [0.3] * 2, [2] + [0.3] * 6), 1.0, (7, 1)),
    "all-zero": (*rank_one([0.3] * 9, [2] * 7), 1.0, (1, 1)),
    "all-negative-zero": (*rank_one([-0.0] * 9, [2] * 7), 0.0, (1, 1)),
    # at threshold 0 nothing is zeroed: -0.0 stays inside the kept corner
    "negative-zero": (*rank_one([2, -0.0, 2, -0.0, -0.0], [2, -0.0, 2, 2, -0.0, -0.0]),
                      0.0, (3, 4)),
    "decaying": (*decaying_factors(np.random.default_rng(3), 3, 300, 280), 1e-6, None),
}


class TestOwnedBlock:
    """Phase 2 trims its expanded block in place, and the Cheb2 takes the
    kept corner as a view of the block, without a copy."""

    @pytest.mark.parametrize("chunk", [1, 16, 2 ** 15], ids=["row", "rows", "default"])
    @pytest.mark.parametrize("case", OWNED_CASES)
    def test_same_as_the_trimmed_copy(self, monkeypatch, case, chunk):
        left, right, threshold, shape = OWNED_CASES[case]
        # chunks of one row, of a few rows, and of the whole block
        monkeypatch.setattr(chebcore, "_CHUNK_ENTRIES", chunk)
        expected = trimmed_by_masks(builder._expand(left, right), threshold)
        c = assert_same_trim(left, right, threshold)
        assert shape is None or c.coeffs.shape == shape
        assert c.coeffs.shape == expected.shape
        assert c.coeffs.tobytes() == expected.tobytes()  # -0.0 too

    @pytest.mark.parametrize("chunk", [1, 16, 2 ** 15], ids=["row", "rows", "default"])
    def test_nan_is_not_finite(self, monkeypatch, chunk):
        # a NaN bound keeps its row and the trim keeps the NaN
        monkeypatch.setattr(chebcore, "_CHUNK_ENTRIES", chunk)
        left, right = rank_one([2, np.nan, 2, 0.3, 0.3], [2] * 5 + [0.3] * 2)
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            builder._trimmed_product(left, right, 1.0, bc.UNIT_SQUARE)
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            bc.Cheb2(chebcore._trim_in_place(builder._expand(left, right), 1.0),
                     bc.UNIT_SQUARE, 1.0)

    def test_result_is_the_block_itself(self, monkeypatch):
        blocks = []
        expand = builder._expand

        def recording(left, right):
            blocks.append(expand(left, right))
            return blocks[-1]

        monkeypatch.setattr(builder, "_expand", recording)
        left, right, threshold, _ = OWNED_CASES["both"]
        c = builder._trimmed_product(left, right, threshold, bc.UNIT_SQUARE)
        assert c.coeffs.shape == (7, 5) and blocks[0].shape == (9, 7)
        assert np.shares_memory(c.coeffs, blocks[0])
        assert c.coeffs.strides == blocks[0].strides and not c.coeffs.flags.writeable
        with pytest.raises(ValueError):
            c.coeffs[0, 0] = 1.0

    def test_public_constructor_still_copies(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        c = bc.Cheb2(a)
        a[0, 0] = 5.0
        assert c.coeffs[0, 0] == 1.0 and a.flags.writeable
        assert not np.shares_memory(c.coeffs, a)

    def test_bump_result_is_a_view_of_its_block(self, monkeypatch):
        # the trim keeps 659 x 683 of the 666 x 692 block, in place
        blocks = []
        expand = builder._expand

        def recording(left, right):
            blocks.append(expand(left, right))
            return blocks[-1]

        monkeypatch.setattr(builder, "_expand", recording)
        c = bc.build_adaptive(narrow_bump, 1e-14, relative=True)
        block = blocks[-1]
        assert c.coeffs.shape == (659, 683) and block.shape == (666, 692)
        assert np.shares_memory(c.coeffs, block) and c.coeffs.strides == block.strides
        assert not c.coeffs.flags.c_contiguous

    def test_view_evaluates_as_its_copy(self):
        # the bump's coefficients as a strided view inside a larger zero
        # buffer, as phase 2 holds them, and as a C-ordered copy
        c = bc.build_adaptive(narrow_bump, 1e-14, relative=True)
        buffer = np.zeros((666, 692))
        buffer[:659, :683] = c.coeffs
        view = bc.Cheb2._owning(buffer[:659, :683], c.domain, c.tol)
        copy = bc.Cheb2(buffer[:659, :683].copy(), c.domain, c.tol)
        assert not view.coeffs.flags.c_contiguous and copy.coeffs.flags.c_contiguous
        for k in (32, 200, 300):
            g = np.linspace(-1.0, 1.0, k)
            assert (bc.evaluate_grid(view, g, g).tobytes()
                    == bc.evaluate_grid(copy, g, g).tobytes())
        rng = np.random.default_rng(11)
        for size in (1, 7, 2500):
            x, y = rng.uniform(-1.0, 1.0, (2, size))
            assert (bc.evaluate_matrix(view, x, y).tobytes()
                    == bc.evaluate_matrix(copy, x, y).tobytes())
        assert bc.integrate(view) == bc.integrate(copy)
        assert (bc.parseval_indicator(view, narrow_bump)
                == bc.parseval_indicator(copy, narrow_bump))
        for diff in (bc.diff_x, bc.diff_y):
            assert diff(view).coeffs.tobytes() == diff(copy).coeffs.tobytes()
        assert (bc.document_text(bc.to_sparse(view))
                == bc.document_text(bc.to_sparse(copy)))

    def test_bump_holds_one_block_and_a_half(self):
        # the 659 x 683 block, beside the 257 x 257 grid and the slices
        tracemalloc.start()
        try:
            c = bc.build_adaptive(narrow_bump, 1e-14, relative=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.coeffs.shape == (659, 683)
        assert peak < 1.6 * 659 * 683 * 8


class TestFiniteBounds:
    """Phase 2's Cheb2 is finite by its factors' bounds: a block whose row
    and column bounds are all finite is not scanned again, and one with a
    bound that overflows is, with no numpy warning either way."""

    @staticmethod
    def scans(monkeypatch):
        """The arrays Cheb2._owning checks, by its scan for NaN and inf."""
        arrays = []
        owning = bc.Cheb2._owning.__func__

        def recording(cls, a, domain, tol):
            arrays.append(a)
            return owning(cls, a, domain, tol)

        monkeypatch.setattr(bc.Cheb2, "_owning", classmethod(recording))
        return arrays

    def test_finite_bounds_are_not_scanned(self, monkeypatch):
        arrays = self.scans(monkeypatch)
        left, right = decaying_factors(np.random.default_rng(3), 3, 300, 280)
        c = builder._trimmed_product(left, right, 1e-6, bc.UNIT_SQUARE)
        assert arrays == [] and not c.coeffs.flags.writeable
        assert c.tol == 1e-6 and c.domain == bc.UNIT_SQUARE

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rank_one_overflow_is_not_finite(self, monkeypatch):
        # 1e200 * 1e200 overflows in both bounds and in the entry
        arrays = self.scans(monkeypatch)
        left, right = rank_one([1e200, 1], [1e200, 1])
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            builder._trimmed_product(left, right, 1e-300, bc.UNIT_SQUARE)
        assert len(arrays) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cancelling_terms_under_overflowing_bounds(self, monkeypatch):
        # the bounds of row 0 and column 0 sum 1e308 twice and overflow; the
        # entries are 1e308 - 1e308, 1e154 + 1e154 and small ones
        arrays = self.scans(monkeypatch)
        left = np.array([[1e154, 1.0], [1e154, 1.0]])
        right = np.array([[1e154, 1.0], [-1e154, 1.0]])
        c = builder._trimmed_product(left, right, 1e-300, bc.UNIT_SQUARE)
        assert c.coeffs.tolist() == [[0.0, 2e154], [0.0, 2.0]]
        assert len(arrays) == 1


def proof_undecided(monkeypatch):
    """The factor proof's verdicts, each forced to False: the dense
    product decides every check."""
    verdicts = []
    proof = builder._factor_proof

    def forced(*args):
        verdicts.append(proof(*args))
        return False

    monkeypatch.setattr(builder, "_factor_proof", forced)
    return verdicts


def dense_checks(monkeypatch):
    """The degrees of the check bases of every dense check product: the
    _check_basis calls made outside _factor_proof, which reads the same
    bases."""
    degrees, proving = [], []
    check_basis, proof = builder._check_basis, builder._factor_proof

    def recording(degree):
        if not proving:
            degrees.append(degree)
        return check_basis(degree)

    def marked(*args):
        proving.append(True)
        try:
            return proof(*args)
        finally:
            proving.pop()

    monkeypatch.setattr(builder, "_check_basis", recording)
    monkeypatch.setattr(builder, "_factor_proof", marked)
    return degrees


def bump_check():
    """The bump's phase-2 result (c, nx, ny, (left, right)) and the check's
    reference samples."""
    found = []
    slice_phase = builder._slice_phase

    def recording(*args):
        found.append(slice_phase(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "_slice_phase", recording)
        bc.build_adaptive(narrow_bump, 1e-14, relative=True)
    return found[0], builder._check_samples(narrow_bump, bc.UNIT_SQUARE)


def dense_values(c):
    """c at the check points, as the dense check evaluates it."""
    basis = builder._check_basis(max(c.degree_x, c.degree_y))
    return basis[:c.degree_x + 1].T @ c.coeffs @ basis[:c.degree_y + 1]


class TestFactorProof:
    """Phase 2 checks its rank-r result off the grid from the factors, and
    the dense product of the kept block runs only when they cannot decide:
    every verdict, and so every Cheb2, is the dense check's."""

    @pytest.mark.parametrize("f", [narrow_bump, two_bumps], ids=["bump", "two-bumps"])
    def test_undecided_proof_builds_the_same_bytes(self, monkeypatch, f):
        c = bc.build_adaptive(f, 1e-14, relative=True)
        verdicts = proof_undecided(monkeypatch)
        dense = dense_checks(monkeypatch)
        forced = bc.build_adaptive(f, 1e-14, relative=True)
        assert verdicts == [True] and dense == [682]
        assert c.coeffs.shape == forced.coeffs.shape == (659, 683)
        assert c.coeffs.tobytes() == forced.coeffs.tobytes() and c.tol == forced.tol

    def test_bump_makes_no_dense_check_product(self, monkeypatch):
        dense = dense_checks(monkeypatch)
        c = bc.build_adaptive(narrow_bump, 1e-14, relative=True)
        assert c.coeffs.shape == (659, 683) and dense == []

    @pytest.mark.parametrize("case", OWNED_CASES)
    def test_undecided_proof_gives_the_same_verdicts(self, monkeypatch, case):
        # references at, near and past the bound from the dense values
        left, right, threshold, _ = OWNED_CASES[case]
        nx, ny = left.shape[1] - 1, right.shape[1] - 1
        c = builder._trimmed_product(left, right, threshold, bc.UNIT_SQUARE)
        bound = (nx + 1) * (ny + 1) * threshold
        signs = np.where(np.random.default_rng(1).random((32, 32)) < 0.5, -1.0, 1.0)
        references = [dense_values(c) + scale * bound * signs
                      for scale in (0.0, 0.5, 0.99, 1.01, 2.0)]
        proven = [builder._rejection(ref, c, nx, ny, (left, right))
                  for ref in references]
        verdicts = proof_undecided(monkeypatch)
        assert [builder._rejection(ref, c, nx, ny, (left, right))
                for ref in references] == proven
        assert [builder._rejection(ref, c, nx, ny) for ref in references] == proven
        if case == "decaying":
            # the proof decides the references well inside the bound
            assert verdicts[:2] == [True, True]

    def test_nearly_everything_kept_runs_the_dense_product(self, monkeypatch):
        # every product is at the threshold or above: the dropped mass the
        # factors bound is the whole bound, and the proof cannot decide
        left, right = rank_one(np.linspace(1.0, 2.0, 40), np.linspace(1.0, 3.0, 50))
        c = builder._trimmed_product(left, right, 1.0, bc.UNIT_SQUARE)
        reference = dense_values(c)
        assert builder._dropped_mass(left, right, 1.0) == 40 * 50
        dense = dense_checks(monkeypatch)
        assert builder._rejection(reference, c, 39, 49, (left, right)) is None
        assert dense == [49]

    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_dropped_mass_is_the_sum_of_minima(self, r):
        # with zeros, ties at the threshold and signed entries
        rng = np.random.default_rng(r)
        left, right = decaying_factors(rng, r, 37, 29)
        left[:, ::5] = 0.0
        right[0, 3] = 1e-3 / left[0, 1]
        threshold = 1e-3
        exact = sum(np.minimum(np.abs(np.multiply.outer(a, b)), threshold).sum()
                    for a, b in zip(left, right))
        with np.errstate(divide="ignore"):
            d = builder._dropped_mass(left, right, threshold)
        assert d == pytest.approx(exact, rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("left, right, threshold", [
        (*rank_one([np.nan, 1.0], [1.0, 1.0]), 1e-6),
        (*rank_one([1e200, 1.0], [1e200, 1.0]), 1e-6),
        (*rank_one([1.0, 1.0], [1.0, 1.0]), 0.0),
    ], ids=["nan", "overflow", "zero-threshold"])
    def test_factors_not_finite_or_zero_threshold_cannot_decide(self, left, right,
                                                                threshold):
        assert not builder._factor_proof(left, right, np.zeros((32, 32)), threshold,
                                         4 * threshold)

    def test_proof_arrays_fit_in_the_slice_charge(self):
        # the slices' step charges 8 r (nx + ny + 2) doubles for the slices,
        # their transforms and the factors, of which only the factors,
        # r (nx + ny + 2), are held at the check, and 32 (max(nx, ny) + 1)
        # for the check's bases, which the proof reads as the dense check does
        (c, nx, ny, (left, right)), reference = bump_check()
        r = len(left)
        bound = (nx + 1) * (ny + 1) * c.tol
        tracemalloc.start()
        try:
            assert builder._factor_proof(left, right, reference, c.tol, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (7 * r * (nx + ny + 2) + 32 * (max(nx, ny) + 1))


def smooth(x, y):
    return np.cos(3.0 * x + 0.5) * np.exp(y) + x * y


def recording(f, points):
    """f, appending every (x, y) it is called at to points."""
    def recorder(x, y):
        xb, yb = np.broadcast_arrays(x, y)
        points.extend(zip(xb.ravel().tolist(), yb.ravel().tolist()))
        return f(x, y)
    return recorder


class TestSharedRefinement:
    """The tensor passes and the slice passes refine by the same functions:
    _spread and _sample_new for the samples, _peak, _tail_test and _doubled
    for the decision."""

    DOMAIN = bc.Domain2(-0.5, 2.0, 1.0, 1.5)

    def assert_refines(self, xs, ys, coarse_xs, coarse_ys, grow_x, grow_y):
        # f is called once at each node of xs x ys that coarse_xs x coarse_ys
        # lacks, and the grid is _sample_on's over xs x ys, bit for bit
        previous = chebcore._sample_on(smooth, coarse_xs, coarse_ys)
        grid = builder._spread(previous, grow_x, grow_y)
        points = []
        builder._sample_new(recording(smooth, points), grid, xs, ys,
                            grow_x, grow_y)
        old = {(x, y) for x in coarse_xs.tolist() for y in coarse_ys.tolist()}
        new = {(x, y) for x in xs.tolist() for y in ys.tolist()} - old
        assert len(points) == len(set(points)) and set(points) == new
        whole = chebcore._sample_on(smooth, xs, ys)
        assert grid.shape == whole.shape and grid.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("grow_x, grow_y",
                             [(True, False), (False, True), (True, True)],
                             ids=["x", "y", "both"])
    def test_tensor_grid(self, grow_x, grow_y):
        nx, ny = 16, 8
        xs = self.DOMAIN.x_from_unit(chebcore.lobatto_nodes(nx * (1 + grow_x)))
        ys = self.DOMAIN.y_from_unit(chebcore.lobatto_nodes(ny * (1 + grow_y)))
        coarse_xs = self.DOMAIN.x_from_unit(chebcore.lobatto_nodes(nx))
        coarse_ys = self.DOMAIN.y_from_unit(chebcore.lobatto_nodes(ny))
        self.assert_refines(xs, ys, coarse_xs, coarse_ys, grow_x, grow_y)

    @pytest.mark.parametrize("r", [1, 3])
    def test_slices(self, r):
        # f(x, y_J) on Lobatto(2 n) x y_J, and f(x_I, y) on x_I x Lobatto(2 n)
        coarse = chebcore.lobatto_nodes(32)
        fine = chebcore.lobatto_nodes(64)
        pivots = coarse[[5, 17, 30][:r]]
        d = self.DOMAIN
        xs, coarse_xs, x_pivots = (d.x_from_unit(t) for t in (fine, coarse, pivots))
        ys, coarse_ys, y_pivots = (d.y_from_unit(t) for t in (fine, coarse, pivots))
        self.assert_refines(xs, y_pivots, coarse_xs, y_pivots, True, False)
        self.assert_refines(x_pivots, ys, x_pivots, coarse_ys, False, True)

    def test_an_axis_that_keeps_its_bound_is_copied(self):
        previous = chebcore._sample_on(smooth, np.arange(3.0), np.arange(4.0))
        grid = builder._spread(previous, False, False)
        builder._sample_new(lambda x, y: pytest.fail("f called"), grid,
                            np.arange(3.0), np.arange(4.0), False, False)
        assert np.array_equal(grid, previous)

    def test_phase_two_threshold_covers_every_sample(self):
        # tol times the largest |f| of the grid and of both slices: the
        # slices come closer to the bump's peak than any node of the grid
        samples = []

        def f(x, y):
            values = -narrow_bump(x, y)
            samples.append(np.stack(np.broadcast_arrays(x, y, values)))
            return values

        c = bc.build_adaptive(f, 1e-14, relative=True)
        x, y, values = np.concatenate([s.reshape(3, -1) for s in samples], axis=1)
        checks, nodes = builder._CHECK_NODES, chebcore.lobatto_nodes(256)
        check = np.isin(x, checks) & np.isin(y, checks)
        grid = np.isin(x, nodes) & np.isin(y, nodes)
        assert check.sum() == 32 * 32 and grid.sum() == 257 ** 2
        peak = np.abs(values[~check]).max()
        assert peak > np.abs(values[grid]).max()
        assert c.tol == 1e-14 * peak

    # the tail each case of test_tail_test should report, with equal and
    # with unequal degree bounds, or None where the pass succeeds
    TOLD = {(0.0, 0.0): None,
            (1.0, 0.5): ("1.000e+00", "1.000e+00 in x"),
            (0.5, 1.0): ("1.000e+00", "1.000e+00 in y"),
            (0.99, 1.0): ("1.000e+00", "1.000e+00 in y"),
            (1.0, 2.0): ("2.000e+00", "1.000e+00 in x and 2.000e+00 in y")}

    @pytest.mark.parametrize("tails, grows", [
        ((0.0, 0.0), [False, False]), ((1.0, 0.5), [True, False]),
        ((0.5, 1.0), [False, True]), ((0.99, 1.0), [False, True]),
        ((1.0, 2.0), [True, True])])
    def test_tail_test(self, tails, grows):
        # a tail equal to the threshold fails it; the reason gives the larger
        # tail, or with unequal bounds the tail of each axis that grows
        last_rows, last_cols = np.full((2, 3), -tails[0]), np.full((3, 2), tails[1])
        (tail_x, tail_y), got, why = builder._tail_test(last_rows, last_cols, 1.0)
        assert (tail_x, tail_y) == tails and got == grows
        unequal = builder._tail_test(last_rows, last_cols, 1.0, square=False)[2]
        told = self.TOLD[tails]
        if told is None:
            assert why is None and unequal is None
        else:
            assert why == f"coefficient tail {told[0]} still at or above 1.000e+00"
            assert unequal == f"coefficient tail {told[1]} still at or above 1.000e+00"
        # a zero tail passes a zero threshold
        zeros = np.zeros((2, 2))
        assert builder._tail_test(zeros, zeros, 0.0)[1:] == ([False, False], None)


# Builds through grids of 9 x 9 to 2049 x 2049, whose passes fail in x, in
# y or in both, with values large, small, offset or of a narrow feature,
# each at an absolute tol of 1e-15, a relative one of 1e-14 and an absolute
# one of 1e-10, max_n 2048.
SWEEP = {
    "runge100": lambda x, y: 1.0 / (1.0 + 100.0 * (x ** 2 + y ** 2)),
    "exp-cos": lambda x, y: np.exp(x) * np.cos(y),
    "sin80x-cos": lambda x, y: np.sin(80.0 * x) * np.cos(y / 2.0),
    "sin80y": lambda x, y: np.sin(80.0 * y) + 0.0 * x,
    "bump": narrow_bump,
    "two-bumps": two_bumps,
    "abs-x-plus-abs-y": lambda x, y: np.abs(x) + np.abs(y),
    "abs-x": lambda x, y: np.abs(x) + 0.0 * y,
    "cos2000x": lambda x, y: np.cos(2000.0 * x) + 0.0 * y,
    "tanh": lambda x, y: np.tanh(20.0 * (x + y)),
    "100cos": lambda x, y: 100.0 * np.cos(x * y),
    "cos-plus-50": lambda x, y: np.cos(x * y) + 50.0,
    "1000exp": lambda x, y: 1000.0 * np.exp(x + y),
    "gaussian": lambda x, y: np.exp(-20.0 * (x ** 2 + y ** 2)),
    "1e300cos": lambda x, y: 1e300 * np.cos(40.0 * x * y),
    "sin20-sin200": lambda x, y: np.sin(20.0 * x) * np.sin(200.0 * y),
}
SWEEP_TOLS = [(1e-15, False), (1e-14, True), (1e-10, False)]


def undecided(monkeypatch):
    """Every pass transforms, as if no estimate decided."""
    monkeypatch.setattr(builder, "_proven_failure", lambda *args: False)


def outcome(f, tol, relative, **bounds):
    """The Cheb2 of a build, or its ConvergenceError or ValidationError."""
    try:
        return bc.build_adaptive(f, tol, relative=relative, **bounds)
    except (ConvergenceError, ValidationError) as exc:
        return exc


def assert_same_outcome(got, expected):
    """The same Cheb2 byte for byte, or the same error, message and tail."""
    assert type(got) is type(expected)
    if isinstance(expected, Exception):
        assert str(got) == str(expected)
        assert (repr(getattr(got, "tail_magnitude", None))
                == repr(getattr(expected, "tail_magnitude", None)))
    else:
        assert (got.coeffs.shape, got.domain, repr(got.tol)) == (
            expected.coeffs.shape, expected.domain, repr(expected.tol))
        assert got.coeffs.tobytes() == expected.coeffs.tobytes()


class TestSkippedTransform:
    """A pass whose tail estimates prove that it fails skips its transform,
    and changes nothing the build returns or reports."""

    @pytest.mark.parametrize("name", SWEEP)
    def test_same_as_every_pass_transformed(self, monkeypatch, name):
        got = [outcome(SWEEP[name], tol, relative, max_n=2048)
               for tol, relative in SWEEP_TOLS]
        undecided(monkeypatch)
        for (tol, relative), result in zip(SWEEP_TOLS, got):
            assert_same_outcome(result, outcome(SWEEP[name], tol, relative,
                                                max_n=2048))

    @pytest.mark.parametrize("x_tail, y_tail, proven", [
        (1.0, 1.0, True),
        (1.0, 0.5e-3, False),     # y passes
        (0.5e-3, 1.0, False),     # x, probed first, passes
        (1.0, 1e-3, False),       # y within the margin
        (1e-3, 1.0, False),       # x within it
        (0.0, 1.0, False),        # a zero x tail
    ])
    def test_decisions(self, x_tail, y_tail, proven):
        # a T_128(x) + b T_256(y) on its Lobatto grid: T_n is (-1)^i at
        # the nodes, and the x tail is a, the y tail b, to rounding; the
        # threshold is 1e-3 and the margin 1e-6
        signs_x = (-1.0) ** np.arange(129)
        signs_y = (-1.0) ** np.arange(257)
        values = x_tail * signs_x[:, None] + y_tail * signs_y[None, :]
        assert builder._proven_failure(values, 1e-3, 1e-6) is proven
        # a zero tail passes even a zero threshold, so it never clearly fails
        zeros = np.zeros((129, 257))
        assert builder._proven_failure(zeros, 0.0, 0.0) is False

    def test_the_pass_at_max_n_transforms(self, monkeypatch):
        # the 512 pass of |x| + |y| is proven to fail and skips its
        # transform; the 1024 pass, at max_n, takes no estimate, and max_n
        # ends the build after its transform, whose tail the error holds
        def f(x, y):
            return np.abs(x) + np.abs(y)

        estimates = recording_estimates(monkeypatch)
        transformed = recording_transforms(monkeypatch)
        got = outcome(f, 1e-15, False, max_n=1024)
        assert estimates[-1] == (512, True)
        assert transformed[-1] == 1024
        undecided(monkeypatch)
        expected = outcome(f, 1e-15, False, max_n=1024)
        assert isinstance(expected, ConvergenceError)
        assert str(expected).endswith("at degree bound 1024")
        assert_same_outcome(got, expected)

    def test_the_pass_before_a_refused_pass_transforms(self, monkeypatch):
        # a budget that holds the pass at degree bound 512 but not at 1024:
        # the 256 pass skips its transform, but the 512 pass, whose
        # successor with both bounds doubled is over the budget, transforms
        # within its own charge, and the refusal of the next pass reports
        # its tail
        held = (513 ** 2 + 257 ** 2 + chebcore._transform_entries(513, 513)
                + builder._CHECK_NODES.size * 513)
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 8 * held)

        def f(x, y):
            return np.abs(x) + np.abs(y)

        estimates = recording_estimates(monkeypatch)
        transformed = recording_transforms(monkeypatch)
        tracemalloc.start()
        try:
            got = outcome(f, 1e-15, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimates[-1] == (256, True)
        assert transformed[-1] == 512
        assert peak <= 8 * held
        undecided(monkeypatch)
        expected = outcome(f, 1e-15, False)
        assert re.fullmatch(r"the pass at degree bound 1024 needs .* over the "
                            r"budget .*; coefficient tail \S+ still at or above "
                            r"1.000e-15 at degree bound 512", str(expected))
        assert_same_outcome(got, expected)

    @pytest.mark.parametrize("swap", [False, True], ids=["y-grows", "x-grows"])
    def test_a_pass_whose_successor_doubles_one_axis_transforms(self, monkeypatch,
                                                                swap):
        # |y| + sin(40 x) at 1e-10: x resolves at 128 and y doubles on.  The
        # 128 x 128 and 128 x 256 passes are not proven to fail, as their x
        # tails pass: each stops after its x probe (swapped, after both),
        # and transforms.  The budget holds the 128 x 512 pass but not its
        # successor with both bounds doubled, so that pass takes no estimate
        def f(x, y):
            return np.abs(y) + np.sin(40.0 * x)

        g = (lambda x, y: f(y, x)) if swap else f
        roomy = (512, 256) if swap else (256, 512)
        monkeypatch.setattr(chebcore, "_GRID_BUDGET",
                            8 * builder._pass_entries(*roomy, 129 * 513))
        probes = recording_probes(monkeypatch)
        estimates = recording_estimates(monkeypatch)
        got = outcome(g, 1e-10, False)
        if swap:
            assert estimates == [(128, False), (256, False)]
            assert probes == [((129, 129), 0), ((129, 129), 1),
                              ((257, 129), 0), ((257, 129), 1)]
        else:
            assert estimates == [(128, False), (128, False)]
            assert probes == [((129, 129), 0), ((129, 257), 0)]
        undecided(monkeypatch)
        expected = outcome(g, 1e-10, False)
        assert str(expected).endswith(
            "at degree bounds 512 x 128" if swap else "at degree bounds 128 x 512")
        assert_same_outcome(got, expected)

    @pytest.mark.parametrize("name", SWEEP)
    def test_no_error_follows_a_skipped_pass(self, monkeypatch, name):
        # f and f with x and y swapped, at max_n 2048, and at a budget that
        # holds a 512 pass even after another but refuses the 1024 pass:
        # every ConvergenceError names the last tensor pass, which
        # transformed and did not skip
        passes = []
        proven_failure = builder._proven_failure
        transform = chebcore._lobatto_coeffs

        def estimating(values, *args):
            skipped = proven_failure(values, *args)
            if skipped:
                passes.append(("skipped", values.shape))
            return skipped

        def transforming(values):
            passes.append(("transformed", values.shape))
            return transform(values)

        monkeypatch.setattr(builder, "_proven_failure", estimating)
        monkeypatch.setattr(builder, "_lobatto_coeffs", transforming)
        budgets = chebcore._GRID_BUDGET, 8 * builder._pass_entries(512, 512, 513 ** 2)
        f = SWEEP[name]
        for budget, g, (tol, relative) in itertools.product(
                budgets, (f, lambda x, y: f(y, x)), SWEEP_TOLS):
            monkeypatch.setattr(chebcore, "_GRID_BUDGET", budget)
            passes.clear()
            result = outcome(g, tol, relative, max_n=2048)
            if isinstance(result, ConvergenceError):
                kind, (rows, cols) = passes[-1]
                assert kind == "transformed"
                assert ("skipped", (rows, cols)) not in passes
                assert str(result).endswith("at " + builder._bounds(rows - 1, cols - 1))

    def test_samples_that_may_overflow_are_transformed(self, monkeypatch):
        # 1e306 T_128(x) T_128(y): its 65 x 65 grid transforms, and its
        # 129 x 129 grid's sums overflow.  That pass takes no estimate,
        # which would overflow too, and stops as a transform that overflows
        def f(x, y):
            return 1e306 * np.cos(128.0 * np.arccos(x)) * np.cos(128.0 * np.arccos(y))

        estimates = recording_estimates(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match="transform overflowed at degree bound 128"):
                bc.build_adaptive(f, 1e-15)
        assert estimates == []

    def test_a_pass_that_may_converge_pays_one_estimate(self, monkeypatch):
        # sin(60 x) cos(50 y) converges on its 129 x 129 grid: the x tail,
        # probed first, does not clearly fail, and the pass transforms
        probes = recording_probes(monkeypatch)
        transformed = recording_transforms(monkeypatch)
        c = bc.build_adaptive(lambda x, y: np.sin(60.0 * x) * np.cos(50.0 * y),
                              1e-14, relative=True)
        assert (c.degree_x, c.degree_y) == (99, 86)
        assert probes == [((129, 129), 0)]
        assert transformed[-1] == 128

    def test_a_pass_whose_x_tail_passes_transforms(self, monkeypatch):
        # sin(20 x) sin(200 y): the 65 x 257 and 65 x 513 passes follow
        # passes that doubled y alone; their x tails, probed first, pass, so
        # each takes no other probe, and every pass transforms
        estimates = recording_estimates(monkeypatch)
        probes = recording_probes(monkeypatch)
        transformed = recording_transforms(monkeypatch)
        c = bc.build_adaptive(lambda x, y: np.sin(20.0 * x) * np.sin(200.0 * y),
                              1e-14, relative=True)
        assert (c.degree_x, c.degree_y) == (47, 257)
        assert probes == [((65, 257), 0), ((65, 513), 0)]
        assert estimates == [(64, False), (64, False)]
        assert transformed == [8, 16, 32, 64, 64, 64, 64]


class TestTrim:
    def test_small_matrix(self):
        sparse = bc.trim(np.array([[1.0, 1e-20], [0.0, 2.0]]), 1e-15)
        assert sparse.entries == ((0, 0, 1.0), (1, 1, 2.0))
        assert (sparse.degree_x, sparse.degree_y) == (1, 1)

    def test_all_zero_matrix(self):
        sparse = bc.trim(np.zeros((3, 3)), 1e-15)
        assert sparse.entries == ()
        assert (sparse.degree_x, sparse.degree_y) == (0, 0)
        zero = bc.to_cheb2(sparse)
        assert bc.evaluate_matrix(zero, 0.3, -0.4) == 0.0

    def test_cosxy_even_layout(self, cosxy):
        # threshold below the smallest table value keeps the 3x3-of-even grid
        sparse = bc.trim(cosxy.coeffs, 5e-4)
        positions = {(i, j) for i, j, _ in sparse.entries}
        assert positions == {(i, j) for i in (0, 2, 4) for j in (0, 2, 4)}
        # a threshold above 0.000603385 drops the (4, 4) corner
        sparse = bc.trim(cosxy.coeffs, 1e-3)
        positions = {(i, j) for i, j, _ in sparse.entries}
        assert (4, 4) not in positions
        assert len(positions) == 8

    def test_degrees_shrink(self):
        a = np.zeros((6, 6))
        a[2, 3] = 1.0
        sparse = bc.trim(a, 1e-15)
        assert (sparse.degree_x, sparse.degree_y) == (2, 3)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValidationError):
            bc.trim(np.ones((2, 2)), -1.0)

    @staticmethod
    def by_mask(a, tol):
        """(degree_x, degree_y, entries) by the mask trim once applied on its
        own: keep |a| >= tol and nonzero, degrees from the kept indices."""
        rows, cols = np.nonzero((np.abs(a) >= tol) & (a != 0.0))
        if rows.size == 0:
            return 0, 0, ()
        return (int(rows.max()), int(cols.max()),
                tuple(zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())))

    @pytest.mark.parametrize("seed", range(4))
    def test_keeps_what_the_mask_keeps(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            shape = tuple(rng.integers(1, 9, 2))
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-20, 1, shape)
            for tol in (0.0, 1e-15, 1e-3, 0.5):
                b = a.copy()
                # zeros, -0.0, entries at +-tol and just below it
                picks = rng.choice(7, size=shape)
                for k, v in enumerate((0.0, -0.0, tol, -tol, np.nextafter(tol, 0.0))):
                    b[picks == k] = v
                for t in (tol, 2.0 * np.abs(b).max()):  # the second keeps nothing
                    sparse = bc.trim(b, t)
                    assert sparse.tol == t
                    assert (sparse.degree_x, sparse.degree_y, sparse.entries) == \
                        self.by_mask(b, t)

    @pytest.mark.parametrize("a", [np.zeros((3, 4)), np.full((2, 5), -0.0),
                                   np.zeros((0, 3))], ids=["zero", "negative-zero", "empty"])
    @pytest.mark.parametrize("tol", [0.0, 1e-15])
    def test_no_entry_kept_is_the_zero_document(self, a, tol):
        sparse = bc.trim(a, tol)
        assert (sparse.degree_x, sparse.degree_y, sparse.entries) == \
            self.by_mask(a, tol) == (0, 0, ())

    def test_copies_its_matrix_once(self):
        # the copy is trimmed in place and read by to_sparse, with no second
        # copy of the kept block, which here is the whole matrix
        a = np.zeros((1000, 1000))
        a[0, 0], a[-1, -1] = 1.0, 2.0
        tracemalloc.start()
        try:
            sparse = bc.trim(a, 1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sparse.entries == ((0, 0, 1.0), (999, 999, 2.0))
        assert peak <= 1.1 * a.nbytes

    def test_leaves_its_argument_unchanged(self):
        # the builder's trim works in place, so trim must work on a copy
        a = np.array([[1.0, 1e-20, -0.0], [1e-20, 2.0, 0.0]])
        before = a.tobytes()
        expected = ((0, 0, 1.0), (1, 1, 2.0))
        assert bc.trim(a, 1e-15).entries == expected
        assert a.tobytes() == before and a.flags.writeable
        c = bc.Cheb2(a)
        assert bc.trim(c.coeffs, 1e-15).entries == expected
        assert c.coeffs.tobytes() == before

    # SparseCoeffs checks its tol the same way (TestPersistence)
    @pytest.mark.parametrize("tol", ["0", None, True], ids=["str", "none", "bool"])
    @pytest.mark.parametrize("call", [
        lambda tol: bc.Cheb2(np.ones((2, 2)), bc.UNIT_SQUARE, tol),
        lambda tol: bc.trim(np.ones((2, 2)), tol),
        lambda tol: bc.build_adaptive(f_cosxy, tol),
    ], ids=["Cheb2", "trim", "build_adaptive"])
    def test_non_real_tol_is_invalid(self, call, tol):
        with pytest.raises(ValidationError, match="tol must be a number"):
            call(tol)

    def test_real_tol_is_stored_as_float(self):
        for tol in (0, np.float64(0.5)):
            c = bc.Cheb2(np.ones((2, 2)), bc.UNIT_SQUARE, tol)
            assert c.tol == tol and type(c.tol) is float

    @pytest.mark.parametrize("degrees", [(1.5, 1), (1, 1.5), (True, 1)],
                             ids=["float-x", "float-y", "bool-x"])
    def test_truncation_degrees_must_be_integers(self, cosxy, degrees):
        with pytest.raises(ValidationError, match="must be an integer"):
            bc.truncate(cosxy, *degrees)

    @pytest.mark.parametrize("call, message", [
        (lambda: bc.Cheb2(np.ones(3)),
         "coefficients must form a 2-D matrix, got shape (3,)"),
        (lambda: bc.Cheb2(np.ones((2, 2, 2))),
         "coefficients must form a 2-D matrix, got shape (2, 2, 2)"),
        (lambda: bc.trim(np.ones(3), 0.0), "coefficients must form a 2-D matrix"),
        (lambda: bc.truncate(bc.Cheb2(np.ones((2, 2))), -1, 1),
         "truncation degrees must be >= 0"),
        (lambda: bc.truncate(bc.Cheb2(np.ones((2, 2))), 1, -1),
         "truncation degrees must be >= 0"),
    ], ids=["Cheb2-1-D", "Cheb2-3-D", "trim-1-D", "truncate-negative-x",
            "truncate-negative-y"])
    def test_shape_and_degree_errors(self, call, message):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


class TestEvaluate:
    def test_constant_everywhere(self):
        c = bc.Cheb2(np.array([[2.5]]))
        for x, y in [(-1, -1), (0, 0.7), (1, 1)]:
            assert bc.evaluate_matrix(c, x, y) == 2.5

    def test_separable_product(self):
        a = np.zeros((3, 4))
        a[2, 3] = 1.0
        c = bc.Cheb2(a)
        expected = (-0.82) * 0.728  # T2(0.3) * T3(-0.7)
        assert bc.evaluate_matrix(c, 0.3, -0.7) == pytest.approx(expected, abs=1e-12)

    def test_truncated_cosxy_error_level(self, cosxy):
        truncated = bc.truncate(cosxy, 4, 4)
        xs = np.linspace(0.0, 1.0, 50)
        values = bc.evaluate_grid(truncated, xs, xs)
        exact = np.cos(np.outer(xs, xs))
        max_err = np.abs(values - exact).max()
        assert max_err == pytest.approx(0.000082141, abs=2e-5)

    def test_clenshaw_equals_matrix_form(self):
        rng = np.random.default_rng(21)
        c = bc.Cheb2(rng.standard_normal((6, 5)))
        for x, y in rng.uniform(-1.0, 1.0, size=(100, 2)):
            m = bc.evaluate_matrix(c, x, y)
            s = bc.evaluate_clenshaw(c, x, y)
            assert s == pytest.approx(m, rel=1e-12, abs=1e-13)

    def test_clenshaw_bilinear(self):
        a = np.zeros((2, 2))
        a[1, 1] = 1.0
        c = bc.Cheb2(a)
        assert bc.evaluate_clenshaw(c, 0.5, 0.25) == pytest.approx(0.125, abs=1e-15)

    def test_outside_domain_raises(self):
        c = bc.Cheb2(np.array([[1.0]]), bc.Domain2(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(DomainError, match="1.5"):
            bc.evaluate_matrix(c, 1.5, 0.5)
        with pytest.raises(DomainError):
            bc.evaluate_clenshaw(c, 0.5, -0.1)
        with pytest.raises(DomainError):
            bc.evaluate_grid(c, [0.2, 1.4], [0.5])

    def test_array_points_match_clenshaw_across_blocks(self):
        def runge(x, y):
            return 1.0 / (1.0 + 25.0 * (x ** 2 + y ** 2))

        c = bc.build_adaptive(runge, 1e-14, relative=True)
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(-1.0, 1.0, size=(2, chebcore._EVAL_BLOCK + 37))
        values = bc.evaluate_matrix(c, xs, ys)
        assert values.shape == xs.shape
        oracle = np.array([bc.evaluate_clenshaw(c, x, y) for x, y in zip(xs, ys)])
        assert np.abs(values - oracle).max() <= 1e-14

    def test_scalar_point_gives_float(self, cosxy):
        assert type(bc.evaluate_matrix(cosxy, 0.3, -0.7)) is float
        assert type(bc.evaluate_matrix(cosxy, np.float64(0.3), np.float64(-0.7))) is float

    def test_scalar_point_is_a_one_point_array(self):
        # one kernel for every point: a scalar gives the bits of the same
        # point in a one-point array
        c = bc.build_adaptive(runge, 1e-14, relative=True)
        rng = np.random.default_rng(22)
        for x, y in rng.uniform(-1.0, 1.0, size=(200, 2)):
            value = bc.evaluate_matrix(c, float(x), float(y))
            assert type(value) is float
            assert value == bc.evaluate_matrix(c, np.array([x]), np.array([y]))[0]

    def test_empty_arrays_give_empty_array(self, cosxy):
        values = bc.evaluate_matrix(cosxy, np.array([]), np.array([]))
        assert isinstance(values, np.ndarray)
        assert values.shape == (0,)

    def test_unequal_lengths_rejected(self, cosxy):
        with pytest.raises(ValidationError):
            bc.evaluate_matrix(cosxy, np.zeros(3), np.zeros(5))

    def test_grid_axes_must_be_one_dimensional(self, cosxy):
        with pytest.raises(ValidationError):
            bc.evaluate_grid(cosxy, np.zeros((2, 3)), [0.0])

    def test_broadcast_points_match_grid(self, cosxy):
        xs = np.linspace(-1.0, 1.0, 7)
        ys = np.linspace(-1.0, 1.0, 5)
        values = bc.evaluate_matrix(cosxy, xs[:, None], ys[None, :])
        assert values.shape == (7, 5)
        assert np.abs(values - bc.evaluate_grid(cosxy, xs, ys)).max() <= 1e-14

    def test_one_point_outside_among_many(self):
        c = bc.Cheb2(np.ones((3, 3)), bc.Domain2(0.0, 1.0, 0.0, 1.0))
        xs = np.linspace(0.0, 1.0, 3000)
        ys = xs[::-1].copy()
        ys[2500] = 1.25
        ys[2700] = -3.0
        with pytest.raises(DomainError, match=re.escape(f"({float(xs[2500])!r}, 1.25)")):
            bc.evaluate_matrix(c, xs, ys)

    def test_overshoot_is_clamped_for_arrays(self, cosxy):
        edge = np.array([1.0 + 1e-13, -1.0 - 1e-13])
        corners = np.array([1.0, -1.0])
        assert np.array_equal(bc.evaluate_matrix(cosxy, edge, edge),
                              bc.evaluate_matrix(cosxy, corners, corners))

    def test_non_finite_point_is_outside(self, cosxy):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                bc.evaluate_matrix(cosxy, bad, 0.0)
            with pytest.raises(DomainError):
                bc.evaluate_matrix(cosxy, np.array([0.0, bad]), np.zeros(2))
            with pytest.raises(DomainError):
                bc.evaluate_grid(cosxy, [0.0], [0.5, bad])

    def test_grid_matches_pointwise(self, cosxy):
        xs = np.linspace(-1.0, 1.0, 7)
        ys = np.linspace(-1.0, 1.0, 5)
        grid = bc.evaluate_grid(cosxy, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert grid[i, j] == pytest.approx(
                    bc.evaluate_matrix(cosxy, x, y), abs=1e-14)


LIMIT = sys.float_info.max / 4
PAST = float(np.nextafter(LIMIT, np.inf))


class TestDomainLimit:
    """Bounds of at most max / 4 in magnitude keep the affine maps finite."""

    def test_bounds_at_the_limit_map_every_node(self):
        d = bc.Domain2(-LIMIT, LIMIT, -LIMIT, LIMIT)
        u = chebcore.lobatto_nodes(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for there, back in ((d.x_from_unit, d.unit_from_x),
                                (d.y_from_unit, d.unit_from_y)):
                x = there(u)
                assert np.isfinite(x).all()
                assert np.abs(back(x)).max() <= 1.0

    @pytest.mark.parametrize("bounds", [(0.5 * LIMIT, LIMIT, -LIMIT, -0.5 * LIMIT),
                                        (-LIMIT, 0.0, 0.0, LIMIT)],
                             ids=["one-sided", "half"])
    def test_asymmetric_rectangles_evaluate_at_their_corners(self, bounds):
        d = bc.Domain2(*bounds)
        c = bc.Cheb2(np.ones((3, 3)), d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for there in (d.x_from_unit, d.y_from_unit):
                assert np.isfinite(there(chebcore.lobatto_nodes(64))).all()
            values = bc.evaluate_matrix(c, np.array(bounds[:2]), np.array(bounds[2:]))
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("bounds", [
        (-PAST, 0.0, -1.0, 1.0), (0.0, PAST, -1.0, 1.0),
        (-1.0, 1.0, -PAST, 0.0), (-1.0, 1.0, 0.0, PAST),
    ], ids=["xlo", "xhi", "ylo", "yhi"])
    def test_bound_past_the_limit_is_refused(self, bounds):
        with pytest.raises(ValidationError, match=r"at most 4\.494e\+307 in magnitude"):
            bc.Domain2(*bounds)

    @pytest.mark.parametrize("bounds, shown", [
        ((0.0, 1e-310, -1.0, 1.0), "[0.0, 1e-310] x [-1.0, 1.0]"),
        ((-1.0, 1.0, -5e-324, 5e-324), "[-1.0, 1.0] x [-5e-324, 5e-324]"),
    ], ids=["width", "height"])
    def test_side_below_the_smallest_normal_is_refused(self, bounds, shown):
        with pytest.raises(ValidationError) as info:
            bc.Domain2(*bounds)
        assert str(info.value) == ("domain width and height must be at least "
                                   f"2.225e-308, got {shown}")

    def test_side_of_the_smallest_normal_is_accepted(self):
        tiny = sys.float_info.min
        d = bc.Domain2(0.0, tiny, -tiny, 0.0)
        assert (d.xhi - d.xlo, d.yhi - d.ylo) == (tiny, tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.unit_from_x(tiny / 2) == 0.0
            # the derivative's factor 2 / tiny is finite
            assert np.isfinite(bc.diff_x(bc.Cheb2(np.array([[0.0], [1.0]]), d)).coeffs).all()


class TestParsevalIndicator:
    def test_exactly_representable_function(self):
        a = np.zeros((2, 2))
        a[1, 1] = 1.0
        c = bc.Cheb2(a)
        value = bc.parseval_indicator(c, lambda x, y: x * y)
        assert abs(value) <= 1e-12

    def test_truncated_cosxy(self, cosxy):
        truncated = bc.truncate(cosxy, 4, 4)
        value = bc.parseval_indicator(truncated, f_cosxy)
        assert 3.97247e-11 <= value <= 3.97247e-9

    def test_full_example2(self, example2):
        value = bc.parseval_indicator(example2, f_example2)
        assert abs(value) <= 1e-12

    def test_grid_per_axis(self):
        # degrees 5 and 0 need 8 and 1: the smallest powers of two above d
        shapes = []

        def f(x, y):  # T_5(x)
            shapes.append(np.broadcast(x, y).shape)
            return 16.0 * x ** 5 - 20.0 * x ** 3 + 5.0 * x + 0.0 * y

        c = bc.Cheb2([[0.0]] * 5 + [[1.0]])
        assert abs(bc.parseval_indicator(c, f)) <= 1e-14
        assert shapes == [(9, 2)]

    def test_truncated_bump_is_flagged_on_the_smallest_exact_grid(self):
        # the bump's degree-200 corner misses about 2.8e-7 of its mass, and
        # the rule sees it on Lobatto(256), exact for the corner's square
        c = bc.truncate(bc.build_adaptive(narrow_bump, 1e-14, relative=True), 200, 200)
        shapes = []

        def f(x, y):
            shapes.append(np.broadcast(x, y).shape)
            return narrow_bump(x, y)

        assert bc.parseval_indicator(c, f) > 1e-7
        assert shapes == [(257, 257)]

    def test_over_budget_refused_before_sampling(self, monkeypatch):
        # the samples and f's result: 2 x 8193 x 5 doubles, 0.66 MB
        c = bc.Cheb2(np.ones((6000, 3)))
        calls = []
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 2 ** 19)
        with pytest.raises(ValidationError, match="8193 x 5 grid needs .* budget"):
            bc.parseval_indicator(c, lambda x, y: calls.append(1) or x * y)
        assert calls == []

    def test_overflow_is_refused_without_a_warning(self):
        # f = 1e307 x y is built exactly, but its squares overflow
        c = bc.build_adaptive(lambda x, y: 1e307 * x * y, 1e-15, relative=True)
        assert c.coeffs.shape == (2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=r"overflowed on its 3 x 3 grid.* 1\.000e\+307"):
                bc.parseval_indicator(c, lambda x, y: 1e307 * x * y)

    @pytest.mark.parametrize("case", ["example2", "runge", "random"])
    def test_quadrature_equals_constant_coefficient(self, case, example2):
        # the Lobatto rule is the (0, 0) DCT-I coefficient of f^2 on its grid
        if case == "example2":
            c, f = example2, f_example2
        elif case == "runge":
            def f(x, y):
                return 1.0 / (1.0 + 25.0 * (x ** 2 + y ** 2))

            c = bc.build_adaptive(f, 1e-14, relative=True)
        else:
            # degrees 16 and 8 give the 33 x 17 grid of random samples
            rng = np.random.default_rng(17)
            c = bc.Cheb2(0.2 * rng.standard_normal((17, 9)))
            table = rng.standard_normal((33, 17))
            nodes_x, nodes_y = chebcore.lobatto_nodes(32), chebcore.lobatto_nodes(16)

            def f(x, y):
                assert np.array_equal(x[:, 0], nodes_x)
                assert np.array_equal(y[0], nodes_y)
                return table

        grids = []

        def recording(x, y):
            values = f(x, y)
            grids.append(np.square(values))
            return values

        value = bc.parseval_indicator(c, recording)
        a = c.coeffs
        mass = (a[0, 0] ** 2 + 0.5 * np.sum(a[1:, 0] ** 2)
                + 0.5 * np.sum(a[0, 1:] ** 2) + 0.25 * np.sum(a[1:, 1:] ** 2))
        expected = chebcore._lobatto_coeffs(grids[0])[0, 0] - mass
        assert abs(value - expected) <= 4 * math.ulp(mass)


class TestCoeffsByQuadrature:
    def test_constant(self):
        assert bp.coeffs_by_quadrature(lambda x, y: 1.0, 0, 0, 64) == \
            pytest.approx(1.0, abs=1e-12)

    def test_cubic_basis_function(self):
        def f(x, y):
            return 4 * x ** 3 - 3 * x + 0.0 * y

        assert bp.coeffs_by_quadrature(f, 3, 0, 64) == pytest.approx(1.0, abs=1e-10)

    def test_cosxy_leading_coefficient(self):
        value = bp.coeffs_by_quadrature(f_cosxy, 0, 0, 256)
        assert value == pytest.approx(0.880725579, abs=1e-8)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValidationError):
            bp.coeffs_by_quadrature(f_cosxy, 10, 0, 32)

    @pytest.mark.parametrize("k, j", [(-1, 0), (0, -1)])
    def test_rejects_a_negative_index(self, k, j):
        with pytest.raises(ValidationError,
                           match=r"^coefficient indices must be >= 0$"):
            bp.coeffs_by_quadrature(f_cosxy, k, j, 64)


class TestCrossChecks:
    @pytest.mark.parametrize("f", [
        f_cosxy,
        lambda x, y: np.exp(x * y),
        lambda x, y: x ** 3 * y ** 2,
    ])
    def test_transform_path_matches_quadrature(self, f):
        alpha = bp.coeffs_from_samples(bp.sample_grid(f, 64), 8)
        for k in range(9):
            for j in range(9):
                oracle = bp.coeffs_by_quadrature(f, k, j, 512)
                assert alpha[k, j] == pytest.approx(oracle, abs=1e-8)

    def test_decay_bounds_for_cosxy(self, cosxy):
        # |d2/dx2 cos(xy)| = |y^2 cos(xy)| <= 1 on the square, same in y
        bounds = bp.DecayBounds(1.0, 1.0, 1.0)
        assert bp.decay_bound_excess(cosxy, bounds) <= 0.0

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    @pytest.mark.parametrize("field", ["dxx", "dyy", "dxy"])
    def test_decay_bounds_are_finite_and_nonnegative(self, field, bad):
        values = {"dxx": 1.0, "dyy": 1.0, "dxy": 1.0, field: bad}
        with pytest.raises(ValidationError,
                           match=rf"^{field} must be finite and >= 0$"):
            bp.DecayBounds(**values)

    def test_grid_error_is_monotone_in_degree(self, cosxy):
        xs = np.linspace(-1.0, 1.0, 50)
        exact = np.cos(np.outer(xs, xs))
        errors = []
        for n in (4, 8, 16):
            t = bc.truncate(cosxy, n, n)
            errors.append(np.abs(bc.evaluate_grid(t, xs, xs) - exact).max())
        assert errors[1] <= errors[0] + 1e-14
        assert errors[2] <= errors[1] + 1e-14

    def test_retained_coefficients_minimize_weighted_residual(self):
        rng = np.random.default_rng(11)
        target = rng.uniform(-1.0, 1.0, size=(5, 5))
        reference = bc.Cheb2(target)

        def f(x, y):
            return bc.evaluate_matrix(reference, x, y)

        c = bc.build_adaptive(f, 1e-15)
        samples = bp.sample_grid(f, 64)
        u = np.cos(2 * np.pi * np.arange(64) / 64)

        def residual(coeffs):
            approx = bc.evaluate_grid(bc.Cheb2(coeffs), u, u)
            return float(np.mean((samples - approx) ** 2))

        base = residual(c.coeffs)
        for i in range(c.degree_x + 1):
            for j in range(c.degree_y + 1):
                for delta in (1e-3, -1e-3):
                    perturbed = np.array(c.coeffs)
                    perturbed[i, j] += delta
                    assert residual(perturbed) > base


class TestPersistence:
    def test_round_trip_through_buffer(self, cosxy):
        sparse = bc.to_sparse(cosxy)
        buffer = io.StringIO()
        bc.save(sparse, buffer)
        loaded = bc.load(io.StringIO(buffer.getvalue()))
        assert loaded == sparse

    @pytest.mark.parametrize("collecting", [True, False])
    def test_load_leaves_the_collector_as_it_found_it(self, cosxy, collecting):
        # load pauses the cyclic collector while it parses, and restores it
        # whether the parse or the checks after it succeed or fail
        good = bc.document_text(bc.to_sparse(cosxy))
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert bc.load(io.StringIO(good)) == bc.to_sparse(cosxy)
            assert gc.isenabled() == collecting
            with pytest.raises(ParseError):
                bc.load(io.StringIO(good[:-3]))
            assert gc.isenabled() == collecting
            with pytest.raises(ValidationError):
                bc.load(io.StringIO(good.replace('"tol"', '"tolerance"')))
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_round_trip_through_file(self, cosxy, tmp_path):
        sparse = bc.to_sparse(cosxy)
        path = tmp_path / "c.json"
        bc.save(sparse, path)
        assert bc.load(path) == sparse

    def test_repeated_save_is_byte_identical(self, cosxy):
        sparse = bc.to_sparse(cosxy)
        first = bc.document_text(sparse)
        second = bc.document_text(bc.load(io.StringIO(first)))
        assert first == second

    def test_dense_round_trip_is_bitwise(self, cosxy):
        text = bc.document_text(bc.to_sparse(cosxy))
        back = bc.to_cheb2(bc.load(io.StringIO(text)))
        assert back.coeffs.shape == cosxy.coeffs.shape
        assert np.array_equal(back.coeffs, cosxy.coeffs)

    def test_to_cheb2_does_not_scan_a_loaded_document(self, cosxy, monkeypatch):
        # a SparseCoeffs holds only finite values, so its matrix is not
        # scanned for NaN and inf again
        text = bc.document_text(bc.to_sparse(cosxy))
        arrays = TestFiniteBounds.scans(monkeypatch)
        back = bc.to_cheb2(bc.load(io.StringIO(text)))
        assert arrays == [] and not back.coeffs.flags.writeable
        assert back == cosxy

    def test_empty_entries_is_zero_function(self):
        text = ('{"degree_x": 0, "degree_y": 0, "domain": [-1, 1, -1, 1], '
                '"tol": 1e-15, "entries": []}')
        c = bc.to_cheb2(bc.load(io.StringIO(text)))
        assert bc.evaluate_matrix(c, 0.123, -0.9) == 0.0

    def test_parse_stays_within_its_charge(self, tmp_path, monkeypatch):
        # 17-digit values and indices past the small-int cache: load held
        # 9.7 MiB for this 1.3 MiB document, against 11.1 MiB charged
        path = tmp_path / "d.json"
        bc.save(bc.trim(np.random.default_rng(8).uniform(1.0, 10.0, (40, 1000)), 0.0),
                path)
        charged = []

        def record(what, entries, error=ValidationError):
            charged.append(entries)

        monkeypatch.setattr(chebcore, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            bc.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text()
        # the read's charge, two bytes per byte of the file, then the parse's
        assert charged == [(len(text) + 3) // 4,
                           max(len(text), (len(text) + 7) // 8
                               + 32 * (text.count("[") + text.count("{"))
                               + 8 * (text.count(",") + text.count(":")
                                      + text.count('"')))]
        assert peak <= 8 * charged[1]

    @pytest.mark.parametrize("entries", [0, 1, 2, 4097])
    def test_document_text_checks_what_load_charges(self, monkeypatch, entries):
        # document_text counts the brackets and separators of its layout
        # from the number of entries; load counts them in the text
        counts = []
        parse_entries = chebcore._parse_entries

        def recording(*args):
            counts.append(args)
            return parse_entries(*args)

        monkeypatch.setattr(chebcore, "_parse_entries", recording)
        values = (np.zeros((1, 1)) if entries == 0 else
                  np.random.default_rng(entries).uniform(-2.0, 2.0, (entries, 1)))
        text = bc.document_text(bc.trim(values, 0.0))
        bc.load(io.StringIO(text))
        assert counts == 2 * [(len(text), text.count("[") + text.count("{"),
                               text.count(",") + text.count(":") + text.count('"'))]

    @pytest.mark.parametrize("document", [
        # one-digit values and no spaces: the entries' Python objects, about
        # 235 bytes each, outweigh the text's 11 characters per entry
        lambda: ('{"degree_x": 299, "degree_y": 299, "domain": [-1, 1, -1, 1], '
                 '"tol": 0, "entries": ['
                 + ",".join(f"[{i},{j},1]" for i in range(300) for j in range(300))
                 + "]}\n"),
        # a flat list under a key that load ignores has one '[' however long
        # it is: each value, a float and its list slot, costs more than its
        # characters, and the floor of a double per character covers it
        lambda: ('{"degree_x": 0, "degree_y": 0, "domain": [-1, 1, -1, 1], '
                 '"tol": 0, "entries": [], "pad": ['
                 + ",".join(["0.12345678901234567"] * 200_000) + "]}\n"),
        # short values under that key: each takes more than a double per
        # character, up to 25 bytes per character for '{}', and the charges
        # per '{', ',', ':' and '"' cover them
        *[lambda value=value: ('{"degree_x": 0, "degree_y": 0, '
                               '"domain": [-1, 1, -1, 1], "tol": 0, "entries": [], '
                               '"pad": [' + ",".join([value] * 200_000) + "]}\n")
          for value in ("{}", '"ab"', "999", "0.5")],
    ], ids=["compact-entries", "ignored-list-of-numbers", "ignored-objects",
            "ignored-strings", "ignored-integers", "ignored-short-floats"])
    def test_short_values_stay_within_their_charge(self, tmp_path, monkeypatch,
                                                   document):
        path = tmp_path / "d.json"
        path.write_text(document())
        charged = []

        def record(what, entries, error=ValidationError):
            charged.append(entries)

        monkeypatch.setattr(chebcore, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            bc.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * charged[1]  # the parse's charge, after the read's

    def test_malformed_document_reports_location(self):
        with pytest.raises(ParseError) as info:
            bc.load(io.StringIO('{"degree_x": 0, '))
        assert info.value.position >= 0

    def test_non_ascii_byte_is_parse_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"degree_x": 0, "degree_y": 0, "domain": '
                         b'[-1, 1, -1, 1], "tol": 0, "entries": []}\xc3\xa9')
        with pytest.raises(ParseError) as info:
            bc.load(path)
        assert info.value.position == path.stat().st_size - 2

    def test_entry_beyond_degrees_is_invalid(self):
        text = ('{"degree_x": 2, "degree_y": 2, "domain": [-1, 1, -1, 1], '
                '"tol": 0, "entries": [[3, 0, 1.0]]}')
        with pytest.raises(ValidationError):
            bc.load(io.StringIO(text))

    def test_unsorted_entries_are_invalid(self):
        text = ('{"degree_x": 2, "degree_y": 2, "domain": [-1, 1, -1, 1], '
                '"tol": 0, "entries": [[1, 1, 1.0], [0, 0, 2.0]]}')
        with pytest.raises(ValidationError):
            bc.load(io.StringIO(text))

    def test_zero_valued_entry_is_invalid(self):
        text = ('{"degree_x": 2, "degree_y": 2, "domain": [-1, 1, -1, 1], '
                '"tol": 0, "entries": [[0, 0, 0.0]]}')
        with pytest.raises(ValidationError):
            bc.load(io.StringIO(text))

    def test_missing_key_is_invalid(self):
        with pytest.raises(ValidationError, match="missing"):
            bc.load(io.StringIO('{"degree_x": 0}'))

    def test_to_sparse_keeps_every_stored_nonzero(self, cosxy):
        c = bc.Cheb2(cosxy.coeffs, bc.Domain2(0.0, 2.0, -1.0, 3.0), 1e-15)
        sparse = bc.to_sparse(c)
        trimmed = bc.trim(c.coeffs, 0.0, c.domain)
        assert sparse == bc.SparseCoeffs(trimmed.degree_x, trimmed.degree_y,
                                         c.domain, 1e-15, trimmed.entries)
        assert np.array_equal(bc.to_cheb2(sparse).coeffs, c.coeffs)

    @pytest.mark.parametrize("degrees, entry", [
        ((1, 1), (0.7, 1, 1.0)),
        ((1, 1), (0, 1.0, 1.0)),
        ((1, 1), (True, 1, 2.0)),
        ((1, 1), (0, np.bool_(True), 2.0)),
        ((1, 1), ("1", 0, 2.0)),
        ((1.0, 1), (0, 0, 1.0)),
        ((1, False), (0, 0, 1.0)),
    ], ids=["float-row", "float-column", "bool-row", "numpy-bool-column",
            "str-row", "float-degree", "bool-degree"])
    def test_non_integer_indices_are_invalid(self, degrees, entry):
        with pytest.raises(ValidationError, match="must be an integer"):
            bc.SparseCoeffs(*degrees, bc.UNIT_SQUARE, 0.0, (entry,))

    @pytest.mark.parametrize("tol, value", [
        (True, 1.5), ("0", 1.5), (None, 1.5), (np.float32(0.0), 1.5),
        (0.0, "1.5"), (0.0, True), (0.0, np.bool_(True)), (0.0, None),
        (0.0, 1 + 0j)], ids=["bool-tol", "str-tol", "none-tol",
                             "float32-tol", "str-value", "bool-value",
                             "numpy-bool-value", "none-value", "complex-value"])
    def test_non_real_tol_or_value_is_invalid(self, tol, value):
        with pytest.raises(ValidationError, match="must be a number"):
            bc.SparseCoeffs(1, 1, bc.UNIT_SQUARE, tol, ((0, 0, value),))

    def test_real_tol_and_values_are_stored_as_float(self):
        sparse = bc.SparseCoeffs(1, 1, bc.UNIT_SQUARE, 0,
                                 ((0, 0, 2), (1, 1, np.float64(0.5))))
        assert sparse.tol == 0.0 and sparse.entries == ((0, 0, 2.0), (1, 1, 0.5))
        assert type(sparse.tol) is float
        assert all(type(v) is float for _, _, v in sparse.entries)

    @pytest.mark.parametrize("tol, value", [("true", "1.0"), ("0", "true"),
                                            ('"0"', "1.0"), ("0", '"1.5"')])
    def test_loaded_non_real_tol_or_value_is_invalid(self, tol, value):
        text = ('{"degree_x": 2, "degree_y": 2, "domain": [-1, 1, -1, 1], '
                f'"tol": {tol}, "entries": [[0, 0, {value}]]}}')
        with pytest.raises(ValidationError, match="must be a number"):
            bc.load(io.StringIO(text))

    def test_numpy_integer_indices_are_stored_as_int(self):
        sparse = bc.SparseCoeffs(np.int64(1), np.int32(2), bc.UNIT_SQUARE, 0.0,
                                 ((np.int64(0), np.uint8(2), 1.0), (1, 1, 2.0)))
        assert sparse.entries == ((0, 2, 1.0), (1, 1, 2.0))
        assert all(type(i) is int and type(j) is int
                   for i, j, _ in sparse.entries)
        assert (type(sparse.degree_x), type(sparse.degree_y)) == (int, int)

    @pytest.mark.parametrize("index", ["1.0", "true", '"1"', "null"])
    def test_loaded_non_integer_index_is_invalid(self, index):
        text = ('{"degree_x": 2, "degree_y": 2, "domain": [-1, 1, -1, 1], '
                f'"tol": 0, "entries": [[{index}, 0, 1.0]]}}')
        with pytest.raises(ValidationError, match="must be an integer"):
            bc.load(io.StringIO(text))

    def test_domain_past_the_limit_is_invalid(self):
        text = ('{"degree_x": 0, "degree_y": 0, "domain": [-1e308, 1e308, -1, 1], '
                '"tol": 0, "entries": []}')
        with pytest.raises(ValidationError, match=r"at most 4\.494e\+307"):
            bc.load(io.StringIO(text))

    def test_bad_domain_is_invalid(self):
        text = ('{"degree_x": 0, "degree_y": 0, "domain": [1, -1, -1, 1], '
                '"tol": 0, "entries": []}')
        with pytest.raises(ValidationError):
            bc.load(io.StringIO(text))

    @pytest.mark.parametrize("entries", [
        "ab", {(0, 0, 1.0)}, ((0, 0),), ((0, 0, 1.0, 2),), (5,), ({0, 1, 2.5},),
    ], ids=["str", "set", "pair", "quadruple", "int-entry", "set-entry"])
    def test_malformed_entries_are_invalid(self, entries):
        with pytest.raises(ValidationError, match="must be a list|each entry must be"):
            bc.SparseCoeffs(1, 1, bc.UNIT_SQUARE, 0.0, entries)

    @pytest.mark.parametrize("degrees", [(2 ** 63, 0), (0, 2 ** 63)],
                             ids=["degree_x", "degree_y"])
    def test_degrees_stay_below_2_63(self, degrees):
        with pytest.raises(ValidationError, match=r"below 2\^63"):
            bc.SparseCoeffs(*degrees, bc.UNIT_SQUARE, 0.0, ())
        # the largest degree the constructor accepts, load reads back
        top = bc.SparseCoeffs(*(max(d - 1, 0) for d in degrees), bc.UNIT_SQUARE,
                              0.0, ((0, 0, 1.0),))
        assert bc.load(io.StringIO(bc.document_text(top))) == top

    @pytest.mark.parametrize("domain", ["nope", (-1.0, 1.0, -1.0, 1.0), None],
                             ids=["str", "tuple", "none"])
    def test_domain_must_be_a_domain2(self, domain):
        with pytest.raises(ValidationError, match="Domain2"):
            bc.SparseCoeffs(0, 0, domain, 0.0, ())
        with pytest.raises(ValidationError, match="Domain2"):
            bc.Cheb2(np.ones((2, 2)), domain)


class TestValueTypes:
    """Domain2, Cheb2 and SparseCoeffs: immutable, with the fields, repr,
    == and hash that they had as frozen dataclasses, apart from Cheb2's
    ==, which compares arrays, and its hash, which it does not have."""

    @staticmethod
    def values():
        domain = bc.Domain2(0.0, 2.0, -1.0, 3.0)
        return [domain, bc.Cheb2([[1.0, 0.5], [0.25, 0.0]], domain, 1e-15),
                bc.SparseCoeffs(1, 1, domain, 0.0, ((0, 0, 1.0), (1, 1, 2.0)))]

    @pytest.mark.parametrize("kind", range(3), ids=["Domain2", "Cheb2", "SparseCoeffs"])
    def test_fields_cannot_change(self, kind):
        value = self.values()[kind]
        for name in value._FIELDS:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before or name == "entries"
        with pytest.raises(AttributeError):
            value.other = 1

    def test_repr(self):
        domain, c, sparse = self.values()
        assert repr(domain) == "Domain2(xlo=0.0, xhi=2.0, ylo=-1.0, yhi=3.0)"
        assert repr(bc.UNIT_SQUARE) == "Domain2(xlo=-1.0, xhi=1.0, ylo=-1.0, yhi=1.0)"
        assert repr(sparse) == (
            "SparseCoeffs(degree_x=1, degree_y=1, domain=Domain2(xlo=0.0, xhi=2.0, "
            "ylo=-1.0, yhi=3.0), tol=0.0, entries=((0, 0, 1.0), (1, 1, 2.0)))")
        assert repr(c).startswith("Cheb2(coeffs=array([[1.  , 0.5 ],")

    def test_domain_and_document_equality_and_hash(self):
        domain, _, sparse = self.values()
        same = bc.load(io.StringIO(bc.document_text(sparse)))
        assert same == sparse and hash(same) == hash(sparse)
        ints = bc.Domain2(0, 2, -1, 3)
        assert ints == domain and hash(ints) == hash(domain)
        assert {domain: 1}[bc.Domain2(0.0, 2.0, -1.0, 3.0)] == 1
        assert domain != bc.UNIT_SQUARE and domain != (0.0, 2.0, -1.0, 3.0)
        other = bc.SparseCoeffs(1, 1, domain, 0.0, ((0, 0, 1.0), (1, 1, 2.5)))
        assert other != sparse and sparse != bc.SparseCoeffs(1, 1, domain, 1e-3,
                                                             sparse.entries)

    def test_cheb2_equality(self):
        rng = np.random.default_rng(3)
        big = rng.standard_normal((12, 15))
        view = bc.Cheb2._owning(big[1::2, ::3], bc.UNIT_SQUARE, 1e-15)
        assert not view.coeffs.flags.c_contiguous
        copy = bc.Cheb2(view.coeffs.copy(), bc.UNIT_SQUARE, 1e-15)
        assert view == copy and copy == view and not view != copy
        assert view != bc.Cheb2(copy.coeffs, bc.UNIT_SQUARE, 0.0)
        assert view != bc.Cheb2(copy.coeffs, bc.Domain2(-1.0, 1.0, -1.0, 2.0), 1e-15)
        assert view != bc.Cheb2(copy.coeffs[:, :-1], bc.UNIT_SQUARE, 1e-15)
        changed = copy.coeffs.copy()
        changed[-1, -1] = np.nextafter(changed[-1, -1], np.inf)
        assert view != bc.Cheb2(changed, bc.UNIT_SQUARE, 1e-15)
        # array_equal: -0.0 equals 0.0
        assert bc.Cheb2([[0.0, 1.0]]) == bc.Cheb2([[-0.0, 1.0]])
        assert view != view.coeffs and view != 1.0

    def test_cheb2_is_unhashable(self):
        c = self.values()[1]
        with pytest.raises(TypeError, match="unhashable"):
            hash(c)

    @pytest.mark.parametrize("kind", range(3), ids=["Domain2", "Cheb2", "SparseCoeffs"])
    def test_copy_and_pickle_rebuild_through_the_constructor(self, kind):
        value = self.values()[kind]
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value

    def test_document_stores_read_only_arrays(self, cosxy):
        loaded = bc.load(io.StringIO(bc.document_text(bc.to_sparse(cosxy))))
        built = bc.to_sparse(cosxy)
        for sparse in (loaded, built):
            assert [a.dtype for a in (sparse.rows, sparse.cols, sparse.values)] == \
                [np.int64, np.int64, np.float64]
            assert not any(a.flags.writeable for a in (sparse.rows, sparse.cols,
                                                       sparse.values))
        rows, cols = np.nonzero(cosxy.coeffs)
        assert np.array_equal(built.rows, rows) and np.array_equal(built.cols, cols)
        assert np.array_equal(built.values, cosxy.coeffs[rows, cols])
        assert loaded == built

    @pytest.mark.parametrize("entries, message", [
        ([[0, 0, 1.0], [3, 0, 1.0], [0.5, 0, 1.0]],
         r"entry index \(3, 0\) outside degree bounds \(2, 2\)"),
        ([[0, 0, 1.0], [0.5, 0, 1.0], [3, 0, 1.0]], "entry row must be an integer"),
        ([[0, 0, 1.0], [1, 1, 0.0], [1, 0, 1.0]], r"entry \(1, 1\) has invalid value 0\.0"),
        ([[0, 0, 1.0], [1, 1, 1.0], [1, 0, 1.0], [2, 2, 0.0]],
         r"entries not strictly increasing at \(1, 0\)"),
        ([[0, 0, 1.0], [0, 0, 2.0]], r"entries not strictly increasing at \(0, 0\)"),
        ([[0, 1, 1.0], [1, 0, 10 ** 400]],
         r"entry \(1, 0\) value is too large for a double"),
        ([[0, 0, 1.0], [1, 2 ** 64, 1.0]],
         r"entry index \(1, 18446744073709551616\) outside degree bounds"),
        ([[0, 0, 1.0], [-1, 0, 1.0]], r"entry index \(-1, 0\) outside degree bounds"),
        ([[0, 0, float("nan")], [0, 1, 1.0, 5]], r"entry \(0, 0\) has invalid value nan"),
        ([[0, 0, 1.0], [0, 1, 1.0, 5]], r"each entry must be \[row, col, value\], got "
                                        r"\[0, 1, 1\.0, 5\]"),
        ([[0, 0, 1.0], [1, 1, True]], r"entry \(1, 1\) value must be a number"),
    ], ids=["bounds-before-type", "type-before-bounds", "zero", "order", "repeat",
            "huge-value", "huge-index", "negative-index", "nan-before-shape", "shape",
            "bool-value"])
    def test_first_bad_entry_is_named(self, entries, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            bc.SparseCoeffs(2, 2, bc.UNIT_SQUARE, 0.0, entries)

    def test_numpy_and_int_entries_are_stored_as_arrays(self):
        sparse = bc.SparseCoeffs(3, 3, bc.UNIT_SQUARE, 0.0,
                                 [[np.uint8(0), 1, 2], (1, np.int64(0), np.float64(0.5)),
                                  [3, 3, 2 ** 64]])
        assert sparse.entries == ((0, 1, 2.0), (1, 0, 0.5), (3, 3, 2.0 ** 64))
        assert sparse.values.dtype == np.float64 and sparse.rows.dtype == np.int64

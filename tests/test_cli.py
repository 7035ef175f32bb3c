"""End-to-end tests of the command-line interface (run in-process)."""

import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import bicheb as bc
import bicheb.paper as bp
from bicheb import builder, calculus, chebcore, cli
from bicheb.errors import ValidationError
from bicheb.cli import (
    EXIT_CONVERGENCE,
    EXIT_EVAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    _build_parser,
    main,
)

from conftest import f_cosxy


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _summary_value(out, label):
    for line in out.splitlines():
        if line.startswith(label):
            return float(line[len(label):].lstrip(": ").split()[0])
    raise AssertionError(f"no {label!r} line in output:\n{out}")


class TestApprox:
    def test_constant_expression(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        code, out, _ = run(capsys, "approx", "1", "-o", str(path))
        assert code == EXIT_OK
        sparse = bc.load(path)
        assert sparse.entries == ((0, 0, 1.0),)
        assert _summary_value(out, "parseval indicator") <= 1e-12
        assert "wall time" in out

    def test_cosxy_reference_corner(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, out, _ = run(capsys, "approx", "cos(x*y)", "-o", str(path))
        assert code == EXIT_OK
        c = bc.to_cheb2(bc.load(path))
        assert c.coeffs[0, 0] == pytest.approx(0.880725579, abs=1e-6)
        assert c.coeffs[2, 2] == pytest.approx(-0.114883808, abs=1e-6)
        assert c.coeffs[4, 4] == pytest.approx(0.000603385, abs=1e-6)

    def test_second_reference_block(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, out, _ = run(capsys, "approx", "cos(10*x*y^2)+exp(-x^2)",
                           "-o", str(path))
        assert code == EXIT_OK
        sparse = bc.load(path)
        assert 25 <= sparse.degree_x + 1 <= 70
        assert 25 <= sparse.degree_y + 1 <= 70

    def test_output_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run(capsys, "approx", "cos(x*y)", "-o", str(first))[0] == EXIT_OK
        assert run(capsys, "approx", "cos(x*y)", "-o", str(second))[0] == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("command, degrees", [("approx", []),
                                                  ("interp", ["-n", "4", "-m", "4"])])
    def test_leading_minus_in_parentheses_or_after_dashes(self, capsys, tmp_path,
                                                          command, degrees):
        # the README's two spellings of a formula that argparse would read
        # as an option
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, command, "(-x*y)", *degrees, "-o", str(first))[0] == EXIT_OK
        assert run(capsys, command, *degrees, "-o", str(second), "--",
                   "-x*y")[0] == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        assert bc.load(first).entries == ((1, 1, -1.0),)

    def test_expression_error_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "approx", "cos(x*", "-o",
                           str(tmp_path / "x.json"))
        assert code == EXIT_PARSE
        assert "error" in err

    def test_too_deep_expression_exit_code(self, capsys, tmp_path):
        out = str(tmp_path / "c.json")
        for formula in ("(" * 5000 + "x" + ")" * 5000, "+".join(["x"] * 3000)):
            code, _, _ = run(capsys, "approx", formula, "-o", out)
            assert code == EXIT_PARSE

    def test_log_of_negative_exit_code(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        code, _, err = run(capsys, "approx", "log(x)", "-o", str(path))
        assert code == EXIT_EVAL
        assert "log" in err
        assert not path.exists()

    def test_no_convergence_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "approx", "abs(x)", "--max-n", "16",
                           "-o", str(tmp_path / "x.json"))
        assert code == EXIT_CONVERGENCE

    @pytest.mark.parametrize("argv, message", [
        (["approx", "1e308", "--max-n", "16"],
         "the transform overflowed at degree bound 8: samples up to 1.000e+308 "
         "in magnitude give coefficients that are not finite"),
        (["interp", "1e308*x", "-n", "4", "-m", "4"], "coefficients must be finite"),
    ], ids=["approx", "interp"])
    def test_overflow_in_the_transform_exits_4(self, tmp_path, argv, message):
        # finite samples, whose transform overflows: the process writes one
        # error line and no numpy warning, and no document
        result = _cli_process(*argv, "-o", "o.json", cwd=tmp_path,
                              capture_output=True, text=True)
        assert result.returncode == EXIT_VALIDATION and result.stdout == ""
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "o.json").exists()

    def test_indicator_over_budget_is_skipped(self, capsys, tmp_path, monkeypatch):
        # the budget cut while the indicator runs, so that only the indicator
        # is over it: the build and the document's text are charged too
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "approx", "cos(x*y)", "-o", str(first))[0] == EXIT_OK
        indicator = bc.parseval_indicator

        def indicator_on_a_cut_budget(*args):
            with monkeypatch.context() as patch:
                patch.setattr(chebcore, "_GRID_BUDGET", 8)
                return indicator(*args)

        monkeypatch.setattr(bc, "parseval_indicator", indicator_on_a_cut_budget)
        code, out, err = run(capsys, "approx", "cos(x*y)", "-o", str(second))
        assert code == EXIT_OK and err == ""
        assert second.read_bytes() == first.read_bytes()
        assert ("parseval indicator: skipped (the Parseval indicator's 17 x 17 "
                "grid needs") in out and "over the budget" in out

    def test_indicator_overflow_is_skipped_quietly(self, tmp_path):
        # f = 1e307 x y is built exactly, but the indicator's squares overflow
        result = _cli_process("approx", "1e307*x*y", "--relative-tol", "-o", "o.json",
                              cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode == EXIT_OK and result.stderr == ""
        assert ("parseval indicator: skipped (the Parseval indicator overflowed "
                "on its 3 x 3 grid") in result.stdout
        c = bc.build_adaptive(lambda x, y: 1e307 * x * y, 1e-15, relative=True)
        assert (tmp_path / "o.json").read_text() == bc.document_text(bc.to_sparse(c))
        assert bc.load(tmp_path / "o.json").entries == ((1, 1, 1e307),)

    def test_zero_function_with_relative_tolerance(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        code, _, err = run(capsys, "approx", "0*x", "--relative-tol",
                           "--max-n", "64", "-o", str(path))
        assert code == EXIT_OK, err
        sparse = bc.load(path)
        assert (sparse.degree_x, sparse.degree_y, sparse.entries) == (0, 0, ())

    def test_tolerance_environment_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BICHEB_TOL", "1e-6")
        path = tmp_path / "c.json"
        assert run(capsys, "approx", "cos(x*y)", "-o", str(path))[0] == EXIT_OK
        assert bc.load(path).tol == 1e-6

    def test_domain_flag(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, _, _ = run(capsys, "approx", "x*y", "--domain", "0,2,0,2",
                         "-o", str(path))
        assert code == EXIT_OK
        c = bc.to_cheb2(bc.load(path))
        assert bc.evaluate_matrix(c, 1.5, 0.5) == pytest.approx(0.75, abs=1e-10)


class TestEval:
    @pytest.fixture()
    def cos_file(self, capsys, tmp_path):
        path = tmp_path / "cos.json"
        assert run(capsys, "approx", "cos(x*y)", "-o", str(path))[0] == EXIT_OK
        return path

    def test_far_point_is_refused_without_a_warning(self, cos_file):
        # the point's map overflows: one error line and no numpy warning
        result = _cli_process("eval", str(cos_file), "--point", "1e308,0",
                              capture_output=True, text=True)
        assert result.returncode == EXIT_EVAL and result.stdout == ""
        assert result.stderr == ("error: point (1e+308, 0.0) lies outside the "
                                 "domain rectangle [-1.0, 1.0] x [-1.0, 1.0]\n")

    def test_single_point(self, capsys, cos_file):
        code, out, _ = run(capsys, "eval", str(cos_file), "--point", "0,0")
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-10)

    def test_grid_rows_follow_the_points(self, capsys, tmp_path):
        # --grid-domain adds the grid to the points: the point's row, then
        # the grid's, x-major (each x with every y in turn)
        path = tmp_path / "lin.json"
        assert run(capsys, "approx", "x+2*y", "-o", str(path))[0] == EXIT_OK
        code, out, _ = run(capsys, "eval", str(path), "--point", "0.5,0",
                           "--grid-domain=-1,1,-1,1", "--resolution", "2")
        assert code == EXIT_OK
        assert [float(v) for v in out.splitlines()] == pytest.approx(
            [0.5, -3.0, 1.0, -1.0, 3.0], abs=1e-13)

    def test_constant_file(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        run(capsys, "approx", "2.5", "-o", str(path))
        code, out, _ = run(capsys, "eval", str(path),
                           "--point", "0.1,0.2", "--point=-0.9,0.9")
        assert code == EXIT_OK
        values = [float(v) for v in out.split()]
        assert values == [2.5, 2.5]

    def test_points_file(self, capsys, cos_file, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("0.5, 0.5\n0.25 -0.5\n")
        code, out, _ = run(capsys, "eval", str(cos_file), "--points-file", str(pts))
        assert code == EXIT_OK
        values = [float(v) for v in out.split()]
        assert values[0] == pytest.approx(np.cos(0.25), abs=1e-10)
        assert values[1] == pytest.approx(np.cos(-0.125), abs=1e-10)

    def test_grid_compare_reports_max_error(self, capsys, cos_file):
        code, out, _ = run(capsys, "eval", str(cos_file),
                           "--grid-domain", "0,1,0,1", "--resolution", "50",
                           "--compare-expr", "cos(x*y)")
        assert code == EXIT_OK
        last = out.strip().splitlines()[-1]
        assert last.startswith("max_abs_error")
        assert float(last.split()[1]) <= 1e-10

    @pytest.mark.parametrize("compare", [[], ["--compare-expr", "cos(x*y)"]],
                             ids=["values", "compare-expr"])
    def test_eval_budget_covers_what_it_allocates(self, capsys, cos_file, tmp_path,
                                                  monkeypatch, compare):
        charged = []

        def record(what, entries, error=ValidationError):
            charged.append(entries)
            chebcore._check_grid_budget(what, entries, error)

        monkeypatch.setattr(cli, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            code = run(capsys, "eval", str(cos_file), "--resolution", "300",
                       "-o", str(tmp_path / "v.txt"), *compare)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 8 * max(charged)

    @pytest.mark.parametrize("source, expected", [
        (["--point", "0,0"], EXIT_OK),
        (["--point", "0,0", "--grid-domain=-1,1,-1,1"], EXIT_VALIDATION),
    ], ids=["points", "grid-domain"])
    def test_resolution_charged_only_for_a_grid(self, capsys, cos_file, source,
                                                expected):
        # 7 grids of 5000^2 points are 1.4 GB, but the points need no grid
        code, out, err = run(capsys, "eval", str(cos_file), *source,
                             "--resolution", "5000")
        assert code == expected
        if expected == EXIT_VALIDATION:
            assert out == "" and "--resolution 5000 needs" in err
        else:
            assert float(out) == pytest.approx(1.0, abs=1e-15) and err == ""

    def test_empty_points_file_charges_its_grid(self, capsys, cos_file, tmp_path,
                                                monkeypatch):
        # the file is read after the document: its grid is charged then,
        # before it is allocated (at a small budget, so a miss stays cheap)
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 2 ** 20)
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        code, out, err = run(capsys, "eval", str(cos_file), "--points-file",
                             str(empty), "--resolution", "200")
        assert code == EXIT_VALIDATION and out == ""
        assert "--resolution 200 needs" in err

    @pytest.mark.parametrize("line, blanks", [
        ("0,0\n", 0),
        ("0.12345678901234567,-0.98765432109876543\n", 0),
        ("0.5,0.5\n", 3),
    ], ids=["short", "17-digit", "blank-heavy"])
    def test_points_file_budget_covers_what_it_allocates(
            self, capsys, cos_file, tmp_path, monkeypatch, line, blanks):
        # the text is charged before it is split, and the points with the
        # evaluation's arrays once the document is read; the peak stays
        # within the larger charge
        pts = tmp_path / "pts.txt"
        pts.write_text((line + "\n" * blanks) * 50_000)
        charged = []

        def record(what, entries, error=ValidationError):
            charged.append(entries)
            chebcore._check_grid_budget(what, entries, error)

        monkeypatch.setattr(cli, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            code = run(capsys, "eval", str(cos_file), "--points-file", str(pts),
                       "-o", str(tmp_path / "v.txt"))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len((tmp_path / "v.txt").read_text().splitlines()) == 50_000
        assert peak <= 8 * max(charged)

    def test_points_file_over_budget_is_refused_before_splitting(
            self, capsys, cos_file, tmp_path, monkeypatch):
        # two bytes per character and 32 per line: 4.0 MB for these
        # 100,000 lines.  Refused, the command holds no more than the read
        # did, the file's bytes and their text, and parses no line.
        pts = tmp_path / "pts.txt"
        pts.write_text("0,0\n" * 100_000)
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 2 ** 21)
        parsed = []
        monkeypatch.setattr(cli, "_parse_point", parsed.append)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "eval", str(cos_file), "--points-file",
                                 str(pts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION and out == ""
        assert "parsing the 400000-character points file needs 4000032 bytes" in err
        assert not parsed
        assert peak <= 2 * 400_000 + 2 ** 17

    @pytest.mark.parametrize("what", ["coefficient document", "points file"])
    def test_file_over_budget_is_refused_unread(self, capsys, cos_file, tmp_path,
                                                monkeypatch, what):
        # the file's size is charged before it is read, two bytes per byte:
        # one byte under that, the command exits 4 and never reads the file;
        # at that, it reads it and refuses the parse's larger charge
        pts = tmp_path / "pts.txt"
        pts.write_text("0.5,0.5\n" * 100)
        if what == "points file":
            path, argv = pts, ["--points-file", str(pts)]
        else:
            path, argv = cos_file, ["--point", "0,0"]
        size = path.stat().st_size
        need = 8 * ((size + 3) // 4)
        reads = []

        class Recording(io.TextIOWrapper):
            def read(self, *args):
                reads.append(self.buffer.name)
                return super().read(*args)

        def opening(file, mode, encoding):
            return Recording(open(file, "rb"), encoding=encoding)

        monkeypatch.setattr(chebcore, "open", opening, raising=False)
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", need - 1)
        code, out, err = run(capsys, "eval", str(cos_file), *argv)
        assert code == EXIT_VALIDATION and out == ""
        assert f"reading the {size}-byte {what} needs {need} bytes" in err
        assert reads == []
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", need)
        code, out, err = run(capsys, "eval", str(cos_file), *argv)
        assert code == EXIT_VALIDATION and out == ""
        assert f"parsing the {size}-character {what} needs" in err
        assert reads == [str(path)]

    def test_round_trip_matches_in_process_build(self, capsys, cos_file):
        c = bc.build_adaptive(f_cosxy, 1e-15)
        points = [(0.3, -0.7), (0.0, 0.0), (-0.99, 0.99)]
        args = ["eval", str(cos_file)]
        for x, y in points:
            args += [f"--point={x},{y}"]
        code, out, _ = run(capsys, *args)
        assert code == EXIT_OK
        values = [float(v) for v in out.split()]
        for (x, y), v in zip(points, values):
            assert abs(v - bc.evaluate_matrix(c, x, y)) <= 1e-15

    @pytest.mark.parametrize("source, message", [
        (["--point", "1"], "point must be 'x,y', got '1'"),
        (["--point", "a,b"], "point coordinates must be numbers, got 'a,b'"),
        (["--points-file", "bad.txt"], "point must be 'x,y', got 'foo'"),
    ], ids=["one-number", "not-numbers", "file-line"])
    def test_malformed_point_is_refused(self, capsys, cos_file, tmp_path,
                                       monkeypatch, source, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.txt").write_text("0.1,0.2\nfoo\n")
        code, out, err = run(capsys, "eval", str(cos_file), *source)
        assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")

    def test_out_of_domain_point(self, capsys, cos_file):
        code, _, err = run(capsys, "eval", str(cos_file), "--point", "2,0")
        assert code == EXIT_EVAL
        assert "2" in err

    @pytest.mark.parametrize("last, compare", [
        ("2,0", None),            # outside the domain
        ("-0.5,0.5", "log(x)"),   # EvalError in the reference
    ])
    def test_failure_at_last_point_writes_nothing(self, capsys, cos_file,
                                                  tmp_path, last, compare):
        pts = tmp_path / "pts.txt"
        pts.write_text("".join(f"0.{k},0.5\n" for k in range(1, 10)) + last + "\n")
        args = ["eval", str(cos_file), "--points-file", str(pts)]
        if compare is not None:
            args += ["--compare-expr", compare]
        code, out, _ = run(capsys, *args)
        assert code == EXIT_EVAL
        assert out == ""
        dst = tmp_path / "values.txt"
        code, out, _ = run(capsys, *args, "-o", str(dst))
        assert code == EXIT_EVAL
        assert out == ""
        assert not dst.exists()

    def test_points_file_reruns_are_byte_identical(self, capsys, cos_file, tmp_path):
        rng = np.random.default_rng(3)
        pts = tmp_path / "pts.txt"
        pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in
                               rng.uniform(-1.0, 1.0, size=(300, 2)).tolist()))
        outputs = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for dst in outputs:
            code, _, _ = run(capsys, "eval", str(cos_file), "--points-file",
                             str(pts), "--compare-expr", "cos(x*y)", "-o", str(dst))
            assert code == EXIT_OK
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

        xs, ys = np.loadtxt(pts, delimiter=",").T
        values = bc.evaluate_matrix(bc.to_cheb2(bc.load(cos_file)), xs, ys)
        reference = bc.eval_ast(bc.parse_expression("cos(x*y)"), xs, ys)
        errors = np.abs(values - reference)
        lines = [" ".join(format(float(v), ".17g") for v in row)
                 for row in zip(values, reference, errors)]
        lines.append(f"max_abs_error {format(float(errors.max()), '.17g')}")
        assert outputs[0].read_text() == "\n".join(lines) + "\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "eval", str(tmp_path / "nope.json"),
                         "--point", "0,0")
        assert code == EXIT_IO

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "eval", str(path), "--point", "0,0")
        assert code == EXIT_PARSE

    def test_non_ascii_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"degree_x": 0, "degree_y": 0, "domain": '
                         b'[-1, 1, -1, 1], "tol": 0, "entries": []}\xff')
        code, _, err = run(capsys, "eval", str(path), "--point", "0,0")
        assert code == EXIT_PARSE
        assert "non-ASCII" in err

    def test_non_ascii_points_file(self, capsys, cos_file, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_bytes(b"0.5, 0.5\n0.25 \xc3\xa9-0.5\n")
        code, _, err = run(capsys, "eval", str(cos_file), "--points-file", str(pts))
        assert code == EXIT_PARSE
        assert "non-ASCII" in err

    @pytest.mark.parametrize("text, expected", [
        ("[" * 200_000, EXIT_PARSE),  # deeper than json's recursion limit
        ('{"degree_x": 0, "degree_y": 0, "domain": [-1, 1, -1, 1], "tol": 0, '
         '"entries": [[0, 0, ' + "7" * 4301 + ']]}', EXIT_PARSE),  # int-string limit
        ('{"degree_x": 0, "degree_y": 0, "domain": [-1, 1, -1, 1], "tol": 0, '
         '"entries": [[0, 0, 1' + "0" * 400 + ']]}', EXIT_VALIDATION),  # > max double
        ('{"degree_x": 1' + "0" * 400 + ', "degree_y": 0, "domain": [-1, 1, -1, 1], '
         '"tol": 0, "entries": []}', EXIT_VALIDATION),  # bytes > max double
    ], ids=["deep", "long-int", "huge-int", "huge-degree"])
    def test_document_past_the_json_parser(self, capsys, tmp_path, text, expected):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "eval", str(path), "--point", "0,0")
        assert code == expected
        assert out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_inconsistent_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"degree_x": 1, "degree_y": 1, '
                        '"domain": [-1, 1, -1, 1], "tol": 0, '
                        '"entries": [[5, 5, 1.0]]}')
        code, _, _ = run(capsys, "eval", str(path), "--point", "0,0")
        assert code == EXIT_VALIDATION


def integrate_formula(capsys, tmp_path, formula):
    """approx the formula into a document, then integrate that document."""
    path = tmp_path / "f.json"
    assert run(capsys, "approx", formula, "-o", str(path))[0] == EXIT_OK
    return run(capsys, "integrate", str(path))


class TestIntegrate:
    def test_constant(self, capsys, tmp_path):
        code, out, _ = integrate_formula(capsys, tmp_path, "1")
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(4.0, abs=1e-12)

    def test_cosxy(self, capsys, tmp_path):
        code, out, _ = integrate_formula(capsys, tmp_path, "cos(x*y)")
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(3.78433228147, abs=1e-4)

    def test_second_reference_value(self, capsys, tmp_path):
        code, out, _ = integrate_formula(capsys, tmp_path, "cos(10*x*y^2)+exp(-x^2)")
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(4.590369905, abs=1e-6)

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        run(capsys, "approx", "cos(x*y)", "-o", str(path))
        code, out, _ = run(capsys, "integrate", str(path))
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(3.78433228147, abs=1e-4)

    def test_requires_input_or_expr(self, capsys):
        code, _, _ = run(capsys, "integrate")
        assert code == EXIT_VALIDATION

    def test_rejects_both_file_and_expr(self, capsys, tmp_path):
        # integrate only reads a document: --expr is an unknown option
        path = tmp_path / "c.json"
        run(capsys, "approx", "cos(x*y)", "-o", str(path))
        code, out, err = run(capsys, "integrate", str(path), "--expr", "x*y^3")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and "--expr" in err

    def test_integrate_budget_covers_what_it_allocates(self, capsys, tmp_path,
                                                       monkeypatch):
        # two entries, but a dense 2001 x 2001 matrix (32 MB) and the
        # 1001 x 1001 quarter of its even-indexed coefficients, which
        # integrate copies.  The allowance is for Python objects.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "two.json").write_text(
            '{"degree_x": 2000, "degree_y": 2000, "domain": [-1, 1, -1, 1], '
            '"tol": 0, "entries": [[0, 0, 1.0], [2000, 2000, 0.5]]}\n')
        charged = []

        def record(what, entries, error=ValidationError):
            charged.append(entries)
            chebcore._check_grid_budget(what, entries, error)

        monkeypatch.setattr(calculus, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            code = run(capsys, "integrate", "two.json")[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert max(charged) == 2001 ** 2 + 1001 ** 2
        assert peak <= 8 * max(charged) + 2 ** 20

    def test_document_over_budget_is_refused_before_parsing(self, capsys, tmp_path,
                                                            monkeypatch):
        # a byte per character rounded up to whole doubles, 256 per '[' or
        # '{' and 64 per ',', ':' or '"', or a double per character if that
        # is more, charged before json.loads
        path = tmp_path / "c.json"
        assert run(capsys, "approx", "cos(x*y)", "-o", str(path))[0] == EXIT_OK
        text = path.read_text()
        size = len(text)
        need = 8 * max(size, (size + 7) // 8 + 32 * (text.count("[") + text.count("{"))
                       + 8 * (text.count(",") + text.count(":") + text.count('"')))
        parsed = []
        loads = json.loads  # load imports json when it runs
        monkeypatch.setattr(json, "loads",
                            lambda text: parsed.append(text) or loads(text))
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", need - 1)
        with pytest.raises(ValidationError,
                           match=f"the {size}-character coefficient document needs"):
            bc.load(path)
        code, out, err = run(capsys, "integrate", str(path))
        assert code == EXIT_VALIDATION and out == ""
        assert "budget" in err and not parsed
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", need)
        assert run(capsys, "integrate", str(path))[0] == EXIT_OK and parsed


class TestDiff:
    def test_constant_becomes_zero_function(self, capsys, tmp_path):
        src = tmp_path / "k.json"
        dst = tmp_path / "dk.json"
        run(capsys, "approx", "3.5", "-o", str(src))
        code, _, _ = run(capsys, "diff", str(src), "--axis", "x", "-o", str(dst))
        assert code == EXIT_OK
        assert bc.load(dst).entries == ()

    def test_quadratic_basis_function(self, capsys, tmp_path):
        src = tmp_path / "t2.json"
        dst = tmp_path / "dt2.json"
        run(capsys, "approx", "2*x^2-1", "-o", str(src))
        code, _, _ = run(capsys, "diff", str(src), "--axis", "x", "-o", str(dst))
        assert code == EXIT_OK
        assert bc.load(dst).entries == ((1, 0, 4.0),)

    def test_cosxy_derivative_values(self, capsys, tmp_path):
        src = tmp_path / "cos.json"
        dst = tmp_path / "dcos.json"
        run(capsys, "approx", "cos(x*y)", "-o", str(src))
        code, _, _ = run(capsys, "diff", str(src), "--axis", "x", "-o", str(dst))
        assert code == EXIT_OK
        c = bc.to_cheb2(bc.load(dst))
        rng = np.random.default_rng(17)
        for x, y in rng.uniform(-0.9, 0.9, size=(20, 2)):
            exact = -y * np.sin(x * y)
            assert bc.evaluate_matrix(c, x, y) == pytest.approx(exact, abs=1e-8)

    def test_composition_gives_mixed_partial(self, capsys, tmp_path):
        src = tmp_path / "cos.json"
        mid = tmp_path / "dx.json"
        dst = tmp_path / "dxy.json"
        run(capsys, "approx", "cos(x*y)", "-o", str(src))
        run(capsys, "diff", str(src), "--axis", "x", "-o", str(mid))
        code, _, _ = run(capsys, "diff", str(mid), "--axis", "y", "-o", str(dst))
        assert code == EXIT_OK
        c = bc.to_cheb2(bc.load(dst))
        x, y = 0.3, -0.4
        exact = -np.sin(x * y) - x * y * np.cos(x * y)
        assert bc.evaluate_matrix(c, x, y) == pytest.approx(exact, abs=1e-7)

    @pytest.mark.filterwarnings("error")
    def test_discarded_overflow_warns_nothing(self, capsys, tmp_path, monkeypatch):
        # f = 1e308 T1(x): the term 2e308 that overflows is replaced by 1e308
        monkeypatch.chdir(tmp_path)
        (tmp_path / "u.json").write_text(_document("[-1, 1, -1, 1]", "[[1, 0, 1e308]]"))
        code, _, err = run(capsys, "diff", "u.json", "--axis", "x", "-o", "d.json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads((tmp_path / "d.json").read_text())["entries"] == [[0, 0, 1e308]]

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_diff_budget_covers_what_it_allocates(self, capsys, tmp_path,
                                                  monkeypatch, axis):
        # two entries, but a dense 2001 x 2001 matrix (32 MB): the input and
        # its derivative are the command's two matrices.  The allowance is
        # for Python objects: the parser, the document's entries and text.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "two.json").write_text(
            '{"degree_x": 2000, "degree_y": 2000, "domain": [-1, 1, -1, 1], '
            '"tol": 0, "entries": [[0, 0, 1.0], [2000, 2000, 0.5]]}\n')
        charged = []

        def record(what, entries, error=ValidationError):
            charged.append(entries)
            chebcore._check_grid_budget(what, entries, error)

        monkeypatch.setattr(cli, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            code = run(capsys, "diff", "two.json", "--axis", axis, "-o", "d.json")[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert max(charged) == 2 * 2001 * 2001
        assert peak <= 8 * max(charged) + 2 ** 20


class TestInterp:
    def test_bilinear(self, capsys, tmp_path):
        path = tmp_path / "i.json"
        code, _, _ = run(capsys, "interp", "x*y", "-n", "3", "-m", "3",
                         "-o", str(path))
        assert code == EXIT_OK
        entries = bc.load(path).entries
        assert len(entries) == 1
        i, j, v = entries[0]
        assert (i, j) == (1, 1)
        assert v == pytest.approx(1.0, abs=1e-13)

    def test_verify_prints_node_residual(self, capsys, tmp_path):
        path = tmp_path / "i.json"
        code, out, _ = run(capsys, "interp", "cos(x*y)", "-n", "8", "-m", "8",
                           "-o", str(path), "--verify")
        assert code == EXIT_OK
        assert _summary_value(out, "max node residual") <= 1e-12

    def test_verify_over_budget_refused_before_sampling(self, capsys, tmp_path,
                                                        monkeypatch):
        # a budget that holds the interpolation's arrays but not --verify's,
        # whose recurrence runs to degree 512 over 513 + 9 nodes
        monkeypatch.setattr(chebcore, "_GRID_BUDGET",
                            8 * (513 * 9 + chebcore._transform_entries(513, 9)))
        calls = []
        evaluate = bc.eval_ast

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(bc, "eval_ast", counting)
        path = tmp_path / "i.json"
        argv = ("interp", "cos(x*y)", "-n", "512", "-m", "8", "-o", str(path))
        code, out, err = run(capsys, *argv, "--verify")
        assert code == EXIT_VALIDATION and out == ""
        assert "--verify on the 513 x 9 grid needs" in err and "budget" in err
        assert not calls and not path.exists()
        assert run(capsys, *argv)[0] == EXIT_OK

    def test_verify_budget_covers_what_it_allocates(self, capsys, tmp_path,
                                                    monkeypatch):
        charged = []

        def recording(check):
            def record(what, entries, error=ValidationError):
                charged.append(entries)
                check(what, entries, error)
            return record

        monkeypatch.setattr(cli, "_check_grid_budget",
                            recording(cli._check_grid_budget))
        monkeypatch.setattr(chebcore, "_check_grid_budget",
                            recording(chebcore._check_grid_budget))
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "interp", "cos(x*y)", "-n", "512",
                               "-m", "512", "-o", str(tmp_path / "i.json"),
                               "--verify")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and "max node residual" in out
        assert peak <= 8 * max(charged)

    def test_formula_temporaries_are_within_the_charge(self, capsys, tmp_path,
                                                       monkeypatch):
        # evaluated whole, each '+' kept its left operand's grid while it
        # computed the right one: 7.2 grids held against 3.1 charged
        charged = []
        check = chebcore._check_grid_budget

        def record(what, entries, error=ValidationError):
            charged.append(entries)
            check(what, entries, error)

        monkeypatch.setattr(chebcore, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            code = run(capsys, "interp", "x*y+(x*y+(x*y+(x*y+x*y)))", "-n", "1024",
                       "-m", "1024", "-o", str(tmp_path / "i.json"))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 8 * max(charged)

    def test_no_document_that_load_refuses(self, capsys, tmp_path, monkeypatch):
        # at this budget the text of the 65 x 65 grid's 4,218 entries fits
        # its 240 bytes per entry, but parsing it back needs 2,052,352 bytes
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 1_500_000)
        written = []
        for n in range(50, 65):
            path = tmp_path / f"i{n}.json"
            code, out, err = run(capsys, "interp", "exp(x+0.3*y)+x*y", "-n", str(n),
                                 "-m", str(n), "--tol", "1e-300", "-o", str(path))
            if code == EXIT_OK:
                written.append(n)
                assert run(capsys, "eval", str(path), "--point", "0,0")[0] == EXIT_OK
            else:
                assert code == EXIT_VALIDATION and out == "" and not path.exists()
        assert written == list(range(50, written[-1] + 1)) and written[-1] < 64
        assert err == ("error: loading back the 160570-character text of a 4218-entry "
                       "coefficient document needs 2052352 bytes (0.00191 GiB) of "
                       "memory, over the budget of 1500000 bytes (0.0014 GiB)\n")

    def test_coefficient_gap_is_fold_of_series_tail(self, capsys, tmp_path,
                                                    cosxy_alpha32):
        path = tmp_path / "i.json"
        code, _, _ = run(capsys, "interp", "cos(x*y)", "-n", "4", "-m", "4",
                         "-o", str(path))
        assert code == EXIT_OK
        interp = bc.to_cheb2(bc.load(path)).coeffs
        padded = np.zeros((5, 5))
        padded[: interp.shape[0], : interp.shape[1]] = interp
        folded = bp.aliasing_coeffs(cosxy_alpha32, 4, 4)
        assert np.abs(padded - folded).max() <= 1e-10


class TestExport:
    def test_constant_grid(self, capsys, tmp_path):
        src = tmp_path / "k.json"
        dst = tmp_path / "k.csv"
        run(capsys, "approx", "2", "-o", str(src))
        code, _, _ = run(capsys, "export", str(src), "-o", str(dst),
                         "--resolution", "2")
        assert code == EXIT_OK
        lines = dst.read_text().strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 5
        assert all(row.split(",")[2] == "2" for row in lines[1:])

    def test_truncated_cosxy_error_column(self, capsys, tmp_path, cosxy):
        truncated = bc.to_sparse(bc.truncate(cosxy, 4, 4))
        src = tmp_path / "t.json"
        dst = tmp_path / "t.csv"
        bc.save(truncated, src)
        code, out, _ = run(capsys, "export", str(src), "-o", str(dst),
                           "--grid-domain", "0,1,0,1", "--resolution", "50",
                           "--compare-expr", "cos(x*y)")
        assert code == EXIT_OK
        lines = dst.read_text().strip().splitlines()
        assert lines[0] == "x,y,value,reference,abs_error"
        assert len(lines) == 1 + 50 * 50
        max_err = max(float(row.split(",")[4]) for row in lines[1:])
        assert max_err == pytest.approx(0.000082141, abs=2e-5)
        assert _summary_value(out, "max_abs_error") == pytest.approx(max_err)

    @pytest.mark.parametrize("compare", [None, "cos(x*y)"])
    def test_rows_match_per_cell_format(self, capsys, tmp_path, cosxy, compare):
        # the text of formatting every cell on its own with format(v, ".17g")
        src = tmp_path / "t.json"
        dst = tmp_path / "t.csv"
        c = bc.truncate(cosxy, 6, 6)
        bc.save(bc.to_sparse(c), src)
        args = ["export", str(src), "-o", str(dst), "--resolution", "23",
                "--grid-domain=-0.75,1,-1,0.5"]
        if compare is not None:
            args += ["--compare-expr", compare]
        assert run(capsys, *args)[0] == EXIT_OK

        xs = np.linspace(-0.75, 1.0, 23)
        ys = np.linspace(-1.0, 0.5, 23)
        values = bc.evaluate_grid(bc.to_cheb2(bc.load(src)), xs, ys)
        lines = ["x,y,value"]
        if compare is not None:
            lines = ["x,y,value,reference,abs_error"]
            reference = bc.eval_ast(bc.parse_expression(compare),
                                    xs[:, None], ys[None, :])
            errors = np.abs(values - reference)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                cells = [x, y, values[i, j]]
                if compare is not None:
                    cells += [reference[i, j], errors[i, j]]
                lines.append(",".join(format(float(v), ".17g") for v in cells))
        assert dst.read_text() == "\n".join(lines) + "\n"

    def test_unwritable_path(self, capsys, tmp_path):
        src = tmp_path / "k.json"
        run(capsys, "approx", "2", "-o", str(src))
        code, _, _ = run(capsys, "export", str(src), "-o",
                         str(tmp_path / "missing" / "out.csv"))
        assert code == EXIT_IO


@pytest.fixture()
def deadline():
    """Fail a test that blocks, in a wait for a child say, for 60 s."""
    def expired(signum, frame):
        raise AssertionError("still blocked after 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                    reason="rows are split only where os.fork and "
                           "os.sched_getaffinity exist")
@pytest.mark.usefixtures("deadline")
class TestRowWriter:
    """eval and export split their rows across forked children from
    _SPLIT_ROWS rows on; the output's bytes are those of one process."""

    @pytest.fixture()
    def doc(self, tmp_path, cosxy):
        path = tmp_path / "c.json"
        bc.save(bc.to_sparse(cosxy), path)
        return str(path)

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @staticmethod
    def _output(capsys, tmp_path, *args):
        """The command's exit code, stderr, and its rows: the bytes of the
        file that a final -o names, or else stdout."""
        dst = tmp_path / "out.txt"
        dst.unlink(missing_ok=True)
        to_file = args[-1] == "-o"
        code, out, err = run(capsys, *args, *[str(dst)] * to_file)
        return code, err, dst.read_bytes() if to_file else out.encode()

    @pytest.mark.parametrize("args", [
        ("export", "--resolution", "70", "-o"),
        ("export", "--resolution", "70", "--compare-expr", "cos(x*y)", "-o"),
        ("eval", "--resolution", "120", "--compare-expr", "cos(x*y)", "-o"),
        ("eval", "--resolution", "120"),
    ], ids=["export", "export-compare", "eval-file", "eval-stdout"])
    def test_split_writes_the_bytes_of_one_process(self, capsys, tmp_path,
                                                   monkeypatch, doc, args):
        argv = (args[0], doc, *args[1:])
        self._cpus(monkeypatch, 1)
        one = self._output(capsys, tmp_path, *argv)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        self._cpus(monkeypatch, 8)
        split = self._output(capsys, tmp_path, *argv)
        assert one[:2] == split[:2] == (EXIT_OK, "")
        assert split[2] == one[2] and one[2].count(b"\n") >= 4900
        # export: one block per grid line; eval: 4 blocks of 4096 rows
        assert len(forks) == cli._MAX_WRITERS - 1
        _no_child_left()

    @pytest.mark.parametrize("cpus, args", [
        (8, ("eval", "--resolution", "63")),
        (8, ("export", "--resolution", "63", "-o")),
        (1, ("export", "--resolution", "100", "-o")),
        (None, ("export", "--resolution", "100", "-o")),
    ], ids=["eval-3969-rows", "export-3969-rows", "one-cpu", "no-affinity"])
    def test_one_process_below_threshold_or_on_one_cpu(self, capsys, tmp_path,
                                                       monkeypatch, doc, cpus, args):
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            self._cpus(monkeypatch, cpus)

        def refused():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refused)
        assert self._output(capsys, tmp_path, args[0], doc, *args[1:])[:2] == (EXIT_OK, "")

    @pytest.mark.parametrize("failure", ["first-block", "later-block", "no-fork"])
    def test_parent_formats_what_a_child_does_not_send(self, capsys, tmp_path,
                                                       monkeypatch, doc, failure):
        # a child that raises ends without a word, its pipe ends early, and
        # the parent formats the rest of its blocks with the same function
        args = ("export", doc, "--resolution", "80", "--compare-expr", "cos(x*y)", "-o")
        self._cpus(monkeypatch, 1)
        one = self._output(capsys, tmp_path, *args)
        parent = os.getpid()
        write_rows = cli._write_rows

        def failing(sink, rows, blocks, format_block):
            def block(i):
                if os.getpid() != parent and (failure == "first-block" or i > 40):
                    raise RuntimeError("formatting failed in a child")
                return format_block(i)
            return write_rows(sink, rows, blocks, block)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "_write_rows", failing)
        if failure == "no-fork":
            monkeypatch.setattr(os, "fork", no_fork)
        self._cpus(monkeypatch, 4)
        assert self._output(capsys, tmp_path, *args) == one
        _no_child_left()

    def test_ignored_sigchld_is_no_error(self, capsys, tmp_path, monkeypatch, doc):
        # a SIGCHLD ignored by whoever started the process survives exec; the
        # kernel then reaps the children, and waitpid finds none to reap
        args = ("export", doc, "--resolution", "70", "-o")
        self._cpus(monkeypatch, 1)
        one = self._output(capsys, tmp_path, *args)
        self._cpus(monkeypatch, 4)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert self._output(capsys, tmp_path, *args) == one
        finally:
            signal.signal(signal.SIGCHLD, previous)
        _no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_5_and_reaps_every_child(self, capsys, monkeypatch, doc):
        # the first block's write fails while the children block on full
        # pipes: the parent closes its read ends, and then reaps them
        self._cpus(monkeypatch, 4)
        code, out, err = run(capsys, "export", doc, "--resolution", "300",
                             "-o", "/dev/full")
        assert code == EXIT_IO and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        _no_child_left()

    def test_failed_stdout_write_mid_stream_exits_5(self, capsys, monkeypatch, doc):
        class Failing:
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(5, "Input/output error")

        self._cpus(monkeypatch, 4)
        monkeypatch.setattr(sys, "stdout", Failing())
        assert main(["eval", doc, "--resolution", "200"]) == EXIT_IO
        assert sys.stdout.writes == 3
        assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"
        _no_child_left()


class TestDeterminism:
    def test_file_outputs_are_byte_identical_across_runs(self, capsys, tmp_path):
        coeff = [tmp_path / "c1.json", tmp_path / "c2.json"]
        deriv = [tmp_path / "d1.json", tmp_path / "d2.json"]
        lagr = [tmp_path / "i1.json", tmp_path / "i2.json"]
        csv = [tmp_path / "g1.csv", tmp_path / "g2.csv"]
        for i in range(2):
            assert run(capsys, "approx", "cos(x*y)",
                       "-o", str(coeff[i]))[0] == EXIT_OK
            assert run(capsys, "diff", str(coeff[i]), "--axis", "y",
                       "-o", str(deriv[i]))[0] == EXIT_OK
            assert run(capsys, "interp", "cos(x*y)", "-n", "4", "-m", "4",
                       "-o", str(lagr[i]))[0] == EXIT_OK
            assert run(capsys, "export", str(coeff[i]), "-o", str(csv[i]),
                       "--resolution", "10")[0] == EXIT_OK
        for pair in (coeff, deriv, lagr, csv):
            assert pair[0].read_bytes() == pair[1].read_bytes()


class TestOptions:
    """Every default lives in the parser, and a command checks only the
    options it takes."""

    def test_documented_defaults(self, monkeypatch):
        monkeypatch.delenv("BICHEB_TOL", raising=False)
        parse = _build_parser().parse_args
        args = parse(["approx", "1"])
        assert (args.max_n, args.n0, args.tol) == (4096, 8, 1e-15)
        assert args.domain == bc.UNIT_SQUARE
        assert parse(["interp", "1", "-n", "2", "-m", "3"]).domain == bc.UNIT_SQUARE
        for argv in (["eval", "c.json"], ["export", "c.json", "-o", "g.csv"]):
            args = parse(argv)
            assert args.resolution == 50
            assert args.grid_domain is None

    def test_default_tolerance(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("BICHEB_TOL", raising=False)
        path = tmp_path / "one.json"
        assert run(capsys, "approx", "1", "-o", str(path))[0] == EXIT_OK
        assert bc.load(path).tol == 1e-15

    @pytest.mark.parametrize("raw", ["-1", "nan", "abc"])
    def test_environment_tolerance_only_for_commands_with_tol(
            self, capsys, tmp_path, monkeypatch, raw):
        monkeypatch.delenv("BICHEB_TOL", raising=False)
        src = tmp_path / "c.json"
        assert run(capsys, "approx", "cos(x*y)", "-o", str(src))[0] == EXIT_OK
        deriv = tmp_path / "d.json"
        grid = tmp_path / "g.csv"

        def outputs():
            results = []
            for argv, written in (
                    (["eval", str(src), "--point", "0.5,0.25",
                      "--compare-expr", "cos(x*y)"], None),
                    (["integrate", str(src)], None),
                    (["diff", str(src), "--axis", "x", "-o", str(deriv)], deriv),
                    (["export", str(src), "-o", str(grid), "--resolution", "7"],
                     grid)):
                results.append(run(capsys, *argv))
                results.append(written.read_bytes() if written else b"")
            return results

        expected = outputs()
        assert [r[0] for r in expected[::2]] == [EXIT_OK] * 4
        monkeypatch.setenv("BICHEB_TOL", raw)
        assert outputs() == expected
        code, _, err = run(capsys, "approx", "cos(x*y)", "-o", str(src))
        assert code == EXIT_VALIDATION
        assert "BICHEB_TOL" in err and repr(raw) in err

    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_bad_tolerance_rejected_before_sampling(
            self, capsys, tmp_path, monkeypatch, value):
        # log(x) fails wherever it is sampled and the file is missing, so
        # exit 4 shows that the tolerance is checked first
        out = str(tmp_path / "c.json")
        commands = (["approx", "log(x)", "-o", out],
                    ["interp", "log(x)", "-n", "4", "-m", "4", "-o", out])
        for source in ("option", "environment"):
            if source == "environment":
                monkeypatch.setenv("BICHEB_TOL", value)
                extra = []
            else:
                monkeypatch.delenv("BICHEB_TOL", raising=False)
                extra = [f"--tol={value}"]
            errors = set()
            for argv in commands:
                code, stdout, err = run(capsys, *argv, *extra)
                assert code == EXIT_VALIDATION
                assert stdout == ""
                errors.add(err)
            assert len(errors) == 1
            assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("argv", [
        ["approx", "x", "--domain", "1,-1,0,1"],
        ["approx", "x", "--domain", "0,1,a,1"],
        ["interp", "x", "-n", "2", "-m", "2", "--domain", "0,0,0,1"],
        ["eval", "c.json", "--grid-domain", "0,1,0"],
        ["export", "c.json", "-o", "g.csv", "--grid-domain", "0,1,1,0"],
        # non-numeric option values
        ["eval", "c.json", "--resolution", "abc"],
        ["export", "c.json", "-o", "g.csv", "--resolution", "2.5"],
        ["approx", "x", "--max-n", "abc"],
        ["approx", "x", "--n0", "8.0"],
        ["approx", "x", "--tol", "abc"],
        ["interp", "x", "-n", "2", "-m", "2", "--tol", "1e-15x"],
        ["interp", "x", "-n", "abc", "-m", "2"],
        ["interp", "x", "-n", "2", "-m", "abc"],
    ])
    def test_bad_rectangle_exit_code(self, capsys, argv):
        """Bad rectangles and non-numeric option values exit 4 with one
        error line and no usage text."""
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "usage" not in err

    @pytest.mark.parametrize("argv", [
        ["approx", "x", "--max-n"],
        ["approx", "x", "--bogus"],
        ["eval"],
        ["interp", "x", "-n", "2"],
        [],
    ])
    def test_usage_error_exit_code(self, capsys, argv):
        """A missing value, an unknown option or a missing argument exits 4
        with one error line and no usage text."""
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "usage" not in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["approx", "-h"])
        assert info.value.code == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["eval", "c.json", "--resolution", "100000"],
        ["export", "c.json", "-o", "g.csv", "--resolution", "100000"],
        ["interp", "x", "-n", "100000", "-m", "100000"],
    ])
    def test_grid_over_budget_refused_before_allocation(self, capsys, tmp_path,
                                                         argv, monkeypatch):
        # c.json does not exist: exit 4 shows the grid is refused before the
        # document is read, let alone the grid allocated
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "budget" in err
        assert not (tmp_path / "g.csv").exists()

    def test_budget_message_gives_both_byte_counts(self, capsys, tmp_path,
                                                   monkeypatch):
        # eval charges 7 grids: 4379^2 points need just over 1 GiB, which
        # reads as 1 GiB to three digits, so only the bytes say why
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "eval", "c.json", "--resolution", "4379")
        assert code == EXIT_VALIDATION and out == ""
        assert ("needs 1073835896 bytes (1 GiB) of memory, over the budget of "
                "1073741824 bytes (1 GiB)") in err

    def test_interp_parses_before_the_budget(self, capsys, tmp_path, monkeypatch):
        # lagrange_cheb_coeffs charges the grid after the formula is parsed
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "interp", "x+", "-n", "100000", "-m", "100000")
        assert code == EXIT_PARSE
        assert out == "" and "budget" not in err

    @pytest.mark.parametrize("argv", [
        ["eval", "big.json", "--point", "0,0"],
        ["integrate", "big.json"],
        ["diff", "big.json", "--axis", "x", "-o", "d.json"],
    ])
    def test_declared_degree_over_budget(self, capsys, tmp_path, argv,
                                         monkeypatch):
        # one entry, but a declared degree whose dense matrix is 15 GiB
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text(
            '{"degree_x": 1000000000, "degree_y": 0, '
            '"domain": [-1, 1, -1, 1], "tol": 0, "entries": [[0, 0, 1.0]]}\n')
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "1000000001 x 1" in err and "budget" in err
        assert not (tmp_path / "d.json").exists()

    @staticmethod
    def write_one_entry(path, degree_x):
        path.write_text(f'{{"degree_x": {degree_x}, "degree_y": 0, "domain": '
                        '[-1, 1, -1, 1], "tol": 0, "entries": [[0, 0, 1.0]]}\n')

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_budget_covers_the_basis_matrices(self, capsys, tmp_path, monkeypatch,
                                              command):
        # one entry, but degree 3000: the evaluator's basis matrices, a
        # column per degree, outweigh the 128 x 128 grid's arrays
        monkeypatch.chdir(tmp_path)
        self.write_one_entry(tmp_path / "deg.json", 3000)
        charged = []

        def record(what, entries, error=ValidationError):
            charged.append(entries)
            chebcore._check_grid_budget(what, entries, error)

        monkeypatch.setattr(cli, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            code = run(capsys, command, "deg.json", "--resolution", "128",
                       "-o", "out")[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 8 * max(charged)

    @pytest.mark.parametrize("command, degree, what", [
        ("eval", 100000, "evaluating 1600 points at degrees 100000 x 0 needs"),
        ("export", 1000000, "the 40 x 40 grid at degrees 1000000 x 0 needs"),
    ])
    def test_basis_matrices_over_budget(self, capsys, tmp_path, monkeypatch,
                                        command, degree, what):
        # the dense matrix fits, but one run of the recurrence would not
        monkeypatch.chdir(tmp_path)
        self.write_one_entry(tmp_path / "wide.json", degree)
        code, out, err = run(capsys, command, "wide.json", "--resolution", "40",
                             "-o", "out")
        assert code == EXIT_VALIDATION and out == ""
        assert what in err and "budget" in err
        assert not (tmp_path / "out").exists()

    def test_negative_rectangle_takes_the_equals_spelling(self, capsys, tmp_path):
        # after a space, argparse reads -1,1,-1,1 as an option
        default, spelled = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "approx", "cos(x*y)", "-o", str(default))[0] == EXIT_OK
        assert run(capsys, "approx", "cos(x*y)", "--domain=-1,1,-1,1",
                   "-o", str(spelled))[0] == EXIT_OK
        assert spelled.read_bytes() == default.read_bytes()
        code, grid, _ = run(capsys, "eval", str(default), "--resolution", "3")
        assert code == EXIT_OK
        code, out, err = run(capsys, "eval", str(default), "--point", "0,0",
                             "--grid-domain=-1,1,-1,1", "--resolution", "3")
        assert code == EXIT_OK and err == ""
        values = [float(v) for v in out.split()]
        assert values[1:] == pytest.approx([float(v) for v in grid.split()], abs=1e-15)
        code, _, err = run(capsys, "approx", "x", "--domain", "-1,1,-1,1",
                           "-o", str(tmp_path / "c.json"))
        assert code == EXIT_VALIDATION and "expected one argument" in err

    def test_builder_over_budget_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(chebcore, "_GRID_BUDGET", 8)
        code, out, err = run(capsys, "approx", "cos(x*y)",
                             "-o", str(tmp_path / "c.json"))
        assert code == EXIT_CONVERGENCE
        assert out == ""
        assert "degree bound 8 needs" in err and "budget" in err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_resolution_below_two(self, capsys, tmp_path, command):
        src = tmp_path / "c.json"
        run(capsys, "approx", "cos(x*y)", "-o", str(src))
        dst = tmp_path / "g.csv"
        code, out, err = run(capsys, command, str(src), "-o", str(dst),
                             "--resolution", "1")
        assert code == EXIT_VALIDATION
        assert "resolution" in err
        assert not dst.exists()


def _document(domain, entries, degree_x=1):
    return ('{"degree_x": %d, "degree_y": 0, "domain": %s, "tol": 0, "entries": %s}'
            % (degree_x, domain, entries))


class TestDomainLimit:
    """A bound past max / 4 in magnitude or a side narrower than the
    smallest normal double, from an option or a document, and an integral
    or a derivative that overflows within those limits exit 4 with one
    error line and no numpy warning."""

    DOCUMENTS = {
        # T1 on a rectangle 1e-310 wide, whose map rounds in subnormals
        "narrow.json": _document("[0, 1e-310, -1, 1]", "[[1, 0, 1]]"),
        # f = x on rectangles whose maps overflow
        "x.json": _document("[-1e308, 1e308, -1, 1]", "[[1, 0, 1e308]]"),
        "wide.json": _document("[-8e307, 8e307, -1, 1]", "[[1, 0, 8e307]]"),
        # the constant 1 on a square the limit accepts, of area 6.4e615
        "one.json": _document("[-4e307, 4e307, -4e307, 4e307]", "[[0, 0, 1]]"),
        "unit.json": _document("[-1, 1, -1, 1]", "[[1, 0, 1]]"),
        # f = 1e308 T2(x), whose derivative 4e308 T1(x) overflows
        "t2.json": _document("[-1, 1, -1, 1]", "[[2, 0, 1e308]]", degree_x=2),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["integrate", "x.json"], "domain bounds must be at most 4.494e+307"),
        (["diff", "x.json", "--axis", "x", "-o", "d.json"],
         "domain bounds must be at most 4.494e+307"),
        (["eval", "wide.json", "--point", "7e307,0"],
         "domain bounds must be at most 4.494e+307"),
        (["approx", "x", "--domain=1e308,1.5e308,0,1", "-o", "a.json"],
         "domain bounds must be at most 4.494e+307"),
        (["eval", "unit.json", "--grid-domain=-1e308,1e308,0,1"],
         "domain bounds must be at most 4.494e+307"),
        (["integrate", "one.json"], "the integral overflowed: 4.000e+00 on the "
         "unit square times the Jacobian inf is not finite"),
        (["eval", "narrow.json", "--point", "5e-311,0"],
         "domain width and height must be at least 2.225e-308, "
         "got [0.0, 1e-310] x [-1.0, 1.0]"),
        (["approx", "x", "--domain=0,1,0,1e-310", "-o", "a.json"],
         "domain width and height must be at least 2.225e-308, "
         "got [0.0, 1.0] x [0.0, 1e-310]"),
        (["diff", "t2.json", "--axis", "x", "-o", "d.json"],
         "the derivative in x overflowed: coefficients up to 1.000e+308 in "
         "magnitude on [-1.0, 1.0] give a derivative that is not finite\n"),
    ], ids=["integrate", "diff", "eval-point", "approx", "grid-domain",
            "integral-overflow", "narrow-eval", "narrow-approx", "derivative-overflow"])
    def test_exits_4(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        for name, text in self.DOCUMENTS.items():
            (tmp_path / name).write_text(text)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "d.json").exists() and not (tmp_path / "a.json").exists()


def _python(*args, env=None, **kwargs):
    """python ARGS in a fresh interpreter that imports this checkout's
    bicheb."""
    env = dict(os.environ if env is None else env)
    src = str(Path(bc.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def _cli_process(*args, **kwargs):
    """python -m bicheb.cli ARGS in a fresh interpreter that imports this
    checkout's bicheb."""
    return _python("-m", "bicheb.cli", *args, **kwargs)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _unpinned(**settings):
    """This process's environment without the BLAS thread counts, which
    importing the CLI here has set, plus settings."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return dict(env, **settings)


class TestEntryPoint:
    def test_process_matches_in_process(self, capsys, tmp_path, monkeypatch):
        def summary(out):
            return [line for line in out.splitlines()
                    if not line.startswith("wall time")]

        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "approx", "cos(x*y)", "-o", "a.json")
        assert code == EXIT_OK
        result = _cli_process("approx", "cos(x*y)", "-o", "f.json", cwd=tmp_path,
                              capture_output=True, text=True)
        assert result.returncode == EXIT_OK and result.stderr == ""
        assert summary(result.stdout) == [
            line.replace("a.json", "f.json") for line in summary(out)]
        assert ((tmp_path / "f.json").read_bytes()
                == (tmp_path / "a.json").read_bytes())

    @pytest.mark.parametrize("argv, expected", [
        (["approx", "x*y", "-o", "a.json"], EXIT_OK),
        (["approx", "x+"], EXIT_PARSE),
        (["eval", "missing.json", "--point", "0,0"], EXIT_IO),
    ], ids=["ok", "parse-error", "io-error"])
    def test_main_returns_its_code(self, capsys, tmp_path, monkeypatch, argv,
                                   expected):
        # only run ends the process; main hands the code back to the caller
        def ended(code):
            raise AssertionError(f"os._exit({code}) inside main")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os, "_exit", ended)
        code = main(argv)
        assert type(code) is int and code == expected

    def test_blas_runs_one_thread_unless_set(self):
        script = f"import os, bicheb.cli; print(*map(os.environ.get, {BLAS_THREADS}))"
        result = _python("-c", script, env=_unpinned(), capture_output=True,
                         text=True, check=True)
        assert result.stdout == "1 1 1\n"
        for name in BLAS_THREADS:
            result = _python("-c", script, env=_unpinned(**{name: "3"}),
                             capture_output=True, text=True, check=True)
            assert result.stdout.split() == [
                "3" if other == name else "1" for other in BLAS_THREADS]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs")
    def test_export_is_the_same_on_any_cpus(self, tmp_path):
        # 90,000 values through BLAS products, which with BLAS's threads on
        # two CPUs rounded differently from those on one
        c = bc.Cheb2(np.random.default_rng(1).standard_normal((64, 64)))
        bc.save(bc.to_sparse(c), tmp_path / "d.json")
        cpus = os.sched_getaffinity(0)
        written = []
        for allowed in ({min(cpus)}, cpus):
            result = _cli_process(
                "export", "d.json", "--resolution", "300", "-o", "g.csv",
                cwd=tmp_path, env=_unpinned(), capture_output=True, text=True,
                preexec_fn=lambda: os.sched_setaffinity(0, allowed))
            assert result.returncode == EXIT_OK and result.stderr == ""
            written.append((tmp_path / "g.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_flush_exits_5(self, capsys, tmp_path):
        # stdout buffered, as by default: the value reaches the device only
        # when run flushes it, after main has returned 0
        doc = tmp_path / "c.json"
        assert run(capsys, "approx", "cos(x*y)", "-o", str(doc))[0] == EXIT_OK
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            result = _cli_process("integrate", str(doc), env=env, stdout=full,
                                  stderr=subprocess.PIPE, text=True)
        assert result.returncode == EXIT_IO
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert "Exception ignored" not in result.stderr
        assert "Traceback" not in result.stderr


class TestImports:
    ORACLES = ("fft2", "dft2_naive", "sample_grid", "coeffs_from_samples",
               "coeffs_by_quadrature", "DecayBounds", "decay_bound_excess",
               "LobattoGrid", "lobatto_grid", "aliasing_coeffs",
               "interp_error_bound_gap", "cheb_vector")

    def test_cli_loads_no_oracle_module(self):
        # a fresh interpreter: this test session has imported bicheb.paper
        script = ("import sys, bicheb.cli; print(sorted("
                  "{'bicheb.paper', 'bicheb.fft2d', 'bicheb.interp'}"
                  " & set(sys.modules)))")
        src = str(Path(bc.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=60)
        assert result.stdout.strip() == "[]"

    # the modules of the package, the CLI and the documents, which every
    # command loads
    COMMON = ["bicheb", "bicheb.chebcore", "bicheb.cli", "bicheb.errors"]

    @pytest.mark.parametrize("argv, loaded", [
        (["integrate", "k.json"], ["bicheb.calculus"]),
        (["diff", "k.json", "--axis", "x", "-o", "d.json"], ["bicheb.calculus"]),
        (["eval", "k.json", "--point", "0,0"], []),
        (["export", "k.json", "--resolution", "3", "-o", "g.csv"], []),
        (["eval", "k.json", "--point", "0,0", "--compare-expr", "x*y"],
         ["bicheb.exprparse"]),
        (["export", "k.json", "--resolution", "3", "-o", "g.csv",
          "--compare-expr", "x*y"], ["bicheb.exprparse"]),
        (["interp", "x*y", "-n", "2", "-m", "2", "-o", "i.json"],
         ["bicheb.exprparse"]),
        (["approx", "x*y", "-o", "a.json"], ["bicheb.builder", "bicheb.exprparse"]),
    ], ids=["integrate", "diff", "eval", "export", "eval-compare",
            "export-compare", "interp", "approx"])
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, loaded):
        # a fresh interpreter runs the command, then prints its code and the
        # bicheb modules loaded; the parser and the builder load on first use
        bc.save(bc.trim([[1.0, 0.5], [0.25, 0.0]], 0.0), tmp_path / "k.json")
        script = ("import json, sys; from bicheb import cli; "
                  "code = cli.main(sys.argv[1:]); "
                  "print(json.dumps([code, sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'bicheb')]))")
        result = _python("-c", script, *argv, cwd=tmp_path, capture_output=True,
                         text=True, check=True)
        code, modules = json.loads(result.stdout.splitlines()[-1])
        assert code == EXIT_OK and result.stderr == ""
        assert modules == sorted(self.COMMON + loaded)

    def test_cli_import_adds_no_unused_module(self):
        # after numpy, which every command needs: json only parses documents
        # in load, the value types are not dataclasses, and the calculus is
        # loaded by integrate and diff
        script = ("import sys, numpy; before = set(sys.modules); import bicheb.cli; "
                  "print(sorted({'json', 'dataclasses', 'bicheb.calculus'} "
                  "& (set(sys.modules) - before)))")
        result = _python("-c", script, capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"

    def test_bare_import_loads_no_submodule(self):
        script = ("import sys, bicheb; "
                  "print([m for m in sys.modules if m.split('.')[0] == 'bicheb'])")
        result = _python("-c", script, capture_output=True, text=True, check=True)
        assert result.stdout == "['bicheb']\n"

    def test_star_import_binds_the_public_names(self):
        # the names TestPackage.test_public_names lists, 30 of them
        public = sorted(name for name in dir(bc) if not name.startswith("_")
                        and not isinstance(getattr(bc, name), types.ModuleType))
        namespace = {}
        exec("from bicheb import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == public
        assert len(public) == 30
        assert all(namespace[name] is getattr(bc, name) for name in public)

    def test_oracles_live_only_in_paper(self):
        for name in self.ORACLES + ("SampleGrid", "UnsupportedSizeError"):
            assert not hasattr(bc, name), name
        for name in self.ORACLES:
            assert callable(getattr(bp, name)), name
        assert not hasattr(bp, "SampleGrid")


BUMP = "exp(-5000*((x-0.31)^2+(y+0.17)^2))"


class TestEveryCommandCharges:
    """Each command, on a small, a large and a wide document, holds no more
    than its largest charge to the grid budget, plus an allowance for Python
    objects such as the parser's and one block of a document's text.  A
    path that allocates before or without its charge fails here, whichever
    command it is in: writing a document and the builder's off-grid check
    did, on the bump and on cos(2000 x), before they were charged."""

    ALLOWANCE = 2 ** 20

    # each document's formula, the options that build it, and interp's
    # degrees; the wide document is not built but written, one entry at
    # degree 3000, and its formula has degree 4086 in x
    DOCUMENTS = {
        "cosxy": ("cos(x*y)", [], ["-n", "32", "-m", "32"]),
        "bump": (BUMP, ["--tol", "1e-14", "--relative-tol"], ["-n", "512", "-m", "512"]),
        "wide": ("cos(2000*x)", [], ["-n", "3000", "-m", "1"]),
    }

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("charges")
        for name, (formula, options, _) in self.DOCUMENTS.items():
            if name != "wide":
                assert main(["approx", formula, *options, "-o",
                             str(folder / f"{name}.json")]) == EXIT_OK
        TestOptions.write_one_entry(folder / "wide.json", 3000)
        return folder

    @pytest.mark.parametrize("document", sorted(DOCUMENTS))
    @pytest.mark.parametrize("command", ["approx", "eval", "export", "interp",
                                         "integrate", "diff"])
    def test_peak_within_the_largest_charge(self, capsys, folder, monkeypatch,
                                            document, command):
        formula, options, degrees = self.DOCUMENTS[document]
        path = str(folder / f"{document}.json")
        out = str(folder / "out")
        argv = {"approx": ["approx", formula, *options, "-o", out],
                "eval": ["eval", path, "--compare-expr", formula, "-o", out],
                "export": ["export", path, "--resolution", "200", "-o", out],
                "interp": ["interp", formula, *degrees, "--verify", "-o", out],
                "integrate": ["integrate", path],
                "diff": ["diff", path, "--axis", "y", "-o", out]}[command]
        charged = []
        charge = chebcore._check_grid_budget

        def record(what, entries, error=ValidationError):
            charged.append(entries)
            charge(what, entries, error)

        for module in (builder, calculus, chebcore, cli):
            monkeypatch.setattr(module, "_check_grid_budget", record)
        tracemalloc.start()
        try:
            code = run(capsys, *argv)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 8 * max(charged) + self.ALLOWANCE

"""Fuzz tests: whatever coefficient document or points file ``bicheb eval``
reads, and whatever text a formula argument or an option's value holds, a
command ends with a documented exit code, never a traceback.

Skipped when Hypothesis is not installed.  Examples are derandomized, so
every run tries the same inputs.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from bicheb import chebcore, cli

# 0 success, 2 syntax, 4 validation, 5 I/O, 6 evaluation
DOCUMENTED = {0, 2, 4, 5, 6}

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# integers stay small enough that a declared degree under the grid budget
# allocates little; the large ones are over it
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 5, 10 ** 5)
    | st.sampled_from([10 ** 9, 2 ** 63, 10 ** 400]) | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)

# number literals as text: json.dumps cannot write an integer past the
# int-string limit, and JSON has no inf or nan of its own
number_literals = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "0.0", "1e400", "-1e400", "1e-400", "NaN", "Infinity",
                     "1" + "0" * 400, "7" * 4301, "1e308", "true", "null", '"1"']),
)
index_literals = st.one_of(
    st.integers(0, 6).map(str),
    st.sampled_from(["-1", "1000000000", "1" + "0" * 400, "7" * 4301, "1.0",
                     "true", "null"]),
)


@st.composite
def near_valid_documents(draw):
    """Documents with the five keys (some dropped or duplicated) whose
    values are mostly well formed: numbers at the edges of what JSON and a
    double can hold, small degrees, a few entries."""
    entries = draw(st.lists(
        st.tuples(index_literals, index_literals, number_literals)
        .map(lambda e: "[" + ", ".join(e) + "]"), max_size=5))
    fields = {
        "degree_x": draw(index_literals),
        "degree_y": draw(index_literals),
        "domain": "[" + ", ".join(draw(st.lists(number_literals, min_size=3,
                                                max_size=5))) + "]",
        "tol": draw(number_literals),
        "entries": "[" + ", ".join(entries) + "]",
    }
    keys = draw(st.lists(st.sampled_from(sorted(fields)), min_size=4, max_size=6))
    body = ", ".join(f'"{k}": {fields[k]}' for k in keys)
    return "{" + body + "}" + draw(st.sampled_from(["", "\n", "]", " x", "\xe9"]))


def _valid_document():
    return {"degree_x": 2, "degree_y": 1, "domain": [-1, 1, -1, 1], "tol": 0,
            "entries": [[0, 0, 0.5], [2, 1, -0.25]]}


deep_documents = st.integers(1, 200_000).map(lambda n: "[" * n)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "c.json"


def _eval_exit_code(path, text):
    path.write_bytes(text.encode("utf-8"))
    return cli.main(["eval", str(path), "--point", "0,0"])


@FUZZ
@given(value=json_values)
def test_any_json_value(doc_path, value):
    text = json.dumps(value)
    assert _eval_exit_code(doc_path, text) in DOCUMENTED


@FUZZ
@given(text=near_valid_documents())
def test_near_valid_documents(doc_path, text):
    assert _eval_exit_code(doc_path, text) in DOCUMENTED


# numbers at the edges of a double, as JSON values
edge_numbers = st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024, 2 ** 1023, 1e308,
                                -0.0, 5e-324, float("inf"), float("nan")])


@FUZZ
@given(key=st.sampled_from(sorted(_valid_document())),
       value=edge_numbers | json_values)
def test_one_field_replaced(doc_path, key, value):
    doc = _valid_document()
    doc[key] = value
    assert _eval_exit_code(doc_path, json.dumps(doc)) in DOCUMENTED


@FUZZ
@given(text=deep_documents | st.text(max_size=40))
def test_deep_or_arbitrary_text(doc_path, text):
    assert _eval_exit_code(doc_path, text) in DOCUMENTED


def test_valid_document_evaluates(doc_path, capsys):
    # the fuzzed documents start from this one, which is well formed
    assert _eval_exit_code(doc_path, json.dumps(_valid_document())) == 0
    # 0.5 T_0(0) T_0(0) - 0.25 T_2(0) T_1(0), and T_1(0) = 0
    assert float(capsys.readouterr().out) == 0.5


# the parts of a points file's line: numbers, non-finite and malformed ones,
# separators, blanks and non-ASCII text
coordinates = st.one_of(
    st.floats(-1, 1).map(repr), st.floats().map(repr), st.integers(-2, 2).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-0", "1_0", "0x1", "", ".",
                     "\xe9", "\u2212" "1", "\u0663", "\u00bd"]))
separators = st.sampled_from([",", " ", ", ", "\t", ";", ",,", "", "\r", "\x0c"])
point_lines = st.one_of(
    st.tuples(coordinates, separators, coordinates).map("".join),
    st.sampled_from(["", "   ", "\t", "1,2,3"]),
    st.text(st.characters(max_codepoint=127), max_size=8))


@pytest.fixture(scope="module")
def points_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("points")
    (folder / "c.json").write_text(json.dumps(_valid_document()))
    return folder


@FUZZ
@given(lines=st.lists(point_lines, max_size=6))
def test_points_file(points_folder, lines):
    text = "\n".join(lines)
    (points_folder / "points.txt").write_bytes(text.encode("utf-8"))
    out = points_folder / "values.txt"
    out.unlink(missing_ok=True)
    code = cli.main(["eval", str(points_folder / "c.json"), "--points-file",
                     str(points_folder / "points.txt"), "--resolution", "2",
                     "-o", str(out)])
    # 0 success, 2 a non-ASCII byte, 4 a malformed point, 6 a point outside
    # the domain or not finite
    assert code in {0, 2, 4, 6}
    if code == 0:
        # one row per point, or the 2 x 2 grid's when the file holds none
        count = sum(1 for line in text.split("\n") if line.strip())
        assert len(out.read_text().splitlines()) == (count or 4)


# Formula text and option values: whatever text a formula argument or an
# option's value holds, a command ends with a documented exit code, never a
# traceback.  3 is a build that does not converge.
FORMULA_OR_OPTION = {0, 2, 3, 4, 6}

# the pieces of a formula: names, numbers at the edges of a double, known
# and unknown functions, operators, brackets and stray characters
formula_tokens = st.sampled_from([
    "x", "y", "pi", "e", "z", "0", "1", "2.5", ".5", "17", "1e308", "1e-320",
    "1e400", "+", "-", "*", "/", "^", "(", ")", ",", " ", "sin(", "cos(", "tan(",
    "exp(", "log(", "sqrt(", "abs(", "pow(", "foo(", "$", "\xe9", "\x00"])
# well-formed formulas, whose values may still overflow, divide by zero or
# leave a function's domain
formula_atoms = st.sampled_from(["x", "y", "pi", "0", "1", "2.5", "17", "1e308",
                                 "1e-320"])
well_formed = st.recursive(formula_atoms, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+-*/^"), inner).map("({0[0]}{0[1]}{0[2]})".format),
    st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "-"]),
              inner).map("{0[0]}({0[1]})".format),
    st.tuples(inner, inner).map("pow({0[0]}, {0[1]})".format)), max_leaves=8)
formulas = (well_formed | st.lists(formula_tokens, max_size=12).map("".join)
            | st.text(max_size=20))


@pytest.fixture(scope="module")
def small_budget():
    # large degrees, grids and resolutions are refused at a 4 MiB budget
    # instead of allocated, so that every example stays cheap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chebcore, "_GRID_BUDGET", 2 ** 22)
        yield


@pytest.fixture(scope="module")
def work_folder(tmp_path_factory, small_budget):
    folder = tmp_path_factory.mktemp("options")
    (folder / "c.json").write_text(json.dumps(_valid_document()))
    return folder


@FUZZ
@given(text=formulas, command=st.sampled_from(["approx", "interp"]))
def test_formula_text(work_folder, text, command):
    sizes = ["--max-n", "16"] if command == "approx" else ["-n", "4", "-m", "4"]
    # after --, text that starts with a minus sign is a formula too
    argv = [command, *sizes, "-o", str(work_folder / "f.json"), "--", text]
    assert cli.main(argv) in FORMULA_OR_OPTION


# each option, and the command it is given to with valid values for the rest
OPTION_COMMANDS = {
    "--tol": "approx", "--domain": "approx", "--max-n": "approx", "--n0": "approx",
    "--grid-domain": "eval", "--resolution": "eval", "--point": "eval",
    "-n": "interp", "-m": "interp",
}
option_values = st.one_of(
    st.text(max_size=12),
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.lists(st.sampled_from(["-1", "0", "1", "0.5", "2", "1e308", "nan", "inf", "a",
                              ""]), min_size=1, max_size=5).map(",".join))


@FUZZ
@given(option=st.sampled_from(sorted(OPTION_COMMANDS)), value=option_values)
def test_option_values(work_folder, option, value):
    command = OPTION_COMMANDS[option]
    out = str(work_folder / "o.txt")
    argv = {"approx": ["approx", "cos(x*y)", "--max-n", "64", "-o", out],
            "eval": ["eval", str(work_folder / "c.json"), "-o", out],
            "interp": ["interp", "cos(x*y)", "-n", "4", "-m", "4", "-o", out]}[command]
    # the value attached to its option, so that one starting with a minus
    # sign is not read as an option; a later value replaces the one above
    attached = option + value if option in ("-n", "-m") else f"{option}={value}"
    assert cli.main([*argv, attached]) in FORMULA_OR_OPTION

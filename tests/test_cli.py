"""File format and command-line behavior."""

from __future__ import annotations

import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lienil.cli as cli
import lienil.oracle as oracle
import lienil.semisimple as semisimple
from lienil.catalog import builtin, standard_entries
from lienil.liealg import LieAlgebra
from lienil.linalg import Matrix, Subspace
from lienil.reps import trivial_rep
from lienil.cli import (
    ParseError,
    parse_algebra,
    parse_element,
    render_algebra,
    run,
)

from support import fraction_bracket, fraction_rref, heisenberg_algebra, outcome

F = Fraction

SL2_TEXT = "dim 3\nbasis e h f\n[e,h] = -2 e\n[e,f] = h\n[h,f] = -2 f\n"


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def capture(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


# --- parsing ----------------------------------------------------------------------

def test_parse_renders_back_to_itself():
    assert render_algebra(parse_algebra(SL2_TEXT)) == SL2_TEXT


def test_round_trip_on_every_catalog_entry():
    for entry in standard_entries():
        text = render_algebra(entry.algebra)
        assert parse_algebra(text) == entry.algebra


def test_parse_accepts_comments_and_blank_lines():
    text = "# a three-dimensional example\n\ndim 3\nbasis x y z\n\n[x,y] = z  # center\n"
    g = parse_algebra(text)
    assert g.dim == 3
    assert g.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)


def test_parse_accepts_rational_and_signed_coefficients():
    text = "dim 2\nbasis a b\n[a,b] = 1/2 a - 3 b\n"
    g = parse_algebra(text)
    assert g.bracket((1, 0), (0, 1)) == (F(1, 2), -3)


def test_parse_reversed_pair_is_normalized():
    text = "dim 3\nbasis e h f\n[h,e] = 2 e\n[e,f] = h\n[f,h] = 2 f\n"
    assert parse_algebra(text) == parse_algebra(SL2_TEXT)


def test_parse_zero_dim_file():
    g = parse_algebra("dim 0\n")
    assert g.dim == 0


def test_parse_error_on_diagonal_bracket():
    with pytest.raises(ParseError) as excinfo:
        parse_algebra("dim 2\nbasis a b\n[a,a] = b\n")
    assert excinfo.value.line == 3


def test_parse_error_on_duplicate_pair():
    with pytest.raises(ParseError) as excinfo:
        parse_algebra("dim 2\nbasis a b\n[a,b] = b\n[b,a] = -1 b\n")
    assert excinfo.value.line == 4


def test_parse_error_on_unknown_name():
    with pytest.raises(ParseError) as excinfo:
        parse_algebra("dim 2\nbasis a b\n[a,b] = c\n")
    assert excinfo.value.line == 3


def test_parse_error_on_bad_basis_count():
    with pytest.raises(ParseError):
        parse_algebra("dim 3\nbasis a b\n")


def test_parse_error_on_missing_dim():
    with pytest.raises(ParseError):
        parse_algebra("basis a b\n[a,b] = b\n")


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: parse_algebra("dim 1\nbasis a\nbasis a\n"),
                 (ParseError, "line 3: duplicate basis line"), id="duplicate-basis-line"),
])
def test_every_guard_answers_as_documented(call, expected):
    assert outcome(call) == expected


@pytest.mark.parametrize("line", ["basisfoo a b", "basis_x a b"])
def test_basis_line_needs_the_exact_keyword(tmp_path, line):
    code, text = capture(["info", write(tmp_path, "bad.txt", f"dim 2\n{line}\n")])
    assert code == 1
    assert f"line 2: unrecognized line {line!r}" in text


_FILE_ALPHABET = "dimbasxyz0123456789 \t[],=+-/#~._"
_file_lines = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["dim 0", "dim 2", "basis", "basis x y", "[x,y] = y"]),
    st.builds(lambda head, tail: head + tail,
              st.sampled_from(["", "dim ", "basis ", "[x,y] = ", "[y,x] = ", "# "]),
              st.text(alphabet=_FILE_ALPHABET, max_size=20)))


@settings(max_examples=400, deadline=None)
@given(st.lists(_file_lines, max_size=6).map("\n".join))
def test_parse_algebra_returns_an_algebra_or_raises_parse_error(text):
    try:
        algebra = parse_algebra(text)
    except ParseError:
        return
    assert isinstance(algebra, LieAlgebra)


_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_~.]{0,3}", fullmatch=True)
_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)


@st.composite
def _algebras(draw):
    names = draw(st.lists(_names, max_size=5, unique=True))
    n = len(names)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LieAlgebra(n, names, {
        pair: draw(st.dictionaries(st.integers(0, n - 1), _coefficients, max_size=n))
        for pair in keys})


@settings(max_examples=200, deadline=None)
@given(_algebras())
def test_render_then_parse_is_the_identity(g):
    back = parse_algebra(render_algebra(g))
    assert back == g
    assert back.basis_names == g.basis_names
    assert back._table_key == g._table_key


def test_parse_element_values():
    assert parse_element("1, 0, -2", 3) == (1, 0, -2)
    assert parse_element("1/2,0", 2) == (F(1, 2), 0)


def test_parse_element_errors():
    with pytest.raises(ParseError):
        parse_element("1, 2", 3)
    with pytest.raises(ParseError):
        parse_element("1, x", 2)
    with pytest.raises(ParseError):  # exponents are outside the grammar, and unbounded
        parse_element("1e10000000", 1)


# --- commands ----------------------------------------------------------------------

def test_validate_ok(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    code, text = capture(["validate", path])
    assert code == 0
    assert "valid: true" in text


def test_validate_reports_jacobi_failure(tmp_path):
    path = write(tmp_path, "bad.txt",
                 "dim 3\nbasis x y z\n[x,y] = z\n[x,z] = x\n")
    code, text = capture(["validate", path])
    assert code == 1
    assert "valid: false" in text


def test_info_payload(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    code, text = capture(["info", "--format", "json", path])
    assert code == 0
    payload = json.loads(text)
    assert payload["dim"] == 3
    assert payload["semisimple"] is True
    assert payload["derived_series_dims"] == [3, 3]


def test_radical_command(tmp_path):
    path = write(tmp_path, "heis.txt", render_algebra(builtin("heisenberg").algebra))
    code, text = capture(["radical", "--format", "json", path])
    assert code == 0
    payload = json.loads(text)
    assert payload["dim"] == 3
    assert payload["semisimple"] is False


def test_killing_command(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    code, text = capture(["killing", "--format", "json", path])
    assert code == 0
    payload = json.loads(text)
    assert payload["gram"][1][1] == "8"


def test_nilpotent_command_and_assert(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    code, _ = capture(["nilpotent", path, "--element", "1,0,0"])
    assert code == 0
    code, _ = capture(["nilpotent", path, "--element", "0,1,0", "--assert"])
    assert code == 2


def test_oracle_command(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    code, text = capture(["oracle", "--format", "json", path, "--element", "1,0,0"])
    assert code == 0
    payload = json.loads(text)
    assert payload["answer"] is True and payload["in_derived"] is True


def test_oracle_witness_payload(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    code, text = capture(
        ["oracle", "--format", "json", path, "--element", "0,1,0", "--witness"])
    assert code == 0
    payload = json.loads(text)
    assert payload["answer"] is False
    assert payload["witness_case"] == "adjoint_pullback"
    assert payload["witness_acts_nilpotently"] is False


def test_oracle_witness_decides_once(tmp_path, monkeypatch):
    calls = []
    decide = oracle.nilpotent_in_all_reps
    counted = lambda *args: calls.append(args) or decide(*args)  # noqa: E731
    monkeypatch.setattr(oracle, "nilpotent_in_all_reps", counted)
    path = write(tmp_path, "sl2.lie", SL2_TEXT)
    code, text = capture(["oracle", path, "--element", "0,1,0", "--witness"])
    assert code == 0
    assert "witness_case: adjoint_pullback" in text
    assert len(calls) == 1


def test_info_makes_no_bracket_on_an_abelian_algebra(tmp_path, monkeypatch):
    calls = []
    bracket = LieAlgebra._int_bracket
    monkeypatch.setattr(LieAlgebra, "_int_bracket",
                        lambda *args: calls.append(args) or bracket(*args))
    path = write(tmp_path, "abelian.lie", render_algebra(builtin("abelian(12)").algebra))
    payload = json.loads(capture(["info", path, "--format", "json"])[1])
    assert (payload["derived_series_dims"], payload["lower_central_dims"]) == ([12, 0], [12, 0])
    assert calls == []


def test_a_series_step_from_the_whole_algebra_reads_the_table(tmp_path, monkeypatch):
    heisenberg = heisenberg_algebra(20)  # dim 41: [x_i, y_i] = z
    calls = []
    bracket = LieAlgebra._int_bracket
    monkeypatch.setattr(LieAlgebra, "_int_bracket",
                        lambda *args: calls.append(args) or bracket(*args))
    semisimple.analyze(heisenberg).quotient  # rad g = g: its derived series starts at g
    counts = [len(calls)]
    for g in (heisenberg, builtin("sl3").algebra):
        path = write(tmp_path, "g.lie", render_algebra(g))
        calls.clear()
        assert capture(["info", path])[0] == 0
        counts.append(len(calls))
    assert counts == [0, 40, 0]  # 40: [g, [g, g]] brackets the 40 noncentral x_i, y_i with z


def test_derived_subalgebra_is_spanned_once_per_algebra(tmp_path, monkeypatch):
    """The radical, its solvability check and both series of ``info`` read one kept span
    of the table's values: one span per algebra object."""
    heisenberg = heisenberg_algebra(20)  # dim 41: [x_i, y_i] = z
    upper = builtin("upper_triangular(3)").algebra
    upper = LieAlgebra(upper.dim, [f"fresh{i}" for i in range(upper.dim)], upper.table)
    spans = []
    derived = LieAlgebra.__dict__["_derived"]
    monkeypatch.setattr(derived, "func", lambda g, span=derived.func: spans.append(g) or span(g))
    for g in (upper, heisenberg):
        spans.clear()
        structure = semisimple.analyze(g)
        structure.quotient  # rad g = g: its derived series starts at g
        assert spans == [g]
        assert g.derived_subalgebra() is g.derived_subalgebra() and spans == [g]
        path = write(tmp_path, "g.lie", render_algebra(g))
        assert capture(["info", path])[0] == 0
        assert len(spans) == 2 and spans[1] is not g  # the parsed copy, spanned once


def _reference_series(g: LieAlgebra, lower_central: bool) -> list[int]:
    """Series dimensions from Fraction brackets and the Fraction RREF."""
    full = [g.basis_element(i) for i in range(g.dim)]
    chain = [full]
    while chain[-1]:
        left = full if lower_central else chain[-1]
        chain.append(list(fraction_rref(
            [fraction_bracket(g, a, b) for a in left for b in chain[-1]], g.dim)[0]))
        if len(chain[-1]) >= len(chain[-2]):
            break
    return [len(term) for term in chain]


@pytest.mark.parametrize("entry", standard_entries(), ids=lambda entry: entry.name)
def test_info_series_match_fraction_reference(tmp_path, entry):
    g = entry.algebra
    path = write(tmp_path, "g.lie", render_algebra(g))
    payload = json.loads(capture(["info", path, "--format", "json"])[1])
    assert payload["derived_series_dims"] == _reference_series(g, False)
    assert payload["lower_central_dims"] == _reference_series(g, True)
    assert payload["derived_dim"] == entry.known_derived.dim


def test_crosscheck_command(tmp_path):
    path = write(tmp_path, "heis.txt", render_algebra(builtin("heisenberg").algebra))
    code, text = capture(
        ["crosscheck", "--format", "json", path,
         "--element", "0,0,1", "--depth", "1", "--max-dim", "8", "--assert"])
    assert code == 0
    payload = json.loads(text)
    assert payload["consistent"] is True
    assert payload["corpus_size"] == len(payload["outcomes"])


def test_catalog_listing():
    code, text = capture(["catalog", "--format", "json"])
    assert code == 0
    names = json.loads(text)["names"]
    assert "sl2" in names and "heisenberg" in names


def test_catalog_renders_file_verbatim():
    code, text = capture(["catalog", "sl2"])
    assert code == 0
    assert text == SL2_TEXT


def test_catalog_output_feeds_back_into_parser(tmp_path):
    code, text = capture(["catalog", "gl2"])
    assert code == 0
    path = write(tmp_path, "gl2.txt", text)
    code, _ = capture(["validate", path])
    assert code == 0


# --- exit codes and stability ---------------------------------------------------------

def test_unreadable_file_is_reported(tmp_path):
    code, text = capture(["info", str(tmp_path / "missing.txt")])
    assert code == 1
    assert "error" in text


@pytest.mark.parametrize("data, error", [
    (b"dim 1\nbasis x\n[x,x] = \xffx\n", "line 3, column 9: byte 0xff"),
    (b"# caf\xc3\xa9 \xff\ndim 1\n", "line 1, column 8: byte 0xff"),  # columns count characters
    (b"dim 1\r\nbasis x\r# \xfe\n", "line 3, column 3: byte 0xfe"),  # CR LF and CR end lines
    (b"dim 1\n\xe2\x82", "line 2, column 1: byte 0xe2"),  # a cut-off sequence
], ids=["bracket", "comment", "cr", "cut-off"])
def test_a_file_that_is_not_utf8_is_located(tmp_path, capsys, data, error):
    path = tmp_path / "g.lie"
    path.write_bytes(data)
    code, out = capture(["validate", str(path)])
    assert (code, out) == (1, f"command: validate\nerror: {error} is not UTF-8\n")
    code, out = capture(["info", str(path), "--format=json"])
    assert (code, json.loads(out)) == (1, {"command": "info", "error": f"{error} is not UTF-8"})
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text, error", [
    ("dim 3\nbasis x y z\n    [x,y] = 2 q\n", "line 3, column 15: unknown basis name 'q'"),
    ("dim 3\nbasis x y z\n\t[x,y] = 1/0 z\n", "line 3, column 10: zero denominator in '1/0'"),
    (f"  dim 1{0:04300d}\n", "line 1, column 7: number too long (4301 characters)"),
], ids=["spaces", "tab", "dim"])
def test_an_error_on_an_indented_line_is_located_on_the_raw_line(tmp_path, text, error):
    path = write(tmp_path, "g.lie", text)
    code, out = capture(["validate", path])
    assert (code, out) == (1, f"command: validate\nerror: {error}\n")
    code, out = capture(["validate", path, "--format=json"])
    assert (code, json.loads(out)) == (1, {"command": "validate", "error": error})


def test_parse_error_exit_code(tmp_path):
    path = write(tmp_path, "bad.txt", "dim 2\nbasis a b\n[a,a] = b\n")
    code, text = capture(["info", path])
    assert code == 1
    assert "error" in text


def test_zero_denominator_in_file_is_located(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "dim 2\nbasis a b\n[a,b] = 1/0 a\n")
    code, text = capture(["info", path])
    assert code == 1
    assert "line 3, column 9: zero denominator" in text
    assert "Traceback" not in text + capsys.readouterr().err


def test_too_long_number_in_file_is_located(tmp_path, capsys):
    digits = "1" * 5000  # more than int() converts from text by default
    for text, place in ((f"dim 2\nbasis a b\n[a,b] = {digits} a\n", "line 3, column 9"),
                        (f"dim {digits}\n", "line 1, column 5")):
        code, out = capture(["info", write(tmp_path, "long.txt", text)])
        assert code == 1
        assert f"{place}: number too long" in out
        assert "Traceback" not in out + capsys.readouterr().err


def test_computed_values_beyond_the_text_limit_render_exactly(tmp_path):
    sevens = "7" * 3000  # the square in the Killing form has 6000 digits
    limit = sys.get_int_max_str_digits()
    path = write(tmp_path, "sevens.txt", f"dim 2\nbasis a b\n[a,b] = {sevens} b\n")
    code, out = capture(["killing", path, "--format=json"])
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        square = str(int(sevens) ** 2)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert json.loads(out)["gram"] == [[square, "0"], ["0", "0"]]
    broken = f"dim 3\nbasis a b c\n[a,b] = {sevens} c\n[b,c] = {sevens} b\n"
    code, out = capture(["validate", write(tmp_path, "broken.txt", broken), "--format=json"])
    assert code == 1
    assert json.loads(out)["violations"][0].startswith("Jacobi identity fails on basis triple")


@pytest.mark.parametrize("text, place", [
    ("dim \u0663\n", "line 1: dim line must be"),  # Arabic-Indic three
    ("dim \uff13\n", "line 1: dim line must be"),  # full-width three
    (SL2_TEXT.replace("-2 e", "-\u0662 e"), "line 3, column 9: expected a signed term"),
    (SL2_TEXT.replace("-2 e", "-\uff12 e"), "line 3, column 9: expected a signed term"),
])
def test_non_ascii_digits_in_a_file_are_located(tmp_path, text, place):
    code, out = capture(["info", write(tmp_path, "g.lie", text)])
    assert code == 1
    assert place in out


@pytest.mark.parametrize("digit", ["\u0661", "\uff13"])  # Arabic-Indic one, full-width three
def test_non_ascii_digits_in_an_element_are_bad_rationals(tmp_path, digit):
    code, out = capture(["oracle", write(tmp_path, "sl2.lie", SL2_TEXT), f"--element={digit},0,0"])
    assert code == 1
    assert f"bad rational {digit!r}" in out


@pytest.mark.parametrize("text, place", [
    (SL2_TEXT.replace("= -2 e", "=\u3000-2 e"), "line 3, column 8: character '\\u3000'"),
    ("dim\u00a03\n", "line 1, column 4: character '\\xa0'"),  # a no-break space
    (SL2_TEXT.replace("-2 e\n", "-2 e\x1c\n"), "line 3, column 13: character '\\x1c'"),
])
def test_whitespace_other_than_space_and_tab_is_located(tmp_path, text, place):
    code, out = capture(["info", write(tmp_path, "g.lie", text)])
    assert code == 1
    assert f"error: {place} outside a comment\n" in out


@pytest.mark.parametrize("separator", ["\f", "\u2028", "\x1c", "\x85"])
def test_a_comment_is_one_line_whatever_it_holds(tmp_path, separator):
    text = SL2_TEXT.replace("basis", f"# a comment{separator}with a separator\nbasis")
    assert parse_algebra(text) == parse_algebra(SL2_TEXT)
    code, out = capture(["info", write(tmp_path, "g.lie", text)])
    assert (code, "dim: 3\n" in out) == (0, True)


def test_an_element_is_stripped_of_spaces_and_tabs_only(tmp_path):
    path = write(tmp_path, "sl2.lie", SL2_TEXT)
    assert capture(["oracle", path, "--element= 1,\t0 ,0\t"])[0] == 0
    code, out = capture(["oracle", path, "--element= 1,0,0\u3000"])
    assert code == 1
    assert "bad rational '0\\u3000'" in out


def test_exponent_element_exits_1(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    code, text = capture(["oracle", path, "--element=1e10000000,0,0"])
    assert code == 1
    assert "bad rational '1e10000000'" in text


def test_consistency_error_is_reported(tmp_path, monkeypatch, capsys):
    gl2 = builtin("gl2").algebra  # under basis names that no other test uses
    renamed = gl2.change_of_basis(Matrix.identity(4), ["u11", "u12", "u21", "u22"])
    path = write(tmp_path, "gl2.txt", render_algebra(renamed))
    # A zero "radical" leaves gl2's degenerate Killing form on the quotient.
    monkeypatch.setattr(semisimple, "killing_orth",
                        lambda algebra, space: Subspace.zero(algebra.dim))
    code, text = capture(["radical", "--format", "json", path])
    assert code == 1
    assert json.loads(text) == {
        "command": "radical",
        "error": "Killing form degenerate on the quotient by the radical"}
    assert "Traceback" not in text + capsys.readouterr().err


def test_unknown_catalog_name_exit_code():
    code, text = capture(["catalog", "sp4"])
    assert code == 1
    assert "error" in text


@pytest.mark.parametrize("name, error", [
    ("abelian(\u0663)", "unknown catalog name: 'abelian(\u0663)'"),
    ("upper_triangular(1000)",
     "catalog name 'upper_triangular(1000)' has dimension 500500, above the limit of 64"),
])
def test_catalog_names_outside_the_grammar_or_the_size_limit_exit_1(name, error):
    assert capture(["catalog", name]) == (1, f"command: catalog\nerror: {error}\n")


def test_help_exits_cleanly():
    assert run(["--help"], out=io.StringIO()) == 0


def test_json_output_is_byte_stable(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    argv = ["crosscheck", "--format", "json", path,
            "--element", "0,1,0", "--depth", "1", "--max-dim", "16"]
    first = capture(argv)
    second = capture(argv)
    assert first == second
    assert first[1].encode("utf-8") == second[1].encode("utf-8")


def test_text_and_json_agree_on_values(tmp_path):
    path = write(tmp_path, "sl2.txt", SL2_TEXT)
    _, json_text = capture(["oracle", "--format", "json", path, "--element", "0,1,0"])
    _, plain = capture(["oracle", path, "--element", "0,1,0"])
    payload = json.loads(json_text)
    assert f"answer: {'true' if payload['answer'] else 'false'}" in plain
    assert f"radical_dim: {payload['radical_dim']}" in plain


# --- golden snapshot --------------------------------------------------------------
# JSON reports on sl3, gl2 and upper_triangular(3), each moved by one fixed
# rational basis change so that elimination meets denominators.  The values
# were recorded from the Fraction Gauss-Jordan kernel; stdout must equal their
# rendering json.dumps(indent=2, sort_keys=True) byte for byte.

GOLDEN_CASES = (  # (catalog name, file name, oracle element in moved coordinates)
    ("sl3", "sl3.lie", "1/9,1/9,1/3,2,0,0,0,0"),  # H1
    ("gl2", "gl2.lie", "19/9,1/9,1/3,2"),  # the identity
    ("upper_triangular(3)", "ut3.lie", "2,0,0,0,0,0"),  # E11
)

GOLDEN = {
    ("sl3.lie", "info"): {
        "basis": ["b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"], "center_dim": 0,
        "command": "info", "derived_dim": 8, "derived_series_dims": [8, 8], "dim": 8,
        "file": "sl3.lie", "lower_central_dims": [8, 8], "nilpotent": False,
        "radical_dim": 0, "semisimple": True, "solvable": False},
    ("sl3.lie", "radical"): {
        "basis_vectors": [], "command": "radical", "dim": 0, "file": "sl3.lie",
        "semisimple": True},
    ("sl3.lie", "killing"): {
        "command": "killing", "file": "sl3.lie", "nondegenerate": True,
        "gram": [["0", "0", "0", "0", "0", "9/2", "-3/7", "0"],
                 ["0", "0", "0", "0", "0", "-9/2", "24/7", "-3/4"],
                 ["0", "0", "0", "0", "0", "0", "-1", "37/4"],
                 ["0", "0", "0", "3", "-21/5", "1/2", "0", "-3/2"],
                 ["0", "0", "0", "-21/5", "372/25", "-11/5", "0", "0"],
                 ["9/2", "-9/2", "0", "1/2", "-11/5", "1/3", "0", "0"],
                 ["-3/7", "24/7", "-1", "0", "0", "0", "0", "0"],
                 ["0", "-3/4", "37/4", "-3/2", "0", "0", "0", "0"]]},
    ("sl3.lie", "oracle"): {
        "answer": False, "command": "oracle", "derived_dim": 8,
        "element": ["1/9", "1/9", "1/3", "2", "0", "0", "0", "0"], "file": "sl3.lie",
        "image_nilpotent": False, "in_derived": True, "radical_dim": 0,
        "witness_acts_nilpotently": False, "witness_case": "adjoint_pullback",
        "witness_dim": 8, "witness_exponent": 2, "witness_label": "pullback(adjoint)"},
    ("gl2.lie", "info"): {
        "basis": ["b0", "b1", "b2", "b3"], "center_dim": 1, "command": "info",
        "derived_dim": 3, "derived_series_dims": [4, 3, 3], "dim": 4, "file": "gl2.lie",
        "lower_central_dims": [4, 3, 3], "nilpotent": False, "radical_dim": 1,
        "semisimple": False, "solvable": False},
    ("gl2.lie", "radical"): {
        "basis_vectors": [["1", "1/19", "3/19", "18/19"]], "command": "radical",
        "dim": 1, "file": "gl2.lie", "semisimple": False},
    ("gl2.lie", "killing"): {
        "command": "killing", "file": "gl2.lie", "nondegenerate": False,
        "gram": [["1/2", "-1/2", "0", "-1/2"],
                 ["-1/2", "1/2", "6", "-1/2"],
                 ["0", "6", "-4", "1/3"],
                 ["-1/2", "-1/2", "1/3", "1/2"]]},
    ("gl2.lie", "oracle"): {
        "answer": False, "command": "oracle", "derived_dim": 3,
        "element": ["19/9", "1/9", "1/3", "2"], "file": "gl2.lie",
        "image_nilpotent": True, "in_derived": False, "radical_dim": 1,
        "witness_acts_nilpotently": False, "witness_case": "derived_character",
        "witness_dim": 1, "witness_exponent": 1, "witness_label": "character(1,-1,0,1)"},
    ("ut3.lie", "info"): {
        "basis": ["b0", "b1", "b2", "b3", "b4", "b5"], "center_dim": 1,
        "command": "info", "derived_dim": 3, "derived_series_dims": [6, 3, 1, 0],
        "dim": 6, "file": "ut3.lie", "lower_central_dims": [6, 3, 3],
        "nilpotent": False, "radical_dim": 6, "semisimple": False, "solvable": True},
    ("ut3.lie", "radical"): {
        "basis_vectors": [[str(int(i == j)) for j in range(6)] for i in range(6)],
        "command": "radical", "dim": 6, "file": "ut3.lie", "semisimple": False},
    ("ut3.lie", "killing"): {
        "command": "killing", "file": "ut3.lie", "nondegenerate": False,
        "gram": [["1/2", "-1/2", "0", "-1/4", "1/10", "-3/4"],
                 ["-1/2", "1/2", "0", "1/4", "-1/10", "3/4"],
                 ["0", "0", "0", "0", "0", "0"],
                 ["-1/4", "1/4", "0", "1/2", "-1/5", "-3/4"],
                 ["1/10", "-1/10", "0", "-1/5", "2/25", "3/10"],
                 ["-3/4", "3/4", "0", "-3/4", "3/10", "9/2"]]},
    ("ut3.lie", "oracle"): {
        "answer": False, "command": "oracle", "derived_dim": 3,
        "element": ["2", "0", "0", "0", "0", "0"], "file": "ut3.lie",
        "image_nilpotent": True, "in_derived": False, "radical_dim": 6,
        "witness_acts_nilpotently": False, "witness_case": "derived_character",
        "witness_dim": 1, "witness_exponent": 1, "witness_label": "character(-1,1,0,0,0,0)"},
}


# crosscheck --depth 1 on the same files and elements, recorded from the Fraction
# corpus evaluator: each corpus row as (label, dim, nilpotent); the verdict and
# witness fields are the oracle report's.  ut3's rows are those recorded there minus
# the rows built from its 0-dimensional seed, pullback(adjoint), which no corpus keeps.
CROSSCHECK_GOLDEN_ROWS = {
    "sl3.lie": (
        ("adjoint", 8, False),
        ("dual(adjoint)", 8, False),
        ("sum(adjoint, adjoint)", 16, False),
        ("tensor(adjoint, adjoint)", 64, False),
    ),
    "gl2.lie": (
        ("adjoint", 4, True),
        ("pullback(adjoint)", 3, True),
        ("character(1,-1,0,1)", 1, False),
        ("dual(adjoint)", 4, True),
        ("dual(pullback(adjoint))", 3, True),
        ("dual(character(1,-1,0,1))", 1, False),
        ("sum(adjoint, adjoint)", 8, True),
        ("sum(adjoint, pullback(adjoint))", 7, True),
        ("sum(adjoint, character(1,-1,0,1))", 5, False),
        ("sum(pullback(adjoint), pullback(adjoint))", 6, True),
        ("sum(pullback(adjoint), character(1,-1,0,1))", 4, False),
        ("sum(character(1,-1,0,1), character(1,-1,0,1))", 2, False),
        ("tensor(adjoint, adjoint)", 16, True),
        ("tensor(adjoint, pullback(adjoint))", 12, True),
        ("tensor(adjoint, character(1,-1,0,1))", 4, False),
        ("tensor(pullback(adjoint), pullback(adjoint))", 9, True),
        ("tensor(pullback(adjoint), character(1,-1,0,1))", 3, False),
        ("tensor(character(1,-1,0,1), character(1,-1,0,1))", 1, False),
    ),
    "ut3.lie": (
        ("adjoint", 6, False),
        ("character(-1,1,0,0,0,0)", 1, False),
        ("character(0,0,0,-5/2,1,0)", 1, True),
        ("character(0,0,0,0,0,1)", 1, True),
        ("dual(adjoint)", 6, False),
        ("dual(character(-1,1,0,0,0,0))", 1, False),
        ("dual(character(0,0,0,-5/2,1,0))", 1, True),
        ("dual(character(0,0,0,0,0,1))", 1, True),
        ("sum(adjoint, adjoint)", 12, False),
        ("sum(adjoint, character(-1,1,0,0,0,0))", 7, False),
        ("sum(adjoint, character(0,0,0,-5/2,1,0))", 7, False),
        ("sum(adjoint, character(0,0,0,0,0,1))", 7, False),
        ("sum(character(-1,1,0,0,0,0), character(-1,1,0,0,0,0))", 2, False),
        ("sum(character(-1,1,0,0,0,0), character(0,0,0,-5/2,1,0))", 2, False),
        ("sum(character(-1,1,0,0,0,0), character(0,0,0,0,0,1))", 2, False),
        ("sum(character(0,0,0,-5/2,1,0), character(0,0,0,-5/2,1,0))", 2, True),
        ("sum(character(0,0,0,-5/2,1,0), character(0,0,0,0,0,1))", 2, True),
        ("sum(character(0,0,0,0,0,1), character(0,0,0,0,0,1))", 2, True),
        ("tensor(adjoint, adjoint)", 36, False),
        ("tensor(adjoint, character(-1,1,0,0,0,0))", 6, False),
        ("tensor(adjoint, character(0,0,0,-5/2,1,0))", 6, False),
        ("tensor(adjoint, character(0,0,0,0,0,1))", 6, False),
        ("tensor(character(-1,1,0,0,0,0), character(-1,1,0,0,0,0))", 1, False),
        ("tensor(character(-1,1,0,0,0,0), character(0,0,0,-5/2,1,0))", 1, False),
        ("tensor(character(-1,1,0,0,0,0), character(0,0,0,0,0,1))", 1, False),
        ("tensor(character(0,0,0,-5/2,1,0), character(0,0,0,-5/2,1,0))", 1, True),
        ("tensor(character(0,0,0,-5/2,1,0), character(0,0,0,0,0,1))", 1, True),
        ("tensor(character(0,0,0,0,0,1), character(0,0,0,0,0,1))", 1, True),
    ),
}

# crosscheck --depth 2 --max-dim 128 on the catalog's sl2 as "sl2.lie", for e and h,
# from the same evaluator: the sha256 of stdout and corpus_size.
CROSSCHECK_GOLDEN_SL2 = {
    "1,0,0": ("45a1dbf4fe6e46d963dd98c59630c057369aa9fed82fcd471da2fede1240b7aa", 2951),
    "0,1,0": ("954d82929aa05c849eafd33dc6dee824c66a9a218a9b3449dc7bf702df49b848", 2951),
}


def write_moved(tmp_path, name: str, filename: str) -> None:
    """The catalog algebra on the golden basis change, written to filename."""
    g = builtin(name).algebra
    n = g.dim
    basis_change = Matrix.from_rows([
        [F(i % 3 + 1, 2) if j == i else F(-1, i + 2) if j == i + 1 else 0 for j in range(n)]
        for i in range(n)])
    write(tmp_path, filename, render_algebra(g.change_of_basis(basis_change)))


@pytest.mark.parametrize("name, filename, element", GOLDEN_CASES)
def test_json_reports_match_golden_snapshot(tmp_path, monkeypatch, name, filename, element):
    write_moved(tmp_path, name, filename)
    monkeypatch.chdir(tmp_path)  # the reports name the file as given
    for command, extra in (("info", []), ("radical", []), ("killing", []),
                           ("oracle", ["--element", element, "--witness"])):
        code, text = capture([command, filename, *extra, "--format", "json"])
        assert code == 0
        assert text == json.dumps(GOLDEN[filename, command], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name, filename, element", GOLDEN_CASES)
def test_crosscheck_json_matches_golden_snapshot(tmp_path, monkeypatch, name, filename, element):
    write_moved(tmp_path, name, filename)
    monkeypatch.chdir(tmp_path)
    oracle_report = GOLDEN[filename, "oracle"]
    rows = CROSSCHECK_GOLDEN_ROWS[filename]
    expected = {
        "command": "crosscheck", "file": filename, "element": oracle_report["element"],
        "depth": 1, "max_dim": 128, "answer": oracle_report["answer"], "consistent": True,
        "corpus_size": len(rows),
        "outcomes": [{"label": label, "dim": dim, "nilpotent": nilpotent}
                     for label, dim, nilpotent in rows],
        **{key: value for key, value in oracle_report.items() if key.startswith("witness_")}}
    code, text = capture(["crosscheck", filename, "--element", element, "--depth", "1",
                          "--format", "json"])
    assert code == 0
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("element", sorted(CROSSCHECK_GOLDEN_SL2))
def test_large_crosscheck_json_matches_golden_digest(tmp_path, monkeypatch, element):
    write(tmp_path, "sl2.lie", render_algebra(builtin("sl2").algebra))
    monkeypatch.chdir(tmp_path)
    code, text = capture(["crosscheck", "sl2.lie", "--element", element, "--depth", "2",
                          "--max-dim", "128", "--format", "json"])
    assert code == 0
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest(),
            json.loads(text)["corpus_size"]) == CROSSCHECK_GOLDEN_SL2[element]


class _Writes(list):
    """A stream that keeps each write as one item."""

    write = list.append


@pytest.mark.parametrize("fmt, digest", [
    ("json", CROSSCHECK_GOLDEN_SL2["1,0,0"][0]),
    ("text", "312fb65d73038f1f9eac906d68dd1fc942c60d60900f034175f0c5aa5d740d44"),
], ids=["json", "text"])
def test_reports_are_written_as_they_render(tmp_path, monkeypatch, fmt, digest):
    write(tmp_path, "sl2.lie", render_algebra(builtin("sl2").algebra))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_WRITE_BATCH", 16)
    monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: pytest.fail("json.dumps called"))
    writes = _Writes()
    assert run(["crosscheck", "sl2.lie", "--element=1,0,0", "--depth=2", f"--format={fmt}"],
               out=writes) == 0
    report = "".join(writes)
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest
    assert len(writes) > 100 and max(map(len, writes)) < len(report) / 100


# Text reports on the moved gl2 file of the golden cases.  A text report lists its
# fields in the order the report inserts them, which the sorted JSON does not pin.
GL2_ELEMENT = GOLDEN_CASES[1][2]
_GL2_WITNESS_TEXT = (
    "witness_case: derived_character\n"
    "witness_label: character(1,-1,0,1)\n"
    "witness_dim: 1\n"
    "witness_exponent: 1\n"
    "witness_acts_nilpotently: false\n")
GOLDEN_TEXT = {
    "info": ([], (
        "command: info\n"
        "file: gl2.lie\n"
        "dim: 4\n"
        "basis: b0 b1 b2 b3\n"
        "derived_dim: 3\n"
        "radical_dim: 1\n"
        "center_dim: 1\n"
        "solvable: false\n"
        "nilpotent: false\n"
        "semisimple: false\n"
        "derived_series_dims: 4 3 3\n"
        "lower_central_dims: 4 3 3\n")),
    "radical": ([], (
        "command: radical\n"
        "file: gl2.lie\n"
        "dim: 1\n"
        "basis_vectors:\n"
        "  1 1/19 3/19 18/19\n"
        "semisimple: false\n")),
    "killing": ([], (
        "command: killing\n"
        "file: gl2.lie\n"
        "gram:\n"
        "  1/2 -1/2 0 -1/2\n"
        "  -1/2 1/2 6 -1/2\n"
        "  0 6 -4 1/3\n"
        "  -1/2 -1/2 1/3 1/2\n"
        "nondegenerate: false\n")),
    "nilpotent": (["--element", GL2_ELEMENT], (
        "command: nilpotent\n"
        "file: gl2.lie\n"
        "element: 19/9 1/9 1/3 2\n"
        "ad_nilpotent: true\n")),
    "oracle": (["--element", GL2_ELEMENT, "--witness"], (
        "command: oracle\n"
        "file: gl2.lie\n"
        "element: 19/9 1/9 1/3 2\n"
        "answer: false\n"
        "in_derived: false\n"
        "image_nilpotent: true\n"
        "radical_dim: 1\n"
        "derived_dim: 3\n" + _GL2_WITNESS_TEXT)),
    "crosscheck": (["--element", GL2_ELEMENT, "--depth", "1"], (
        "command: crosscheck\n"
        "file: gl2.lie\n"
        "element: 19/9 1/9 1/3 2\n"
        "depth: 1\n"
        "max_dim: 128\n"
        "answer: false\n"
        "consistent: true\n"
        "corpus_size: 18\n"
        "corpus (18 representations):\n" + "".join(
            f"  {label}  dim={dim}  nilpotent={'true' if nilpotent else 'false'}\n"
            for label, dim, nilpotent in CROSSCHECK_GOLDEN_ROWS["gl2.lie"])
        + _GL2_WITNESS_TEXT)),
}


@pytest.mark.parametrize("command", GOLDEN_TEXT)
def test_text_reports_match_golden_snapshot(tmp_path, monkeypatch, command):
    write_moved(tmp_path, "gl2", "gl2.lie")
    monkeypatch.chdir(tmp_path)
    extra, expected = GOLDEN_TEXT[command]
    assert capture([command, "gl2.lie", *extra]) == (0, expected)


# --- the exit-code policy ---------------------------------------------------------------

EXIT_FILES = {
    "sl2": SL2_TEXT,
    "gl2": render_algebra(builtin("gl2").algebra),  # not semisimple: a nonzero radical
    "broken": "dim 3\nbasis x y z\n[x,y] = z\n[x,z] = x\n",  # breaks the Jacobi identity
}

EXIT_CODES = (  # (command, file, extra arguments, exit code, exit code under --assert)
    ("validate", "sl2", [], 0, 0),
    ("validate", "broken", [], 1, 1),
    ("info", "sl2", [], 0, 0),
    ("info", "gl2", [], 0, 0),
    ("info", "broken", [], 1, 1),
    ("radical", "sl2", [], 0, 0),
    ("radical", "gl2", [], 0, 0),
    ("killing", "sl2", [], 0, 0),
    ("killing", "gl2", [], 0, 0),
    ("nilpotent", "sl2", ["--element=1,0,0"], 0, 0),
    ("nilpotent", "sl2", ["--element=0,1,0"], 0, 2),
    ("nilpotent", "sl2", ["--element=1,0"], 1, 1),
    ("oracle", "sl2", ["--element=1,0,0"], 0, 0),
    ("oracle", "sl2", ["--element=0,1,0", "--witness"], 0, 2),
    ("oracle", "gl2", ["--element=1,0,0,1"], 0, 2),
    ("oracle", "broken", ["--element=1,0,0"], 1, 1),
    ("crosscheck", "sl2", ["--element=1,0,0", "--depth=1"], 0, 0),
    ("crosscheck", "sl2", ["--element=0,1,0", "--depth=1"], 0, 0),  # negative, consistent
    ("crosscheck", "sl2", ["--element=0,1,0", "--depth=-1"], 1, 1),
)


@pytest.mark.parametrize("command, name, extra, code, asserted", EXIT_CODES,
                         ids=[f"{row[0]}-{row[1]}-{k}" for k, row in enumerate(EXIT_CODES)])
def test_exit_codes(tmp_path, command, name, extra, code, asserted):
    path = write(tmp_path, f"{name}.lie", EXIT_FILES[name])
    assert capture([command, path, *extra])[0] == code
    assert capture([command, path, *extra, "--assert"])[0] == asserted


@pytest.mark.parametrize("command, text, extra, code, line", [
    ("validate", "dim 1\nbasis 1x\n", [], 1, "error: line 2: bad basis name '1x'"),
    ("validate", "dim 2\nbasis a a\n", [], 1, "error: line 2: duplicate basis name 'a'"),
    ("validate", "dim 2\nbasis a b\n[a b] = a\n", [], 1,
     "error: line 3: bracket line must be `[a,b] = <terms>`"),
    ("validate", "dim 2\nbasis a b\n[a,c] = b\n", [], 1, "error: line 3: unknown basis name 'c'"),
    ("crosscheck", SL2_TEXT, ["--element=1,0,0", "--max-dim=-1"], 1,
     "error: negative dimension bound"),
    ("oracle", "dim 0\n", ["--element="], 0, "answer: true"),
], ids=["bad-name", "duplicate-name", "bracket-shape", "unknown-name", "negative-bound",
        "empty-element"])
def test_rejected_lines_and_bounds_and_the_empty_element(tmp_path, command, text, extra, code,
                                                        line):
    exit_code, report = capture([command, write(tmp_path, "g.lie", text), *extra])
    assert (exit_code, line in report.splitlines()) == (code, True)


def test_crosscheck_refuses_an_oversized_corpus_and_ends_an_empty_one(tmp_path):
    path = write(tmp_path, "sl2.lie", SL2_TEXT)
    code, text = capture(["crosscheck", path, "--element=1,0,0", "--depth=3"])
    assert code == 1
    assert text.startswith("command: crosscheck\nerror: corpus closure to depth 3 would visit ")
    code, text = capture(["crosscheck", path, "--element=1,0,0", "--depth=1000000000000",
                          "--max-dim=0", "--format=json"])
    assert (code, json.loads(text)["corpus_size"]) == (0, 0)


def test_an_inconsistent_crosscheck_exits_2_only_under_assert(tmp_path, monkeypatch):
    g = builtin("sl2").algebra
    zero = trivial_rep(g, 2)
    monkeypatch.setattr(oracle, "_witness", lambda algebra, av, verdict: (
        oracle.Witness(zero, "adjoint_pullback", 1), zero.action(av)))
    path = write(tmp_path, "sl2.lie", SL2_TEXT)
    argv = ["crosscheck", path, "--element=0,1,0", "--depth=1"]
    code, text = capture(argv)
    assert (code, "consistent: false" in text) == (0, True)
    assert capture([*argv, "--assert"])[0] == 2

"""Command-line interface: algebra-file parsing, dispatch, reports.

The file format puts one algebra per file::

    dim 3
    basis e h f
    [e,h] = -2 e
    [e,f] = h
    [h,f] = -2 f

Lines starting with ``#`` are comments, unlisted brackets are zero,
rationals are ``p`` or ``p/q`` in ASCII digits, and a coefficient of one may
be left off.  A file is UTF-8, or an error at its first other byte's line and
column.  Lines end at CR LF, CR or LF only.  Outside a comment the only
whitespace is the space and the tab: any other character that is not printable
(a control character, a no-break space, a line separator) is an error at its
line and column, and printable non-ASCII characters fall outside the ASCII
names and numbers; a comment may hold any text.  ``render_algebra`` is the
exact inverse of ``parse_algebra``, so files can be regenerated from any
algebra (the ``catalog`` command does exactly that).

Every command runs through ``run``, the one command path.  For the seven
commands that read an algebra file it reads and parses the file, checks the
Jacobi identity (``validate`` reports the violations instead), parses
``--element`` where the command takes one, heads the report with ``command``,
``file`` and ``element``, and adds the fields of the command's report builder;
``catalog`` reads no file.  ``run`` then streams the report and picks the exit
code: 0 for a completed computation regardless of the verdict, 1 for any
input, parse or validation problem (including a file that ``validate`` finds
breaks the Jacobi identity) or failed internal cross-check, and 2 when
``--assert`` is given and the computed verdict (or consistency, for
crosscheck) is negative.

Numerators and denominators have at most 4300 digits, so computed values are
bounded too, and ``run`` lets reports render them exactly, however long.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import IO, Iterator, Sequence

from .liealg import LieAlgebra
from .linalg import Vector
from .semisimple import (
    ConsistencyError,
    analyze,
    is_nilpotent_element_power,
    killing_matrix,
    radical,
)


class ParseError(ValueError):
    """Input rejected, with the offending line (and column when known)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        place = ""
        if line is not None:
            place = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(place + message)
        self.line = line
        self.column = column


_NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_~.]*"
_NAME_RE = re.compile(rf"^{_NAME_PATTERN}$")
_DIM_RE = re.compile(r"^dim\s+([0-9]+)$")
_BRACKET_RE = re.compile(
    rf"^\[\s*({_NAME_PATTERN})\s*,\s*({_NAME_PATTERN})\s*\]\s*=\s*(.+)$")
_RATIONAL_PATTERN = r"[0-9]+(?:/[0-9]+)?"  # ASCII digits: \d, int and Fraction take any script's
_TERM_RE = re.compile(rf"\s*([+-])?\s*(?:({_RATIONAL_PATTERN})\s+)?({_NAME_PATTERN})")
_COORDINATE_RE = re.compile(rf"[+-]?{_RATIONAL_PATTERN}")
_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")  # str.splitlines also breaks at \f, \x1c, \u2028, ...
_MAX_DIGITS = 4300
_WRITE_BATCH = 4096  # report pieces per write: one write per piece is slow on unbuffered stdout


def _rational(text: str, line_no: int | None = None, column: int | None = None) -> Fraction:
    """A number matched by the file grammar, or a ParseError located where given."""
    if max(map(len, text.lstrip("+-").split("/"))) > _MAX_DIGITS:
        raise ParseError(f"number too long ({len(text)} characters)", line_no, column)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", line_no, column) from None


def _parse_terms(rhs: str, line_no: int, offset: int,
                 index_of: dict[str, int]) -> dict[int, Fraction]:
    expansion: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(rhs):
        match = _TERM_RE.match(rhs, pos)
        if match is None or (not first and match.group(1) is None):
            raise ParseError("expected a signed term like `2 h` or `- e`",
                             line_no, offset + pos + 1)
        sign = -1 if match.group(1) == "-" else 1
        coeff = (_rational(match.group(2), line_no, offset + match.start(2) + 1)
                 if match.group(2) else Fraction(1))
        name = match.group(3)
        if name not in index_of:
            raise ParseError(f"unknown basis name {name!r}", line_no, offset + match.start(3) + 1)
        k = index_of[name]
        expansion[k] = expansion.get(k, Fraction(0)) + sign * coeff
        pos = match.end()
        first = False
        while pos < len(rhs) and rhs[pos].isspace():
            pos += 1
    if first:
        raise ParseError("empty bracket right-hand side", line_no, offset + 1)
    return {k: c for k, c in expansion.items() if c}


def parse_algebra(text: str) -> LieAlgebra:
    """Read an algebra file; raises ParseError with line numbers on bad input."""
    dim: int | None = None
    names: tuple[str, ...] | None = None
    index_of: dict[str, int] = {}
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for line_no, raw in enumerate(_LINE_BREAK_RE.split(text), 1):
        line = raw.split("#", 1)[0]
        for column, char in enumerate(line, 1):  # \s, split and strip read many as spaces
            if not (char.isprintable() or char == "\t"):
                raise ParseError(f"character {char!r} outside a comment", line_no, column)
        line = line.strip(" \t")
        if not line:
            continue
        if line.startswith("dim"):
            if dim is not None:
                raise ParseError("duplicate dim line", line_no)
            match = _DIM_RE.match(line)
            if match is None:
                raise ParseError("dim line must be `dim <n>`", line_no)
            dim = _rational(match.group(1), line_no, match.start(1) + 1).numerator
            continue
        if line.split()[0] == "basis":
            if dim is None:
                raise ParseError("basis line before dim line", line_no)
            if names is not None:
                raise ParseError("duplicate basis line", line_no)
            listed = tuple(line.split()[1:])
            if len(listed) != dim:
                raise ParseError(f"{len(listed)} basis names for dim {dim}", line_no)
            for name in listed:
                if not _NAME_RE.match(name):
                    raise ParseError(f"bad basis name {name!r}", line_no)
                if name in index_of:
                    raise ParseError(f"duplicate basis name {name!r}", line_no)
                index_of[name] = len(index_of)
            names = listed
            continue
        if line.startswith("["):
            if names is None:
                raise ParseError("bracket line before basis line", line_no)
            match = _BRACKET_RE.match(line)
            if match is None:
                raise ParseError("bracket line must be `[a,b] = <terms>`", line_no)
            left, right = match.group(1), match.group(2)
            for name in (left, right):
                if name not in index_of:
                    raise ParseError(f"unknown basis name {name!r}", line_no)
            i, j = index_of[left], index_of[right]
            if i == j:
                raise ParseError(f"diagonal bracket [{left},{left}] is identically zero",
                                 line_no)
            expansion = _parse_terms(match.group(3), line_no, match.start(3), index_of)
            key = (i, j) if i < j else (j, i)
            if key in table:
                raise ParseError(f"duplicate bracket line for pair ({left}, {right})", line_no)
            table[key] = expansion if i < j else {k: -c for k, c in expansion.items()}
            continue
        raise ParseError(f"unrecognized line {line!r}", line_no)
    if dim is None:
        raise ParseError("missing dim line")
    if names is None:
        if dim == 0:
            names = ()
        else:
            raise ParseError("missing basis line")
    return LieAlgebra(dim, names, table)


def parse_element(text: str, dim: int) -> Vector:
    """Comma-separated exact rationals, one per basis element, each an optionally
    signed ``p`` or ``p/q`` as in the file grammar, with spaces and tabs around it."""
    stripped = text.strip(" \t")
    if stripped == "" and dim == 0:
        return ()
    parts = stripped.split(",")
    if len(parts) != dim:
        raise ParseError(f"element has {len(parts)} coordinates, expected {dim}")
    coords = []
    for part in (part.strip(" \t") for part in parts):
        # Checked before Fraction, which would also expand exponents like 1e10000000.
        if not _COORDINATE_RE.fullmatch(part):
            raise ParseError(f"bad rational {part!r}")
        coords.append(_rational(part))
    return tuple(coords)


def _render_terms(expansion: dict[int, Fraction], names: Sequence[str]) -> str:
    parts = []
    for k in sorted(expansion):
        c = expansion[k]
        magnitude = abs(c)
        body = names[k] if magnitude == 1 else f"{magnitude} {names[k]}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def render_algebra(algebra: LieAlgebra) -> str:
    """Serialize an algebra so that parse_algebra reads back an equal value."""
    lines = [f"dim {algebra.dim}"]
    if algebra.dim:
        lines.append("basis " + " ".join(algebra.basis_names))
    for (i, j) in sorted(algebra.table):
        lhs = f"[{algebra.basis_names[i]},{algebra.basis_names[j]}]"
        lines.append(f"{lhs} = {_render_terms(algebra.table[(i, j)], algebra.basis_names)}")
    return "\n".join(lines) + "\n"


# --- reports -----------------------------------------------------------------

def _fmt(value):
    return ("true" if value else "false") if isinstance(value, bool) else value


def _text_lines(payload: dict) -> Iterator[str]:
    for key, value in payload.items():
        if key == "outcomes":
            yield f"corpus ({len(value)} representations):\n"
            for row in value:
                yield f"  {row['label']}  dim={row['dim']}  nilpotent={_fmt(row['nilpotent'])}\n"
        elif isinstance(value, list) and value and isinstance(value[0], list):
            yield f"{key}:\n"
            for row in value:
                yield "  " + " ".join(str(_fmt(x)) for x in row) + "\n"
        elif isinstance(value, list):
            yield f"{key}: " + " ".join(str(_fmt(x)) for x in value) + "\n"
        else:
            yield f"{key}: {_fmt(value)}\n"


def _emit(payload: dict, fmt: str, out: IO[str]) -> None:
    """Write the report as it renders, _WRITE_BATCH pieces a write, never holding it whole."""
    if fmt == "json":
        pieces = chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload), "\n")
    elif payload.get("command") == "catalog" and "file" in payload:
        pieces = iter([payload["file"]])
    else:
        pieces = _text_lines(payload)
    for batch in iter(lambda: list(islice(pieces, _WRITE_BATCH)), []):
        out.write("".join(batch))


def _vector_strings(vector) -> list[str]:
    return [str(c) for c in vector]


def _matrix_strings(matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in matrix.entries]


# --- report builders: (algebra, element, args) -> (fields, positive) ---------------

def _validate(algebra: LieAlgebra, element, args) -> tuple[dict, bool]:
    violations = algebra.jacobi_violations()
    return {"dim": algebra.dim, "valid": not violations, "violations": violations}, not violations


def _info(algebra: LieAlgebra, element, args) -> tuple[dict, bool]:
    structure = analyze(algebra)
    derived_series = algebra.derived_series()
    lower_central = algebra.lower_central_series()
    return {
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "derived_dim": algebra.derived_subalgebra().dim,
        "radical_dim": structure.radical.dim,
        "center_dim": algebra.center().dim,
        "solvable": derived_series[-1].is_zero(),
        "nilpotent": lower_central[-1].is_zero(),
        "semisimple": structure.radical.is_zero(),
        "derived_series_dims": [s.dim for s in derived_series],
        "lower_central_dims": [s.dim for s in lower_central],
    }, True


def _radical(algebra: LieAlgebra, element, args) -> tuple[dict, bool]:
    rad = radical(algebra)
    return {
        "dim": rad.dim,
        "basis_vectors": [_vector_strings(v) for v in rad.basis],
        "semisimple": rad.is_zero(),
    }, True


def _killing(algebra: LieAlgebra, element, args) -> tuple[dict, bool]:
    form = killing_matrix(algebra)
    return {"gram": _matrix_strings(form.gram), "nondegenerate": form.is_nondegenerate()}, True


def _nilpotent(algebra: LieAlgebra, element: Vector, args) -> tuple[dict, bool]:
    verdict = is_nilpotent_element_power(algebra, element)
    return {"ad_nilpotent": verdict}, verdict


def _witness_fields(witness, acts_nilpotently_flag) -> dict:
    return {
        "witness_case": witness.case_tag,
        "witness_label": witness.rep.label,
        "witness_dim": witness.rep.dim_v,
        "witness_exponent": witness.exponent_checked,
        "witness_acts_nilpotently": acts_nilpotently_flag,
    }


def _oracle(algebra: LieAlgebra, element: Vector, args) -> tuple[dict, bool]:
    from .oracle import _witness, nilpotent_in_all_reps

    verdict = nilpotent_in_all_reps(algebra, element)
    fields = {
        "answer": verdict.answer,
        "in_derived": verdict.in_derived,
        "image_nilpotent": verdict.image_nilpotent,
        "radical_dim": verdict.radical_dim,
        "derived_dim": verdict.derived_dim,
    }
    if args.witness and not verdict.answer:
        witness, _ = _witness(algebra, element, verdict)
        fields.update(_witness_fields(witness, False))
    return fields, verdict.answer


def _crosscheck(algebra: LieAlgebra, element: Vector, args) -> tuple[dict, bool]:
    from .oracle import cross_validate

    report = cross_validate(algebra, element, depth=args.depth, max_dim=args.max_dim)
    fields = {
        "depth": report.depth,
        "max_dim": report.max_dim,
        "answer": report.verdict.answer,
        "consistent": report.consistent,
        "corpus_size": len(report.outcomes),
        "outcomes": [
            {"label": r.label, "dim": r.dim, "nilpotent": r.nilpotent}
            for r in report.outcomes],
    }
    if report.witness is not None:
        fields.update(_witness_fields(report.witness, report.witness_acts_nilpotently))
    return fields, report.consistent


def _catalog(name: str | None) -> dict:
    from .catalog import builtin, catalog_names

    if name is None:
        return {"names": catalog_names()}
    entry = builtin(name)
    return {"name": entry.name, "file": render_algebra(entry.algebra)}


# Every command but catalog reads an algebra file: name -> (help, takes --element, report).
_FILE_COMMANDS = {
    "validate": ("check a file against the Jacobi identity", False, _validate),
    "info": ("structural summary", False, _info),
    "radical": ("maximal solvable ideal", False, _radical),
    "killing": ("Killing form Gram matrix", False, _killing),
    "nilpotent": ("is the adjoint of an element nilpotent", True, _nilpotent),
    "oracle": ("does the element act nilpotently in every representation", True, _oracle),
    "crosscheck": ("validate the verdict against a corpus of representations", True,
                   _crosscheck),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    common.add_argument("--assert", dest="assert_", action="store_true",
                        help="exit 2 when the verdict or consistency is negative")

    parser = argparse.ArgumentParser(
        prog="lienil",
        description="Exact tests for nilpotent action of Lie algebra elements.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help_text, takes_element, _) in _FILE_COMMANDS.items():
        commands[name] = sub.add_parser(name, parents=[common], help=help_text)
        commands[name].add_argument("file")
        if takes_element:
            commands[name].add_argument("--element", required=True,
                                        help="comma-separated coordinates in basis order")
    commands["oracle"].add_argument(
        "--witness", action="store_true",
        help="on a negative answer, include the witness representation")
    commands["crosscheck"].add_argument("--depth", type=int, default=2,
                                        help="construction closure depth (default 2)")
    commands["crosscheck"].add_argument(
        "--max-dim", type=int, default=128, dest="max_dim",
        help="drop corpus members wider than this (default 128)")
    sub.add_parser("catalog", parents=[common],
                   help="list built-in algebras or render one as a file"
                   ).add_argument("name", nargs="?", default=None)
    return parser


def _decoded(data: bytes) -> str:
    """The file's text, or a ParseError at the line and column of its first byte that is
    not UTF-8, with lines broken as ``parse_algebra`` breaks them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _LINE_BREAK_RE.split(data[:exc.start].decode("utf-8"))
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                         len(lines), len(lines[-1]) + 1) from None


def run(argv: Sequence[str] | None = None, out: IO[str] | None = None) -> int:
    """Parse arguments, run one command, write one report; returns the exit code.

    The one command path of the module docstring: no report builder reads a file,
    parses an element, writes a report or picks an exit code.
    """
    stream = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:  # Python 3.10.7 and later bound int-to-text conversion; numbers are bounded above
        sys.set_int_max_str_digits(0)
    try:
        try:
            payload = {"command": args.command}
            if args.command == "catalog":
                payload.update(_catalog(args.name))
                positive = True
            else:
                _, takes_element, report = _FILE_COMMANDS[args.command]
                try:
                    with open(args.file, "rb") as handle:
                        data = handle.read()
                except OSError as exc:
                    raise ParseError(f"cannot read {args.file}: {exc.strerror or exc}") from None
                algebra = parse_algebra(_decoded(data))
                violations = algebra.jacobi_violations() if args.command != "validate" else []
                if violations:
                    raise ParseError(f"{args.file}: " + "; ".join(violations))
                payload["file"] = args.file
                element = None
                if takes_element:
                    element = parse_element(args.element, algebra.dim)
                    payload["element"] = _vector_strings(element)
                fields, positive = report(algebra, element, args)
                payload.update(fields)
            code = 0
            if not positive:  # an invalid file always fails, a negative verdict only under --assert
                code = 1 if args.command == "validate" else 2 if args.assert_ else 0
        except (ValueError, ConsistencyError) as exc:  # a ParseError is a ValueError
            payload, code = {"command": args.command, "error": str(exc)}, 1
        _emit(payload, args.format, stream)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


def main() -> None:
    sys.exit(run())

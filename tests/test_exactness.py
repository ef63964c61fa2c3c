"""The package computes in integers only: no module of src/phylotope holds
a float or complex literal, names a float, complex, rational or decimal
type, or uses true division."""

import ast
import tokenize
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "phylotope"
BANNED_NAMES = {"float", "complex", "Fraction", "Decimal", "fractions",
                "decimal"}
BANNED_OPS = {"/", "/="}


def inexact_tokens(path) -> list:
    """(line, token) of every token of the file that leaves the integers."""
    found = []
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NUMBER:
                bad = not isinstance(ast.literal_eval(tok.string), int)
            elif tok.type == tokenize.NAME:
                bad = tok.string in BANNED_NAMES
            elif tok.type == tokenize.OP:
                bad = tok.string in BANNED_OPS
            else:
                bad = False
            if bad:
                found.append((tok.start[0], tok.string))
    return found


def test_package_sources_stay_exact():
    files = sorted(SOURCES.glob("*.py"))
    assert files
    found = {f.name: inexact_tokens(f) for f in files}
    assert {name: toks for name, toks in found.items() if toks} == {}


def test_guard_catches_inexact_tokens(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text("a = 7 // 2\nb = 0x1E + 1_000\nc = 'x / y'\n"
                   "x = 1 / 2\nx /= 3\ny = 1.5 + 2e3 + 3j\n"
                   "from fractions import Fraction\nz = float(a)\n")
    assert inexact_tokens(src) == [
        (4, "/"), (5, "/="), (6, "1.5"), (6, "2e3"), (6, "3j"),
        (7, "fractions"), (7, "Fraction"), (8, "float")]

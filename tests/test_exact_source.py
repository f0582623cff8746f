"""The package computes exactly: no float or complex literal, no ``float`` or
``complex`` builtin, and no ``decimal`` or ``cmath`` import appears in its
source.  Roots of unity, for one, must never become complex numbers."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cubiclct").glob("*.py"))
INEXACT_BUILTINS = {"float", "complex"}
INEXACT_MODULES = {"decimal", "cmath"}


def inexact_uses(source: str) -> list[str]:
    """``<line>: <what>`` for each inexact literal, builtin or import in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in INEXACT_BUILTINS:
            found.append(f"{node.lineno}: builtin {node.id}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            found.extend(f"{node.lineno}: import {m}" for m in modules
                         if m.split(".")[0] in INEXACT_MODULES)
    return found


@pytest.mark.parametrize("source, expected", [
    ("x = 0.5", ["1: literal 0.5"]),
    ("x = 1e3", ["1: literal 1000.0"]),
    ("x = 1 + 2j", ["1: literal 2j"]),
    ("x = float(y)", ["1: builtin float"]),
    ("ok = isinstance(x, complex)", ["1: builtin complex"]),
    ("import decimal", ["1: import decimal"]),
    ("from cmath import exp", ["1: import cmath"]),
    ("from fractions import Fraction\nx = Fraction(1, 2) + 3  # not 0.5", []),
], ids=["float", "exponent", "complex", "float builtin", "complex builtin", "decimal",
        "cmath", "exact"])
def test_scan_finds_each_inexact_form(source, expected):
    assert inexact_uses(source) == expected


def test_package_source_is_exact():
    assert SOURCES
    found = {path.name: inexact_uses(path.read_text()) for path in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}

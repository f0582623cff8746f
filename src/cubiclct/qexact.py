"""Exact rational scalars and the one linear solve.

``Rat`` is an alias for :class:`fractions.Fraction`: arbitrary-precision,
always stored reduced with positive denominator, which is exactly the
invariant the rest of the package relies on.  A matrix is a sequence of
rows of ``int`` or ``Rat``; ``solve_linear_system`` solves a square system
by fraction-free (Bareiss) elimination, so intermediate entries stay
integral after one row scaling.

No floating point appears anywhere in this module or its callers.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction

Rat = Fraction

_RAT_RE = re.compile(r"^([+-−]?\d+)(?:/(\d+))?$")


class SingularMatrix(ValueError):
    """Raised when elimination hits a zero pivot column."""


def parse_rat(text: str) -> Rat:
    """Parse ``"p/q"`` or ``"p"`` (ASCII ``-`` or U+2212 minus), or an int, into a
    Rat; a bool or float is no rational literal."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Rat(text)
    s = str(text).strip().replace("−", "-")
    m = _RAT_RE.match(s)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1).replace("−", "-"))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Rat(num, den)


def format_rat(value: Rat) -> str:
    """Serialize an int or Rat as ``"p/q"``, or ``"p"`` when the denominator is one."""
    n, d = value.as_integer_ratio()
    return str(n) if d == 1 else f"{n}/{d}"


def _integerize_rows(rows: list[list[Rat | int]]) -> list[list[int]]:
    # Row scaling by the lcm of denominators keeps A*x = b solutions intact.
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * scale) for x in row])
    return out


def _bareiss_triangularize(aug: list[list[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free elimination on an n x m integer matrix (in place copy).

    Returns the triangularized matrix and the number of pivots found.
    Intermediate entries are exact subdeterminants, so divisions are exact.
    """
    n = len(aug)
    m = len(aug[0]) if n else 0
    aug = [row[:] for row in aug]
    prev_pivot = 1
    piv = 0
    for col in range(min(n, m)):
        if piv >= n:
            break
        pivot_row = next((r for r in range(piv, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[piv], aug[pivot_row] = aug[pivot_row], aug[piv]
        p = aug[piv][col]
        for r in range(piv + 1, n):
            factor = aug[r][col]
            for c in range(m):
                aug[r][c] = (p * aug[r][c] - factor * aug[piv][c]) // prev_pivot
        prev_pivot = p
        piv += 1
    return aug, piv


def solve_linear_system(a: Sequence[Sequence[Rat | int]], b: Sequence[Rat | int]) -> list[Rat]:
    """Solve ``A x = b`` exactly for square nonsingular ``A``, given as rows.

    Raises ``SingularMatrix`` when ``A`` is not square or elimination finds
    a zero pivot column, which in this package signals a malformed lattice.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise SingularMatrix("matrix is not square")
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    tri, piv = _bareiss_triangularize(_integerize_rows([[*a[i], b[i]] for i in range(n)]))
    if piv < n:
        raise SingularMatrix("zero pivot column during elimination")
    x: list[Rat] = [Rat(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Rat(tri[i][n])
        for j in range(i + 1, n):
            acc -= tri[i][j] * x[j]
        x[i] = acc / tri[i][i]
    return x

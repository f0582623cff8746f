"""Exact rational scalars, vectors and matrices.

``Rat`` is an alias for :class:`fractions.Fraction`: arbitrary-precision,
always stored reduced with positive denominator, which is exactly the
invariant the rest of the package relies on.  Matrices are dense and
immutable; linear systems are solved by fraction-free (Bareiss) elimination
so intermediate entries stay integral after one row scaling.

No floating point appears anywhere in this module or its callers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction

_RAT_RE = re.compile(r"^([+-−]?\d+)(?:/(\d+))?$")


class SingularMatrix(ValueError):
    """Raised when elimination hits a zero pivot column."""


class NotSymmetric(ValueError):
    """Raised when a symmetric matrix was required."""


def parse_rat(text: str) -> Rat:
    """Parse ``"p/q"`` or ``"p"`` (ASCII ``-`` or U+2212 minus) into a Rat."""
    if isinstance(text, int):
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
    """Serialize as ``"p/q"``, or ``"p"`` when the denominator is one."""
    value = Rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# A dataclass, not a NamedTuple: its ``__getitem__`` takes an ``(i, j)`` pair.
@dataclass(frozen=True)
class QMatrix:
    """Dense immutable matrix of rationals."""

    rows: int
    cols: int
    entries: tuple[tuple[Rat, ...], ...]

    @staticmethod
    def from_rows(rows: list[list[Rat | int]]) -> "QMatrix":
        if not rows:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        data = tuple(tuple(Rat(x) for x in r) for r in rows)
        return QMatrix(len(rows), width, data)

    def __getitem__(self, ij: tuple[int, int]) -> Rat:
        i, j = ij
        return self.entries[i][j]

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def leading_minor(self, k: int) -> "QMatrix":
        return QMatrix.from_rows([[self.entries[i][j] for j in range(k)] for i in range(k)])


def _integerize_rows(rows: list[list[Rat]]) -> list[list[int]]:
    # Row scaling by the lcm of denominators keeps A*x = b solutions intact.
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * scale) for x in row])
    return out


def _bareiss_triangularize(aug: list[list[int]]) -> tuple[list[list[int]], int, int]:
    """Fraction-free elimination on an n x m integer matrix (in place copy).

    Returns the triangularized matrix, the number of pivots found and the
    sign of the row permutation applied.  Intermediate entries are exact
    subdeterminants, so divisions are exact.
    """
    n = len(aug)
    m = len(aug[0]) if n else 0
    aug = [row[:] for row in aug]
    prev_pivot = 1
    piv = 0
    sign = 1
    for col in range(min(n, m)):
        if piv >= n:
            break
        pivot_row = next((r for r in range(piv, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != piv:
            aug[piv], aug[pivot_row] = aug[pivot_row], aug[piv]
            sign = -sign
        p = aug[piv][col]
        for r in range(piv + 1, n):
            factor = aug[r][col]
            for c in range(m):
                aug[r][c] = (p * aug[r][c] - factor * aug[piv][c]) // prev_pivot
        prev_pivot = p
        piv += 1
    return aug, piv, sign


def determinant(a: QMatrix) -> Rat:
    """Exact determinant via Bareiss on a row-integerized copy."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return Rat(1)
    tri, piv, sign = _bareiss_triangularize(_integerize_rows(list(a.entries)))
    if piv < n:
        return Rat(0)
    # Integerizing scaled each row, and so the determinant, by that row's lcm.
    scale = math.prod(math.lcm(*(x.denominator for x in row)) for row in a.entries)
    return Rat(sign * tri[n - 1][n - 1], scale)


def solve_linear_system(a: QMatrix, b: list[Rat | int]) -> list[Rat]:
    """Solve ``A x = b`` exactly for square nonsingular ``A``.

    Raises ``SingularMatrix`` when elimination finds a zero pivot column,
    which in this package signals a malformed lattice fixture.
    """
    if a.rows != a.cols:
        raise SingularMatrix("matrix is not square")
    n = a.rows
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    aug = [list(a.entries[i]) + [Rat(b[i])] for i in range(n)]
    int_aug = _integerize_rows(aug)
    tri, piv, _ = _bareiss_triangularize(int_aug)
    if piv < n or tri[n - 1][n - 1] == 0:
        raise SingularMatrix("zero pivot column during elimination")
    x: list[Rat] = [Rat(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Rat(tri[i][n])
        for j in range(i + 1, n):
            acc -= tri[i][j] * x[j]
        x[i] = acc / tri[i][i]
    return x


def is_positive_definite(a: QMatrix) -> bool:
    """Exact Sylvester criterion: all leading principal minors positive."""
    if not a.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    for k in range(1, a.rows + 1):
        if determinant(a.leading_minor(k)) <= 0:
            return False
    return True

"""Independent exact oracles used only by the test suite.

These deliberately avoid the code paths they check: the row-text oracle
sums every term as a ``Fraction``, the determinant oracle
is a permutation expansion (and the Sylvester test of positive definiteness
is built on it), and the feasibility oracle decides mixed
strict/non-strict systems by exact vertex enumeration over a boxed closed
relaxation plus a centroid test, never by Fourier-Motzkin, and with its own
integer Bareiss solve rather than ``qexact.solve_linear_system``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction as Rat
from math import gcd

from cubiclct.linsys import LinearSystem, Row, UnknownVariable
from cubiclct.qexact import parse_rat

_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)?\*?(?P<var>[A-Za-z_]\w*)?(?:/(?P<den>\d+))?$")
_REL_RE = re.compile(r"(>=|<=|>|<)")


def _side_by_fractions(text: str) -> tuple[dict[str, Rat], Rat]:
    """One side of an inequality as (variable coeffs, constant)."""
    coeffs: dict[str, Rat] = {}
    constant = Rat(0)
    text = text.replace("\u2212", "-").replace("-", "+-").replace(" ", "")
    for raw in text.split("+"):
        if not raw:
            continue
        sign = Rat(1)
        if raw.startswith("-"):
            sign = Rat(-1)
            raw = raw[1:]
        m = _TERM_RE.match(raw)
        if m is None or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {raw!r}")
        coef = parse_rat(m.group("coef")) if m.group("coef") else Rat(1)
        if m.group("den"):
            if int(m.group("den")) == 0:
                raise ValueError(f"zero denominator in {raw!r}")
            coef /= int(m.group("den"))
        var = m.group("var")
        if var is None:
            constant += sign * coef
        else:
            coeffs[var] = coeffs.get(var, Rat(0)) + sign * coef
    return coeffs, constant


def parse_row_by_fractions(expr: str, variables: tuple[str, ...], provenance: str = "") -> Row:
    """``linsys.parse_row`` as it summed terms before its integer rewrite:
    every term is a ``Fraction``.  A zero divisor after a variable raises
    ValueError, as in ``parse_row``, not ZeroDivisionError."""
    m = _REL_RE.search(expr)
    if m is None:
        raise ValueError(f"no relation in {expr!r}")
    rel = m.group(1)
    lvars, lconst = _side_by_fractions(expr[:m.start()])
    rvars, rconst = _side_by_fractions(expr[m.end():])
    coeffs: dict[str, Rat] = dict(lvars)
    for var, c in rvars.items():
        coeffs[var] = coeffs.get(var, Rat(0)) - c
    constant = rconst - lconst
    if rel in ("<=", "<"):
        coeffs = {v: -c for v, c in coeffs.items()}
        constant = -constant
        rel = ">=" if rel == "<=" else ">"
    unknown = set(coeffs) - set(variables)
    if unknown:
        raise UnknownVariable(f"{sorted(unknown)} not among variables {variables}")
    return Row(tuple(coeffs.get(v, Rat(0)) for v in variables), constant, rel, provenance)


def determinant_by_expansion(matrix) -> Rat:
    """Sum over permutations of a square matrix given as rows; exponential,
    fine for n <= 6."""
    n = len(matrix)
    total = Rat(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if seen[i] > seen[j])
        sign = -1 if inversions % 2 else 1
        prod = Rat(1)
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += sign * prod
    return total


def positive_definite_by_expansion(matrix) -> bool:
    """Sylvester's criterion for a symmetric matrix given as rows: every
    leading principal minor, each a ``determinant_by_expansion``, is positive.
    A matrix that is not symmetric is a ValueError."""
    n = len(matrix)
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    return all(determinant_by_expansion([row[:k] for row in matrix[:k]]) > 0
               for k in range(1, n + 1))


def _box_bound(system: LinearSystem) -> int:
    """Integer bound exceeding every Cramer-ratio coordinate of the system
    (including the strictness-slack augmentation), so the boxed relaxation
    loses no solutions."""
    bound = 4
    for row in system.rows:
        coeffs, constant = _integer_row(row.coeffs, row.constant)
        bound *= max(1, sum(abs(c) for c in coeffs) + abs(constant) + 2)
    return bound + 1


def _integer_row(coeffs, constant) -> tuple[list[int], int]:
    """The row times the lcm of its denominators."""
    scale = 1
    for value in (*coeffs, constant):
        scale = scale * value.denominator // gcd(scale, value.denominator)
    return [int(c * scale) for c in coeffs], int(constant * scale)


def _solve(a: list[list[int]], b: list[int]) -> tuple[int, ...] | None:
    """Fraction-free Bareiss solve of ``a x = b``: returns ``(X..., D)`` with
    ``x = X / D``, ``D > 0`` and all entries coprime, or None when singular."""
    n = len(a)
    m = [row + [bi] for row, bi in zip(a, b)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    det = m[n - 1][n - 1]   # +-det(a); by Cramer, det * x is integral
    x = [0] * n
    for i in reversed(range(n)):
        rest = sum(m[i][j] * x[j] for j in range(i + 1, n))
        x[i] = (m[i][n] * det - rest) // m[i][i]
    g = gcd(det, *x)
    if det < 0:
        g = -g
    return tuple(v // g for v in x) + (det // g,)


def feasible_by_vertex_enumeration(system: LinearSystem) -> bool:
    """Exact decision for a mixed strict/non-strict rational system.

    Enumerate basic points of the boxed closed relaxation (all n-subsets of
    rows including box rows), keep the feasible ones, and test every strict
    row at their centroid: the mixed system is solvable iff the centroid
    satisfies it, because any strict inequality satisfied somewhere on a
    polytope is satisfied strictly at some vertex.  Rows are scaled to
    integers and points kept as integer numerators over a common
    denominator, so no Fraction arithmetic runs in the enumeration.
    """
    n = len(system.variables)
    if n == 0:
        return all(0 > row.constant if row.relation == ">" else 0 >= row.constant
                   for row in system.rows)

    m = _box_bound(system)
    rows = [_integer_row(row.coeffs, row.constant) for row in system.rows]
    for i in range(n):
        rows.append(([1 if j == i else 0 for j in range(n)], -m))
        rows.append(([-1 if j == i else 0 for j in range(n)], -m))

    def closed_ok(point: tuple[int, ...]) -> bool:
        *x, d = point
        return all(sum(c * v for c, v in zip(coeffs, x)) >= const * d
                   for coeffs, const in rows)

    candidates: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for subset in itertools.combinations(range(len(rows)), n):
        point = _solve([rows[i][0] for i in subset], [rows[i][1] for i in subset])
        if point is None or point in seen:
            continue
        seen.add(point)
        if closed_ok(point):
            candidates.append(point)

    if not candidates:
        return False
    # centroid = (sum of X_p / D_p) / k = numerators / (k * common)
    common = 1
    for point in candidates:
        common = common * point[-1] // gcd(common, point[-1])
    centroid = [sum(p[i] * (common // p[-1]) for p in candidates) for i in range(n)]
    denominator = len(candidates) * common
    for row, (coeffs, const) in zip(system.rows, rows):
        value = sum(c * v for c, v in zip(coeffs, centroid))
        if row.relation == ">" and not value > const * denominator:
            return False
        if row.relation == ">=" and not value >= const * denominator:
            return False
    return True

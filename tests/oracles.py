"""Independent exact oracles used only by the test suite.

These deliberately avoid the code paths they check: the row-text oracle
sums every term as a ``Fraction``, the determinant oracle
is a permutation expansion (and the Sylvester test of positive definiteness
is built on it), and the feasibility oracle decides mixed
strict/non-strict systems by exact vertex enumeration over a bounded closed
relaxation plus a centroid test, never by Fourier-Motzkin, and with its own
integer elimination rather than ``qexact.solve_linear_system``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction as Rat
from math import gcd
from operator import mul

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


def _vertices(rows: list[tuple[list[int], int]], n: int) -> set[tuple[int, ...]]:
    """The vertices ``(X..., D)`` of the bounded polyhedron ``a . x >= b``
    over ``rows``: ``x = X / D`` with ``D > 0`` and all entries coprime.

    A vertex is tight on n independent rows.  Drop one, and the other n-1
    cut out a line through the vertex on which the polyhedron is a segment
    with the vertex as an endpoint; conversely, each endpoint of such a
    segment is tight on a further row that moves along the line, so it is a
    vertex.  A depth-first walk over the row subsets holds the solutions of
    a prefix as ``(P + span(dirs)) / D`` in integers; a row adds its equation
    by solving for one direction and projecting the others onto its kernel,
    and a row that no direction moves depends on the prefix, so that subtree
    is skipped.  At one direction left, every row bounds the line.
    """
    vertices: set[tuple[int, ...]] = set()

    def endpoints(point: list[int], den: int, d: list[int]) -> None:
        # along x = (point + t d) / den, a row reads t * s >= r
        lo = hi = None   # t >= lo[0]/lo[1] and t <= hi[0]/hi[1], denominators > 0
        for a, b in rows:
            s, r = sum(map(mul, a, d)), b * den - sum(map(mul, a, point))
            if s > 0:
                if lo is None or r * lo[1] > lo[0] * s:
                    lo = (r, s)
            elif s < 0:
                if hi is None or r * hi[1] > hi[0] * s:
                    hi = (-r, -s)
            elif r > 0:
                return
            if lo and hi and lo[0] * hi[1] > hi[0] * lo[1]:
                return
        for t, q in (lo, hi):   # both exist: the polyhedron is bounded
            moved = [p * q + t * v for p, v in zip(point, d)]
            g = gcd(den * q, *moved)
            vertices.add((*(p // g for p in moved), den * q // g))

    def extend(start: int, point: list[int], den: int, dirs: list[list[int]]) -> None:
        if len(dirs) == 1:
            endpoints(point, den, dirs[0])
            return
        for i in range(start, len(rows) - len(dirs) + 2):
            a, b = rows[i]
            slopes = [sum(map(mul, a, d)) for d in dirs]
            j = next((j for j, s in enumerate(slopes) if s), None)
            if j is None:
                continue
            s, d = slopes[j], dirs[j]
            if s < 0:
                s, d = -s, [-v for v in d]
            # t = (b den - a . point) / s on direction d meets a . x = b
            r = b * den - sum(map(mul, a, point))
            moved = [p * s + r * v for p, v in zip(point, d)]
            g = gcd(den * s, *moved)
            rest = []
            for t, e in zip(slopes, dirs):
                if e is not dirs[j]:
                    e = [s * x - t * y for x, y in zip(e, d)]
                    h = gcd(*e)
                    rest.append([x // h for x in e])
            extend(i + 1, [p // g for p in moved], den * s // g, rest)

    extend(0, [0] * n, 1, [[int(i == j) for j in range(n)] for i in range(n)])
    return vertices


def feasible_by_vertex_enumeration(system: LinearSystem) -> bool:
    """Exact decision for a mixed strict/non-strict rational system.

    Enumerate the vertices of the closed relaxation cut down to a simplex
    that holds the box ``|x_i| <= m`` of ``_box_bound``, and test every strict
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
    # x_i <= m for every i and sum(x) >= -n*m: a simplex around the box |x_i| <= m
    rows += [([-int(i == j) for j in range(n)], -m) for i in range(n)]
    rows.append(([1] * n, -n * m))

    candidates = _vertices(rows, n)
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

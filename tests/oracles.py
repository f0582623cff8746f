"""Independent exact oracles used only by the test suite.

These deliberately avoid the code paths they check: the determinant oracle
is a permutation expansion, and the feasibility oracle decides mixed
strict/non-strict systems by exact vertex enumeration over a boxed closed
relaxation plus a centroid test, never by Fourier-Motzkin, and with its own
integer Bareiss solve rather than ``qexact.solve_linear_system``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Rat
from math import gcd

from cubiclct.linsys import LinearSystem
from cubiclct.qexact import QMatrix


def determinant_by_expansion(matrix: QMatrix) -> Rat:
    """Sum over permutations; exponential, fine for n <= 6."""
    n = matrix.rows
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
            prod *= matrix[i, perm[i]]
        total += sign * prod
    return total


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

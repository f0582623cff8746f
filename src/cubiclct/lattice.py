"""Dynkin data for ADE types and crepant-resolution intersection lattices.

An ADE point is its ``AdeType``: the exceptional lattice of its crepant
resolution is the Cartan matrix of that type, kept as integer rows.

Node orderings are fixed once and for all:

* ``A_n``  -- left-to-right chain ``E1 - E2 - ... - En``;
* ``D_n``  -- ``(outer1, outer2, chain..., fork)`` with the fork node last,
  adjacent to both outer nodes and to the near end of the chain
  (for ``D4`` this reads ``(outer1, outer2, outer3, center)``);
* ``E6``   -- a five-node chain ``E1..E5`` with the branch node ``E6``
  attached at ``E3``.

Every exceptional curve is a (-2)-curve, so all discrepancies vanish and
the Cartan matrix ``(-Ei . Ej)`` has 2 on the diagonal and -1 exactly at
the Dynkin edges.

A pullback solves ``Cartan . c = incidence`` and returns the coefficient
tuple ``c``.  The inverse Cartan matrix is solved once per type by
``qexact.solve_linear_system`` and kept as integer rows over one denominator
(``inverse_cartan``), so each pullback is an integer product that builds
one ``Fraction`` per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat
from functools import cache
from math import lcm
from typing import NamedTuple

from cubiclct.qexact import solve_linear_system


# A dataclass, not a NamedTuple: it checks its family and rank.
@dataclass(frozen=True)
class AdeType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "D", "E"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "A" and self.rank < 1:
            raise ValueError("A_n needs rank >= 1")
        if self.family == "D" and self.rank < 4:
            raise ValueError("D_n needs rank >= 4")
        if self.family == "E" and self.rank != 6:
            raise ValueError("only E6 occurs on cubic surfaces")

    @staticmethod
    def parse(label: str) -> "AdeType":
        if not isinstance(label, str):
            raise ValueError(f"bad ADE label {label!r}")
        label = label.strip()
        if len(label) < 2 or label[0] not in "ADE":
            raise ValueError(f"bad ADE label {label!r}")
        return AdeType(label[0], int(label[1:]))

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def nodes(self) -> tuple[str, ...]:
        """Exceptional curve names ``E1 .. En`` in canonical node order."""
        return tuple(f"E{i+1}" for i in range(self.rank))

    def edges(self) -> list[tuple[int, int]]:
        """Dynkin edges as 0-based index pairs in canonical node order."""
        n = self.rank
        if self.family == "A":
            return [(i, i + 1) for i in range(n - 1)]
        if self.family == "D":
            fork = n - 1
            out = [(0, fork), (1, fork)]
            chain = list(range(2, n - 1))
            out.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
            if chain:
                out.append((chain[-1], fork))
            return sorted(out)
        # E6: chain 0-1-2-3-4, branch node 5 at index 2
        return [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]

    def __str__(self) -> str:
        return self.label


def cartan_matrix(ade: AdeType) -> tuple[tuple[int, ...], ...]:
    """The intersection matrix ``(-Ei . Ej)`` of the exceptional curves, as rows."""
    n = ade.rank
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in ade.edges():
        rows[i][j] = rows[j][i] = -1
    return tuple(map(tuple, rows))


@cache
def inverse_cartan(ade: AdeType) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(rows, den)`` with ``Cartan^-1 = rows / den``, ``den > 0`` the lcm of
    the entries' denominators.  Solved once per type, one unit column at a
    time, by ``solve_linear_system``."""
    cartan, n = cartan_matrix(ade), ade.rank
    columns = [solve_linear_system(cartan, [int(i == j) for i in range(n)]) for j in range(n)]
    den = lcm(*(x.denominator for column in columns for x in column))
    return tuple(tuple(columns[j][i].numerator * (den // columns[j][i].denominator)
                       for j in range(n)) for i in range(n)), den


def pullback_coefficients(ade: AdeType, incidence: list[int]) -> tuple[Rat, ...]:
    """``c = Cartan^-1 . incidence``, the solution of ``Cartan . c = incidence``:
    an integer product with the type's cached inverse, over its denominator.

    The inverse Cartan matrix is entrywise positive, so for a nonzero
    incidence vector every coefficient is strictly positive.
    """
    if len(incidence) != ade.rank:
        raise ValueError("incidence length does not match lattice rank")
    if any(v < 0 for v in incidence):
        raise ValueError("incidence numbers are nonnegative")
    rows, den = inverse_cartan(ade)
    return tuple(Rat(sum(m * v for m, v in zip(row, incidence) if v), den) for row in rows)


def exceptional_nef_rows(ade: AdeType) -> list[dict[str, int]]:
    """Per node j, the linear form (Cartan row j) . a, to be constrained >= 0.

    Variables are named ``a1 .. ak`` in canonical node order.
    """
    return [{f"a{j+1}": c for j, c in enumerate(row) if c} for row in cartan_matrix(ade)]


class TowerStep(NamedTuple):
    """One blowup: the center is named by the divisors passing through it."""

    name: str
    strict_curves: tuple[tuple[str, int], ...]  # (curve id, multiplicity at center)
    exceptionals: tuple[str, ...]               # ``<point>:<node>`` ids or earlier step names


def tower_log_discrepancy(tower: tuple[TowerStep, ...],
                          strict_mults: dict[str, Rat],
                          base_ord: dict[str, Rat]) -> list[tuple[str, Rat, Rat]]:
    """Log-discrepancy bookkeeping along a tower of smooth blowups, in order.

    ``strict_mults`` maps boundary curve ids to their multiplicity in the
    boundary divisor; ``base_ord`` maps initial exceptional ids to the
    boundary's order along them (ADE exceptionals carry discrepancy 0).
    Returns ``(name, a_F, ord_F)`` per tower divisor, where

        a_F   = 1 + sum of a_E over exceptional divisors through the center,
        ord_F = (sum of strict multiplicities at the center)
                + sum of ord_E over exceptional divisors through the center.

    Each step names keys of ``strict_mults`` and of ``base_ord`` or earlier
    steps only, as ``model`` checks when it loads a tower.
    """
    disc: dict[str, Rat] = {name: Rat(0) for name in base_ord}
    ords: dict[str, Rat] = dict(base_ord)
    out = []
    for step in tower:
        a_f = Rat(1)
        ord_f = Rat(0)
        for curve, mult in step.strict_curves:
            ord_f += strict_mults[curve] * mult
        for exc in step.exceptionals:
            a_f += disc[exc]
            ord_f += ords[exc]
        disc[step.name] = a_f
        ords[step.name] = ord_f
        out.append((step.name, a_f, ord_f))
    return out

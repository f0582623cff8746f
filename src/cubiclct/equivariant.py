"""Finite group actions on line configurations and invariant thresholds.

The two equivariant cases work the same way: an invariant anticanonical
divisor with a multiplicity-one component caps the invariant threshold at 1,
and a curve elimination shows no invariant curve of degree below 3 exists,
so nothing can force the threshold under 1.  The elimination is phrased at
the level where it is literally checkable: orbit-size arithmetic for unions
of lines, and absence of a fixed line for the residual of an invariant
conic.  Facts about invariant points are fixture assumptions with citation
tags, not computed.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from typing import NamedTuple

from cubiclct.engine import ke_criterion
from cubiclct.model import CaseFixture, GroupData, generated_group


class EliminationFails(ValueError):
    """An invariant curve of degree < 3 survives; names the candidate."""


def orbit_partition(generators: list[dict[str, str]], labels: list[str]) -> list[list[str]]:
    """Orbits of the generated group, each sorted, ordered by least label."""
    remaining = set(labels)
    orbits = []
    for start in sorted(labels):
        if start not in remaining:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        remaining -= orbit
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda o: o[0])
    return orbits


class EliminationTrace(NamedTuple):
    orbit_sizes: tuple[int, ...]
    min_invariant_line_degree: int
    fixed_lines: tuple[str, ...]
    conclusion: str


def eliminate_invariant_curves(group: GroupData, line_labels: list[str]) -> EliminationTrace:
    """No invariant curve of degree <= 2 exists on the fixture.

    (i) an invariant union of lines is orbit-closed, so its degree is a sum
    of orbit sizes and at least the smallest orbit size; (ii) an irreducible
    invariant conic pairs with an invariant residual line in its hyperplane
    section, so it needs a fixed line.  Raises ``EliminationFails`` naming a
    surviving candidate when either route breaks.
    """
    gens = [dict(g.lines) for g in group.generators]
    orbits = orbit_partition(gens, line_labels)
    sizes = tuple(len(o) for o in orbits)
    min_union = min(sizes)
    fixed = tuple(o[0] for o in orbits if len(o) == 1)
    if min_union <= 2:
        culprit = next(o for o in orbits if len(o) == min_union)
        raise EliminationFails(
            f"invariant union of lines {culprit} has degree {min_union} <= 2")
    if fixed:
        raise EliminationFails(
            f"fixed line {fixed[0]} could be the residual of an invariant conic")
    return EliminationTrace(
        sizes, min_union, fixed,
        "no invariant curve of degree < 3: line orbits have size >= "
        f"{min_union}, and no fixed line exists to pair with an invariant conic")


class InvariantResult(NamedTuple):
    group_name: str
    image_order: int
    lct: Rat | None          # None when only the upper bound stands
    upper: Rat
    trace: EliminationTrace | None
    elimination_error: str | None
    ke: str | None
    assumptions: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return self.lct is not None


def invariant_threshold(fixture: CaseFixture) -> InvariantResult:
    """Combine the invariant upper bound with the curve elimination."""
    group = fixture.group
    if group is None:
        raise ValueError("fixture has no group data")
    line_labels = [c.id for c in fixture.model.curves if c.kind == "line"]
    image = generated_group([dict(g.lines) for g in group.generators], line_labels)
    upper = Rat(1)   # past 1, the invariant divisor's multiplicity-1 component exceeds 1
    assumptions = tuple(f"{a.tag}: {a.note}" for a in group.assumptions)
    try:
        trace = eliminate_invariant_curves(group, line_labels)
    except EliminationFails as exc:
        return InvariantResult(group.name, len(image), None, upper, None, str(exc),
                               None, assumptions)
    lct = upper   # elimination grants >= 1, the invariant divisor gives <= 1
    return InvariantResult(group.name, len(image), lct, upper, trace, None,
                           ke_criterion(lct, 2), assumptions)

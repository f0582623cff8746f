"""Invariant thresholds of the group fixtures, from one orbit argument.

An invariant anticanonical divisor with a multiplicity-one component caps
the invariant threshold at 1.  Below 1, the log canonical locus of an
invariant pair would hold an invariant curve of degree below 3 (fixture
assumptions, with citation tags), so a union of lines or a conic.  An
invariant union of lines is a union of line orbits, so its degree is at
least the smallest orbit size.  An invariant conic C spans a plane whose
section C + L is invariant, so its residual line L is an orbit of size 1.
Both are ruled out when every line orbit has at least 3 lines, and then the
threshold is 1.  The orbits are read off the image of the generators in the
symmetric group on the lines; facts about invariant points are assumptions,
not computed.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from typing import NamedTuple

from cubiclct.engine import ke_criterion
from cubiclct.model import CaseFixture, generated_group


class InvariantResult(NamedTuple):
    group_name: str
    image_order: int
    lct: Rat | None          # None when only the upper bound stands
    upper: Rat
    elimination: str         # why no invariant curve of degree < 3 exists, or the one left
    ke: str | None
    assumptions: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return self.lct is not None


def invariant_threshold(fixture: CaseFixture) -> InvariantResult:
    """The invariant threshold of a validated group fixture: 1 when every
    line orbit has at least 3 lines, else only the upper bound 1."""
    group = fixture.group
    lines = [c.id for c in fixture.model.curves if c.kind == "line"]
    image = generated_group([dict(g.lines) for g in group.generators], lines)
    orbits, seen = [], set()
    for x in sorted(lines):   # each orbit from its least line, read once
        if x not in seen:
            orbit = {g[x] for g in image}
            seen |= orbit
            orbits.append(orbit)
    smallest = min(orbits, key=len)   # validate_fixture asks for at least one line
    upper = Rat(1)   # past 1, the invariant divisor's multiplicity-1 component exceeds 1
    assumptions = tuple(f"{a.tag}: {a.note}" for a in group.assumptions)
    if len(smallest) <= 2:
        return InvariantResult(
            group.name, len(image), None, upper,
            f"invariant union of lines {sorted(smallest)} has degree {len(smallest)} <= 2",
            None, assumptions)
    return InvariantResult(
        group.name, len(image), upper, upper,
        "no invariant curve of degree < 3: line orbits have size >= "
        f"{len(smallest)}, and no fixed line exists to pair with an invariant conic",
        ke_criterion(upper), assumptions)

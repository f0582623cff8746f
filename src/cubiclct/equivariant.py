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
from cubiclct.model import CaseFixture, GroupData


class BadGroupData(ValueError):
    """Group data that contradicts itself or the fixture's lines."""


class NotAPermutation(BadGroupData):
    pass


class NoReducedComponent(BadGroupData):
    """Invariant divisor has no component of multiplicity exactly one."""


class EliminationFails(ValueError):
    """An invariant curve of degree < 3 survives; names the candidate."""


def _as_perm(mapping: dict[str, str], domain: list[str], name: str) -> dict[str, str]:
    if set(mapping) != set(domain) or set(mapping.values()) != set(domain):
        raise NotAPermutation(f"generator {name} is not a permutation of {sorted(domain)}")
    return dict(mapping)


def _compose(f: dict[str, str], g: dict[str, str]) -> dict[str, str]:
    return {x: f[g[x]] for x in g}


def generated_group(generators: list[dict[str, str]], domain: list[str]) -> list[dict[str, str]]:
    """Closure of the generators under composition (the image in Sym(domain))."""
    identity = {x: x for x in domain}
    seen = {tuple(sorted(identity.items()))}
    elements = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for g in generators:
            for h in frontier:
                gh = _compose(g, h)
                key = tuple(sorted(gh.items()))
                if key not in seen:
                    seen.add(key)
                    elements.append(gh)
                    nxt.append(gh)
        frontier = nxt
    return elements


def orbit_partition(generators: list[dict[str, str]], labels: list[str]) -> list[list[str]]:
    """Orbits of the generated group, each sorted, ordered by least label."""
    perms = [_as_perm(g, labels, f"#{i}") for i, g in enumerate(generators)]
    remaining = set(labels)
    orbits = []
    for start in sorted(labels):
        if start not in remaining:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in perms:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        remaining -= orbit
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda o: o[0])
    return orbits


def invariant_upper_bound(group: GroupData, divisor: list[tuple[Rat, str]],
                          line_labels: list[str]) -> Rat:
    """Scaling an invariant divisor with a multiplicity-1 component past 1
    puts a curve coefficient above 1, so the invariant threshold is at most 1.
    """
    if not any(m == 1 for m, _ in divisor):
        raise NoReducedComponent("no component of multiplicity exactly 1")
    gens = [dict(g.lines) for g in group.generators]
    mult = {cid: Rat(0) for cid in line_labels}
    relevant = [(m, cid) for m, cid in divisor if cid in mult]
    for m, cid in relevant:
        mult[cid] += m
    for i, g in enumerate(gens):
        moved = {g[cid]: m for cid, m in mult.items()}
        if moved != mult:
            raise BadGroupData(f"divisor is not invariant under generator #{i}")
    return Rat(1)


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
    gens = [dict(g.lines) for g in group.generators]
    for i, g in enumerate(gens):
        _as_perm(g, line_labels, group.generators[i].name)
    image = generated_group(gens, line_labels)
    if group.declared_order % len(image) != 0:
        raise BadGroupData(
            f"image order {len(image)} does not divide declared order {group.declared_order}")

    upper = invariant_upper_bound(group, list(group.invariant_divisor), line_labels)
    assumptions = tuple(f"{a.tag}: {a.note}" for a in group.assumptions)
    try:
        trace = eliminate_invariant_curves(group, line_labels)
    except EliminationFails as exc:
        return InvariantResult(group.name, len(image), None, upper, None, str(exc),
                               None, assumptions)
    lct = upper   # elimination grants >= 1, the invariant divisor gives <= 1
    return InvariantResult(group.name, len(image), lct, upper, trace, None,
                           ke_criterion(lct, 2), assumptions)

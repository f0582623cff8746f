"""Witness thresholds, lower-bound proof scripts, and the classification table.

Upper bounds come from explicit witness divisors: on a simple normal
crossing model (the crepant resolution, plus an optional blowup tower for
tangent or triple-point configurations) the threshold of a pair is the
minimum of ``1/m`` over strict components and ``(1 + a_E)/ord_E`` over
exceptional divisors.

Lower bounds are linear: each case script turns the geometric case
analysis into systems of strict and non-strict inequalities over the
rationals, with the threshold reciprocal modeled as a variable ``tau``
bounded below by its closure value ``1/omega``, where omega is the value
of the profile's classification clause in ``_CLAUSES``, the one statement
of the table.  A script is base rows plus blocks, and each block gives one
leaf per alternative and branch; the branches of a ``generate`` block are
the A_n adjunction case tree that ``model`` expanded when it loaded the
fixture.  A case verifies when its witness attains omega and every leaf
system is infeasible, each with a replayable Farkas certificate that gives
the closure row ``tau >= 1/omega`` positive weight.  The non-linear
localization steps (connectedness, degree bounds, convexity choices) are
recorded as tagged assumptions; where their arithmetic core
is linear it is checked as a small exclusion system, under the same rule:
the closure row is row 0 of every system.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction as Rat
from typing import NamedTuple

from cubiclct.lattice import pullback_coefficients, tower_log_discrepancy
from cubiclct.linsys import (Infeasible, InfeasibilityCertificate, LinearSystem, Row,
                             check_feasibility)
from cubiclct.model import (Branch, CaseFixture, ProofScript, ScriptRow,
                            SingularityProfile, SurfaceModel, Witness)
from cubiclct.qexact import format_rat


# --- witness upper bounds ------------------------------------------------------


class UpperBound(NamedTuple):
    value: Rat
    minima: tuple[str, ...]           # divisors attaining the minimum
    ratios: tuple[tuple[str, Rat], ...]


def witness_lct_upper(model: SurfaceModel, witness: Witness) -> UpperBound:
    """Exact threshold of the witness pair; an upper bound for lct(S).  A
    validated witness has degree 3 and no negative term, so some ratio exists."""
    curve_map = model.curve_map
    ratios: list[tuple[str, Rat]] = []
    for mult, cid in witness.boundary.terms:
        if mult > 0:
            ratios.append((f"strict({cid})", Rat(1) / mult))

    ord_by_node: dict[str, Rat] = {}
    for pid, ade in model.points:
        ords = [Rat(0)] * ade.rank
        for mult, cid in witness.boundary.terms:
            vec = curve_map[cid].incidence_at(pid)
            if vec is None:
                continue
            coeffs = pullback_coefficients(ade, list(vec))
            for i in range(ade.rank):
                ords[i] += mult * coeffs[i]
        for i, node in enumerate(ade.nodes):
            key = f"{pid}:{node}"
            ord_by_node[key] = ords[i]
            if ords[i] > 0:
                # crepant: every ADE exceptional has discrepancy 0
                ratios.append((key, Rat(1) / ords[i]))

    if witness.tower:
        strict_mults = {cid: witness.boundary.multiplicity(cid) for cid in curve_map}
        for name, a_f, ord_f in tower_log_discrepancy(witness.tower, strict_mults, ord_by_node):
            if ord_f > 0:
                ratios.append((f"tower:{name}", (1 + a_f) / ord_f))

    value = min(r for _, r in ratios)
    minima = tuple(name for name, r in ratios if r == value)
    return UpperBound(value, minima, tuple(ratios))


# --- proof scripts --------------------------------------------------------------


class LeafResult(NamedTuple):
    name: str
    system: LinearSystem
    certificate: InfeasibilityCertificate | None
    witness: dict[str, Rat] | None

    @property
    def vacuous(self) -> bool:
        """Infeasible without its closure row (row 0, ``tau >= 1/omega``): the
        certificate gives that row weight 0, so the leaf bounds nothing."""
        return self.certificate is not None and not self.certificate.multipliers[0]


class AssumptionResult(NamedTuple):
    tag: str
    note: str
    checked: bool | None   # None: purely cited; else whether its exclusion system holds


class LowerBoundResult(NamedTuple):
    verified: bool
    leaves: tuple[LeafResult, ...]
    assumptions: tuple[AssumptionResult, ...]


def _tau_row(fixture: CaseFixture) -> ScriptRow:
    """The closure row ``tau >= 1/omega``, omega the value of the profile's
    classification clause: row 0 of every lower-bound system."""
    floor = 1 / classify_profile(fixture.model.profile)[1]
    coeffs = tuple(Rat(1) if v == "tau" else Rat(0) for v in fixture.script.variables)
    return ScriptRow(f"tau >= {format_rat(floor)}",
                     Row(coeffs, floor, ">=", "closure tau >= 1/omega"),
                     note="closure tau >= 1/omega")


def materialize_leaves(fixture: CaseFixture) -> list[Branch]:
    """Expand a script into its leaves, each a ``Branch`` holding every row
    of its system (deterministic order)."""
    script = fixture.script
    if script is None:
        return []
    tau = _tau_row(fixture)
    leaves: list[Branch] = []
    for block in script.blocks:
        for alt in block.alternatives or (Branch("", ()),):
            for br in block.branches:
                if block.name:
                    name = " / ".join(p for p in (block.name, alt.name, br.name) if p)
                else:
                    name = f"{alt.name}: {br.name}" if alt.name else br.name
                leaves.append(Branch(name, (tau,) + script.base_rows + block.rows
                                     + alt.rows + br.rows))
    return leaves


def _solve(script: ProofScript, name: str, rows: tuple[ScriptRow, ...]) -> LeafResult:
    """Decide one lower-bound system, ``rows`` with the closure row first."""
    system = LinearSystem(script.variables, tuple(r.row for r in rows))
    outcome = check_feasibility(system)
    if isinstance(outcome, Infeasible):
        return LeafResult(name, system, outcome.certificate, None)
    return LeafResult(name, system, None, outcome.witness)


def _holds(result: LeafResult) -> bool:
    """Infeasible, and not ``vacuous``: the system's refutation bounds tau."""
    return result.certificate is not None and not result.vacuous


def verify_lower_bound_script(fixture: CaseFixture) -> LowerBoundResult:
    """Send every leaf, and every assumption's exclusion system, to the
    feasibility checker; verified iff each ``_holds``.

    A feasible leaf is reported with its witness point, which is the most
    useful debugging output a broken transcription can produce.
    """
    script = fixture.script
    leaves = tuple(_solve(script, leaf.name, leaf.rows) for leaf in materialize_leaves(fixture))
    tau = _tau_row(fixture)
    assumptions = tuple(
        AssumptionResult(a.tag, a.note, _holds(_solve(script, a.tag, (tau,) + a.exclusion_rows))
                         if a.exclusion_rows else None)
        for a in script.assumptions)
    verified = all(map(_holds, leaves)) and all(a.checked is not False for a in assumptions)
    return LowerBoundResult(verified, leaves, assumptions)


# --- case results and the table --------------------------------------------------


class CaseResult(NamedTuple):
    profile: SingularityProfile
    omega_upper: Rat
    upper: UpperBound
    lower: LowerBoundResult
    expected_omega: Rat     # the value of the profile's classification clause
    verified: bool


def compute_case_threshold(fixture: CaseFixture) -> CaseResult:
    """Verified when the witness attains the omega of the profile's
    classification clause and the script verifies with the closure row
    ``tau >= 1/omega``."""
    upper = witness_lct_upper(fixture.model, fixture.witness)
    lower = verify_lower_bound_script(fixture)
    expected = classify_profile(fixture.model.profile)[1]
    verified = (upper.value == expected) and lower.verified
    return CaseResult(fixture.model.profile, upper.value, upper, lower, expected, verified)


#: Classification clauses, applied in listed order: the first whose
#: predicate holds gives the threshold.
_CLAUSES: tuple[tuple[str, Rat, Callable[[SingularityProfile], bool]], ...] = (
    ("Sigma = {A1}", Rat(2, 3), lambda p: p.key == "A1"),
    ("Sigma contains A4", Rat(1, 3), lambda p: "A4" in p.entries),
    ("Sigma = {D4}", Rat(1, 3), lambda p: p.key == "D4"),
    ("Sigma contains A2+A2", Rat(1, 3), lambda p: p.count("A2") >= 2),
    ("Sigma contains A5", Rat(1, 4), lambda p: "A5" in p.entries),
    ("Sigma = {D5}", Rat(1, 4), lambda p: p.key == "D5"),
    ("Sigma = {E6}", Rat(1, 6), lambda p: p.key == "E6"),
    ("other cases", Rat(1, 2), lambda p: True),
)

TABLE_CLAUSES: tuple[tuple[str, Rat], ...] = tuple((c, omega) for c, omega, _ in _CLAUSES)


def classify_profile(profile: SingularityProfile) -> tuple[str, Rat]:
    """The first classification clause that ``profile`` satisfies."""
    return next((c, omega) for c, omega, holds in _CLAUSES if holds(profile))


class TableRow(NamedTuple):
    profile: str
    omega: Rat
    clause: str
    status: str        # verified | FAILED | paper-asserted


class ThresholdTable(NamedTuple):
    clauses: tuple[tuple[str, Rat], ...]
    rows: tuple[TableRow, ...]

    @property
    def all_verified(self) -> bool:
        return all(r.status != "FAILED" for r in self.rows)


def assemble_table(results: dict[str, CaseResult],
                   admissible: list[str]) -> ThresholdTable:
    """Classification table: each row's clause and omega from ``classify_profile``,
    its status from the case result of its profile, if there is one."""
    rows = []
    for key in admissible:
        clause, omega = classify_profile(SingularityProfile.of(key.split("+")))
        result = results.get(key)
        status = ("paper-asserted" if result is None else
                  "verified" if result.verified else "FAILED")
        rows.append(TableRow(key, omega, clause, status))
    return ThresholdTable(TABLE_CLAUSES, tuple(rows))


def ke_criterion(lct_value: Rat) -> str:
    """Tian's criterion on a surface: an alpha-invariant above 2/3 gives a
    Kaehler-Einstein metric (Tian, Invent. Math. 89, 1987)."""
    if lct_value <= 0:
        raise ValueError("lct value must be positive")
    return "KECertified" if lct_value > Rat(2, 3) else "Inconclusive"


# --- mutation audit ---------------------------------------------------------------


class MutationRecord(NamedTuple):
    location: str
    text: str
    declared_redundant: bool
    authored: bool
    flips: bool         # deleting the row makes some leaf or exclusion system feasible


def _authored_rows(fixture: CaseFixture) -> list[tuple[str, ScriptRow]]:
    script = fixture.script
    rows: list[tuple[str, ScriptRow]] = [("base", r) for r in script.base_rows]
    for block in script.blocks:
        rows.extend((f"block:{block.name}", r) for r in block.rows)
        for alt in block.alternatives:
            rows.extend((f"block:{block.name}/alt:{alt.name}", r) for r in alt.rows)
        if block.generate is None:
            for br in block.branches:
                rows.extend((f"block:{block.name}/branch:{br.name}", r) for r in br.rows)
    for a in script.assumptions:
        rows.extend((f"assumption:{a.tag}", r) for r in a.exclusion_rows)
    return rows


def _support(rows: tuple[ScriptRow, ...], certificate: InfeasibilityCertificate) -> set[int]:
    """The ids of the rows that ``certificate`` gives a nonzero multiplier."""
    return {id(r) for r, m in zip(rows, certificate.multipliers) if m}


def mutation_audit(fixture: CaseFixture) -> list[MutationRecord]:
    """Delete each script row in turn and re-verify all leaves and all
    assumption exclusion systems.

    Rows whose deletion leaves every system infeasible are operationally
    redundant; fixtures must declare exactly those with ``redundant: true``
    so every undeclared row is guaranteed to carry weight in some system.
    The branch rows of a ``generate`` block are audited too but reported
    with ``authored=False``.

    Each system is solved once, and both sides of Farkas' lemma spare
    re-solves (Dantzig and Eaves, JCT A 14, 1973).  Support reuse: the audit
    keeps the support (the rows with a nonzero multiplier) of every
    certificate known for a system, its own and one from each re-solve that
    stays infeasible; a support that avoids the deleted row refutes a subset
    of the rows left, so the system stays infeasible.  Witness reuse, its
    dual: the audit keeps the point of every feasible solve; a point that
    satisfies every row of a system but the deleted one makes the system
    without that row feasible, so the row flips.  Each such test rests on
    exact ``Row.evaluate``.  A point is evaluated only on rows outside the
    system it solved, since the kernel's self-check evaluated the rest.  A
    system is solved again without the row only when every known support
    uses it and no kept point decides it.  Over the 17 bundled scripts that
    is 314 solves: 125 first solves and 189 re-solves, against 253 re-solves
    with supports alone.
    """
    script = fixture.script
    tau = _tau_row(fixture)
    exclusions = [Branch(a.tag, (tau,) + a.exclusion_rows)
                  for a in script.assumptions if a.exclusion_rows]
    audited = []   # (leaf, ids of its rows, supports of its known certificates)
    # (point, row id -> whether the point satisfies that row) per feasible
    # solve; the kernel's self-check has evaluated every row it solved
    witnesses: list[tuple[list[Rat], dict[int, bool]]] = []

    def solve(leaf: Branch, rows: tuple[ScriptRow, ...]) -> InfeasibilityCertificate | None:
        result = _solve(script, leaf.name, rows)
        if result.witness is not None:
            witnesses.append(([result.witness[v] for v in script.variables],
                              dict.fromkeys(map(id, rows), True)))
        return result.certificate

    def satisfies(point: list[Rat], known: dict[int, bool], row: ScriptRow) -> bool:
        held = known.get(id(row))
        if held is None:
            held = known[id(row)] = row.row.evaluate(point)
        return held

    for leaf in materialize_leaves(fixture) + exclusions:
        certificate = solve(leaf, leaf.rows)
        supports = [_support(leaf.rows, certificate)] if certificate is not None else []
        audited.append((leaf, {id(r) for r in leaf.rows}, supports))
    records = []

    def flips_without(target: ScriptRow) -> bool:
        t = id(target)
        for leaf, ids, supports in audited:
            if t not in ids or not all(t in support for support in supports):
                continue
            if any(all(r is target or satisfies(point, known, r) for r in leaf.rows)
                   for point, known in witnesses):
                return True
            kept = tuple(r for r in leaf.rows if r is not target)
            certificate = solve(leaf, kept)
            if certificate is None:
                return True
            supports.append(_support(kept, certificate))
        return False

    seen: set[int] = set()
    for location, row in _authored_rows(fixture):
        if id(row) in seen:
            continue
        seen.add(id(row))
        records.append(MutationRecord(location, row.text, row.redundant, True,
                                      flips_without(row)))
    for leaf, _, _ in audited:
        for row in leaf.rows[1:]:   # row 0, the closure row, is never deleted
            if id(row) in seen:
                continue
            seen.add(id(row))
            records.append(MutationRecord(f"generated:{leaf.name}", row.text,
                                          False, False, flips_without(row)))
    return records

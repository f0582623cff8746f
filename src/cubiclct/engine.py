"""Witness thresholds, lower-bound proof scripts, and the classification table.

Upper bounds come from explicit witness divisors: on a simple normal
crossing model (the crepant resolution, plus an optional blowup tower for
tangent or triple-point configurations) the threshold of a pair is the
minimum of ``1/m`` over strict components and ``(1 + a_E)/ord_E`` over
exceptional divisors.

Lower bounds are linear: each case script turns the geometric case
analysis into systems of strict and non-strict inequalities over the
rationals, with the threshold reciprocal modeled as a variable ``tau``
bounded below by its closure value.  A script verifies when every leaf
system is infeasible, each with a replayable Farkas certificate.  The
non-linear localization steps (connectedness, degree bounds, convexity
choices) are recorded as tagged assumptions; where their arithmetic core
is linear it is checked as a small exclusion system.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction as Rat

from cubiclct.lattice import (ResolutionLattice, pullback_coefficients,
                              tower_log_discrepancy)
from cubiclct.linsys import (Feasible, Infeasible, InfeasibilityCertificate,
                             LinearSystem, Row, check_feasibility)
from cubiclct.model import (Alternative, Branch, CaseFixture, ProofScript,
                            ScriptRow, SingularityProfile, SurfaceModel, Witness)
from cubiclct.qexact import format_rat


class NotSNC(ValueError):
    """Witness declares unresolved tangencies but ships no blowup tower."""


class UnsupportedProfile(ValueError):
    """Case-tree generation only covers single A_n chains."""


class Inconsistent(ValueError):
    """A verified case disagrees with the classification clause."""


# --- witness upper bounds ------------------------------------------------------


@dataclass(frozen=True)
class UpperBound:
    value: Rat
    minima: tuple[str, ...]           # divisors attaining the minimum
    ratios: tuple[tuple[str, Rat], ...]


def witness_lct_upper(model: SurfaceModel, witness: Witness) -> UpperBound:
    """Exact threshold of the witness pair; an upper bound for lct(S)."""
    if witness.tangencies and witness.tower is None:
        raise NotSNC("declared tangencies need a blowup tower: "
                     + ", ".join(witness.tangencies))
    curve_map = model.curve_map
    ratios: list[tuple[str, Rat]] = []
    for mult, cid in witness.boundary.terms:
        if mult > 0:
            ratios.append((f"strict({cid})", Rat(1) / mult))

    ord_by_node: dict[str, Rat] = {}
    for pid, lattice in model.points:
        ords = [Rat(0)] * lattice.rank
        for mult, cid in witness.boundary.terms:
            vec = curve_map[cid].incidence_at(pid)
            if vec is None:
                continue
            coeffs = pullback_coefficients(lattice, list(vec), cid).coefficients
            for i in range(lattice.rank):
                ords[i] += mult * coeffs[i]
        for i, node in enumerate(lattice.nodes):
            key = f"{pid}:{node}"
            ord_by_node[key] = ords[i]
            if ords[i] > 0:
                # crepant: every ADE exceptional has discrepancy 0
                ratios.append((key, Rat(1) / ords[i]))

    if witness.tower is not None:
        strict_mults = {cid: witness.boundary.multiplicity(cid) for cid in curve_map}
        point_of = dict(witness.tower_points)
        # resolve bare node names against the step's own point
        steps = []
        for step in witness.tower.steps:
            pid = point_of[step.name]
            excs = tuple(e if ":" in e or e in point_of else f"{pid}:{e}"
                         for e in step.exceptionals)
            steps.append(replace(step, exceptionals=excs))
        results = tower_log_discrepancy(replace(witness.tower, steps=tuple(steps)),
                                        strict_mults, ord_by_node)
        for name, a_f, ord_f in results:
            if ord_f > 0:
                ratios.append((f"tower:{name}", (1 + a_f) / ord_f))

    if not ratios:
        raise ValueError("witness divisor has no positive multiplicities")
    value = min(r for _, r in ratios)
    minima = tuple(name for name, r in ratios if r == value)
    return UpperBound(value, minima, tuple(ratios))


# --- proof scripts --------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    name: str
    rows: tuple[ScriptRow, ...]


@dataclass(frozen=True)
class LeafResult:
    name: str
    system: LinearSystem
    certificate: InfeasibilityCertificate | None
    witness: dict[str, Rat] | None

    @property
    def infeasible(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class AssumptionResult:
    tag: str
    note: str
    checked: bool | None   # None: purely cited; True/False: exclusion system verdict


@dataclass(frozen=True)
class LowerBoundResult:
    verified: bool
    leaves: tuple[LeafResult, ...]
    assumptions: tuple[AssumptionResult, ...]


def _tau_row(script: ProofScript) -> ScriptRow:
    text = f"tau >= {format_rat(script.tau_floor)}"
    coeffs = tuple(Rat(1) if v == "tau" else Rat(0) for v in script.variables)
    return ScriptRow(text, Row(coeffs, script.tau_floor, ">=", "closure tau >= 1/omega"),
                     note="closure tau >= 1/omega")


def generate_case_tree(lattice: ResolutionLattice, script: ProofScript) -> tuple[Branch, ...]:
    """Adjunction case split for one A_n chain: one branch per interior
    segment (``Cartan_j . a > tau``) and one per double point
    (``Cartan_j . a > tau - a_{j+1}`` and ``Cartan_{j+1} . a > tau - a_j``),
    in chain order: E1 interior, E1^E2, E2 interior, ...
    """
    if lattice.ade.family != "A":
        raise UnsupportedProfile(f"case generation needs an A_n chain, got {lattice.ade}")
    n = lattice.rank
    variables = script.variables
    if "tau" not in variables:
        raise UnsupportedProfile("script variables must include tau")

    def avar(j: int) -> str:
        return f"a{j}"

    def cartan_coeffs(j: int, extra: dict[str, Rat]) -> tuple[Rat, ...]:
        form = {avar(j): Rat(2)}
        if j > 1:
            form[avar(j - 1)] = Rat(-1)
        if j < n:
            form[avar(j + 1)] = Rat(-1)
        form["tau"] = Rat(-1)
        for var, c in extra.items():
            form[var] = form.get(var, Rat(0)) + c
        return tuple(form.get(v, Rat(0)) for v in variables)

    def mk(name: str, j: int, extra: dict[str, Rat], text: str) -> ScriptRow:
        return ScriptRow(text, Row(cartan_coeffs(j, extra), Rat(0), ">", name), note=name)

    branches = []
    for j in range(1, n + 1):
        text = f"cartan({j}).a > tau"
        branches.append(Branch(
            f"Q in E{j} interior",
            (mk(f"adjunction on E{j}, no neighbor through Q", j, {}, text),)))
        if j < n:
            r1 = mk(f"adjunction on E{j} at E{j}^E{j+1}", j,
                    {avar(j + 1): Rat(1)}, f"cartan({j}).a > tau - a{j+1}")
            r2 = mk(f"adjunction on E{j+1} at E{j}^E{j+1}", j + 1,
                    {avar(j): Rat(1)}, f"cartan({j+1}).a > tau - a{j}")
            branches.append(Branch(f"Q = E{j} meet E{j+1}", (r1, r2)))
    return tuple(branches)


def materialize_leaves(fixture: CaseFixture) -> list[Leaf]:
    """Expand a script into its leaf row-sets (deterministic order)."""
    script = fixture.script
    if script is None:
        return []
    tau = _tau_row(script)
    leaves: list[Leaf] = []
    if script.mode == "generated":
        lattice = fixture.model.lattice(script.point)
        branches = generate_case_tree(lattice, script)
        alts = script.alternatives or (Alternative("", ()),)
        for alt in alts:
            for br in branches:
                name = f"{alt.name}: {br.name}" if alt.name else br.name
                leaves.append(Leaf(name, (tau,) + script.base_rows + alt.rows + br.rows))
    else:
        for block in script.blocks:
            alts = block.alternatives or (Alternative("", ()),)
            for alt in alts:
                for br in block.branches:
                    parts = [p for p in (block.name, alt.name, br.name) if p]
                    leaves.append(Leaf(" / ".join(parts),
                                       (tau,) + script.base_rows + block.rows
                                       + alt.rows + br.rows))
    return leaves


def _leaf_system(script: ProofScript, leaf: Leaf) -> LinearSystem:
    return LinearSystem(script.variables, tuple(r.row for r in leaf.rows))


def verify_lower_bound_script(fixture: CaseFixture) -> LowerBoundResult:
    """Send every leaf to the feasibility checker; verified iff all infeasible.

    A feasible leaf is reported with its witness point, which is the most
    useful debugging output a broken transcription can produce.
    """
    script = fixture.script
    leaves = materialize_leaves(fixture)
    results = []
    verified = True
    for leaf in leaves:
        system = _leaf_system(script, leaf)
        outcome = check_feasibility(system)
        if isinstance(outcome, Infeasible):
            results.append(LeafResult(leaf.name, system, outcome.certificate, None))
        else:
            verified = False
            results.append(LeafResult(leaf.name, system, None, outcome.witness))

    assumptions = []
    for assumption in script.assumptions:
        checked: bool | None = None
        if assumption.exclusion_rows:
            tau = _tau_row(script)
            system = LinearSystem(script.variables,
                                  (tau.row,) + tuple(r.row for r in assumption.exclusion_rows))
            checked = isinstance(check_feasibility(system), Infeasible)
            if not checked:
                verified = False
        assumptions.append(AssumptionResult(assumption.tag, assumption.note, checked))
    return LowerBoundResult(verified, tuple(results), tuple(assumptions))


# --- case results and the table --------------------------------------------------


@dataclass(frozen=True)
class CaseResult:
    profile: SingularityProfile
    omega_upper: Rat
    upper: UpperBound
    lower: LowerBoundResult
    expected_omega: Rat
    verified: bool


def compute_case_threshold(fixture: CaseFixture) -> CaseResult:
    upper = witness_lct_upper(fixture.model, fixture.witness)
    lower = verify_lower_bound_script(fixture)
    expected = fixture.expected_omega
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


@dataclass(frozen=True)
class TableRow:
    profile: str
    omega: Rat
    clause: str
    status: str        # verified | FAILED | paper-asserted


@dataclass(frozen=True)
class ThresholdTable:
    clauses: tuple[tuple[str, Rat], ...]
    rows: tuple[TableRow, ...]

    @property
    def all_verified(self) -> bool:
        return all(r.status != "FAILED" for r in self.rows)


def assemble_table(results: dict[str, CaseResult],
                   admissible: list[str]) -> ThresholdTable:
    """Classification table with per-row verification status.

    Raises ``Inconsistent`` if a verified case disagrees with its clause.
    """
    rows = []
    for key in admissible:
        profile = SingularityProfile.of(key.split("+"))
        clause, omega = classify_profile(profile)
        if key in results:
            result = results[key]
            if result.verified and result.omega_upper != omega:
                raise Inconsistent(
                    f"{key}: verified omega {format_rat(result.omega_upper)} "
                    f"differs from clause value {format_rat(omega)}")
            status = "verified" if result.verified else "FAILED"
        else:
            status = "paper-asserted"
        rows.append(TableRow(key, omega, clause, status))
    return ThresholdTable(TABLE_CLAUSES, tuple(rows))


def ke_criterion(lct_value: Rat, dimension: int) -> str:
    """Sufficient numeric criterion for a Kaehler-Einstein metric."""
    if lct_value <= 0:
        raise ValueError("lct value must be positive")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    return "KECertified" if lct_value > Rat(dimension, dimension + 1) else "Inconclusive"


# --- mutation audit ---------------------------------------------------------------


@dataclass(frozen=True)
class MutationRecord:
    location: str
    text: str
    declared_redundant: bool
    authored: bool
    flips: bool         # deleting the row makes some leaf feasible


def _authored_rows(fixture: CaseFixture) -> list[tuple[str, ScriptRow]]:
    script = fixture.script
    rows: list[tuple[str, ScriptRow]] = []
    rows.extend(("base", r) for r in script.base_rows)
    for alt in script.alternatives:
        rows.extend((f"alt:{alt.name}", r) for r in alt.rows)
    for block in script.blocks:
        rows.extend((f"block:{block.name}", r) for r in block.rows)
        for alt in block.alternatives:
            rows.extend((f"block:{block.name}/alt:{alt.name}", r) for r in alt.rows)
        for br in block.branches:
            rows.extend((f"block:{block.name}/branch:{br.name}", r) for r in br.rows)
    return rows


def mutation_audit(fixture: CaseFixture) -> list[MutationRecord]:
    """Delete each script row in turn and re-verify all leaves.

    Rows whose deletion leaves every leaf infeasible are operationally
    redundant; fixtures must declare exactly those with ``redundant: true``
    so every undeclared row is guaranteed to carry weight in some leaf.
    Machine-generated branch rows (generated mode) are audited too but
    reported with ``authored=False``.

    Each leaf is solved once.  By Farkas' lemma, a leaf whose certificate
    gives the deleted row a zero multiplier stays infeasible (the same
    certificate refutes the rows left), so only a leaf whose certificate
    uses the row, or a feasible leaf, is solved again without it.
    """
    script = fixture.script
    solved = [(leaf, check_feasibility(_leaf_system(script, leaf)))
              for leaf in materialize_leaves(fixture)]
    records = []

    def flips_without(target: ScriptRow) -> bool:
        for leaf, outcome in solved:
            used = [i for i, r in enumerate(leaf.rows) if r is target]
            if not used:
                continue
            if isinstance(outcome, Infeasible) and not any(
                    outcome.certificate.multipliers[i] for i in used):
                continue
            kept = tuple(r.row for r in leaf.rows if r is not target)
            system = LinearSystem(script.variables, kept)
            if isinstance(check_feasibility(system), Feasible):
                return True
        return False

    seen: set[int] = set()
    for location, row in _authored_rows(fixture):
        if id(row) in seen:
            continue
        seen.add(id(row))
        records.append(MutationRecord(location, row.text, row.redundant, True,
                                      flips_without(row)))
    if script.mode == "generated":
        for leaf, _ in solved:
            for row in leaf.rows:
                if id(row) in seen or row.note == "closure tau >= 1/omega":
                    continue
                seen.add(id(row))
                records.append(MutationRecord(f"generated:{leaf.name}", row.text,
                                              False, False, flips_without(row)))
    return records

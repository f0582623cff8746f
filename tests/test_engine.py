from fractions import Fraction as Rat
from pathlib import Path

import pytest

from cubiclct import engine
from cubiclct.cli import case_fixtures, fixture_dir, load_all_fixtures
from cubiclct.engine import (Inconsistent, assemble_table, classify_profile,
                             compute_case_threshold, ke_criterion, materialize_leaves,
                             mutation_audit, witness_lct_upper)
from cubiclct.lattice import AdeType
from cubiclct.linsys import Feasible, Infeasible, LinearSystem, check_feasibility, parse_row, replay_certificate
from cubiclct.model import (ADMISSIBLE_PROFILES, Branch, ParseError, SingularityProfile,
                            generate_case_tree, load_fixture)

FIXTURES = load_all_fixtures(fixture_dir())
CASES = case_fixtures(FIXTURES)
RESULTS = {key: compute_case_threshold(f) for key, f in CASES.items()}


# --- witness upper bounds -----------------------------------------------------

def test_witness_a5_value():
    f = FIXTURES["a5"]
    upper = witness_lct_upper(f.model, f.witness)
    assert upper.value == Rat(1, 4)
    assert upper.minima == ("O:E4",)
    ratios = dict(upper.ratios)
    assert ratios["strict(L3)"] == Rat(1, 3)
    assert ratios["O:E3"] == Rat(1, 3)


def test_witness_d4_value():
    f = FIXTURES["d4"]
    upper = witness_lct_upper(f.model, f.witness)
    assert upper.value == Rat(1, 3)
    # the center node carries order 1 + 1 + 1 = 3
    assert "O:E4" in upper.minima


def test_witness_a4_value():
    f = FIXTURES["a4"]
    upper = witness_lct_upper(f.model, f.witness)
    assert upper.value == Rat(1, 3)
    ratios = dict(upper.ratios)
    # orders (1, 2, 3, 2) over the A4 point
    assert ratios["O:E1"] == Rat(1)
    assert ratios["O:E3"] == Rat(1, 3)


def test_witness_eckardt_tower():
    f = FIXTURES["a1"]
    upper = witness_lct_upper(f.model, f.witness)
    assert upper.value == Rat(2, 3)
    assert upper.minima == ("tower:F1",)


def test_witness_tangency_without_tower_raises():
    doc = """
profile: [A1]
points:
  O: {type: A1}
curves:
  - {id: L1, kind: line, incidence: {O: [1]}, pairwise: {C1: 1}}
  - {id: C1, kind: conic, incidence: {O: [1]}}
equivalences:
  - [["1", L1], ["1", C1]]
witness:
  divisor: [["1", L1], ["1", C1]]
  tangencies: ["L1, C1 and E1 meet at one point of the resolution"]
"""
    # no such key: a tangency is stated by a blowup tower, never beside the divisor
    with pytest.raises(ParseError, match=r"^doc: witness: unknown key 'tangencies'$"):
        load_fixture(doc, name="doc")


def test_witness_invariant_under_relabeling_and_reversal():
    base = witness_lct_upper(FIXTURES["a5"].model, FIXTURES["a5"].witness).value
    relabeled = """
profile: [A5]
points:
  X: {type: A5}
curves:
  - {id: M1, kind: line, incidence: {X: [0, 0, 0, 0, 1]}, pairwise: {Q1: 1}}
  - {id: M2, kind: line, incidence: {X: [0, 0, 0, 0, 1]}}
  - {id: M3, kind: line, incidence: {X: [0, 1, 0, 0, 0]}}
  - {id: Q1, kind: conic, incidence: {X: [1, 0, 0, 0, 0]}}
  - {id: Q3, kind: conic, incidence: {X: [0, 0, 0, 1, 0]}}
equivalences:
  - [["3", M3]]
  - [["1", M1], ["1", Q1]]
  - [["1", M3], ["1", Q3]]
witness:
  divisor: [["3", M3]]
"""
    f = load_fixture(relabeled)
    from cubiclct.model import validate_fixture
    assert validate_fixture(f) == []
    assert witness_lct_upper(f.model, f.witness).value == base


# --- generated case trees -----------------------------------------------------

def _tree_systems(label, tau_floor):
    ade = AdeType.parse(label)
    variables = tuple(f"a{i+1}" for i in range(ade.rank)) + ("tau",)
    branches = generate_case_tree(ade, variables)
    systems = []
    for br in branches:
        # tau is the last variable: fix it at tau_floor
        rows = tuple(engine.Row(r.row.coeffs[:-1], r.row.constant - r.row.coeffs[-1] * tau_floor,
                                r.row.relation) for r in br.rows)
        systems.append((br.name, LinearSystem(variables[:-1], rows)))
    return systems


def test_a5_case_tree_matches_transcribed_list():
    systems = _tree_systems("A5", 4)
    assert len(systems) == 9
    variables = tuple(f"a{i+1}" for i in range(5))
    expected = [
        ["2*a1 - a2 > 4"],
        ["2*a1 > 4", "2*a2 - a3 > 4"],
        ["2*a2 - a1 - a3 > 4"],
        ["2*a2 - a1 > 4", "2*a3 - a4 > 4"],
        ["2*a3 - a2 - a4 > 4"],
        ["2*a3 - a2 > 4", "2*a4 - a5 > 4"],
        ["2*a4 - a3 - a5 > 4"],
        ["2*a4 - a3 > 4", "2*a5 > 4"],
        ["2*a5 - a4 > 4"],
    ]
    for (name, sys), rows in zip(systems, expected):
        want = tuple(parse_row(r, variables) for r in rows)
        got = tuple(engine.Row(r.coeffs, r.constant, r.relation) for r in sys.rows)
        assert got == want, (name, sys.pretty())


def test_a2_case_tree_matches_transcribed_list():
    systems = _tree_systems("A2", 3)
    assert len(systems) == 3
    variables = ("a1", "a2")
    expected = [
        ["2*a1 - a2 > 3"],
        ["2*a1 > 3", "2*a2 > 3"],
        ["2*a2 - a1 > 3"],
    ]
    for (name, sys), rows in zip(systems, expected):
        want = tuple(parse_row(r, variables) for r in rows)
        got = tuple(engine.Row(r.coeffs, r.constant, r.relation) for r in sys.rows)
        assert got == want, (name, sys.pretty())


def test_a1_case_tree_single_branch():
    systems = _tree_systems("A1", 2)
    assert len(systems) == 1
    [(name, sys)] = systems
    assert sys.pretty() == ["2*a1 > 2"]


def test_case_tree_rejects_non_chain():
    with pytest.raises(ParseError, match="needs an A_n point, got D4"):
        generate_case_tree(AdeType("D", 4), ("a1", "a2", "a3", "a4", "tau"))


# --- lower bounds and case results ---------------------------------------------

def test_all_case_fixtures_verified():
    for key, result in sorted(RESULTS.items()):
        assert result.verified, key
        assert result.omega_upper == result.expected_omega, key


def test_a5_script_has_nine_certified_leaves():
    result = RESULTS["A5"]
    assert len(result.lower.leaves) == 9
    for leaf in result.lower.leaves:
        assert leaf.certificate is not None
        assert replay_certificate(leaf.system, leaf.certificate)


def test_all_emitted_certificates_replay():
    for key, result in RESULTS.items():
        for leaf in result.lower.leaves:
            assert leaf.certificate is not None, (key, leaf.name)
            assert replay_certificate(leaf.system, leaf.certificate), (key, leaf.name)


def test_deleting_the_a5_conic_row_breaks_a_leaf():
    fixture = FIXTURES["a5"]
    script = fixture.script
    conic = next(r for r in script.base_rows if r.text == "2 - a5 >= 0")
    leaves = materialize_leaves(fixture)
    flipped = []
    for leaf in leaves:
        kept = tuple(r.row for r in leaf.rows if r is not conic)
        outcome = check_feasibility(LinearSystem(script.variables, kept))
        if isinstance(outcome, Feasible):
            flipped.append(leaf.name)
    assert flipped, "conic row must carry weight in some leaf"


def test_d4_transcribed_script_verified():
    result = RESULTS["D4"]
    assert result.verified
    names = [leaf.name for leaf in result.lower.leaves]
    assert any("A on L1-grave" in n for n in names)


def test_monotone_adding_rows_keeps_infeasible():
    result = RESULTS["A2"]
    for leaf in result.lower.leaves:
        system = leaf.system
        extra = parse_row("a1 + a2 <= 1", system.variables)
        bigger = LinearSystem(system.variables, system.rows + (extra,))
        assert isinstance(check_feasibility(bigger), Infeasible)


def test_assumption_exclusion_systems_checked():
    result = RESULTS["A5"]
    tags = {a.tag: a.checked for a in result.lower.assumptions}
    assert tags["degree-bound"] is True


def test_mutation_flags_match_behavior_everywhere():
    for key, fixture in sorted(CASES.items()):
        for record in mutation_audit(fixture):
            if record.authored:
                assert record.flips == (not record.declared_redundant), \
                    (key, record.location, record.text)


def test_each_script_has_essential_rows():
    # proofs are not vacuous: every script keeps at least one authored row
    # whose deletion breaks a leaf
    for key, fixture in sorted(CASES.items()):
        records = [r for r in mutation_audit(fixture) if r.authored]
        assert any(r.flips for r in records), key


def test_support_driven_audit_matches_brute_force():
    # the audit re-solves a system only when the deleted row is in the support
    # of its certificate; re-solving every leaf and every exclusion system
    # without every row must agree
    for key, fixture in sorted(CASES.items()):
        script = fixture.script
        leaves = materialize_leaves(fixture) + [
            Branch(a.tag, (engine._tau_row(script),) + a.exclusion_rows)
            for a in script.assumptions if a.exclusion_rows]
        rows = {id(r): r for _, r in engine._authored_rows(fixture)}
        rows.update((id(r), r) for leaf in leaves for r in leaf.rows[1:]   # not the closure row
                    if id(r) not in rows)
        records = mutation_audit(fixture)
        assert [r.text for r in records] == [r.text for r in rows.values()], key
        for record, row in zip(records, rows.values()):
            flips = any(
                isinstance(check_feasibility(LinearSystem(
                    fixture.script.variables,
                    tuple(r.row for r in leaf.rows if r is not row))), Feasible)
                for leaf in leaves if any(r is row for r in leaf.rows))
            assert record.flips == flips, (key, record.location, record.text)


def test_audit_covers_the_exclusion_rows():
    # an exclusion row is an authored row: one that carries no weight must be
    # declared redundant, like any other
    text = Path(str(fixture_dir() / "a2a2.yaml")).read_text()
    old = 'exclusion_rows: ["m > tau", "3 >= m"]'
    assert text.count(old) == 1
    fixture = load_fixture(text.replace(old, 'exclusion_rows: ["m > tau", "3 >= m", "m >= -5"]'),
                           name="a2a2")
    records = [r for r in mutation_audit(fixture) if r.location == "assumption:degree-bound"]
    assert [(r.text, r.declared_redundant, r.authored, r.flips) for r in records] == [
        ("m > tau", False, True, True), ("3 >= m", False, True, True),
        ("m >= -5", False, True, False)]


def test_audit_reuses_known_certificate_supports(monkeypatch):
    # a deletion is re-solved only when every certificate known for the leaf
    # (its first solve's, and each infeasible re-solve's) uses the row; that
    # the records still equal a brute-force re-solve is checked above
    calls = []

    def counting(system, **kwargs):
        calls.append(system)
        return check_feasibility(system, **kwargs)

    monkeypatch.setattr(engine, "check_feasibility", counting)
    for _, fixture in sorted(CASES.items()):
        mutation_audit(fixture)
    assert len(calls) == 378


# --- table and criterion --------------------------------------------------------

def test_classify_profile_clauses():
    cases = {
        "A1": Rat(2, 3), "A4+A1": Rat(1, 3), "D4": Rat(1, 3),
        "A2+A2+A1": Rat(1, 3), "A5+A1": Rat(1, 4), "D5": Rat(1, 4),
        "E6": Rat(1, 6), "A1+A1": Rat(1, 2), "A3+A1": Rat(1, 2),
        "A2+A2+A2": Rat(1, 3),
    }
    for key, omega in cases.items():
        profile = SingularityProfile.of(key.split("+"))
        assert classify_profile(profile)[1] == omega, key


def test_assemble_table_rows():
    table = assemble_table(RESULTS, ADMISSIBLE_PROFILES)
    assert table.all_verified
    status = {row.profile: row.status for row in table.rows}
    assert status["A5"] == "verified"
    assert status["A1+A1+A1"] == "paper-asserted"
    assert status["A1+A1+A1+A1"] == "paper-asserted"
    assert status["A2+A2+A2"] == "paper-asserted"
    assert sum(1 for s in status.values() if s == "verified") == 17
    omegas = {row.profile: row.omega for row in table.rows}
    assert omegas["A4+A1"] == Rat(1, 3)
    assert omegas["A5+A1"] == Rat(1, 4)
    assert omegas["A2+A2+A1"] == Rat(1, 3)


def test_assemble_table_detects_inconsistency():
    broken = dict(RESULTS)
    tweaked = RESULTS["A5"]._replace(omega_upper=Rat(1, 3))
    broken["A5"] = tweaked
    with pytest.raises(Inconsistent):
        assemble_table(broken, ADMISSIBLE_PROFILES)


def test_ke_criterion_values():
    assert ke_criterion(Rat(1), 2) == "KECertified"
    assert ke_criterion(Rat(2, 3), 2) == "Inconclusive"
    assert ke_criterion(Rat(3, 4), 2) == "KECertified"
    with pytest.raises(ValueError):
        ke_criterion(Rat(0), 2)

from fractions import Fraction as Rat

import pytest

from cubiclct import engine
from cubiclct.cli import case_fixtures, fixture_dir, load_all_fixtures
from cubiclct.engine import (Inconsistent, NotSNC, UnsupportedProfile,
                             assemble_table, classify_profile,
                             compute_case_threshold, generate_case_tree,
                             ke_criterion, materialize_leaves, mutation_audit,
                             witness_lct_upper)
from cubiclct.lattice import AdeType, ResolutionLattice
from cubiclct.linsys import Feasible, Infeasible, LinearSystem, check_feasibility, parse_row, replay_certificate
from cubiclct.model import ADMISSIBLE_PROFILES, SingularityProfile, load_fixture

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
    f = load_fixture(doc)
    with pytest.raises(NotSNC):
        witness_lct_upper(f.model, f.witness)


def test_witness_invariant_under_relabeling_and_reversal():
    base = witness_lct_upper(FIXTURES["a5"].model, FIXTURES["a5"].witness).value
    relabeled = """
profile: [A5]
points:
  X: {type: A5, orientation: reversed}
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
    lattice = ResolutionLattice(ade)
    variables = tuple(f"a{i+1}" for i in range(ade.rank)) + ("tau",)
    script = engine.ProofScript("generated", Rat(tau_floor), variables, (), "O")
    branches = generate_case_tree(lattice, script)
    systems = []
    for br in branches:
        sys = LinearSystem(variables, tuple(r.row for r in br.rows))
        systems.append((br.name, sys.substitute("tau", Rat(tau_floor))))
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
    lattice = ResolutionLattice(AdeType("D", 4))
    script = engine.ProofScript("generated", Rat(3), ("a1", "a2", "a3", "a4", "tau"),
                                (), "O")
    with pytest.raises(UnsupportedProfile):
        generate_case_tree(lattice, script)


def _row_as_dict(row, variables):
    d = {v: c for v, c in zip(variables, row.coeffs) if c != 0}
    return d, row.constant, row.relation


@pytest.mark.parametrize("name,label", [
    ("a5a1", "A5"), ("a4a1", "A4"), ("a3a1", "A3"), ("a3a1a1", "A3"),
    ("a2a1", "A2"), ("a2a1a1", "A2"), ("a2a2a1", "A2"),
])
def test_transcribed_chain_blocks_equal_generated(name, label):
    # the hand-copied "case analysis at O" branches must agree with the
    # machine-generated chain case split
    fixture = FIXTURES[name]
    block = next(b for b in fixture.script.blocks if b.name == "case analysis at O")
    ade = AdeType.parse(label)
    lattice = ResolutionLattice(ade)
    variables = tuple(f"a{i+1}" for i in range(ade.rank)) + ("tau",)
    script = engine.ProofScript("generated", fixture.script.tau_floor, variables, (), "O")
    generated = generate_case_tree(lattice, script)
    assert len(block.branches) == len(generated)
    for transcribed, machine in zip(block.branches, generated):
        got = [_row_as_dict(r.row, fixture.script.variables) for r in transcribed.rows]
        want = [_row_as_dict(r.row, variables) for r in machine.rows]
        assert got == want, (name, transcribed.name)


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
        bigger = system.with_row(extra)
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
    # the audit re-solves a leaf only when the deleted row is in the support of
    # its certificate; re-solving every leaf without every row must agree
    for key, fixture in sorted(CASES.items()):
        leaves = materialize_leaves(fixture)
        rows = {id(r): r for _, r in engine._authored_rows(fixture)}
        if fixture.script.mode == "generated":
            rows.update((id(r), r) for leaf in leaves for r in leaf.rows
                        if id(r) not in rows and r.note != "closure tau >= 1/omega")
        records = mutation_audit(fixture)
        assert [r.text for r in records] == [r.text for r in rows.values()], key
        for record, row in zip(records, rows.values()):
            flips = any(
                isinstance(check_feasibility(LinearSystem(
                    fixture.script.variables,
                    tuple(r.row for r in leaf.rows if r is not row))), Feasible)
                for leaf in leaves if any(r is row for r in leaf.rows))
            assert record.flips == flips, (key, record.location, record.text)


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
    import dataclasses
    broken = dict(RESULTS)
    tweaked = dataclasses.replace(RESULTS["A5"], omega_upper=Rat(1, 3))
    broken["A5"] = tweaked
    with pytest.raises(Inconsistent):
        assemble_table(broken, ADMISSIBLE_PROFILES)


def test_ke_criterion_values():
    assert ke_criterion(Rat(1), 2) == "KECertified"
    assert ke_criterion(Rat(2, 3), 2) == "Inconclusive"
    assert ke_criterion(Rat(3, 4), 2) == "KECertified"
    with pytest.raises(ValueError):
        ke_criterion(Rat(0), 2)

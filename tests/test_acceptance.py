"""Acceptance gate: one test per criterion, exact tolerances, no numerics.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import random
import time
from fractions import Fraction as Rat

from cubiclct import engine
from cubiclct.cli import case_fixtures, fixture_dir, load_all_fixtures
from cubiclct.engine import (assemble_table, classify_profile, compute_case_threshold,
                             ke_criterion, mutation_audit)
from cubiclct.equivariant import invariant_threshold
from cubiclct.fiberwise import Poly, SubstitutionMap, biregularity_criterion, \
    substitute_and_factor
from cubiclct.lattice import AdeType, cartan_matrix, pullback_coefficients
from cubiclct.linsys import Feasible, Infeasible, LinearSystem, Row, \
    check_feasibility, parse_row, replay_certificate
from cubiclct.model import ADMISSIBLE_PROFILES, SingularityProfile, generate_case_tree
from oracles import feasible_by_vertex_enumeration, positive_definite_by_expansion

FIXTURES = load_all_fixtures(fixture_dir())
CASES = case_fixtures(FIXTURES)

EXPECTED_TABLE = {
    "Sigma = {A1}": Rat(2, 3),
    "Sigma contains A4": Rat(1, 3),
    "Sigma = {D4}": Rat(1, 3),
    "Sigma contains A2+A2": Rat(1, 3),
    "Sigma contains A5": Rat(1, 4),
    "Sigma = {D5}": Rat(1, 4),
    "Sigma = {E6}": Rat(1, 6),
    "other cases": Rat(1, 2),
}


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    results = {key: compute_case_threshold(f) for key, f in CASES.items()}
    table = assemble_table(results, ADMISSIBLE_PROFILES)
    elapsed = time.monotonic() - t0
    assert dict(table.clauses) == EXPECTED_TABLE
    assert len(CASES) == 17
    for key, result in results.items():
        profile = SingularityProfile.of(key.split("+"))
        assert result.verified, key
        assert result.omega_upper == classify_profile(profile)[1], key
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    _report(1, f"all 17 case fixtures verified against the 8-clause table "
               f"in {elapsed:.2f}s")


def test_criterion_2_pullback_regression():
    cases = [
        ("A2", [0, 1], [Rat(1, 3), Rat(2, 3)]),
        ("A2", [1, 0], [Rat(2, 3), Rat(1, 3)]),
        ("A3", [1, 0, 0], [Rat(3, 4), Rat(1, 2), Rat(1, 4)]),
        ("A3", [0, 1, 0], [Rat(1, 2), Rat(1), Rat(1, 2)]),
        ("A4", [0, 0, 1, 0], [Rat(2, 5), Rat(4, 5), Rat(6, 5), Rat(3, 5)]),
        ("A4", [0, 0, 0, 1], [Rat(1, 5), Rat(2, 5), Rat(3, 5), Rat(4, 5)]),
        ("A5", [0, 0, 0, 1, 0], [Rat(1, 3), Rat(2, 3), Rat(1), Rat(4, 3), Rat(2, 3)]),
    ]
    for label, inc, expected in cases:
        got = list(pullback_coefficients(AdeType.parse(label), inc))
        assert got == expected, (label, inc)
    _report(2, "all seven reference pullback coefficient vectors match exactly")


def test_criterion_3_certificate_soundness():
    # every certificate emitted across the shipped fixtures replays
    certified = 0
    for key, fixture in CASES.items():
        result = engine.verify_lower_bound_script(fixture)
        for leaf in result.leaves:
            assert leaf.certificate is not None, (key, leaf.name)
            assert replay_certificate(leaf.system, leaf.certificate), (key, leaf.name)
            certified += 1

    # 200 randomized planted-feasible systems never come back Infeasible
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(1, 4)
        variables = tuple(f"x{i}" for i in range(n))
        point = [Rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 10)):
            coeffs = tuple(Rat(rng.randint(-4, 4)) for _ in range(n))
            value = sum((c * x for c, x in zip(coeffs, point)), Rat(0))
            strict = rng.random() < 0.4
            slack = Rat(rng.randint(0, 4), rng.randint(1, 2))
            if strict:
                slack += Rat(1, rng.randint(1, 3))
            rows.append(Row(coeffs, value - slack, ">" if strict else ">="))
        outcome = check_feasibility(LinearSystem(variables, tuple(rows)))
        assert isinstance(outcome, Feasible)

    # agreement with the independent vertex-enumeration oracle
    rng = random.Random(555)
    for _ in range(100):
        n = rng.randint(1, 4)
        variables = tuple(f"x{i}" for i in range(n))
        rows = tuple(
            Row(tuple(Rat(rng.randint(-4, 4)) for _ in range(n)),
                Rat(rng.randint(-5, 5)), ">" if rng.random() < 0.4 else ">=")
            for _ in range(rng.randint(1, 10)))
        system = LinearSystem(variables, rows)
        fm = isinstance(check_feasibility(system), Feasible)
        assert fm == feasible_by_vertex_enumeration(system)
    _report(3, f"{certified} fixture certificates replay; 200 planted-feasible "
               "and 100 oracle-checked random systems agree")


def test_criterion_4_generated_case_lists():
    def systems(label, tau):
        ade = AdeType.parse(label)
        variables = tuple(f"a{i+1}" for i in range(ade.rank)) + ("tau",)
        out = []
        for br in generate_case_tree(ade, variables):
            # tau is the last variable: fix it at tau
            out.append(tuple((r.row.coeffs[:-1], r.row.constant - r.row.coeffs[-1] * tau,
                              r.row.relation) for r in br.rows))
        return out

    def expected(rows_lists, variables):
        return [tuple((r.coeffs, r.constant, r.relation)
                      for r in (parse_row(t, variables) for t in rows))
                for rows in rows_lists]

    a5_reference = [
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
    assert systems("A5", 4) == expected(a5_reference, ("a1", "a2", "a3", "a4", "a5"))
    a4_reference = [
        ["2*a1 - a2 > 3"],
        ["2*a1 > 3", "2*a2 - a3 > 3"],
        ["2*a2 - a1 - a3 > 3"],
        ["2*a2 - a1 > 3", "2*a3 - a4 > 3"],
        ["2*a3 - a2 - a4 > 3"],
        ["2*a3 - a2 > 3", "2*a4 > 3"],
        ["2*a4 - a3 > 3"],
    ]
    assert systems("A4", 3) == expected(a4_reference, ("a1", "a2", "a3", "a4"))
    a3_reference = [
        ["2*a1 - a2 > 2"],
        ["2*a1 > 2", "2*a2 - a3 > 2"],
        ["2*a2 - a1 - a3 > 2"],
        ["2*a2 - a1 > 2", "2*a3 > 2"],
        ["2*a3 - a2 > 2"],
    ]
    assert systems("A3", 2) == expected(a3_reference, ("a1", "a2", "a3"))
    a2_reference = [["2*a1 - a2 > 3"], ["2*a1 > 3", "2*a2 > 3"], ["2*a2 - a1 > 3"]]
    assert systems("A2", 3) == expected(a2_reference, ("a1", "a2"))
    _report(4, "generated A5 (tau=4), A4 (tau=3), A3 (tau=2) and A2 (tau=3) case "
               "lists match the transcribed displays verbatim")


def test_criterion_5_mutation_robustness():
    essential_total = 0
    for key, fixture in sorted(CASES.items()):
        records = [r for r in mutation_audit(fixture) if r.authored]
        for record in records:
            assert record.flips == (not record.declared_redundant), \
                (key, record.location, record.text)
        essential = [r for r in records if r.flips]
        assert essential, f"{key}: script has no essential rows"
        essential_total += len(essential)
    _report(5, f"deleting any undeclared row flips a leaf in every script "
               f"({essential_total} essential rows across 17 scripts)")


def test_criterion_6_invariant_thresholds():
    for name in ("cayley", "xyzt3"):
        result = invariant_threshold(FIXTURES[name])
        assert result.lct == Rat(1), name
        assert result.ke == "KECertified", name
    assert ke_criterion(Rat(1)) == "KECertified"
    _report(6, "both equivariant fixtures certify lct = 1 and the KE criterion")


def test_criterion_7_fiberwise_reproduction():
    expectations = {"fiber_e6": 6, "fiber_d5": 4}
    for name, expected_k in expectations.items():
        data = FIXTURES[name].fiberwise
        k = substitute_and_factor(
            Poly.from_terms(data.target_poly),
            SubstitutionMap.from_dict(dict(data.map_powers)),
            Poly.from_terms(data.source_poly))
        assert k == expected_k, name
    verdicts = [
        ((Rat(3, 4), Rat(3, 4)), "Biregular"),
        ((Rat(2, 3), Rat(1, 3)), "Inconclusive"),
        ((Rat(1, 6), Rat(2, 3)), "Inconclusive"),
        ((Rat(1, 4), Rat(2, 3)), "Inconclusive"),
    ]
    for (a, b), expected in verdicts:
        assert biregularity_criterion(a, b, True, True).verdict == expected
    _report(7, "substitution exponents k=6 and k=4 and all four criterion "
               "verdicts reproduce exactly")


def test_criterion_8_property_suites():
    # exact arithmetic round trips
    rng = random.Random(2718)
    for _ in range(100):
        a = Rat(rng.randint(-40, 40), rng.randint(1, 23))
        b = Rat(rng.randint(-40, 40), rng.randint(1, 23))
        assert (a + b) - b == a
        if a != 0:
            assert a * (1 / a) == 1

    # Cartan positive definiteness for every supported type
    for ade in [AdeType("A", n) for n in range(1, 7)] + \
               [AdeType("D", 4), AdeType("D", 5), AdeType("E", 6)]:
        assert positive_definite_by_expansion(cartan_matrix(ade)), ade.label

    # A_n inverse-Cartan closed form for n <= 6
    for n in range(1, 7):
        ade = AdeType("A", n)
        for j in range(1, n + 1):
            inc = [1 if i == j else 0 for i in range(1, n + 1)]
            c = pullback_coefficients(ade, inc)
            assert all(c[i - 1] == Rat(min(i, j) * (n + 1 - max(i, j)), n + 1)
                       for i in range(1, n + 1))

    # Fourier-Motzkin strictness propagation: a 0 > 0 style contradiction
    # must weight a strict row
    rng = random.Random(97)
    strict_zero_seen = 0
    checked = 0
    while checked < 60:
        n = rng.randint(1, 3)
        variables = tuple(f"x{i}" for i in range(n))
        rows = tuple(
            Row(tuple(Rat(rng.randint(-3, 3)) for _ in range(n)),
                Rat(rng.randint(-4, 4)), ">" if rng.random() < 0.5 else ">=")
            for _ in range(rng.randint(2, 8)))
        system = LinearSystem(variables, rows)
        outcome = check_feasibility(system)
        if isinstance(outcome, Infeasible):
            checked += 1
            cert = outcome.certificate
            assert replay_certificate(system, cert)
            if cert.derived.constant <= 0:
                assert cert.derived.relation == ">"
                assert any(m > 0 and row.relation == ">"
                           for m, row in zip(cert.multipliers, system.rows))
                strict_zero_seen += 1
    assert strict_zero_seen > 0

    _report(8, "exact round trips, Cartan definiteness, closed form and "
               "strictness propagation all green")

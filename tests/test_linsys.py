import hashlib
import random
from dataclasses import replace
from fractions import Fraction as Rat
from math import gcd, lcm

import pytest

from cubiclct import linsys
from cubiclct.linsys import (Feasible, Infeasible, InfeasibilityCertificate, LinearSystem,
                             Row, SelfCheckFailed, check_feasibility, parse_row,
                             replay_certificate)
from cubiclct.cli import case_fixtures, fixture_dir, load_all_fixtures
from cubiclct.engine import materialize_leaves
from cubiclct.model import ParseError, ScriptRow, load_fixture
from oracles import feasible_by_vertex_enumeration, parse_row_by_fractions


def sys_of(variables, *exprs):
    variables = tuple(variables)
    return LinearSystem(variables, tuple(parse_row(e, variables) for e in exprs))


def test_parse_row_normalization():
    row = parse_row("2*a1 - a2 > tau - a4", ("a1", "a2", "a4", "tau"))
    assert row.coeffs == (Rat(2), Rat(-1), Rat(1), Rat(-1))
    assert row.constant == 0 and row.relation == ">"
    row = parse_row("3 >= a1 + a5", ("a1", "a5"))
    assert row.coeffs == (Rat(-1), Rat(-1))
    assert row.constant == -3 and row.relation == ">="
    row = parse_row("m/2 + b <= 1", ("b", "m"))
    assert row.coeffs == (Rat(-1), Rat(-1, 2)) and row.constant == -1
    row = parse_row("1 - 3/2*a >= 0", ("a",))
    assert row.coeffs == (Rat(-3, 2),) and row.constant == -1


def test_parse_row_rejects_unknown_variable():
    with pytest.raises(ValueError, match=r"^\['zz'\] not among variables \('a1',\)$"):
        parse_row("2*a1 > zz", ("a1",))


def test_eliminate_simple_contradiction():
    system = sys_of(("x",), "x >= 1", "-x >= 0")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    assert replay_certificate(system, outcome.certificate)


def test_eliminate_strict_branch_row():
    # the A5-type branch after substituting tau >= 4 reduces to 0 > 1
    system = sys_of(("a4",), "a4 > 2", "1 - a4 >= 0")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    assert outcome.certificate.derived.relation == ">"
    assert replay_certificate(system, outcome.certificate)


def test_eliminate_vacuous():
    system = sys_of(("x",), "x >= 0")
    assert isinstance(check_feasibility(system), Feasible)


def test_check_feasibility_a2_branch():
    system = sys_of(("a1", "a2"), "2*a1 - a2 > 3", "a1 <= 1", "a2 >= 0")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    assert replay_certificate(system, outcome.certificate)


def test_check_feasibility_trivial_witness():
    outcome = check_feasibility(sys_of(("a1",), "a1 >= 0"))
    assert isinstance(outcome, Feasible)
    assert outcome.witness["a1"] == 0


def test_check_feasibility_full_a5_node_branch():
    variables = ("a1", "a2", "a3", "a4", "a5", "tau")
    rows = [
        "3 >= a1 + a5",
        "2*a1 - a2 >= 0", "2*a2 - a1 - a3 >= 0", "2*a3 - a2 - a4 >= 0",
        "2*a4 - a3 - a5 >= 0", "2*a5 - a4 >= 0",
        "a1 >= 0", "a2 >= 0", "a3 >= 0", "a4 >= 0", "a5 >= 0",
        "2*a3 - a2 - a4 > tau - a4", "2*a4 - a3 - a5 > tau - a3",
        "tau >= 4", "a4 <= 1", "a5 <= 2",
    ]
    system = sys_of(variables, *rows)
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    assert replay_certificate(system, outcome.certificate)


def test_witness_respects_strictness():
    system = sys_of(("x", "y"), "x > 0", "y >= x", "1 - y > 0", "x + y <= 10")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Feasible)
    point = [outcome.witness["x"], outcome.witness["y"]]
    for row in system.rows:
        assert row.evaluate(point)


def test_replay_simple_certificates():
    system = sys_of(("x",), "x >= 1", "-x >= 0")
    good = InfeasibilityCertificate((Rat(1), Rat(1)), Row((Rat(0),), Rat(1), ">="))
    bad = InfeasibilityCertificate((Rat(1), Rat(0)), Row((Rat(0),), Rat(1), ">="))
    assert replay_certificate(system, good)
    assert not replay_certificate(system, bad)
    with pytest.raises(ParseError, match="^multiplier count does not match row count$"):
        replay_certificate(system, InfeasibilityCertificate((Rat(1),), Row((Rat(0),), Rat(1), ">=")))


def test_replay_rejects_negative_multipliers():
    system = sys_of(("x",), "x >= 1", "x >= 0")
    cert = InfeasibilityCertificate((Rat(1), Rat(-1)), Row((Rat(0),), Rat(1), ">="))
    assert not replay_certificate(system, cert)


def test_strict_contradiction_needs_strict_row():
    # 0 > 0 only arises when a strict row carries positive weight
    system = sys_of(("x",), "x > 0", "-x >= 0")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    cert = outcome.certificate
    assert cert.derived.relation == ">"
    assert cert.multipliers[0] > 0   # the strict row is weighted
    assert replay_certificate(system, cert)
    # dropping the strict weight must invalidate the certificate
    tweaked = InfeasibilityCertificate((Rat(0), cert.multipliers[1]), cert.derived)
    assert not replay_certificate(system, tweaked)


def test_unreplayable_certificate_raises(monkeypatch):
    monkeypatch.setattr(linsys, "replay_certificate", lambda system, cert: False)
    with pytest.raises(SelfCheckFailed):
        check_feasibility(sys_of(("x",), "x >= 1", "-x >= 0"))


def test_witness_off_a_row_raises(monkeypatch):
    monkeypatch.setattr(Row, "evaluate", lambda row, point: False)
    with pytest.raises(SelfCheckFailed):
        check_feasibility(sys_of(("x",), "x >= 0"))


def test_rational_rows_scale_back_in_the_certificate():
    # x >= 1/2 and x <= 1/3: the certificate weights the original rational rows
    system = sys_of(("x",), "2*x >= 1", "3*x <= 1", "x/4 >= 1/8")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    assert replay_certificate(system, outcome.certificate)
    cert = outcome.certificate
    combined = sum((m * r.constant for m, r in zip(cert.multipliers, system.rows)), Rat(0))
    assert cert.derived.constant == combined > 0


def test_direction_dedup_keeps_the_tightest_row():
    # 2x >= 1, 4x > 2 and x >= 0 share one direction; only x > 1/2 remains
    system = sys_of(("x",), "2*x >= 1", "4*x > 2", "x >= 0", "x <= 1/2")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    assert outcome.certificate.derived.relation == ">"
    assert outcome.certificate.multipliers[1] > 0
    assert outcome.certificate.multipliers[0] == outcome.certificate.multipliers[2] == 0


@pytest.mark.parametrize("carried, made", [
    ("3*y >= 4", "x + y >= 2"),       # the new row y >= 2 beats y >= 4/3
    ("2*y >= 3", "2*x + 2*y > 3"),    # equal bounds y >= 3/2; the new row is strict
], ids=["tighter", "strict tie"])
def test_direction_dedup_across_levels_keeps_the_new_row(carried, made):
    # Eliminating x combines ``made`` with -x >= 0 into a row on the direction
    # of ``carried``, which is carried over from the level before; either row
    # closes the contradiction with 2y < 1, and the certificate must use the new one.
    # x goes first: its fan-out is 1, y's is 2.
    system = sys_of(("x", "y"), carried, made, "-x >= 0", "2*y < 1")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    carried_m, *support = outcome.certificate.multipliers
    assert carried_m == 0 and all(m > 0 for m in support)


def test_dedup_keeps_the_and_of_both_histories():
    # Pruning reads each row's history of input rows.  Here a row kept over
    # a looser one on its direction must take the AND of both histories: with
    # the kept row's own history alone, a pair this certificate needs is
    # skipped, and the witness built instead violates the first row
    # (SelfCheckFailed).
    system = sys_of(("x0", "x1"), "x0 + 2*x1 >= -3", "2*x0 + x1 >= 2", "-2*x0 + x1 >= 0",
                    "-x0 - x1 > 1", "2*x0 - 3*x1 > 2", "3*x0 + 2*x1 >= 2",
                    "-2*x0 - 3*x1 >= 1")
    outcome = check_feasibility(system)
    assert isinstance(outcome, Infeasible)
    assert outcome.certificate.multipliers == (0, Rat(1, 12), Rat(1, 12), Rat(1, 2), 0,
                                               Rat(1, 6), 0)


def test_chernikov_rule_skips_pairs_before_combining_them(monkeypatch):
    # An infeasible dense 4-variable system: the kernel makes 44 nodes (9
    # input rows and 35 combinations) before it reaches 0 > c.  Without the
    # rule it made 142.
    nodes = []
    walk = linsys._certificate

    def recording(system, parents, node):
        nodes.append(len(parents))
        return walk(system, parents, node)

    monkeypatch.setattr(linsys, "_certificate", recording)
    system = sys_of(("x0", "x1", "x2", "x3"),
                    "-x0 + 3*x1 + x2 - 3*x3 >= -5", "-x0 - 2*x1 + 2*x2 + 3*x3 >= 2",
                    "4*x0 + 2*x1 - x2 + 3*x3 > -1", "3*x0 + 2*x1 + 3*x2 - 2*x3 >= 2",
                    "x1 + x2 + 3*x3 > 3", "2*x0 - x1 - 4*x2 - x3 >= -1",
                    "-2*x0 + 3*x1 + 4*x2 - x3 > -3", "-2*x0 + 2*x1 + 4*x2 - 2*x3 > 5",
                    "-3*x0 - 2*x1 + 3*x2 + 3*x3 > -3")
    assert isinstance(check_feasibility(system), Infeasible)
    assert nodes == [44]


def _random_system(rng, planted=None, n=None, nrows=(1, 10)):
    n = n or rng.randint(1, 4)
    variables = tuple(f"x{i}" for i in range(n))
    nrows = rng.randint(*nrows)
    rows = []
    point = [Rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] \
        if planted else None
    for _ in range(nrows):
        coeffs = tuple(Rat(rng.randint(-4, 4)) for _ in range(n))
        relation = ">" if rng.random() < 0.4 else ">="
        if planted:
            value = sum((c * x for c, x in zip(coeffs, point)), Rat(0))
            slack = Rat(rng.randint(0, 4), rng.randint(1, 2))
            if relation == ">":
                slack += Rat(1, rng.randint(1, 3))
            constant = value - slack
        else:
            constant = Rat(rng.randint(-5, 5))
        rows.append(Row(coeffs, constant, relation))
    return LinearSystem(variables, tuple(rows)), point


def test_soundness_planted_feasible_never_infeasible():
    rng = random.Random(1234)
    for _ in range(200):
        system, point = _random_system(rng, planted=True)
        outcome = check_feasibility(system)
        assert isinstance(outcome, Feasible), system.pretty()
        witness = [outcome.witness[v] for v in system.variables]
        assert all(row.evaluate(witness) for row in system.rows)


def test_oracle_agreement_on_random_systems():
    rng = random.Random(555)
    feasible_count = 0
    for _ in range(100):
        system, _ = _random_system(rng)
        fm = isinstance(check_feasibility(system), Feasible)
        oracle = feasible_by_vertex_enumeration(system)
        assert fm == oracle, system.pretty()
        feasible_count += fm
    assert 0 < feasible_count < 100   # the sample exercises both verdicts


def test_oracle_agreement_on_five_variable_systems():
    # 5 variables and 8-13 rows: Chernikov's rule skips pairs in 33 of these
    # 40 systems, where _random_system's at most 4 variables seldom let it.
    rng = random.Random(2626)
    feasible_count = 0
    for _ in range(40):
        system, _ = _random_system(rng, n=5, nrows=(8, 13))
        outcome = check_feasibility(system)
        if isinstance(outcome, Feasible):
            witness = [outcome.witness[v] for v in system.variables]
            assert all(row.evaluate(witness) for row in system.rows)
            feasible_count += 1
        else:
            assert replay_certificate(system, outcome.certificate)
        assert isinstance(outcome, Feasible) == feasible_by_vertex_enumeration(system), \
            system.pretty()
    assert 0 < feasible_count < 40


def test_verdict_independent_of_elimination_order():
    # the pivot rule breaks fan-out ties by position, so permuting the
    # variable columns and the rows changes the elimination order
    rng = random.Random(77)
    import itertools
    for system in [_random_system(rng)[0] for _ in range(40)]:
        verdicts = set()
        for perm in itertools.islice(itertools.permutations(range(len(system.variables))), 6):
            rows = [Row(tuple(r.coeffs[j] for j in perm), r.constant, r.relation)
                    for r in system.rows]
            rng.shuffle(rows)
            permuted = LinearSystem(tuple(system.variables[j] for j in perm), tuple(rows))
            verdicts.add(isinstance(check_feasibility(permuted), Feasible))
        assert len(verdicts) == 1, system.pretty()


def test_pruning_does_not_change_verdict():
    rng = random.Random(4242)
    for _ in range(60):
        system, _ = _random_system(rng)
        fm = isinstance(check_feasibility(system), Feasible)
        assert fm == feasible_by_vertex_enumeration(system), system.pretty()


def test_certificates_replay_on_random_infeasible():
    rng = random.Random(31337)
    hits = 0
    while hits < 40:
        system, _ = _random_system(rng)
        outcome = check_feasibility(system)
        if isinstance(outcome, Infeasible):
            assert replay_certificate(system, outcome.certificate)
            hits += 1


def test_json_roundtrip():
    system = sys_of(("a1", "tau"), "2*a1 > tau", "tau >= 3", "a1 <= 1")
    assert LinearSystem.from_json(system.to_json()) == system
    outcome = check_feasibility(system)
    cert = outcome.certificate
    assert InfeasibilityCertificate.from_json(cert.to_json()) == cert


# --- integer certificate walk, replay and witness check ---------------------

def _rational_system(rng):
    """A random system whose entries have denominators up to 6."""
    variables = tuple(f"x{i}" for i in range(rng.randint(1, 4)))
    rows = tuple(Row(tuple(Rat(rng.randint(-4, 4), rng.randint(1, 6)) for _ in variables),
                     Rat(rng.randint(-5, 5), rng.randint(1, 6)), rng.choice((">", ">=")))
                 for _ in range(rng.randint(1, 9)))
    return LinearSystem(variables, rows)


def _fresh_primitive(row):
    values = (*row.coeffs, row.constant)
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints[:-1]), ints[-1] // g, scale, g


def _fraction_walk(system, parents, node):
    """Fraction weights walked down the kernel's parent pointers, then scaled
    back from each input row's primitive form to the row itself."""
    weights = {node: Rat(1)}
    for n in range(node, len(system.rows) - 1, -1):
        if n in weights:
            a, ma, b, mb, d = parents[n]
            share = weights.pop(n) / d
            weights[a] = weights.get(a, Rat(0)) + share * ma
            weights[b] = weights.get(b, Rat(0)) + share * mb
    return tuple(weights.get(i, Rat(0)) * Rat(*_fresh_primitive(row)[2:])
                 for i, row in enumerate(system.rows))


def _combination(system, multipliers) -> Row:
    """The row that nonnegative ``multipliers`` combine the rows into, summed in
    Fractions entry by entry."""
    *coeffs, constant = (sum((m * v for m, v in zip(multipliers, column)), Rat(0))
                         for column in zip(*((*r.coeffs, r.constant) for r in system.rows)))
    strict = any(m and r.relation == ">" for m, r in zip(multipliers, system.rows))
    return Row(tuple(coeffs), constant, ">" if strict else ">=")


def _fraction_replay(system, multipliers, derived):
    """The combination summed in Fractions; ``derived`` must be that combination."""
    if any(m < 0 for m in multipliers):
        return False
    row = _combination(system, multipliers)
    if (derived.coeffs, derived.constant, derived.relation) != (row.coeffs, row.constant,
                                                                row.relation):
        return False
    return not any(row.coeffs) and (row.constant > 0 or (row.relation == ">" and
                                                         row.constant >= 0))


def _walked_certificates(monkeypatch, count=60):
    """(system, certificate, Fraction walk) for the first ``count`` infeasible
    systems of a fixed-seed batch."""
    walks = []
    integer_walk = linsys._certificate

    def recording(system, parents, node):
        cert = integer_walk(system, parents, node)
        walks.append((system, cert, _fraction_walk(system, parents, node)))
        return cert

    monkeypatch.setattr(linsys, "_certificate", recording)
    rng = random.Random(9090)
    while len(walks) < count:
        check_feasibility(_rational_system(rng))
    return walks


def test_integer_walk_equals_a_fraction_walk(monkeypatch):
    walks = _walked_certificates(monkeypatch)
    assert any(m.denominator > 1 for _, cert, _ in walks for m in cert.multipliers)
    for system, cert, expected in walks:
        assert cert.multipliers == expected, system.pretty()
        assert all(type(m) is Rat for m in cert.multipliers)
        constant = sum((m * r.constant for m, r in zip(expected, system.rows)), Rat(0))
        assert cert.derived.constant == constant


def test_replay_agrees_with_a_fraction_sum_on_tampered_certificates(monkeypatch):
    verdicts = set()
    moved_strict = 0
    for system, cert, _ in _walked_certificates(monkeypatch):
        m = list(cert.multipliers)
        support = [i for i, x in enumerate(m) if x]
        i = support[0]
        other = (i + 1) % len(m)
        tampered = [m,
                    m[:i] + [m[i] + Rat(1, 7)] + m[i + 1:],   # nudged
                    m[:i] + [Rat(0)] + m[i + 1:],             # zeroed
                    m[:other] + [-Rat(1, 3)] + m[other + 1:]]  # negative
        strict = [j for j in support if system.rows[j].relation == ">"]
        if strict and len(m) > 1:                             # strict weight moved
            j = strict[0]
            k = (j + 1) % len(m)
            moved = list(m)
            moved[k], moved[j] = moved[k] + moved[j], Rat(0)
            tampered.append(moved)
            moved_strict += 1
        for multipliers in tampered:
            # the kernel's derived row, and the row these multipliers derive
            for derived in (cert.derived, _combination(system, multipliers)):
                attempt = InfeasibilityCertificate(tuple(multipliers), derived)
                verdict = replay_certificate(system, attempt)
                assert verdict == _fraction_replay(system, multipliers, derived), \
                    (system.pretty(), multipliers, derived)
                verdicts.add(verdict)
        assert replay_certificate(system, cert)
    assert verdicts == {True, False}
    assert moved_strict > 0


def test_replay_takes_plain_int_multipliers():
    system = sys_of(("x",), "x >= 1", "-x >= 0")
    derived = Row((Rat(0),), Rat(1), ">=")
    assert replay_certificate(system, InfeasibilityCertificate((1, 1), derived))
    assert replay_certificate(system, InfeasibilityCertificate((3, 3),
                                                               Row((Rat(0),), Rat(3), ">=")))
    assert not replay_certificate(system, InfeasibilityCertificate((1, 0), derived))
    assert not replay_certificate(system, InfeasibilityCertificate((1, -1), derived))
    halves = sys_of(("x",), "2*x >= 1", "-3*x > -1")   # x >= 1/2 and x < 1/3
    assert replay_certificate(halves, InfeasibilityCertificate((3, 2),
                                                               Row((Rat(0),), Rat(1), ">")))


def test_replay_rejects_a_combination_with_one_coefficient_left():
    # multiplier 1 on x >= 1 combines to 1*x + 0*y >= 1: not every
    # coefficient is nonzero, yet the combination still holds x
    system = sys_of(("x", "y"), "x >= 1", "-x - y >= 0")
    derived = Row((Rat(0), Rat(0)), Rat(1), ">=")
    assert not replay_certificate(system, InfeasibilityCertificate((Rat(1), Rat(0)), derived))


def test_replay_rejects_a_derived_row_with_one_coefficient_left():
    # the combination is 0 >= 1, but the derived row claims 1*x + 0*y >= 1
    system = sys_of(("x", "y"), "x >= 1", "-x >= 0")
    combined = Row((Rat(0), Rat(0)), Rat(1), ">=")
    assert replay_certificate(system, InfeasibilityCertificate((Rat(1), Rat(1)), combined))
    derived = Row((Rat(1), Rat(0)), Rat(1), ">=")
    assert not replay_certificate(system, InfeasibilityCertificate((Rat(1), Rat(1)), derived))


def test_row_primitive_is_computed_once_per_row():
    row = parse_row("x/6 - 2*y/3 >= 5/4", ("x", "y"))
    assert row.primitive == ((2, -8), 15, 12, 1)
    assert row.primitive is row.primitive
    assert parse_row("2*x + 4*y > 6", ("x", "y")).primitive == ((1, 2), 3, 1, 2)
    assert Row((Rat(0),), Rat(0), ">=").primitive == ((0,), 0, 1, 1)
    rng = random.Random(606)
    for _ in range(50):
        for r in _rational_system(rng).rows:
            assert r.primitive == _fresh_primitive(r)
    moved = replace(row, constant=Rat(7, 2))
    assert "primitive" not in vars(moved)
    assert moved.primitive == _fresh_primitive(moved) == ((1, -4), 21, 6, 1)


def test_evaluate_agrees_with_a_fraction_sum():
    rng = random.Random(808)
    for _ in range(300):
        system = _rational_system(rng)
        point = [Rat(rng.randint(-4, 4), rng.randint(1, 5)) for _ in system.variables]
        for row in system.rows:
            value = sum((c * x for c, x in zip(row.coeffs, point)), Rat(0))
            # the row as drawn, and the row moved onto the point
            for r in (row, replace(row, constant=value)):
                expected = value > r.constant if r.relation == ">" else value >= r.constant
                assert r.evaluate(point) == expected


def test_row_direction_is_computed_once_per_row():
    row = parse_row("2*x - 4*y >= 5", ("x", "y"))
    assert row.primitive == ((2, -4), 5, 1, 1)
    assert row.direction == ((1, -2), 2)
    assert row.direction is row.direction
    assert parse_row("0 > -1", ("x", "y")).direction == ((0, 0), 0)
    rng = random.Random(707)
    for _ in range(50):
        for r in _rational_system(rng).rows:
            coeffs = _fresh_primitive(r)[0]
            g = gcd(*coeffs)
            assert r.direction == ((tuple(c // g for c in coeffs) if g else coeffs), g)
    assert "direction" not in vars(replace(row, constant=Rat(1)))


def test_row_integer_ratios_are_computed_once_per_row():
    row = parse_row("x/6 - 2*y/3 >= 5/4", ("x", "y"))
    assert row.integer_ratios == (1, 6, -2, 3, 5, 4)
    assert row.integer_ratios is row.integer_ratios
    assert Row((Rat(0),), Rat(0), ">=").integer_ratios == (0, 1, 0, 1)
    rng = random.Random(505)
    for _ in range(50):
        for r in _rational_system(rng).rows:
            assert r.integer_ratios == tuple(
                x for v in (*r.coeffs, r.constant) for x in (v.numerator, v.denominator))
    moved = replace(row, constant=Rat(7, 2))
    assert "integer_ratios" not in vars(moved)
    assert moved.integer_ratios == (1, 6, -2, 3, 7, 2)


def test_self_checks_never_read_the_kernel_scaling():
    # after a solve, a row's ``primitive`` and ``direction`` are poisoned in
    # its ``__dict__``; the replay and the witness check must not notice
    rng = random.Random(9191)
    verdicts = set()
    for _ in range(150):
        system = _rational_system(rng)
        outcome = check_feasibility(system)
        points = [[Rat(rng.randint(-4, 4), rng.randint(1, 5)) for _ in system.variables]]
        certificates = []
        if isinstance(outcome, Feasible):
            points.append([outcome.witness[v] for v in system.variables])
        else:
            m, derived = outcome.certificate
            i = next(i for i, x in enumerate(m) if x)
            certificates = [InfeasibilityCertificate(c, derived) for c in (
                m, m[:i] + (m[i] + Rat(1, 7),) + m[i + 1:], m[:i] + (Rat(0),) + m[i + 1:])]

        def checks():
            return ([replay_certificate(system, c) for c in certificates]
                    + [row.evaluate(p) for p in points for row in system.rows])

        before = checks()
        for row in system.rows:
            vars(row)["primitive"] = vars(row)["direction"] = None
        assert checks() == before, system.pretty()
        verdicts.update(before)
    assert verdicts == {True, False}


def _script_rows(value):
    """Every ScriptRow reachable through the tuples of a loaded fixture."""
    if isinstance(value, ScriptRow):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _script_rows(item)


def _parse_both(text, variables, provenance=""):
    """The Row from parse_row and from the Fraction oracle, or for an error its
    type and whether it names a variable outside ``variables``."""
    out = []
    for parse in (parse_row, parse_row_by_fractions):
        try:
            out.append(parse(text, variables, provenance))
        except Exception as exc:  # noqa: BLE001 - the types are compared
            out.append((type(exc), "not among variables" in str(exc)))
    return out


def test_parse_row_agrees_with_fraction_oracle_on_fixture_rows():
    directory = fixture_dir()
    texts = []
    for path in sorted(directory.glob("*.yaml")):
        fixture = load_fixture(path.read_text(), name=path.stem)
        if fixture.script is None:
            continue
        for sr in _script_rows(fixture.script):
            if not sr.text.startswith("cartan("):   # generated, not parsed
                texts.append(sr.text)
                ours, oracle = _parse_both(sr.text, fixture.script.variables,
                                           sr.row.provenance)
                assert ours == oracle == sr.row, sr.text
                assert all(type(c) is Rat for c in (*ours.coeffs, ours.constant))
    assert len(texts) == 195


def _random_row_text(rng, variables):
    def term():
        coef = rng.choice(["", "", "3", "12", "0", "1/2", "5/3", "4/0", "7/1"])
        name = rng.choice([*variables, *variables, None, "zz"])
        if name is None:
            return coef or str(rng.randint(0, 9))
        star = "*" if coef and rng.random() < 0.5 else ""
        div = f"/{rng.choice([1, 2, 3, 6, 0])}" if rng.random() < 0.3 else ""
        return f"{coef}{star}{name}{div}"

    def side():
        parts = []
        for k in range(rng.randint(0, 4)):
            sign = rng.choice(["+", "-", "−", "-", "+"])
            if k == 0 and sign == "+":
                sign = ""
            parts.append(f"{sign}{rng.choice(['', ' '])}{term()}")
        text = rng.choice([" ", ""]).join(parts)
        if rng.random() < 0.03:
            text += rng.choice(["+", "--", "**x", "2/", "1//2"])
        return text or rng.choice(["0", ""])

    relation = rng.choice([">=", "<=", ">", "<"]) if rng.random() < 0.98 else "="
    return f"{side()} {relation} {side()}"


def test_parse_row_agrees_with_fraction_oracle_on_random_texts():
    rng = random.Random(2024)
    variables = ("a1", "a2", "m", "tau")
    kinds = set()
    for _ in range(2000):
        text = _random_row_text(rng, variables)
        ours, oracle = _parse_both(text, variables)
        assert ours == oracle, text
        kinds.add(oracle if isinstance(oracle, tuple) else oracle.relation)
        if isinstance(ours, Row):
            assert all(type(c) is Rat for c in (*ours.coeffs, ours.constant))
    # malformed texts and unknown variables: both ValueError, told apart by message
    assert kinds == {">=", ">", (ValueError, False), (ValueError, True)}



# --- the kernel's exact outputs, pinned -------------------------------------

def _pinned_corpus_system(rng):
    """1-5 variables, 1-10 rows; rational entries, about a third of them zero,
    so that levels with one empty side and zero fan-outs occur."""
    variables = tuple(f"x{i}" for i in range(rng.randint(1, 5)))

    def entry(low, high):
        return Rat(0) if rng.random() < 0.3 else Rat(rng.randint(low, high), rng.randint(1, 6))

    return LinearSystem(variables, tuple(
        Row(tuple(entry(-4, 4) for _ in variables), entry(-5, 5), rng.choice((">", ">=")))
        for _ in range(rng.randint(1, 10))))


def _outputs_digest(systems):
    return hashlib.sha256("\n".join(repr(check_feasibility(s)) for s in systems)
                          .encode()).hexdigest()


def test_kernel_outputs_are_pinned_on_a_random_corpus():
    # every witness coordinate and certificate multiplier, as repr prints it:
    # a change to the kernel that moves any of them changes this digest
    rng = random.Random(3100)
    systems = [_pinned_corpus_system(rng) for _ in range(300)]
    verdicts = [isinstance(check_feasibility(s), Feasible) for s in systems]
    assert 50 < sum(verdicts) < 250   # both verdicts are well represented
    assert _outputs_digest(systems) == \
        "d3df628e35fdfdb7f55541b28f058f3d9aed5b8ce4850fbcc722a6d63a0e29c0"


def test_kernel_outputs_are_pinned_on_the_bundled_leaves():
    cases = case_fixtures(load_all_fixtures(fixture_dir()))
    systems = [LinearSystem(f.script.variables, tuple(r.row for r in leaf.rows))
               for _, f in sorted(cases.items()) for leaf in materialize_leaves(f)]
    assert len(systems) == 117
    assert _outputs_digest(systems) == \
        "ef3ada3c45075cee04dfbffae16f532dfb1eb41a848813c46d927acad6708ad8"

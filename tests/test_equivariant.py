from fractions import Fraction as Rat

import pytest

from cubiclct.cli import fixture_dir, load_all_fixtures
from cubiclct.equivariant import (EliminationFails, NoReducedComponent,
                                  NotAPermutation, eliminate_invariant_curves,
                                  generated_group, invariant_threshold,
                                  invariant_upper_bound, orbit_partition)
from cubiclct.model import GroupData, GroupGenerator

FIXTURES = load_all_fixtures(fixture_dir())
CAYLEY = FIXTURES["cayley"]
XYZT3 = FIXTURES["xyzt3"]


def _line_gens(fixture):
    return [dict(g.lines) for g in fixture.group.generators]


def _lines(fixture):
    return [c.id for c in fixture.model.curves if c.kind == "line"]


def test_cayley_orbits_six_and_three():
    orbits = orbit_partition(_line_gens(CAYLEY), _lines(CAYLEY))
    assert sorted(len(o) for o in orbits) == [3, 6]


def test_xyzt3_line_orbit_transitive():
    orbits = orbit_partition(_line_gens(XYZT3), _lines(XYZT3))
    assert [len(o) for o in orbits] == [3]


def test_trivial_group_gives_singletons():
    labels = ["a", "b", "c"]
    orbits = orbit_partition([{x: x for x in labels}], labels)
    assert orbits == [["a"], ["b"], ["c"]]


def test_not_a_permutation():
    with pytest.raises(NotAPermutation):
        orbit_partition([{"a": "a", "b": "a"}], ["a", "b"])


def test_group_orders():
    cayley_image = generated_group(_line_gens(CAYLEY), _lines(CAYLEY))
    assert len(cayley_image) == 24
    xyz_image = generated_group(_line_gens(XYZT3), _lines(XYZT3))
    assert len(xyz_image) == 6


def test_orbit_sizes_divide_group_order():
    for fixture in (CAYLEY, XYZT3):
        gens = _line_gens(fixture)
        labels = _lines(fixture)
        order = len(generated_group(gens, labels))
        sizes = [len(o) for o in orbit_partition(gens, labels)]
        assert sum(sizes) == len(labels)
        assert all(order % s == 0 for s in sizes)


def test_invariant_upper_bound_is_one():
    assert invariant_upper_bound(CAYLEY.group, list(CAYLEY.group.invariant_divisor),
                                 _lines(CAYLEY)) == Rat(1)
    assert invariant_upper_bound(XYZT3.group, list(XYZT3.group.invariant_divisor),
                                 _lines(XYZT3)) == Rat(1)


def test_invariant_upper_bound_relabeling():
    relabel = {f"L{i}": f"K{i}" for i in (1, 2, 3)}
    gens = tuple(
        GroupGenerator(g.name, tuple((relabel[a], relabel[b]) for a, b in g.lines))
        for g in XYZT3.group.generators)
    group = GroupData("S3xZ3", 18, gens,
                      tuple((m, relabel[c]) for m, c in XYZT3.group.invariant_divisor))
    divisor = [(m, relabel[c]) for m, c in XYZT3.group.invariant_divisor]
    assert invariant_upper_bound(group, divisor, list(relabel.values())) == Rat(1)


def test_no_reduced_component():
    with pytest.raises(NoReducedComponent):
        invariant_upper_bound(XYZT3.group, [(Rat(3), "L1")], _lines(XYZT3))


def test_elimination_succeeds_on_both_fixtures():
    trace = eliminate_invariant_curves(CAYLEY.group, _lines(CAYLEY))
    assert sorted(trace.orbit_sizes) == [3, 6]
    assert trace.fixed_lines == ()
    trace = eliminate_invariant_curves(XYZT3.group, _lines(XYZT3))
    assert trace.orbit_sizes == (3,)


def test_elimination_fails_with_artificial_fixed_line():
    gens = (GroupGenerator("id", tuple((x, x) for x in ("L1", "L2", "L3"))),)
    group = GroupData("trivial", 1, gens, ((Rat(1), "L1"),))
    with pytest.raises(EliminationFails) as err:
        eliminate_invariant_curves(group, ["L1", "L2", "L3"])
    assert "L1" in str(err.value) or "degree" in str(err.value)


def test_invariant_threshold_cayley():
    result = invariant_threshold(CAYLEY)
    assert result.lct == Rat(1)
    assert result.image_order == 24
    assert result.ke == "KECertified"
    assert result.verified


def test_invariant_threshold_xyzt3():
    result = invariant_threshold(XYZT3)
    assert result.lct == Rat(1)
    assert result.image_order == 6
    assert result.ke == "KECertified"


def test_trivial_group_keeps_only_the_upper_bound():
    trivial_gen = GroupGenerator(
        "id", tuple((c.id, c.id) for c in CAYLEY.model.curves if c.kind == "line"))
    group = CAYLEY.group._replace(name="trivial", declared_order=1, generators=(trivial_gen,))
    fixture = CAYLEY._replace(group=group)
    result = invariant_threshold(fixture)
    assert result.lct is None
    assert result.upper == Rat(1)
    assert not result.verified
    assert result.elimination_error is not None

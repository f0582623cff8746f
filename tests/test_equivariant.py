import re
from fractions import Fraction as Rat
from pathlib import Path

from cubiclct.cli import fixture_dir, load_all_fixtures
from cubiclct.equivariant import invariant_threshold
from cubiclct.model import GroupGenerator, generated_group, load_fixture, validate_fixture

FIXTURES = load_all_fixtures(fixture_dir())
CAYLEY = FIXTURES["cayley"]
XYZT3 = FIXTURES["xyzt3"]


def _line_gens(fixture):
    return [dict(g.lines) for g in fixture.group.generators]


def _lines(fixture):
    return [c.id for c in fixture.model.curves if c.kind == "line"]


def _orbits(gens, labels):
    """Each label's orbit, read off the generated group as invariant_threshold reads it."""
    image = generated_group(gens, labels)
    return {frozenset(g[x] for g in image) for x in labels}


def test_cayley_orbits_six_and_three():
    assert sorted(map(len, _orbits(_line_gens(CAYLEY), _lines(CAYLEY)))) == [3, 6]


def test_xyzt3_line_orbit_transitive():
    assert _orbits(_line_gens(XYZT3), _lines(XYZT3)) == {frozenset(_lines(XYZT3))}


def test_trivial_group_gives_singletons():
    labels = ["a", "b", "c"]
    assert _orbits([{x: x for x in labels}], labels) == {frozenset(x) for x in labels}


def _with_group(fixture, **fields):
    return fixture._replace(group=fixture.group._replace(**fields))


def test_not_a_permutation():
    # swap_xy sends L1 and L2 to L2: a finding that names it, and no other
    # group check is made on a map that is no permutation
    swap_xy, *rest = XYZT3.group.generators
    bad = swap_xy._replace(lines=(("L1", "L2"), ("L2", "L2"), ("L3", "L3")))
    fixture = _with_group(XYZT3, generators=(bad, *rest))
    assert validate_fixture(fixture) == [
        "group: generator swap_xy is not a permutation of the 3 lines"]


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
        sizes = [len(o) for o in _orbits(gens, labels)]
        assert sum(sizes) == len(labels)
        assert all(order % s == 0 for s in sizes)


def test_relabelled_xyzt3_validates_with_threshold_one():
    text = Path(str(fixture_dir() / "xyzt3.yaml")).read_text()
    relabelled = load_fixture(re.sub(r"\bL([123])\b", r"K\1", text), name="xyzt3")
    assert _lines(relabelled) == ["K1", "K2", "K3"]
    assert validate_fixture(relabelled) == []
    result = invariant_threshold(relabelled)
    assert (result.upper, result.lct, result.image_order) == (Rat(1), Rat(1), 6)


def test_no_reduced_component():
    fixture = _with_group(XYZT3, invariant_divisor=((Rat(3), "L1"),))
    assert "group: invariant divisor has no component of multiplicity 1" in \
        validate_fixture(fixture)


def test_divisor_moved_by_a_generator_is_a_finding_that_names_it():
    # only line terms are compared; cycle_xyz and swap_xy move L1 + 2*L2, zeta_t does not.
    # L1 + 2*L2 is no declared equivalence either, which is its own finding.
    fixture = _with_group(XYZT3, invariant_divisor=((Rat(1), "L1"), (Rat(2), "L2")))
    assert validate_fixture(fixture) == [
        "group: invariant divisor does not match any declared equivalence",
        "group: invariant divisor moves under generator swap_xy",
        "group: invariant divisor moves under generator cycle_xyz"]


def test_image_order_must_divide_the_declared_order():
    assert validate_fixture(_with_group(CAYLEY, declared_order=36)) == [
        "group: image order 24 does not divide declared order 36"]
    assert validate_fixture(_with_group(CAYLEY, declared_order=48)) == []


def test_elimination_succeeds_on_both_fixtures():
    for fixture in (CAYLEY, XYZT3):
        assert invariant_threshold(fixture).elimination == (
            "no invariant curve of degree < 3: line orbits have size >= 3, "
            "and no fixed line exists to pair with an invariant conic")


def test_elimination_fails_with_artificial_fixed_line():
    # swap_xy alone fixes L3, which could be the residual line of an invariant conic
    fixture = _with_group(XYZT3, generators=XYZT3.group.generators[:1])
    assert validate_fixture(fixture) == []
    result = invariant_threshold(fixture)
    assert (result.lct, result.ke, result.image_order) == (None, None, 2)
    assert result.elimination == "invariant union of lines ['L3'] has degree 1 <= 2"


def test_line_orbit_of_two_does_not_certify():
    # an artificial generator whose smallest line orbit is the pair L12, L34:
    # an invariant union of two lines has degree 2 < 3, so only the bound 1 stands
    pairs = GroupGenerator("pairs", (("L12", "L34"), ("L34", "L12"), ("L13", "L24"),
                                     ("L24", "L13"), ("L14", "L23"), ("L23", "L14"),
                                     ("M1", "M2"), ("M2", "M3"), ("M3", "M1")))
    fixture = _with_group(CAYLEY, generators=(pairs,))
    assert validate_fixture(fixture) == []
    result = invariant_threshold(fixture)
    assert (result.lct, result.ke, result.image_order) == (None, None, 6)
    assert result.elimination == "invariant union of lines ['L12', 'L34'] has degree 2 <= 2"


def test_negative_multiplicity_in_the_invariant_divisor_is_a_finding():
    # T + sum(Lij) - 2*(M1 + M2 + M3) has degree 3, a component of
    # multiplicity 1, and is S4-invariant; only its sign makes it no divisor
    text = Path(str(fixture_dir() / "cayley.yaml")).read_text()
    terms = ('[["1", T], ["1", L12], ["1", L13], ["1", L14], ["1", L23], ["1", L24], '
             '["1", L34], ["-2", M1], ["-2", M2], ["-2", M3]]')
    old_eq, old_div = '  - [["1", T]]\n', 'invariant_divisor: [["1", T]]'
    assert text.count(old_eq) == text.count(old_div) == 1
    fixture = load_fixture(text.replace(old_eq, old_eq + f"  - {terms}\n")
                           .replace(old_div, f"invariant_divisor: {terms}"), name="cayley")
    assert validate_fixture(fixture) == ["equivalences[3]: negative multiplicity"]


def test_invariant_threshold_cayley():
    result = invariant_threshold(CAYLEY)
    assert result.upper == result.lct == Rat(1)
    assert result.image_order == 24
    assert result.ke == "KECertified"
    assert result.verified


def test_invariant_threshold_xyzt3():
    result = invariant_threshold(XYZT3)
    assert result.upper == result.lct == Rat(1)
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
    assert result.elimination == "invariant union of lines ['L12'] has degree 1 <= 2"

from dataclasses import replace
from fractions import Fraction as Rat
from pathlib import Path

import pytest
import yaml

from cubiclct import model
from cubiclct.cli import case_fixtures, fixture_dir, load_all_fixtures
from cubiclct.engine import witness_lct_upper
from cubiclct.model import (ADMISSIBLE_PROFILES, DanglingReference, ParseError,
                            SingularityProfile, intersection_number, load_fixture,
                            profile_key, serialize_fixture, validate_fixture)

FIXTURES = load_all_fixtures(fixture_dir())
# the libyaml parser when PyYAML has it, and always the pure-Python fallback
LOADERS = ([yaml.CSafeLoader] if yaml.__with_libyaml__ else []) + [yaml.SafeLoader]


def test_seventeen_case_fixtures_plus_group_and_fiber():
    cases = [f for f in FIXTURES.values() if f.script is not None]
    group = [f for f in FIXTURES.values() if f.group is not None]
    fiber = [f for f in FIXTURES.values() if f.fiberwise is not None]
    assert len(cases) == 17
    assert len(group) == 2
    assert len(fiber) == 3


def test_shipped_a5_fixture_shape():
    f = FIXTURES["a5"]
    assert f.model.profile.key == "A5"
    assert sum(1 for c in f.model.curves if c.kind == "line") == 3
    assert any(eq.terms == ((Rat(3), "L3"),) for eq in f.model.equivalences)


def test_profile_key_is_canonical():
    assert profile_key(["A1", "A5"]) == "A5+A1"
    assert profile_key(["A2", "A1", "A2"]) == "A2+A2+A1"
    assert SingularityProfile.of(["A1", "A4"]).key == "A4+A1"


def test_all_shipped_fixtures_validate_clean():
    for name, fixture in sorted(FIXTURES.items()):
        assert validate_fixture(fixture) == [], name


def test_shipped_profiles_are_admissible():
    for fixture in FIXTURES.values():
        assert fixture.model.profile.key in ADMISSIBLE_PROFILES


def test_equivalence_degrees_are_three():
    for name, fixture in FIXTURES.items():
        for eq in fixture.model.equivalences:
            assert eq.degree(fixture.model.curve_map) == 3, name


def test_roundtrip_serialization():
    for name, fixture in sorted(FIXTURES.items()):
        text = serialize_fixture(fixture)
        again = load_fixture(text, name=fixture.name)
        assert again == fixture, name


def test_empty_document_is_a_parse_error():
    with pytest.raises(ParseError):
        load_fixture("")
    with pytest.raises(ParseError):
        load_fixture("- just\n- a list\n")


def test_dangling_curve_reference():
    doc = """
profile: [A1]
points:
  O: {type: A1}
curves:
  - {id: L1, kind: line, incidence: {O: [1]}}
equivalences:
  - [["1", L1], ["2", L9]]
"""
    with pytest.raises(DanglingReference):
        load_fixture(doc)
    # the fixture name is added in one place, and the exception keeps its type
    with pytest.raises(DanglingReference, match=r"^doc: equivalences\[0\]\[1\]: unknown "
                                                r"curve 'L9'$"):
        load_fixture(doc, name="doc")


def test_loaders_agree_on_every_bundled_fixture(monkeypatch):
    # FIXTURES were loaded with the default loader, libyaml's when present
    if yaml.__with_libyaml__:
        assert model.YAML_LOADER is yaml.CSafeLoader
    texts = {p.stem: p.read_text() for p in sorted(Path(str(fixture_dir())).glob("*.yaml"))}
    assert len(texts) == 22
    for loader in LOADERS:
        monkeypatch.setattr(model, "YAML_LOADER", loader)
        loaded = {name: load_fixture(text, name=name) for name, text in texts.items()}
        assert loaded == FIXTURES, loader.__name__


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_malformed_yaml_is_located_under_each_loader(monkeypatch, loader):
    monkeypatch.setattr(model, "YAML_LOADER", loader)
    text = Path(str(fixture_dir() / "a3.yaml")).read_text()
    old = "  - {id: L3, kind: line, incidence: {O: [0, 1, 0]}}"
    assert old in text
    with pytest.raises(ParseError) as info:
        load_fixture(text.replace(old, old[:-1]), name="a3")
    message = str(info.value)
    assert message.startswith("a3: invalid YAML: ")
    assert "line 13, column 5" in message   # the flow mapping left open
    assert "line 14, column 3" in message   # where a ',' or '}' was expected


def test_degree_mismatch_is_a_finding():
    doc = """
profile: [A1]
points:
  O: {type: A1}
curves:
  - {id: L1, kind: line, incidence: {O: [1]}}
  - {id: L2, kind: line}
equivalences:
  - [["1", L1], ["1", L2]]
"""
    findings = validate_fixture(load_fixture(doc))
    assert any("degree mismatch" in f for f in findings)


def test_intersection_audit_catches_bad_incidence():
    # A5 with the witness line attached to the wrong node: -K.L3 recomputed
    # through 3*L3 comes out wrong
    doc = """
profile: [A5]
points:
  O: {type: A5}
curves:
  - {id: L3, kind: line, incidence: {O: [0, 0, 1, 0, 0]}}
equivalences:
  - [["3", L3]]
"""
    findings = validate_fixture(load_fixture(doc))
    assert any("-K.L3" in f for f in findings)


def test_wrong_length_incidence_is_a_finding_not_an_error():
    doc = """
profile: [A5]
points:
  O: {type: A5}
curves:
  - {id: L3, kind: line, incidence: {O: [0, 0, 1, 0]}}
equivalences:
  - [["3", L3]]
"""
    findings = validate_fixture(load_fixture(doc))
    assert "curve L3: incidence at O has wrong length" in findings


def _mutants(fixture):
    """Each incidence entry and each witness multiplicity moved by +1 and -1."""
    model = fixture.model
    for ci, curve in enumerate(model.curves):
        for pi, (pid, vec) in enumerate(curve.incidence):
            for i in range(len(vec)):
                for d in (1, -1):
                    inc = list(curve.incidence)
                    inc[pi] = (pid, vec[:i] + (vec[i] + d,) + vec[i + 1:])
                    curves = list(model.curves)
                    curves[ci] = replace(curve, incidence=tuple(inc))
                    yield (f"{curve.id}@{pid}[{i}]{d:+d}",
                           replace(fixture, model=replace(model, curves=tuple(curves))))
    boundary = fixture.witness.boundary
    for j, (m, cid) in enumerate(boundary.terms):
        for d in (1, -1):
            terms = list(boundary.terms)
            terms[j] = (m + d, cid)
            witness = replace(fixture.witness, boundary=replace(boundary, terms=tuple(terms)))
            yield f"witness {cid}{d:+d}", replace(fixture, witness=witness)


def test_mutated_case_fixtures_are_flagged_without_raising():
    total, misses = 0, []
    for key, fixture in sorted(case_fixtures(FIXTURES).items()):
        bound = witness_lct_upper(fixture.model, fixture.witness).value
        for label, mutant in _mutants(fixture):
            total += 1
            if validate_fixture(mutant):
                continue
            if witness_lct_upper(mutant.model, mutant.witness).value == bound:
                misses.append(f"{key} {label}")
    assert total == 448
    # The misses are curves in no declared equivalence and not in the
    # witness (A3 L4/L5, A4+A1 L1, A5 L2); nothing checks their incidences.
    assert total - len(misses) >= 427, misses


def test_intersection_numbers_match_hand_values():
    a5 = FIXTURES["a5"]
    model = a5.model
    l3 = model.curve("L3")
    c3 = model.curve("C3")
    assert intersection_number(model, l3, l3) == Rat(1, 3)
    assert intersection_number(model, l3, c3) == Rat(2, 3)
    assert intersection_number(model, c3, c3) == Rat(4, 3)


def test_orientation_marker_normalizes_reversed_chains():
    standard = """
profile: [A5]
points:
  O: {type: A5}
curves:
  - {id: L3, kind: line, incidence: {O: [0, 0, 0, 1, 0]}}
equivalences:
  - [["3", L3]]
"""
    reversed_doc = """
profile: [A5]
points:
  O: {type: A5, orientation: reversed}
curves:
  - {id: L3, kind: line, incidence: {O: [0, 1, 0, 0, 0]}}
equivalences:
  - [["3", L3]]
"""
    a = load_fixture(standard)
    b = load_fixture(reversed_doc)
    assert a.model.curve("L3").incidence_at("O") == b.model.curve("L3").incidence_at("O")
    assert validate_fixture(b) == []


def test_tau_floor_must_be_reciprocal_of_omega():
    doc = Path(str(fixture_dir() / "a2.yaml")).read_text().replace(
        'tau_floor: "2"', 'tau_floor: "3"')
    findings = validate_fixture(load_fixture(doc))
    assert any("tau_floor" in f for f in findings)


def test_generated_scripts_carry_the_nef_rows():
    # the loader cross-checks fixture nef rows against the lattice
    bad = Path(str(fixture_dir() / "a2.yaml")).read_text().replace(
        '    - {row: "2*a2 - a1 >= 0", note: "E2.Dbar >= 0", redundant: true}\n', "")
    findings = validate_fixture(load_fixture(bad))
    assert any("nef row" in f for f in findings)

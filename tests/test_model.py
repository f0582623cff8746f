import re
from fractions import Fraction as Rat
from pathlib import Path

import pytest
import yaml

from cubiclct import model
from cubiclct.cli import case_fixtures, fixture_dir, load_all_fixtures
from cubiclct.engine import witness_lct_upper
from cubiclct.model import (ADMISSIBLE_PROFILES, ParseError, SingularityProfile,
                            _pullback_cache, intersection_number,
                            load_fixture, profile_key, validate_fixture)

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
    with pytest.raises(ParseError, match=r"^<fixture>: equivalences\[0\]\[1\]: unknown "
                                         r"curve 'L9'$"):
        load_fixture(doc)
    # the fixture name is added in one place
    with pytest.raises(ParseError, match=r"^doc: equivalences\[0\]\[1\]: unknown "
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
    assert "line 12, column 5" in message   # the flow mapping left open
    assert "line 13, column 3" in message   # where a ',' or '}' was expected


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("old, new, where", [
    ("profile: [A3]", "profile: [A3]\nprofile: [A2]", "line 7, column 1"),
    ("{id: L5, kind: line, incidence: {O: [0, 0, 1]}}",
     "{id: L5, kind: line, incidence: {O: [0, 0, 1], O: [1, 0, 0]}}", "line 14, column 52"),
    ("{id: L5, kind: line, incidence: {O: [0, 0, 1]}}",
     "{<<: {kind: conic}, id: L5, kind: line, incidence: {O: [0, 0, 1]}, id: L6}",
     "line 14, column 72"),
], ids=["profile", "incidence", "after a merge"])
def test_repeated_key_is_located_parse_error(monkeypatch, loader, old, new, where):
    monkeypatch.setattr(model, "YAML_LOADER", loader)
    text = Path(str(fixture_dir() / "a3.yaml")).read_text()
    assert text.count(old) == 1
    with pytest.raises(ParseError) as info:
        load_fixture(text.replace(old, new), name="a3")
    message = str(info.value)
    assert message.startswith("a3: invalid YAML: ")
    assert "found duplicate key" in message
    assert where in message


def test_merged_key_may_still_be_overridden():
    doc = load_fixture("""
profile: [A1]
points:
  O: {type: A1}
curves:
  - &line {id: L1, kind: line, incidence: {O: [1]}}
  - {<<: *line, id: L2, kind: conic}
""")
    assert [(c.id, c.kind) for c in doc.model.curves] == [("L1", "line"), ("L2", "conic")]


@pytest.mark.parametrize("name, old, new, message", [
    ("fiber_e6", "map: {x: 2,", "map: {x: 2.0,",
     "fiber_e6: fiberwise.map.x: expected an integer, got 2.0"),
    ("fiber_e6", "expected_k: 6", "expected_k: 6.5",
     "fiber_e6: fiberwise.expected_k: expected an integer, got 6.5"),
    ("fiber_e6", '["1", [0, 0, 0, 3, 12]]', '["1", [0, 0, 0, 3, 12.5]]',
     "fiber_e6: fiberwise.source_poly[3][1][4]: expected an integer, got 12.5"),
    ("cayley", "declared_order: 24", "declared_order: true",
     "cayley: group.declared_order: expected an integer, got True"),
    ("a1", "{curve: L1, mult: 1}", "{curve: L1, mult: 1.5}",
     "a1: witness.tower[0].through[0].mult: expected an integer, got 1.5"),
])
def test_integer_fields_take_yaml_ints_only(name, old, new, message):
    text = Path(str(fixture_dir() / f"{name}.yaml")).read_text()
    assert old in text
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_fixture(text.replace(old, new), name=name)


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
                    curves[ci] = curve._replace(incidence=tuple(inc))
                    yield (f"{curve.id}@{pid}[{i}]{d:+d}",
                           fixture._replace(model=model._replace(curves=tuple(curves))))
    boundary = fixture.witness.boundary
    for j, (m, cid) in enumerate(boundary.terms):
        for d in (1, -1):
            terms = list(boundary.terms)
            terms[j] = (m + d, cid)
            witness = fixture.witness._replace(boundary=boundary._replace(terms=tuple(terms)))
            yield f"witness {cid}{d:+d}", fixture._replace(witness=witness)


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
    l3, c3 = model.curve_map["L3"], model.curve_map["C3"]
    cache = _pullback_cache(model)
    assert intersection_number(model, l3, l3, cache) == Rat(1, 3)
    assert intersection_number(model, l3, c3, cache) == Rat(2, 3)
    assert intersection_number(model, c3, c3, cache) == Rat(4, 3)


def test_generated_scripts_carry_the_nef_rows():
    # the loader cross-checks fixture nef rows against the lattice
    bad = Path(str(fixture_dir() / "a2.yaml")).read_text().replace(
        '    - {row: "2*a2 - a1 >= 0", note: "E2.Dbar >= 0", redundant: true}\n', "")
    findings = validate_fixture(load_fixture(bad))
    assert any("nef row" in f for f in findings)


def test_every_generate_block_carries_the_nef_rows():
    # a5a1 once transcribed its chain case split; its generate block is checked too
    bad = Path(str(fixture_dir() / "a5a1.yaml")).read_text().replace(
        '    - {row: "2*a3 - a2 - a4 >= 0", note: "E3.Dbar >= 0"}\n', "")
    findings = validate_fixture(load_fixture(bad))
    assert findings == ["script: nef row for node 3 at O missing or mistyped"]


def test_every_a_n_chain_split_is_generated():
    # the five former generated scripts and the seven that once transcribed it
    generated = [name for name, f in sorted(FIXTURES.items())
                 if f.script and any(b.generate == "O" for b in f.script.blocks)]
    assert generated == ["a2", "a2a1", "a2a1a1", "a2a2", "a2a2a1", "a3", "a3a1", "a3a1a1",
                         "a4", "a4a1", "a5", "a5a1"]


A3_SCRIPT = """
profile: [A3]
points:
  O: {type: A3}
  P: {type: D4}
curves:
  - {id: L1, kind: line, incidence: {O: [1, 0, 0]}}
witness:
  divisor: [["3", L1]]
script:
  variables: [a1, a2, a3, tau]
  blocks:
    - generate: O
"""


@pytest.mark.parametrize("old, new, message", [
    ("generate: O", "generate: Q",
     "script.blocks[0].generate: unknown point 'Q'"),
    ("generate: O", "generate: [O]",
     "script.blocks[0].generate: expected a string, got ['O']"),
    ("generate: O", "generate: P",
     "script.blocks[0].generate: case generation needs an A_n point, got D4"),
    ("generate: O", "generate: O\n      branches: []",
     "script.blocks[0]: a block gives branches or generate, not both"),
    ("[a1, a2, a3, tau]", "[a1, a3, tau]",
     "script.blocks[0].generate: script variables lack a2"),
    ("[a1, a2, a3, tau]", "[a1, a2, a3]",
     "script.blocks[0].generate: script variables lack tau"),
    ("  blocks:\n    - generate: O\n", "", "script: needs at least one block"),
    ("  blocks:", "  alternatives: []\n  blocks:",
     "script: unknown key 'alternatives'"),
    ("  blocks:", "  mode: generated\n  blocks:", "script: unknown key 'mode'"),
    ("generate: O", "generate: O\n      alternative: []",
     "script.blocks[0]: unknown key 'alternative'"),
    # a YAML string is no list of names: "mtau" was once split into four variables
    ("[a1, a2, a3, tau]", "mtau", "script.variables: expected a list, got 'mtau'"),
    ("[a1, a2, a3, tau]", "[a1, 2, a3, tau]",
     "script.variables[1]: expected a string, got 2"),
    ("[a1, a2, a3, tau]", "[a1, a2, a1, a3, tau]",
     "script.variables: repeated name in ['a1', 'a2', 'a1', 'a3', 'tau']"),
    ("  blocks:", "  base_rows: 5\n  blocks:",
     "script.base_rows: expected a list, got 5"),
    ("  blocks:", "  assumptions: [tag]\n  blocks:",
     "script.assumptions[0]: expected a mapping, got 'tag'"),
    ("generate: O", "generate: O\n      alternatives: [name]",
     "script.blocks[0].alternatives[0]: expected a mapping, got 'name'"),
], ids=["unknown point", "unhashable point", "non-chain point", "with branches",
        "no a2", "no tau", "no blocks", "top-level alternatives", "mode key",
        "unknown block key", "variables string", "variable not a string",
        "repeated variable", "rows not a list", "assumption not a mapping",
        "alternative not a mapping"])
def test_malformed_script_is_located_parse_error(old, new, message):
    assert A3_SCRIPT.count(old) == 1
    with pytest.raises(ParseError, match=f"^{re.escape('doc: ' + message)}$"):
        load_fixture(A3_SCRIPT.replace(old, new), name="doc")


@pytest.mark.parametrize("name, old, new, message", [
    ("a3a1", "  - {id: L2, kind: line, incidence: {O: [0, 1, 0]}}\n",
     "  - {id: L2, kind: line, incidence: {O: [0, 1, 0]}}\n" * 2,
     "curves[2].id: repeated id 'L2'"),
    ("e6", "- name: smooth point of multiplicity above tau",
     "- name: curve of multiplicity above tau",
     "script.blocks[0].branches[1].name: repeated name 'curve of multiplicity above tau'"),
    ("a3", "- name: one end line off the support at each end",
     "- name: middle line off the support",
     "script.blocks[0].alternatives[1].name: repeated name 'middle line off the support'"),
    ("e6", "  blocks:\n", "  blocks:\n    - {name: arithmetic exclusions away from the "
     "singular point, branches: [{name: other, rows: []}]}\n",
     "script.blocks[1].name: repeated name 'arithmetic exclusions away from the singular point'"),
    ("a1", "  blocks:\n", "  blocks:\n    - branches: [{name: p, rows: []}]\n"
     "    - branches: [{name: q, rows: []}]\n", "script.blocks[1].name: repeated name ''"),
    ("a3", '  - [["1", L1], ["1", L2], ["1", L3]]\n',
     '  - [["1", L1], ["1", L2], ["1", L3]]\n  - [["1", L3], ["1", L1], ["1", L2]]\n',
     "equivalences[1]: repeated entry '1*L1 + 1*L2 + 1*L3'"),
    ("a1", "        - {exceptional: E1}\n",
     "        - {exceptional: E1}\n    - {name: F1, point: O, through: [{exceptional: F1}]}\n",
     "witness.tower[1].name: repeated name 'F1'"),
    ("a3a1", '  - [["2", L1], ["1", L2]]\n', '  - [["1", L1], ["1", L1], ["1", L2]]\n',
     "equivalences[0][1]: repeated entry 'L1'"),
    ("a3a1", 'divisor: [["2", L1], ["1", L2]]', 'divisor: [["1", L1], ["1", L1], ["1", L2]]',
     "witness.divisor[1]: repeated entry 'L1'"),
], ids=["curve id", "branch name", "alternative name", "block name", "unnamed block",
        "equivalence", "tower step", "equivalence curve", "witness curve"])
def test_repeated_id_or_leaf_name_is_located_parse_error(name, old, new, message):
    # a repeated curve once loaded and verified; a repeated name gave two leaves of one
    # name, and a block listed twice verified its leaves twice under two names; a
    # repeated tower step gave two ratios of one name; a curve named twice in a
    # divisor split its multiplicity, and the witness ratio of 2*L1 read 1, not 1/2
    text = Path(str(fixture_dir() / f"{name}.yaml")).read_text()
    assert text.count(old) == 1
    with pytest.raises(ParseError, match=f"^{re.escape(f'{name}: {message}')}$"):
        load_fixture(text.replace(old, new), name=name)


def test_tower_node_names_resolve_at_load():
    # a bare node name is the node of its step's point; a qualified name and
    # a step name stay as written
    assert FIXTURES["a1"].witness.tower[0].exceptionals == ("O:E1",)
    old = "        - {exceptional: E1}\n"
    text = Path(str(fixture_dir() / "a1.yaml")).read_text()
    text = text.replace(old, '        - {exceptional: "O:E1"}\n'
                        "    - {name: F2, point: O, through: [{exceptional: F1}, "
                        "{exceptional: E1}]}\n")
    tower = load_fixture(text, name="a1").witness.tower
    assert [step.exceptionals for step in tower] == [("O:E1",), ("F1", "O:E1")]


_THROUGH_E1 = "        - {exceptional: E1}\n"


@pytest.mark.parametrize("new, message", [
    ("        - {exceptional: E9}\n", "unknown divisor 'E9'"),
    ('        - {exceptional: "O:E2"}\n', "unknown divisor 'O:E2'"),
    ('        - {exceptional: "P:E1"}\n', "unknown divisor 'P:E1'"),
    ("        - {exceptional: F1}\n", "unknown divisor 'F1'"),
    ("        - {exceptional: F2}\n    - {name: F2, point: O, through: [{exceptional: E1}]}\n",
     "unknown divisor 'F2'"),
], ids=["node not in the type", "qualified node not in the type", "undeclared point",
        "own step", "later step"])
def test_tower_divisor_must_be_a_node_or_an_earlier_step(new, message):
    # each once loaded, and failed only when the witness bound was computed
    text = Path(str(fixture_dir() / "a1.yaml")).read_text()
    assert text.count(_THROUGH_E1) == 1
    with pytest.raises(ParseError, match=re.escape(
            f"a1: witness.tower[0].through[2].exceptional: {message}") + "$"):
        load_fixture(text.replace(_THROUGH_E1, new), name="a1")


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("tagged, problem", [
    ("!!timestamp a3", "cannot construct tag:yaml.org,2002:timestamp 'a3'"),
    ("!!bool maybe", "cannot construct tag:yaml.org,2002:bool 'maybe'"),
    ("!!int x3", "cannot construct tag:yaml.org,2002:int 'x3'"),
    ('!!int ""', "cannot construct tag:yaml.org,2002:int ''"),
])
def test_explicit_tag_on_a_bad_value_is_located_invalid_yaml(monkeypatch, loader, tagged, problem):
    monkeypatch.setattr(model, "YAML_LOADER", loader)
    text = Path(str(fixture_dir() / "a3.yaml")).read_text()
    assert "\nname: a3\n" in text
    with pytest.raises(ParseError) as info:
        load_fixture(text.replace("\nname: a3\n", f"\nname: {tagged}\n"), name="a3")
    message = str(info.value)
    assert message.startswith(f"a3: invalid YAML: {problem}: ")
    assert "line 5, column 7" in message


@pytest.mark.parametrize("name, old, new, message", [
    ("fiber_e6", "log_terminal: [true, true]", 'log_terminal: ["false", true]',
     "fiber_e6: fiberwise.log_terminal[0]: expected true or false, got 'false'"),
    ("fiber_e6", "log_terminal: [true, true]", "log_terminal: [true, 1]",
     "fiber_e6: fiberwise.log_terminal[1]: expected true or false, got 1"),
    ("fiber_e6", "log_terminal: [true, true]", "log_terminal: true",
     "fiber_e6: fiberwise.log_terminal: expected a list, got True"),
    ("a1", 'note: "D effective", redundant: true}', 'note: "D effective", redundant: "false"}',
     "a1: script.blocks[1].branches[0].rows[0].redundant: expected true or false, "
     "got 'false'"),
])
def test_boolean_fields_take_yaml_booleans_only(name, old, new, message):
    text = Path(str(fixture_dir() / f"{name}.yaml")).read_text()
    assert old in text
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_fixture(text.replace(old, new, 1), name=name)


_ONE_LINE = """profile: [A1]
points:
  O: {type: A1}
curves:
  - &line {id: L1, kind: line, incidence: {O: [1]}}
"""
_L1 = ("L1", "line", (("O", (1,)),))


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text, name, curves", [
    # an alias of L1's incidence; an alias of the whole curve would repeat its id
    (_ONE_LINE.replace("{O: [1]}", "&inc {O: [1]}") + "  - {id: L2, kind: conic, incidence: *inc}\n",
     "doc", [_L1, ("L2", "conic", (("O", (1,)),))]),
    # of two merged mappings the first listed wins; a written key overrides both
    (_ONE_LINE + "  - &conic {id: L2, kind: conic}\n  - {<<: [*conic, *line], id: L3}\n",
     "doc", [_L1, ("L2", "conic", ()), ("L3", "conic", (("O", (1,)),))]),
    (_ONE_LINE.replace("profile: [A1]", "profile: [A1]\nname: !!str 1")
     + '  - {id: L2, kind: conic, incidence: {O: [!!int "3"]}}\n',
     "1", [_L1, ("L2", "conic", (("O", (3,)),))]),
], ids=["aliased curve", "merge of two", "explicit str and int tags"])
def test_aliases_merges_and_tags_load_their_values(monkeypatch, loader, text, name, curves):
    monkeypatch.setattr(model, "YAML_LOADER", loader)
    fixture = load_fixture(text, name="doc")
    assert fixture.name == name
    assert [(c.id, c.kind, c.incidence) for c in fixture.model.curves] == curves


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_recursive_alias_is_read_as_the_same_list(monkeypatch, loader):
    monkeypatch.setattr(model, "YAML_LOADER", loader)
    with pytest.raises(ParseError, match=re.escape("doc: profile[1]: bad ADE label "
                                                   "['A1', [...]]") + "$"):
        load_fixture(_ONE_LINE.replace("profile: [A1]", "profile: &a [A1, *a]"), name="doc")


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_merging_an_anchor_that_merges_is_no_repeated_key(monkeypatch, loader):
    # pairwise is anchored deeper than the mapping that merges it; the merge
    # it holds itself was once counted as a repeat of its written key L1
    monkeypatch.setattr(model, "YAML_LOADER", loader)
    text = _ONE_LINE.replace("incidence: {O: [1]}}",
                             "incidence: {O: [1]}, pairwise: &pw {<<: {L1: 0}, L1: 1}}")
    with pytest.raises(ParseError, match=r"^doc: witness: missing key 'divisor'$"):
        load_fixture(text + "witness: {<<: *pw}\n", name="doc")

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as Rat
from pathlib import Path

import pytest
import yaml

import cubiclct
from cubiclct import schema
from cubiclct.cli import main
from cubiclct.linsys import LinearSystem, parse_row
from cubiclct.model import load_fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_text_and_json_agree(capsys):
    code, text, _ = run(capsys, "table")
    assert code == 0
    code, payload, _ = run(capsys, "table", "--json")
    assert code == 0
    data = json.loads(payload)
    assert data["all_verified"] is True
    assert len(data["rows"]) == 20
    clauses = {c["clause"]: c["omega"] for c in data["clauses"]}
    assert clauses["Sigma = {E6}"] == "1/6"
    assert clauses["other cases"] == "1/2"
    # every value printed in text mode appears with the same rational
    for row in data["rows"]:
        assert f'{row["profile"]:<12} omega = {row["omega"]:>4}  [{row["status"]}]' in text


def test_table_parallel_is_usage_error(capsys):
    code, _, _ = run(capsys, "table", "--parallel")
    assert code == 2


def _fixture_copy(tmp_path, name, old="", new="", as_name=None):
    from cubiclct.cli import fixture_dir
    text = Path(str(fixture_dir() / f"{name}.yaml")).read_text()
    assert old in text
    (tmp_path / f"{as_name or name}.yaml").write_text(text.replace(old, new))


def test_table_validates_like_case(capsys, tmp_path):
    # L2 attached to the wrong end node of the A3 chain
    _fixture_copy(tmp_path, "a3", "{id: L2, kind: line, incidence: {O: [1, 0, 0]}}",
                  "{id: L2, kind: line, incidence: {O: [0, 0, 1]}}")
    code, out, table_err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert code == 2
    assert out == ""
    code, _, case_err = run(capsys, "--fixtures", str(tmp_path), "case", "A3")
    assert code == 2
    assert table_err == case_err
    assert table_err.count("invalid fixture: ") == 2
    assert table_err.count("invalid fixture: a3: ") == 2
    assert table_err.count("-K.L") == 2


@pytest.mark.parametrize("field, message", [
    ("incidence: {O: 1}", "a3: curves[1].incidence.O: expected a list, got 1"),
    ("incidence: {O: [1, 0, 0]}, pairwise: [L1, 1]",
     "a3: curves[1].pairwise: expected a mapping, got ['L1', 1]"),
    ("incidence: {P: [1, 0, 0]}", "error: a3: curves[1].incidence.P: unknown point 'P'"),
    ("incidence: {O: [a, 0, 0]}",
     "error: a3: curves[1].incidence.O[0]: invalid literal for int() with base 10: 'a'"),
    ("incidence: {O: [1.5, 0, 0]}",
     "error: a3: curves[1].incidence.O[0]: expected an integer, got 1.5"),
    ("incidence: {O: [true, 0, 0]}",
     "error: a3: curves[1].incidence.O[0]: expected an integer, got True"),
    # a curve's degree follows from its kind; there is no such key
    ("incidence: {O: [1, 0, 0]}, degree: 1.0", "error: a3: curves[1]: unknown key 'degree'"),
])
def test_malformed_curve_field_is_located_parse_error(capsys, tmp_path, field, message):
    _fixture_copy(tmp_path, "a3", "{id: L2, kind: line, incidence: {O: [1, 0, 0]}}",
                  "{id: L2, kind: line, " + field + "}")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    ('divisor: [["1", L1]', 'divisor: [["1/x", L1]',
     "error: a3: witness.divisor[0][0]: not a rational literal: '1/x'"),
    ('- [["1", L1]', '- [["1/0", L1]',
     "error: a3: equivalences[0][0][0]: zero denominator in '1/0'"),
    ("profile: [A3]", "profile: [Q3]", "error: a3: profile[0]: bad ADE label 'Q3'"),
    ("profile: [A3]", "profile: [3]", "error: a3: profile[0]: bad ADE label 3"),
    ("{type: A3}", "{type: 3}", "error: a3: points.O.type: bad ADE label 3"),
    ("name: a3", "name: !!timestamp a3",
     "error: a3: invalid YAML: cannot construct tag:yaml.org,2002:timestamp 'a3'"),
    ("name: a3", "name: !!bool maybe",
     "error: a3: invalid YAML: cannot construct tag:yaml.org,2002:bool 'maybe'"),
    ("name: a3", "name: !!int x3",
     "error: a3: invalid YAML: cannot construct tag:yaml.org,2002:int 'x3'"),
    ("- generate: O", "- generate: Q", "error: a3: script.blocks[0].generate: unknown point 'Q'"),
    ("variables: [a1", "mode: generated\n  variables: [a1", "error: a3: script: unknown key 'mode'"),
    ('"2*a1 - a2 >= 0"', '"2*a1 - a2/0 >= 0"',
     "error: a3: script.base_rows[1]: zero denominator in 'a2/0'"),
])
def test_malformed_scalar_is_located_parse_error(capsys, tmp_path, old, new, message):
    _fixture_copy(tmp_path, "a3", old, new)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    ('lct_pair: ["1/6", "2/3"]', 'lct_pair: ["1/6", "2/3", "5"]',
     "fiberwise.lct_pair: expected 2 entries, got 3"),
    ("expected_verdict: Inconclusive", "expected_verdict: Inconclusiv",
     "fiberwise.expected_verdict: expected Biregular or Inconclusive, got 'Inconclusiv'"),
    ("expected_verdict: Inconclusive", "expected_verdict: [1, 2]",
     "fiberwise.expected_verdict: expected Biregular or Inconclusive, got [1, 2]"),
    ("fiber_profiles: [E6, smooth-eckardt]", "fiber_profiles: E6",
     "fiberwise.fiber_profiles: expected a list, got 'E6'"),
    ("fiber_profiles: [E6, smooth-eckardt]", "fiber_profiles: [E6]",
     "fiberwise.fiber_profiles: expected 2 entries, got 1"),
    ("log_terminal: [true, true]", "log_terminal: [true]",
     "fiberwise.log_terminal: expected 2 entries, got 1"),
    ("map: {x: 2, y: 3, z: 0, w: 6}", "map: {x: 2, y: 3, z: 0, w: 6, t: 1}",
     "fiberwise.map: unknown key 't'"),
], ids=["three lcts", "misspelt verdict", "list verdict", "profiles string", "one profile",
        "one log_terminal", "map of t"])
def test_malformed_fiberwise_field_is_located_parse_error(capsys, tmp_path, old, new, message):
    _fixture_copy(tmp_path, "fiber_e6", old, new)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "fiberwise", "fiber_e6")
    assert (code, out, err) == (2, "", f"error: fiber_e6: {message}\n")


def _fixture_with(tmp_path, name, path, value):
    """A copy of fixture ``name`` whose value at the key/index ``path`` is ``value``."""
    from cubiclct.cli import fixture_dir
    doc = yaml.safe_load(Path(str(fixture_dir() / f"{name}.yaml")).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(doc))


@pytest.mark.parametrize("name, path, value, message", [
    ("a3", ("curves",), 5, "curves: expected a list, got 5"),
    ("a3", ("equivalences",), 5, "equivalences: expected a list, got 5"),
    ("a1", ("witness", "tower"), 5, "witness.tower: expected a list, got 5"),
    ("a1", ("witness", "tower", 0, "through"), 5,
     "witness.tower[0].through: expected a list, got 5"),
    ("a1", ("witness", "tower", 0, "through", 0), "curve",
     "witness.tower[0].through[0]: expected a mapping, got 'curve'"),
    ("cayley", ("group", "generators"), 5, "group.generators: expected a list, got 5"),
    ("fiber_e6", ("fiberwise", "source_poly"), 5,
     "fiberwise.source_poly: expected a list, got 5"),
    ("fiber_e6", ("fiberwise", "source_poly", 0), ["1", [3, 0, 0, 0, 0], 2],
     "fiberwise.source_poly[0]: expected 2 entries, got 3"),
    ("fiber_e6", ("fiberwise", "source_poly", 0), ["1", 3],
     "fiberwise.source_poly[0][1]: expected a list, got 3"),
    ("fiber_e6", ("fiberwise", "target_poly", 1), "x",
     "fiberwise.target_poly[1]: expected a list, got 'x'"),
], ids=["curves", "equivalences", "tower", "through", "through entry", "generators",
        "poly", "poly term of three", "poly exponents", "poly term string"])
def test_list_field_of_wrong_shape_is_located_parse_error(capsys, tmp_path, name, path,
                                                          value, message):
    _fixture_with(tmp_path, name, path, value)
    command = {"cayley": "equivariant", "fiber_e6": "fiberwise"}.get(name, "case")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), command, name)
    assert (code, out, err) == (2, "", f"error: {name}: {message}\n")


@pytest.mark.parametrize("path, value, message", [
    (("group", "image_order"), {"O1": "O2"}, "group: unknown key 'image_order'"),
    (("group", "elimination"), {"O1": "O2"}, "group: unknown key 'elimination'"),
    (("group", "generators", 0, "points"), {"O1": "O2"},
     "group.generators[0]: unknown key 'points'"),
    # a feasible exclusion system, which nothing would check under a group
    (("group", "assumptions", 0, "exclusion_rows"), ["0 >= 0"],
     "group.assumptions[0]: unknown key 'exclusion_rows'"),
], ids=["group", "dropped group field", "generator", "assumption exclusion rows"])
def test_unknown_group_key_is_located_parse_error(capsys, tmp_path, path, value, message):
    _fixture_with(tmp_path, "cayley", path, value)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "equivariant", "cayley")
    assert (code, out, err) == (2, "", f"error: cayley: {message}\n")


@pytest.mark.parametrize("name, path, message", [
    ("a3", ("curves", 0, "id"), "curves[0].id: expected a string, got ['x']"),
    ("a3", ("equivalences", 0, 0, 1), "equivalences[0][0][1]: expected a string, got ['x']"),
    ("a1", ("witness", "tower", 0, "through", 0, "curve"),
     "witness.tower[0].through[0].curve: expected a string, got ['x']"),
    ("cayley", ("group", "generators", 0, "lines", "L12"),
     "group.generators[0].lines.L12: expected a string, got ['x']"),
    ("cayley", ("group", "name"), "group.name: expected a string, got ['x']"),
    ("a1", ("script", "assumptions", 0, "tag"),
     "script.assumptions[0].tag: expected a string, got ['x']"),
    ("cayley", ("group", "assumptions", 0, "note"),
     "group.assumptions[0].note: expected a string, got ['x']"),
    ("a3", ("script", "blocks", 0, "name"), "script.blocks[0].name: expected a string, got ['x']"),
    ("a1", ("script", "blocks", 0, "branches", 0, "name"),
     "script.blocks[0].branches[0].name: expected a string, got ['x']"),
    ("a3", ("script", "blocks", 0, "alternatives", 0, "name"),
     "script.blocks[0].alternatives[0].name: expected a string, got ['x']"),
    ("a3", ("script", "base_rows", 1, "note"),
     "script.base_rows[1].note: expected a string, got ['x']"),
    ("a1", ("witness", "tower", 0, "name"), "witness.tower[0].name: expected a string, got ['x']"),
    ("a1", ("witness", "tower", 0, "through", 2, "exceptional"),
     "witness.tower[0].through[2].exceptional: expected a string, got ['x']"),
    ("cayley", ("group", "generators", 0, "name"),
     "group.generators[0].name: expected a string, got ['x']"),
    ("a1", ("name",), "name: expected a string, got ['x']"),
], ids=["curve id", "equivalence curve", "through curve", "generator line", "group name",
        "assumption tag", "assumption note", "block name", "branch name", "alternative name",
        "row note", "tower step name", "through exceptional", "generator name", "fixture name"])
def test_non_string_id_or_text_is_located_parse_error(capsys, tmp_path, name, path, message):
    _fixture_with(tmp_path, name, path, ["x"])
    command = "equivariant" if name == "cayley" else "case"
    code, out, err = run(capsys, "--fixtures", str(tmp_path), command, name)
    assert (code, out, err) == (2, "", f"error: {name}: {message}\n")


# (fixture, edit that leaves it loadable but invalid, command line)
INVALID_FIXTURES = [
    ("cayley", ('["1", L14], ["1", L24]]', '["1", L14], ["2", L24]]'),
     ["equivariant", "cayley"]),
    ("fiber_e6", ("profile: [E6]", "profile: [A6]"), ["fiberwise", "fiber_e6", "--json"]),
    ("a3", ("{id: L2, kind: line, incidence: {O: [1, 0, 0]}}",
            "{id: L2, kind: line, incidence: {O: [0, 0, 1]}}"), ["pullback", "a3", "L1", "O"]),
]


@pytest.mark.parametrize("name, edit, argv", INVALID_FIXTURES,
                         ids=[argv[0] for _, _, argv in INVALID_FIXTURES])
def test_every_fixture_command_rejects_an_invalid_fixture(capsys, tmp_path, name, edit, argv):
    _fixture_copy(tmp_path, name, *edit)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines and all(line.startswith(f"invalid fixture: {name}: ") for line in lines)


@pytest.mark.parametrize("token, expected", [("A5+A1", ["a5a1"]), ("D4", ["d4"]),
                                             ("a5", ["a5"]), ("A1+A5", ["a5a1"])])
def test_profile_token_loads_only_the_files_that_declare_it(capsys, monkeypatch,
                                                            token, expected):
    # a fixture name is its file; a profile is the file named by its key,
    # A5+A1 as a5a1.yaml, and fiber_d4 (profile D4, no script) is not read
    from cubiclct import cli
    loaded = []

    def counting(text, name="<fixture>"):
        loaded.append(name)
        return load_fixture(text, name=name)
    monkeypatch.setattr(cli, "load_fixture", counting)
    code, _, _ = run(capsys, "case", token)
    assert code == 0
    assert loaded == expected


@pytest.mark.parametrize("name, argv", [("a5", ["case", "a5"]),
                                        ("cayley", ["equivariant", "cayley"]),
                                        ("a5", ["case", "A5"])],
                         ids=["case", "equivariant", "profile"])
def test_fixture_name_ignores_a_malformed_neighbour(capsys, tmp_path, name, argv):
    _fixture_copy(tmp_path, name)
    _fixture_copy(tmp_path, "a3", "profile: [A3]", "profile: [Q3]")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), *argv)
    assert code == 0
    assert out and err == ""


def test_case_on_a_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "case", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: no fixture named or matching")


def test_fiberwise_map_as_list_is_located_parse_error(capsys, tmp_path):
    _fixture_copy(tmp_path, "fiber_e6", "map: {x: 2, y: 3, z: 0, w: 6}",
                  "map: [2, 3, 0, 6]")
    code, _, err = run(capsys, "--fixtures", str(tmp_path), "fiberwise", "fiber_e6")
    assert code == 2
    assert "fiber_e6: fiberwise.map: expected a mapping, got [2, 3, 0, 6]" in err
    assert "Traceback" not in err


def test_unknown_script_variable_is_quoted_plainly(capsys, tmp_path):
    _fixture_copy(tmp_path, "a3", '"2*a1 - a2 >= 0"', '"2*a1 - q >= 0"')
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "case", "A3")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: a3: script.base_rows[1]: ['q'] not among variables "
                                "('a1', 'a2', 'a3', 'm', 'tau')"]


def test_script_without_tau_is_located_parse_error(capsys, tmp_path):
    # without a tau variable the closure row reads 0 >= 3/2 and would refute
    # every leaf by itself, so a feasible leaf would still verify
    from cubiclct.cli import fixture_dir
    head, script = (fixture_dir() / "a1.yaml").read_text().split("\nscript:\n")
    script = re.sub(r"\btau\b", "t", script).replace('"2 >= 3/2*m"', '"m >= 0"')
    (tmp_path / "a1.yaml").write_text(f"{head}\nscript:\n{script}")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "case", "A1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: a1: script.variables: lack tau, the threshold reciprocal"]


def test_kernel_self_check_failure_exits_one(capsys, monkeypatch):
    from cubiclct import linsys
    monkeypatch.setattr(linsys, "replay_certificate", lambda system, cert: False)
    code, out, err = run(capsys, "case", "A5")
    assert code == 1
    assert out == ""
    assert "self-check" in err


def test_leaf_refuted_without_the_closure_row_is_not_verified(capsys, tmp_path):
    # "0 > 1" refutes every leaf on its own, so no leaf bounds tau: each
    # certificate gives the closure row tau >= 3 weight 0
    row = '    - {row: "2*a2 - a1 >= 0", note: "E2.Dbar >= 0"}\n'
    _fixture_copy(tmp_path, "a2a2", row, row + '    - "0 > 1"\n')
    code, out, _ = run(capsys, "--fixtures", str(tmp_path), "case", "A2+A2")
    assert code == 1
    leaves = [line for line in out.splitlines() if line.startswith("  [")]
    assert leaves == [f"  [VACUOUS]    {name}  infeasible without tau >= 3" for name in
                      ("Q in E1 interior", "Q = E1 meet E2", "Q in E2 interior")]
    assert out.endswith("verified: False\n")
    code, payload, _ = run(capsys, "--fixtures", str(tmp_path), "case", "A2+A2", "--json")
    assert code == 1
    data = json.loads(payload)
    assert data["verified"] is False
    assert all(leaf["certificate"]["multipliers"][0] == "0" for leaf in data["lower"]["leaves"])


def test_exclusion_refuted_without_the_closure_row_fails(capsys, tmp_path):
    # "0 > 1" refutes the degree-bound exclusion system on its own, so the
    # closure row tau >= 3 gets weight 0 and the assumption is not checked
    _fixture_copy(tmp_path, "a2a2", 'exclusion_rows: ["m > tau", "3 >= m"]',
                  'exclusion_rows: ["0 > 1"]')
    code, out, _ = run(capsys, "--fixtures", str(tmp_path), "case", "A2+A2")
    assert code == 1
    assert "  assumption (degree-bound) [FAILED]: " in out
    assert all(not line.startswith("  [VACUOUS]") for line in out.splitlines())
    assert out.endswith("verified: False\n")


def test_duplicate_profile_is_parse_error(capsys, tmp_path):
    # two case fixtures of one profile cannot both be named by it
    _fixture_copy(tmp_path, "a5")
    _fixture_copy(tmp_path, "a5", as_name="a5copy")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert (code, out) == (2, "")
    assert err == "error: a5copy: the case fixture of profile A5 must be named a5.yaml\n"


def test_misnamed_case_fixture_is_parse_error(capsys, tmp_path):
    _fixture_copy(tmp_path, "a5", as_name="foo")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert (code, out) == (2, "")
    assert err == "error: foo: the case fixture of profile A5 must be named a5.yaml\n"


def test_case_rejects_duplicate_profile_like_table(capsys, tmp_path):
    # a profile reads the one file named by it, and a fixture name its own file
    _fixture_copy(tmp_path, "a5")
    _fixture_copy(tmp_path, "a5", as_name="a5copy")
    for token in ("A5", "a5copy"):
        code, out, err = run(capsys, "--fixtures", str(tmp_path), "case", token)
        assert (code, err) == (0, "")
        assert out.startswith("profile A5: omega = 1/4")
    # the file named by a profile must declare it
    _fixture_copy(tmp_path, "a3", as_name="a5")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "case", "A5")
    assert (code, out) == (2, "")
    assert err == "error: a5: the case fixture of profile A3 must be named a3.yaml\n"


def test_repeated_profile_key_is_an_input_error(capsys, tmp_path):
    # the second key no longer silently wins, on the profile path either
    _fixture_copy(tmp_path, "a3", "profile: [A3]", "profile: [A3]\nprofile: [A2]")
    for argv in (["table"], ["case", "A3"]):
        code, out, err = run(capsys, "--fixtures", str(tmp_path), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: a3: invalid YAML: ")
        assert "found duplicate key 'profile'" in err
        assert "line 7, column 1" in err


def test_malformed_equivalence_term_is_located_parse_error(capsys, tmp_path):
    _fixture_copy(tmp_path, "a3", '  - [["1", L1], ["1", L2], ["1", L3]]',
                  '  - [["1", L1, 3], ["1", L2], ["1", L3]]')
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert code == 2
    assert out == ""
    assert "error: a3: equivalences[0][0]: expected 2 entries, got 3" in err


def test_fiberwise_identity_needs_all_three_fields(capsys, tmp_path):
    _fixture_copy(tmp_path, "fiber_e6", "  target_poly:", "  unused_poly:")
    code, _, err = run(capsys, "--fixtures", str(tmp_path), "fiberwise", "fiber_e6")
    assert code == 2
    assert "fiberwise: source_poly needs target_poly and map" in err
    assert "Traceback" not in err


def test_fiberwise_failed_identity_exits_one(capsys, tmp_path):
    _fixture_copy(tmp_path, "fiber_e6", "map: {x: 2, y: 3, z: 0, w: 6}",
                  "map: {x: 2, y: 3, z: 0, w: 5}")
    code, payload, _ = run(capsys, "--fixtures", str(tmp_path),
                           "fiberwise", "fiber_e6", "--json")
    assert code == 1
    data = json.loads(payload)
    assert data["k"] is None
    assert data["verified"] is False


def _patch_a5_clause(monkeypatch):
    """Put a clause ``Sigma = {A5}`` with omega 1/3 before every other clause."""
    from cubiclct import engine
    monkeypatch.setattr(engine, "_CLAUSES", (
        ("Sigma = {A5}", Rat(1, 3), lambda p: p.key == "A5"),) + engine._CLAUSES)


def test_inconsistent_table_exits_one(capsys, monkeypatch):
    # A5's witness attains omega 1/4; the patched clause gives 1/3
    _patch_a5_clause(monkeypatch)
    code, out, err = run(capsys, "table")
    assert (code, err) == (1, "")
    rows = [" ".join(line.split()) for line in out.splitlines()]
    assert "A5 omega = 1/3 [FAILED]" in rows
    assert "A5+A1 omega = 1/4 [verified]" in rows


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_case_runs_the_clause_check(capsys, monkeypatch, json_flag):
    _patch_a5_clause(monkeypatch)
    code, out, err = run(capsys, "case", "A5", *json_flag)
    assert (code, err) == (1, "")
    if json_flag:
        data = json.loads(out)
        assert (data["omega"], data["expected_omega"], data["verified"]) == ("1/4", "1/3", False)
    else:
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == ("profile A5: omega = 1/4 (expected 1/3)",
                                         "  verified: False")


@pytest.mark.parametrize("name, old, new, command", [
    # a2a1's points stay A2 and A1; the clause for A2+A2 is 1/3, not 1/2
    ("a2a1", "profile: [A2, A1]", "profile: [A2, A2]", ("case", "a2a1")),
    # a1's one A1 point, with omega 2/3, filed under A2
    ("a1", "profile: [A1]", "profile: [A2]", ("table",)),
], ids=["case", "table"])
def test_points_must_realise_the_profile(capsys, tmp_path, name, old, new, command):
    as_name = "a2" if command == ("table",) else None
    _fixture_copy(tmp_path, name, old, new, as_name=as_name)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), *command)
    assert (code, out) == (2, "")
    profile = new.split("[")[1].rstrip("]").replace(", ", "+")
    assert f"do not realise profile {profile}" in err


def test_case_a5_json(capsys):
    code, payload, _ = run(capsys, "case", "A5", "--json")
    assert code == 0
    data = json.loads(payload)
    assert data["omega"] == "1/4"
    assert data["verified"] is True
    leaves = data["lower"]["leaves"]
    assert len(leaves) == 9
    assert all("certificate" in leaf for leaf in leaves)


def test_one_parser_serves_every_call(capsys):
    # the grammar is built once per process; no call leaves state for the next
    from cubiclct.cli import build_parser
    assert build_parser() is build_parser()
    code, out, err = run(capsys, "bogus")
    assert (code, out) == (2, "")
    assert "invalid choice: 'bogus'" in err
    code, out, _ = run(capsys, "case", "A5", "--json")
    assert code == 0
    assert json.loads(out)["command"] == "case A5"
    code, out, _ = run(capsys, "case", "A5")
    assert code == 0
    assert out.startswith("profile A5: omega = 1/4 (expected 1/4)\n")


def test_case_accepts_fixture_path(capsys, tmp_path):
    from cubiclct.cli import fixture_dir
    src = Path(str(fixture_dir() / "d4.yaml")).read_text()
    path = tmp_path / "d4_copy.yaml"
    path.write_text(src)
    code, out, _ = run(capsys, "case", str(path))
    assert code == 0
    assert "omega = 1/3" in out


def test_case_with_some_feasible_leaves_exits_one(capsys, tmp_path):
    # a5 without the C3 row: three leaves turn feasible and six stay refuted;
    # every leaf must hold, not some
    from cubiclct.cli import fixture_dir
    text = Path(str(fixture_dir() / "a5.yaml")).read_text()
    row = '    - {row: "2 - a2 >= 0", note: "C3 general off Supp(D): C3bar.Dbar = 2 - a2 >= 0"}\n'
    assert text.count(row) == 1
    path = tmp_path / "a5.yaml"
    path.write_text(text.replace(row, ""))
    code, out, _ = run(capsys, "case", str(path))
    assert (out.count("[FEASIBLE]"), out.count("[infeasible]")) == (3, 6)
    assert "verified: False" in out
    assert code == 1


def test_case_unknown_profile_is_usage_error(capsys):
    code, _, err = run(capsys, "case", "Z9")
    assert code == 2
    assert "error" in err


def test_pullback_command(capsys):
    code, out, _ = run(capsys, "pullback", "a5", "L3", "O")
    assert code == 0
    assert "(1/3, 2/3, 1, 4/3, 2/3)" in out


def test_certify_and_replay_roundtrip(capsys, tmp_path):
    variables = ("x",)
    system = LinearSystem(variables, (parse_row("x >= 1", variables),
                                      parse_row("-x >= 0", variables)))
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps(system.to_json()))
    code, payload, _ = run(capsys, "certify", str(sys_file))
    assert code == 0
    data = json.loads(payload)
    assert data["status"] == "infeasible"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(data["certificate"]))
    code, payload, _ = run(capsys, "replay", str(sys_file), str(cert_file))
    assert code == 0
    assert json.loads(payload)["replay"] is True


def test_certify_feasible_exits_one(capsys, tmp_path):
    variables = ("x",)
    system = LinearSystem(variables, (parse_row("x >= 0", variables),))
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps(system.to_json()))
    code, payload, _ = run(capsys, "certify", str(sys_file))
    assert code == 1
    assert json.loads(payload)["status"] == "feasible"


def test_replay_bad_certificate_exits_one(capsys, tmp_path):
    variables = ("x",)
    system = LinearSystem(variables, (parse_row("x >= 1", variables),
                                      parse_row("-x >= 0", variables)))
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps(system.to_json()))
    bad = {"multipliers": ["1", "0"],
           "derived": {"coeffs": ["0"], "relation": ">=", "constant": "1"}}
    cert_file = tmp_path / "bad-cert.json"
    cert_file.write_text(json.dumps(bad))
    code, payload, _ = run(capsys, "replay", str(sys_file), str(cert_file))
    assert code == 1
    assert json.loads(payload)["replay"] is False


@pytest.mark.parametrize("edit, code, answer", [
    (lambda d: None, 0, '{"replay": true}\n'),
    (lambda d: d.update(constant="99", coeffs=["5", *d["coeffs"][1:]]), 1,
     '{"replay": false}\n'),
    (lambda d: d.update(constant="99"), 1, '{"replay": false}\n'),
    (lambda d: d.update(relation=">" if d["relation"] == ">=" else ">="), 1,
     '{"replay": false}\n'),
    (lambda d: d["coeffs"].append("0"), 2, ""),
], ids=["untouched", "constant and coefficient", "constant", "relation", "width"])
def test_replay_checks_the_derived_row(capsys, tmp_path, edit, code, answer):
    # the derived row a certificate states must be the one its multipliers give
    from cubiclct.cli import case_fixtures, fixture_dir, load_all_fixtures
    from cubiclct.engine import materialize_leaves
    fixture = case_fixtures(load_all_fixtures(fixture_dir()))["A5+A1"]
    leaf = materialize_leaves(fixture)[0]
    system = LinearSystem(fixture.script.variables, tuple(r.row for r in leaf.rows))
    sys_file, cert_file = tmp_path / "sys.json", tmp_path / "cert.json"
    sys_file.write_text(json.dumps(system.to_json()))
    status, out, _ = run(capsys, "certify", str(sys_file))
    assert status == 0
    cert = json.loads(out)["certificate"]
    edit(cert["derived"])
    cert_file.write_text(json.dumps(cert))
    status, out, err = run(capsys, "replay", str(sys_file), str(cert_file))
    assert (status, out) == (code, answer)
    if code == 2:
        assert err == "error: derived row width does not match variable count\n"


def test_equivariant_command(capsys):
    code, payload, _ = run(capsys, "equivariant", "cayley", "--json")
    assert code == 0
    data = json.loads(payload)
    assert data["lct"] == "1"
    assert data["ke"] == "KECertified"
    assert data["image_order"] == 24


def test_fiberwise_command(capsys):
    code, payload, _ = run(capsys, "fiberwise", "fiber_e6", "--json")
    assert code == 0
    data = json.loads(payload)
    assert data["k"] == 6
    assert data["verdict"] == "Inconclusive"
    assert data["verified"] is True


def test_internal_error_is_not_reported_as_usage_error(capsys, monkeypatch):
    from cubiclct import engine

    def broken(fixture):
        raise ValueError("a bug, not an input error")
    monkeypatch.setattr(engine, "compute_case_threshold", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["case", "A5"])


@pytest.mark.parametrize("name, old, new, command, message", [
    ("a1", "{exceptional: E1}", "{exceptional: E9}", "case",
     "error: a1: witness.tower[0].through[2].exceptional: unknown divisor 'E9'"),
    ("cayley", "declared_order: 24", "declared_order: 25", "equivariant",
     "invalid fixture: cayley: group: image order 24 does not divide declared order 25"),
    ("cayley", 'invariant_divisor: [["1", T]]',
     'invariant_divisor: [["1/2", T], ["1/2", M1], ["1/2", M2], ["1/2", M3]]', "equivariant",
     "invalid fixture: cayley: group: invariant divisor does not match any declared equivalence"
     "\ninvalid fixture: cayley: group: invariant divisor has no component of multiplicity 1"),
    ("cayley", 'invariant_divisor: [["1", T]]',
     'invariant_divisor: [["1", T], ["1", M1], ["1", M2], ["1", M3]]', "equivariant",
     "invalid fixture: cayley: group: invariant divisor does not match any declared equivalence"),
    # degree 3, invariant and T of multiplicity 1, but not effective: no KE certificate
    ("cayley", 'invariant_divisor: [["1", T]]',
     'invariant_divisor: [["1", T], ["1", L12], ["1", L13], ["1", L14], ["1", L23], ["1", L24], '
     '["1", L34], ["-2", M1], ["-2", M2], ["-2", M3]]', "equivariant",
     "invalid fixture: cayley: group: invariant divisor does not match any declared equivalence"),
    ("cayley", 'invariant_divisor: [["1", T]]', 'invariant_divisor: [["1", T], ["1", T]]',
     "equivariant", "error: cayley: group.invariant_divisor[1]: repeated entry 'T'"),
    # the witness, like the invariant divisor, is checked only as a declared equivalence
    ("a5", 'divisor: [["3", L3]]', 'divisor: [["4", L3], ["-1", L2]]', "case",
     "invalid fixture: a5: witness: boundary does not match any declared equivalence"),
    ("a5", 'equivalences:\n  - [["3", L3]]\n  - [["1", L1], ["1", C1]]\n'
     '  - [["1", L3], ["1", C3]]\n', "", "case", "invalid fixture: a5: witness: boundary does not match any declared equivalence"),
    ("cayley", "L12: L12, L13: L23", "L12: L13, L13: L23", "equivariant",
     "invalid fixture: cayley: group: generator swap_xy is not a permutation of the 9 lines"),
    ("fiber_e6", "w: 6}", "w: -6}", "fiberwise",
     "invalid fixture: fiber_e6: fiberwise: map power of w is negative (-6)"),
    ("fiber_e6", 'lct_pair: ["1/6", "2/3"]', 'lct_pair: ["0", "2/3"]', "fiberwise",
     "invalid fixture: fiber_e6: fiberwise: lct_pair[0] = 0 is not positive"),
], ids=["tower", "group order", "no reduced component", "divisor degree", "not effective",
        "repeated curve", "witness not effective", "no equivalence", "not a permutation",
        "negative power", "zero lct"])
def test_named_input_error_exits_two(capsys, tmp_path, name, old, new, command, message):
    # the loader locates a bad reference, and validate_fixture reports data
    # that contradict the fixture; each names the fixture
    _fixture_copy(tmp_path, name, old, new)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), command, name)
    assert (code, out, err) == (2, "", message + "\n")


def test_group_fixture_with_no_line_is_an_input_error(capsys, tmp_path):
    # xyzt3 with its lines made conics, no equivalence and generators that move nothing
    from cubiclct.cli import fixture_dir
    text = Path(str(fixture_dir() / "xyzt3.yaml")).read_text().replace("kind: line",
                                                                      "kind: conic")
    text, n = re.subn(r"lines: \{[^}]*\}", "lines: {}", text)
    assert n == 3
    text, n = re.subn(r"equivalences:\n  - .*\n", "", text)
    assert n == 1
    (tmp_path / "xyzt3.yaml").write_text(text)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "equivariant", "xyzt3")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["invalid fixture: xyzt3: group: no line to act on",
                                "invalid fixture: xyzt3: group: invariant divisor does not "
                                "match any declared equivalence"]


@pytest.mark.parametrize("argv, message", [
    (["case", "cayley"],
     "error: fixture 'cayley' has no case script; try `cubiclct equivariant cayley`"),
    (["case", "fiber_e6"],
     "error: fixture 'fiber_e6' has no case script; try `cubiclct fiberwise fiber_e6`"),
    (["case", "bare"], "error: fixture 'bare' has no case script"),
    (["equivariant", "a5"], "error: fixture 'a5' has no group data"),
    (["fiberwise", "cayley"], "error: fixture 'cayley' has no fiberwise data"),
], ids=["case of a group", "case of a fiberwise", "case of neither", "equivariant",
        "fiberwise"])
def test_command_without_its_data_names_the_fixture(capsys, tmp_path, argv, message):
    # a command is hinted only to a fixture that holds its data
    for name in ("a5", "cayley", "fiber_e6"):
        _fixture_copy(tmp_path, name)
    (tmp_path / "bare.yaml").write_text("name: bare\nprofile: [A1]\npoints: {O: {type: A1}}\n")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_fixture_that_is_not_utf8_is_an_error_that_names_the_file(capsys, tmp_path):
    fixture = tmp_path / "a5.yaml"
    fixture.write_bytes(b"name: a5\nprofile: [A5]\n# \xff\n")
    message = (f"error: {fixture}: 'utf-8' codec can't decode byte 0xff in position 25: "
               "invalid start byte\n")
    assert run(capsys, "case", str(fixture)) == (2, "", message)
    assert run(capsys, "--fixtures", str(tmp_path), "case", "a5") == (2, "", message)


def test_fixtures_must_name_a_directory_that_holds_a_case_fixture(capsys, tmp_path):
    # no table of paper-asserted rows without a case fixture to check them from
    missing, file = tmp_path / "none", tmp_path / "a5.yaml"
    _fixture_copy(tmp_path, "a5")
    for argv, message in [
            (["--fixtures", str(missing), "table"], f"--fixtures {missing}: not a directory"),
            (["--fixtures", str(missing), "case", "A5"], f"--fixtures {missing}: not a directory"),
            (["--fixtures", str(file), "table"], f"--fixtures {file}: not a directory")]:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    file.unlink()
    assert run(capsys, "--fixtures", str(tmp_path), "table") == (
        2, "", f"error: no case fixture under {tmp_path}\n")
    _fixture_copy(tmp_path, "cayley")   # a fixture, but not a case fixture
    assert run(capsys, "--fixtures", str(tmp_path), "table") == (
        2, "", f"error: no case fixture under {tmp_path}\n")


def test_path_that_cannot_be_examined_is_input_error(capsys, tmp_path):
    # a name longer than the system allows: the probe for the file raises
    # ENAMETOOLONG, which is input, not a failed verification
    long = "a" * 300
    for argv, path in [(["case", long], long),
                       (["pullback", long, "L3", "O"], long),
                       (["--fixtures", str(tmp_path / long), "table"], str(tmp_path / long)),
                       (["--fixtures", str(tmp_path / long), "case", "A5"],
                        str(tmp_path / long))]:
        assert run(capsys, *argv) == (2, "", f"error: {path}: File name too long\n"), argv


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_and_prints_nothing(unbuffered):
    # the reader of stdout is gone before the command starts: a report that
    # cannot be written is a failed verification, not an input error
    src = str(Path(cubiclct.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "cubiclct.cli", "equivariant", "cayley",
                               "--json"], stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def test_malformed_system_file_or_pullback_argument_is_input_error(capsys, tmp_path):
    good = LinearSystem(("x",), (parse_row("x >= 1", ("x",)),)).to_json()
    cert = {"multipliers": ["1", "0"],
            "derived": {"coeffs": ["0"], "relation": ">=", "constant": "1"}}
    files = {}
    for label, data in [("good", good), ("no_rows", {"variables": ["x"]}),
                        ("bad_rat", {**good, "rows": [{**good["rows"][0], "constant": "1/x"}]}),
                        ("a_list", [1, 2]), ("cert", cert),
                        ("letters", {**good, "variables": "x"}),
                        ("numbers", {**good, "variables": [1]}),
                        ("repeated", {"variables": ["x", "x"], "rows": []}),
                        ("rows_mapping", {**good, "rows": {}}),
                        # a string is no list of rationals: "11" was once the row (1, 1)
                        ("string_coeffs", {"variables": ["x", "y"], "rows": [
                            {"coeffs": "11", "relation": ">=", "constant": "1"}]}),
                        ("string_multipliers", {**cert, "multipliers": "11"}),
                        ("string_derived", {**cert, "derived": {**cert["derived"],
                                                               "coeffs": "00"}})]:
        files[label] = tmp_path / f"{label}.json"
        files[label].write_text(json.dumps(data))
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "latin.json").write_bytes(b'{"variables": ["\xe9"], "rows": []}')
    (tmp_path / "folder.json").mkdir()
    for argv, message in [
            (["certify", str(files["no_rows"])], "missing key 'rows'"),
            (["certify", str(files["bad_rat"])], "not a rational literal: '1/x'"),
            (["certify", str(files["a_list"])], "expected a mapping, got [1, 2]"),
            (["certify", str(files["letters"])], "variables: expected a list, got 'x'"),
            (["certify", str(files["numbers"])], "variables[0]: expected a string, got 1"),
            (["replay", str(files["repeated"]), str(files["cert"])],
             "variables: expected a list of distinct strings, got ['x', 'x']"),
            (["certify", str(files["rows_mapping"])], "rows: expected a list, got {}"),
            # a read or JSON error names its file once
            (["certify", str(tmp_path / "broken.json")],
             f"error: {tmp_path / 'broken.json'}: Expecting property name"),
            (["certify", str(tmp_path / "absent.json")],
             f"error: {tmp_path / 'absent.json'}: No such file or directory\n"),
            (["certify", str(tmp_path / "folder.json")],
             f"error: {tmp_path / 'folder.json'}: Is a directory\n"),
            (["certify", str(tmp_path / "latin.json")],
             f"error: {tmp_path / 'latin.json'}: 'utf-8' codec can't decode byte 0xe9"),
            (["replay", str(files["good"]), str(files["cert"])],
             "multiplier count does not match row count"),
            (["replay", str(files["good"]), str(files["no_rows"])], "missing key 'derived'"),
            (["certify", str(files["string_coeffs"])],
             f"{files['string_coeffs']}: rows[0].coeffs: expected a list, got '11'"),
            (["replay", str(files["good"]), str(files["string_multipliers"])],
             f"{files['string_multipliers']}: multipliers: expected a list, got '11'"),
            (["replay", str(files["good"]), str(files["string_derived"])],
             f"{files['string_derived']}: derived.coeffs: expected a list, got '00'"),
            (["pullback", "a5", "L9", "O"], "a5: no curve or point 'L9'"),
            (["pullback", "a5", "L3", "Q"], "a5: no curve or point 'Q'"),
            (["pullback", "cayley", "M1", "O1"],
             "error: curve M1 does not meet the exceptional locus over O1\n")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, (argv, err)


@pytest.mark.parametrize("name, old, new, argv, message", [
    ("a1", "\nwitness:\n", "\nwitnes:\n", ["table"], "a1: script needs witness"),
    ("a5", '  divisor: [["3", L3]]\n', '  divisor: [["3", L3]]\n  tangencie: [L3]\n',
     ["case", "a5"], "a5: witness: unknown key 'tangencie'"),
    ("a3", "{id: L2, kind: line,", "{id: L2, kind: line, degre: 1,", ["case", "a3"],
     "a3: curves[1]: unknown key 'degre'"),
    ("a3", 'note: "E1.Dbar >= 0"}', 'note: "E1.Dbar >= 0", redundnat: true}', ["case", "a3"],
     "a3: script.base_rows[1]: unknown key 'redundnat'"),
    ("a3", "O: {type: A3", "O: {type: A3, tpye: A3", ["case", "a3"],
     "a3: points.O: unknown key 'tpye'"),
    # the chain-reversal marker is gone: every fixture gives canonical node order
    ("a3", "O: {type: A3", "O: {type: A3, orientation: standard", ["case", "a3"],
     "a3: points.O: unknown key 'orientation'"),
], ids=["witnes", "tangencie", "degre", "redundnat", "point key", "orientation"])
def test_misspelt_or_dropped_key_is_located_parse_error(capsys, tmp_path, name, old, new, argv,
                                                        message):
    # each of these once loaded: a verified row read as paper-asserted, a
    # traceback, a witness without its tangency guard, or a key nothing read
    _fixture_copy(tmp_path, name, old, new)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("old, new, message", [
    ("profile: [A3]\n", 'profile: [A3]\nexpected_omega: "1/2"\n', "unknown key 'expected_omega'"),
    ("  variables:", '  tau_floor: "2"\n  variables:', "script: unknown key 'tau_floor'"),
], ids=["expected_omega", "tau_floor"])
def test_threshold_restated_in_a_case_fixture_is_unknown_key(capsys, tmp_path, old, new,
                                                            message):
    # the profile's classification clause gives omega and the closure tau >= 1/omega
    _fixture_copy(tmp_path, "a3", old, new)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "case", "a3")
    assert (code, out, err) == (2, "", f"error: a3: {message}\n")


def _declared_mappings(kind):
    """Every record that ``kind`` declares, itself included."""
    if isinstance(kind, schema.Record):
        yield kind
        inner = kind.fields.values()
    elif isinstance(kind, schema.OneOf):
        inner = kind.records
    elif isinstance(kind, schema.ListOf):
        inner = (kind.item,)
    elif isinstance(kind, schema.IdMap):
        inner = (kind.value,)
    elif isinstance(kind, schema.Pair):
        inner = kind
    else:
        return
    for item in inner:
        yield from _declared_mappings(item)


def _mappings(kind, value, path=(), place=()):
    """``(record, key path, place)`` for every mapping of ``value`` that ``kind``
    declares; a place is the key path with list indices and ids as ``*``."""
    if isinstance(kind, schema.OneOf):
        kind = next((r for r in kind.records
                     if isinstance(value, dict) and r.required[0] in value), None)
    if isinstance(kind, schema.Record):
        yield kind, path, place
        for key, item in value.items():
            yield from _mappings(kind.fields[key], item, path + (key,), place + (key,))
    elif isinstance(kind, schema.ListOf):
        for i, item in enumerate(value):
            yield from _mappings(kind.item, item, path + (i,), place + ("*",))
    elif isinstance(kind, schema.Pair):
        for i, (inner, item) in enumerate(zip(kind, value)):
            yield from _mappings(inner, item, path + (i,), place + (i,))
    elif isinstance(kind, schema.IdMap):
        for key, item in value.items():
            yield from _mappings(kind.value, item, path + (key,), place + ("*",))


def _with_zzz(kind, docs):
    """For the first mapping of each record at each place of ``kind`` in ``docs``:
    the record, the document's name, a copy of the document with ``zzz: 1`` put
    into that mapping, and the mapping's path."""
    seen = set()
    for name, doc in docs:
        for record, path, place in _mappings(kind, doc):
            if (id(record), place) in seen:
                continue
            seen.add((id(record), place))
            edited = copy.deepcopy(doc)
            node = edited
            for key in path:
                node = node[key]
            node["zzz"] = 1
            located = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
            yield record, name, edited, located.lstrip(".")


def test_every_declared_mapping_rejects_an_unknown_key(capsys, tmp_path):
    from cubiclct.cli import fixture_dir
    docs = [(p.stem, yaml.safe_load(p.read_text()))
            for p in sorted(Path(str(fixture_dir())).glob("*.yaml"))]
    swept = set()
    for i, (record, name, doc, path) in enumerate(_with_zzz(schema.FIXTURE, docs)):
        directory = tmp_path / str(i)
        directory.mkdir()
        (directory / f"{name}.yaml").write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, "--fixtures", str(directory), "case", name)
        where = f"{path}: " if path else ""
        assert (code, out, err) == (2, "", f"error: {name}: {where}unknown key 'zzz'\n"), path
        swept.add(id(record))
    # every kind of mapping the schema declares occurs in a bundled fixture
    assert swept == {id(record) for record in _declared_mappings(schema.FIXTURE)}


def test_every_system_and_certificate_mapping_rejects_an_unknown_key(capsys, tmp_path):
    variables = ("x",)
    system = LinearSystem(variables, (parse_row("x >= 1", variables),
                                      parse_row("-x >= 0", variables)))
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps(system.to_json()))
    cert = {"multipliers": ["1", "1"],
            "derived": {"coeffs": ["0"], "relation": ">=", "constant": "1"}}
    for kind, data, argv in [(schema.SYSTEM, system.to_json(), ["certify"]),
                             (schema.CERTIFICATE, cert, ["replay", str(sys_file)])]:
        swept = set()
        for record, _, edited, path in _with_zzz(kind, [("json", data)]):
            path_file = tmp_path / "edited.json"
            path_file.write_text(json.dumps(edited))
            code, out, err = run(capsys, *argv, str(path_file))
            where = f"{path}: " if path else ""
            assert (code, out, err) == (2, "", f"error: {path_file}: {where}unknown key 'zzz'\n")
            swept.add(id(record))
        assert swept == {id(record) for record in _declared_mappings(kind)}


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["certify"]) == 2


def test_quoted_false_log_terminal_is_an_input_error(capsys, tmp_path):
    _fixture_copy(tmp_path, "fiber_e6", "log_terminal: [true, true]",
                  'log_terminal: ["false", true]')
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "fiberwise", "fiber_e6", "--json")
    assert code == 2
    assert out == ""
    assert err == ("error: fiber_e6: fiberwise.log_terminal[0]: "
                   "expected true or false, got 'false'\n")


#: SHA-256 of ``case <profile> --json`` and of ``repr(mutation_audit(...))`` for
#: every case fixture.  A change to any certificate, witness or audit record
#: must update these on purpose.
PINNED = {
    "A1": ("d65122ba8d29848371fd2cff26c618309c4f77ad911fe55a361c9f1749d796b2",
           "6ced7bdac0d68825e8a1d6d754fd7eb27a8ae771399c06983834d27ff8c71282"),
    "A1+A1": ("8121e7dd137b2e29028d975425af51b11838bd0e233dbf20211728b23ba3ed7c",
              "338aa4c6d4868c45d0eaed6bd0289212c26a3f5fd3048c87d8773fda76fd715d"),
    "A2": ("ce6ebf8d1f9fc646964cf8b8e15950d2247e9fcfbaf09641fb101131f69575f0",
           "d93708c2823b1cdeb124288b9e2e4802db30b7dc17ae968942eec45e59a119d5"),
    "A2+A1": ("f6793c7d9a22f015851e7e07224f4187cd46bf460e36a9fbe3d5f281c5a1474b",
              "d46ecca0d8058f57a6fd17212c091773a52dfa983bf6aec90072e33370f83164"),
    "A2+A1+A1": ("80701fa7b60b9597f71d1de6c1f1cba0fcb4af2a9d4849d1f6233116a5bb8c3a",
                 "d46ecca0d8058f57a6fd17212c091773a52dfa983bf6aec90072e33370f83164"),
    "A2+A2": ("b043f8cb1f4bcb4c10ffbbe06b7c1679558ccd42dc6ffdf9f15ec27fdc0bb9fd",
              "74137f2db2dacd9d567837c0052920d8639ef86ad54341affdfcd61a1c2be6f8"),
    "A2+A2+A1": ("4e0a5eb265a1b06498231c91c7db658f5fc6964034e036c21064f9bd7d7b7c0d",
                 "15df53f5ed3a5578c8889480a4dc2bf0b208503ae6cc0e060b3ca4350da161cd"),
    "A3": ("e856075d9d7b274cbc8e4731ac1a9c771e10a8b53a68b661dad017594fad61fa",
           "193b6c4f5ca957259f3155f627affeb0985dcef83767fdcb1a8e03f6e6cfa52b"),
    "A3+A1": ("b97d342b29a997a75071912905daafd2094365d67beb2cf380eee571ebe92d78",
              "e5a22986f8d6367524f0375f492fbd7d175aaab106cbd3e4626ca7e962c6f545"),
    "A3+A1+A1": ("6dc7f7eb601c1484b741099f05b3c6eada409be469817870c35b1988cdc66944",
                 "ece74c80d1f8658558c8871107f5f48a6b65f619854f698e1e5253137feb639a"),
    "A4": ("8273bb2b7c1b00c9d2d017d3ca225fcd389d6daf931112957f527cd28b507318",
           "20bb28e6efbb72c06f03bc005a8574a46d5594e0d5a4434db2e7a87aa45b919f"),
    "A4+A1": ("fabfb87910bf45b000b2a6ae98ce1af805f6f62008dd366401a9cbc2334538ce",
              "4b537ec227fa022aa70242a38a2ccd56ba6b805b372df0079ee704c455e210ac"),
    "A5": ("8b4309032e32f52cb03ce25b3a1c89f7192db80fc63c78c4f4308dc06bfe7688",
           "b142b74d762b0a8573e18ceb446052470809155e9c57ae930d34f490f5a77fcd"),
    "A5+A1": ("25a5ed956b1c9fc2c8ea3d1c7b9e4cf1be06ec0b857f7ba14dd91ec46f9697bd",
              "972908ee82e124fb404dff88cbcde77b72b1dbfc442546793e64d40eaf264f34"),
    "D4": ("730c2808d57f22c67475b18e3496067b410f0241776b193af6bb18a9c601dc67",
           "aa9b4bcd2dad0e1204f61e1dc48c6babe5595461ffedad89dec900cd06a5b7b1"),
    "D5": ("11b37d2309e14e80619e4e7b3890ba8e985b4eee1feb59aa4dc9460ea9cdb9ef",
           "79d76836d4a742cc0263129eaca01983b3157dd93bfd3494a9cddda29a195c7b"),
    "E6": ("1057380f6143778f4979ab7ee7d282a09b8b19ff9470b751150ebe6ab5e867a7",
           "79d76836d4a742cc0263129eaca01983b3157dd93bfd3494a9cddda29a195c7b"),
}


def test_case_json_and_mutation_audit_are_pinned(capsys):
    from cubiclct.cli import case_fixtures, fixture_dir, load_all_fixtures
    from cubiclct.engine import mutation_audit
    fixtures = case_fixtures(load_all_fixtures(fixture_dir()))
    assert sorted(fixtures) == sorted(PINNED)
    for profile, fixture in sorted(fixtures.items()):
        code, out, _ = run(capsys, "case", profile, "--json")
        assert code == 0
        digests = (hashlib.sha256(out.encode()).hexdigest(),
                   hashlib.sha256(repr(mutation_audit(fixture)).encode()).hexdigest())
        assert digests == PINNED[profile], profile


#: SHA-256 of every bundled report (``table --json`` without its
#: ``elapsed_ms``); ``case <profile> --json`` is pinned in ``PINNED``.  A report
#: that changes must change on purpose.
REPORTS = {
    "table --json": "6031669dc5c2b9f4effbbb657e0b39274431f0f3a01e8a8828d197c5b6adac23",
    "case A1": "50f145a44a3a4948593e518ce2a517f881ea23aad19541bd181fc84f9e35fad5",
    "case A1+A1": "355c56815cdcbf80c4afdaeec0f0ebebddc78133b798c72c804047efbf2fd12e",
    "case A2": "ec75b4b24c5ed2ee8096c8ec06e308ee80fda1802b9c9ca27c8176f717b28efb",
    "case A2+A1": "e3cb77a73b37e78c401d3828d7b7df99dc9c1e352138b2c87add57b49a474021",
    "case A2+A1+A1": "7900a475bf3cdf80aad3276e5f13042db59f5ac584b46ce561400d7c4033c108",
    "case A2+A2": "acaba4d25d3488c79e3564d8ff5139924bd237af8ec45ba76b2d5be56b3bfb7d",
    "case A2+A2+A1": "b83d15989334e87f4b82257f1c6a146b42679350bcb94ae2771271b40ba28e35",
    "case A3": "544cf63d6f6991114fb23cbda73d168f05536568e3d8395331e16114df5afdea",
    "case A3+A1": "69857e7962d61a6a09fe4c619f384f1a1ff6f1bbc895a3833a8227c0bef68a4e",
    "case A3+A1+A1": "781cb12649bfeac4ca800a644a74c2c2732a401ed255d8dd2b99231083013c02",
    "case A4": "0355bc64deb9bc2bd205f132aa268a46eeca9f3b94ce1cf4694155168e44ea2f",
    "case A4+A1": "4f26891e3c05719fc01ce991b74d23fb6b5916b531829e31bb9c068ea6321ee1",
    "case A5": "3066961b7c3c15e36786809563939e259675e4fb2bbdf7f53cb38eb86831063f",
    "case A5+A1": "8fb137c422e3e84a034ef5dbee57dd2a8624f7f58303de7bba9b421461a99fcd",
    "case D4": "1d0f41d12bd876548f6a1f50ced119c25f8ea861dc5cf314c2f0cdf1bfd173e0",
    "case D5": "2087461ca6b961755fc58ffcf21e26795829b8ddbb0a8f97028bacddf1af551c",
    "case E6": "bdce6e14de2f972f3a9682e8dabc8a944301b44972635d6d97888b6d90093d8d",
    "equivariant cayley --json": "420a396116a9e8b5e76c470f6a0575f764afb2c800e2eca4d7214dc31213a42b",
    "equivariant xyzt3 --json": "42f89b8ad8f200560ce45de68669482870f5db912cdfc2594d57a6b98b21762c",
    "fiberwise fiber_d4 --json": "af5c758909ef9947fa83089d9b4489698e78148808de987a20d48335913aa133",
    "fiberwise fiber_d5 --json": "3c5a4255ec6b374b4de6945eb53b1bf4aac0b82219fef63b22e9bdf7b5da405f",
    "fiberwise fiber_e6 --json": "3769fb63880e37f4c5ac0d8d1b94c532d311293c1a42a9f8ea5d5ad62d2ac9aa",
    **{f"case {profile} --json": digests[0] for profile, digests in PINNED.items()},
}


def test_every_bundled_report_is_pinned(capsys):
    changed = {}
    for argv, pinned in REPORTS.items():
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        if argv == "table --json":   # the one report that carries a wall-clock time
            out, n = re.subn(r',\n  "elapsed_ms": \d+\n', "\n", out)
            assert n == 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != pinned:
            changed[argv] = digest
    assert not changed, "new digests:\n" + "\n".join(
        f"    {argv!r}: {digest!r}," for argv, digest in changed.items())


def test_failed_elimination_report_is_pinned(capsys, tmp_path):
    # xyzt3 with swap_xy and cycle_xyz acting as the identity: every line is
    # its own orbit, so only the upper bound 1 stands
    from cubiclct.cli import fixture_dir
    text = Path(str(fixture_dir() / "xyzt3.yaml")).read_text()
    for perm in ("{L1: L2, L2: L1, L3: L3}", "{L1: L2, L2: L3, L3: L1}"):
        assert perm in text
        text = text.replace(perm, "{L1: L1, L2: L2, L3: L3}")
    (tmp_path / "xyzt3.yaml").write_text(text)
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "equivariant", "xyzt3", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["elimination_error"] == \
        "invariant union of lines ['L1'] has degree 1 <= 2"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e4619f06d1e0c4df182e60a58b396e5845a0dcced0bbb8e7b937493a44e3122e"

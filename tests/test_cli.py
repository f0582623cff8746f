import json
from pathlib import Path

import pytest

from cubiclct.cli import main
from cubiclct.linsys import LinearSystem, parse_row


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
    ("incidence: {O: 1}", "a3: curves[1] (L2).incidence.O: expected a list, got 1"),
    ("incidence: {O: [1, 0, 0]}, pairwise: [L1, 1]",
     "a3: curves[1] (L2).pairwise: expected a mapping, got ['L1', 1]"),
    ("incidence: {P: [1, 0, 0]}", "error: a3: curves[1]: unknown point 'P'"),
])
def test_malformed_curve_field_is_located_parse_error(capsys, tmp_path, field, message):
    _fixture_copy(tmp_path, "a3", "{id: L2, kind: line, incidence: {O: [1, 0, 0]}}",
                  "{id: L2, kind: line, " + field + "}")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_fiberwise_map_as_list_is_located_parse_error(capsys, tmp_path):
    _fixture_copy(tmp_path, "fiber_e6", "map: {x: 2, y: 3, z: 0, w: 6}",
                  "map: [2, 3, 0, 6]")
    code, _, err = run(capsys, "--fixtures", str(tmp_path), "fiberwise", "fiber_e6")
    assert code == 2
    assert "fiber_e6: fiberwise.map: expected a mapping, got [2, 3, 0, 6]" in err
    assert "Traceback" not in err


def test_kernel_self_check_failure_exits_one(capsys, monkeypatch):
    from cubiclct import linsys
    monkeypatch.setattr(linsys, "replay_certificate", lambda system, cert: False)
    code, out, err = run(capsys, "case", "A5")
    assert code == 1
    assert out == ""
    assert "self-check" in err


def test_duplicate_profile_is_parse_error(capsys, tmp_path):
    _fixture_copy(tmp_path, "a5")
    _fixture_copy(tmp_path, "a5", as_name="a5copy")
    code, _, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert code == 2
    assert "'a5'" in err and "'a5copy'" in err


def test_case_rejects_duplicate_profile_like_table(capsys, tmp_path):
    _fixture_copy(tmp_path, "a5")
    _fixture_copy(tmp_path, "a5", as_name="a5copy")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "case", "A5")
    assert code == 2
    assert out == ""
    assert "'a5'" in err and "'a5copy'" in err
    # a fixture name is not ambiguous
    code, _, _ = run(capsys, "--fixtures", str(tmp_path), "case", "a5copy")
    assert code == 0


def test_malformed_equivalence_term_is_located_parse_error(capsys, tmp_path):
    _fixture_copy(tmp_path, "a3", '  - [["1", L1], ["1", L2], ["1", L3]]',
                  '  - [["1", L1, 3], ["1", L2], ["1", L3]]')
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert code == 2
    assert out == ""
    assert ("error: a3: equivalences[0][0]: expected a [multiplicity, curve] pair, "
            "got ['1', 'L1', 3]") in err


def test_fiberwise_identity_needs_all_three_fields(capsys, tmp_path):
    _fixture_copy(tmp_path, "fiber_e6", "  target_poly:", "  unused_poly:")
    code, _, err = run(capsys, "--fixtures", str(tmp_path), "fiberwise", "fiber_e6")
    assert code == 2
    assert "fiberwise: source_poly, target_poly and map go together" in err
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


def test_inconsistent_table_exits_one(capsys, tmp_path):
    # a verified omega of 2/3 filed under A2, whose clause gives 1/2
    _fixture_copy(tmp_path, "a1", "profile: [A1]", "profile: [A2]")
    code, out, err = run(capsys, "--fixtures", str(tmp_path), "table")
    assert code == 1
    assert out == ""
    assert "differs from clause value 1/2" in err


def test_case_a5_json(capsys):
    code, payload, _ = run(capsys, "case", "A5", "--json")
    assert code == 0
    data = json.loads(payload)
    assert data["omega"] == "1/4"
    assert data["verified"] is True
    leaves = data["lower"]["leaves"]
    assert len(leaves) == 9
    assert all("certificate" in leaf for leaf in leaves)


def test_case_accepts_fixture_path(capsys, tmp_path):
    from cubiclct.cli import fixture_dir
    src = Path(str(fixture_dir() / "d4.yaml")).read_text()
    path = tmp_path / "d4_copy.yaml"
    path.write_text(src)
    code, out, _ = run(capsys, "case", str(path))
    assert code == 0
    assert "omega = 1/3" in out


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


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["certify"]) == 2


def test_fixture_dir_env_override(capsys, tmp_path, monkeypatch):
    from cubiclct.cli import ENV_FIXTURE_DIR, fixture_dir
    src = Path(str(fixture_dir() / "e6.yaml")).read_text()
    (tmp_path / "e6.yaml").write_text(src)
    monkeypatch.setenv(ENV_FIXTURE_DIR, str(tmp_path))
    code, out, _ = run(capsys, "case", "E6")
    assert code == 0
    assert "omega = 1/6" in out

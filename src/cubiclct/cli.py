"""Batch command-line front end.

Subcommands: ``table``, ``case``, ``pullback``, ``certify``, ``replay``,
``equivariant``, ``fiberwise``.  Exit codes: 0 all verified, 1 a
verification failed (the feasible witness point is printed, or the FM
kernel's own witness or certificate check failed), 2 input or usage error.
All rationals print as ``p/q``, never as decimals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

from cubiclct import engine, equivariant, fiberwise as fw
from cubiclct.lattice import pullback_coefficients
from cubiclct.linsys import (InfeasibilityCertificate, LinearSystem, SelfCheckFailed,
                             check_feasibility, Infeasible, replay_certificate)
from cubiclct.model import (ADMISSIBLE_PROFILES, CaseFixture, ParseError,
                            load_fixture, profile_key, validate_fixture)
from cubiclct.qexact import format_rat

ENV_FIXTURE_DIR = "CUBICLCT_FIXTURE_DIR"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def fixture_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(ENV_FIXTURE_DIR)
    if env:
        return Path(env)
    return Path(str(resources.files("cubiclct") / "fixtures"))


def load_all_fixtures(directory: Path) -> dict[str, CaseFixture]:
    fixtures = {}
    for path in sorted(directory.glob("*.yaml")):
        fixtures[path.stem] = load_fixture(path.read_text(), name=path.stem)
    return fixtures


def case_fixtures(fixtures: dict[str, CaseFixture]) -> dict[str, CaseFixture]:
    """Case fixtures keyed by profile; two fixtures of one profile are an error."""
    cases: dict[str, CaseFixture] = {}
    names: dict[str, str] = {}
    for name, f in fixtures.items():
        if f.script is None or f.witness is None:
            continue
        key = f.model.profile.key
        if key in names:
            raise ParseError(f"fixtures {names[key]!r} and {name!r} both declare "
                             f"profile {key}")
        cases[key], names[key] = f, name
    return cases


def _resolve_fixture(token: str, directory: Path) -> CaseFixture:
    path = Path(token)
    if path.exists():
        return load_fixture(path.read_text(), name=path.stem)
    fixtures = load_all_fixtures(directory)
    if token in fixtures:
        return fixtures[token]
    try:
        key = profile_key(token.split("+"))
    except Exception:
        key = token
    cases = case_fixtures(fixtures)   # the rule `table` uses: one fixture per profile
    if key in cases:
        return cases[key]
    raise ParseError(f"no fixture named or matching {token!r} under {directory}")


def _case_json(result: engine.CaseResult) -> dict:
    return {
        "profile": result.profile.key,
        "omega": format_rat(result.omega_upper),
        "expected_omega": format_rat(result.expected_omega),
        "upper": {
            "witness_minima": list(result.upper.minima),
            "ratios": [[name, format_rat(v)] for name, v in result.upper.ratios],
        },
        "lower": {
            "leaves": [
                {
                    "name": leaf.name,
                    "rows": leaf.system.pretty(),
                    **({"certificate": leaf.certificate.to_json()}
                       if leaf.certificate else
                       {"feasible_witness": {k: format_rat(v)
                                             for k, v in leaf.witness.items()}}),
                }
                for leaf in result.lower.leaves
            ],
            "assumptions": [
                {"tag": a.tag, "note": a.note,
                 **({"checked": a.checked} if a.checked is not None else {})}
                for a in result.lower.assumptions
            ],
        },
        "verified": result.verified,
    }


def _print_case_text(result: engine.CaseResult) -> None:
    print(f"profile {result.profile.key}: omega = {format_rat(result.omega_upper)} "
          f"(expected {format_rat(result.expected_omega)})")
    print(f"  upper bound attained by: {', '.join(result.upper.minima)}")
    for leaf in result.lower.leaves:
        if leaf.certificate is not None:
            mults = [m for m in leaf.certificate.multipliers if m != 0]
            print(f"  [infeasible] {leaf.name} ({len(mults)} active multipliers)")
        else:
            point = ", ".join(f"{k}={format_rat(v)}" for k, v in leaf.witness.items())
            print(f"  [FEASIBLE]   {leaf.name}  witness: {point}")
    for a in result.lower.assumptions:
        status = "" if a.checked is None else (" [checked]" if a.checked else " [FAILED]")
        print(f"  assumption ({a.tag}){status}: {a.note}")
    print(f"  verified: {result.verified}")


def _report_findings(fixture: CaseFixture) -> bool:
    """Print the fixture's validation findings; True when there are any."""
    findings = validate_fixture(fixture)
    for f in findings:
        print(f"invalid fixture: {fixture.name}: {f}", file=sys.stderr)
    return bool(findings)


def cmd_table(args) -> int:
    t0 = time.monotonic()
    fixtures = case_fixtures(load_all_fixtures(fixture_dir(args.fixtures)))
    items = sorted(fixtures.items())
    invalid = [key for key, fixture in items if _report_findings(fixture)]
    if invalid:
        return EXIT_USAGE
    results = {key: engine.compute_case_threshold(fixture) for key, fixture in items}
    try:
        table = engine.assemble_table(results, ADMISSIBLE_PROFILES)
    except engine.Inconsistent as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    elapsed_ms = int((time.monotonic() - t0) * 1000)

    if args.json:
        payload = {
            "command": "table",
            "clauses": [{"clause": c, "omega": format_rat(v)} for c, v in table.clauses],
            "rows": [{"profile": r.profile, "omega": format_rat(r.omega),
                      "clause": r.clause, "status": r.status} for r in table.rows],
            "all_verified": table.all_verified,
            "elapsed_ms": elapsed_ms,
        }
        print(json.dumps(payload, indent=2))
    else:
        print("global log canonical thresholds of singular cubic surfaces")
        for clause, omega in table.clauses:
            print(f"  {format_rat(omega):>4}  when {clause}")
        print()
        for row in table.rows:
            print(f"  {row.profile:<12} omega = {format_rat(row.omega):>4}  [{row.status}]")
        print(f"\nelapsed: {elapsed_ms} ms")
    return EXIT_OK if table.all_verified else EXIT_FAILED


def cmd_case(args) -> int:
    fixture = _resolve_fixture(args.profile, fixture_dir(args.fixtures))
    if fixture.script is None or fixture.witness is None:
        kind = "equivariant" if fixture.group else "fiberwise"
        print(f"fixture {fixture.name!r} has no case script; try "
              f"`cubiclct {kind} {fixture.name}`", file=sys.stderr)
        return EXIT_USAGE
    if _report_findings(fixture):
        return EXIT_USAGE
    result = engine.compute_case_threshold(fixture)
    if args.json:
        payload = {"command": f"case {args.profile}", **_case_json(result)}
        print(json.dumps(payload, indent=2))
    else:
        _print_case_text(result)
    return EXIT_OK if result.verified else EXIT_FAILED


def cmd_pullback(args) -> int:
    fixture = _resolve_fixture(args.fixture, fixture_dir(args.fixtures))
    curve = fixture.model.curve(args.curve)
    lattice = fixture.model.lattice(args.point)
    vec = curve.incidence_at(args.point)
    if vec is None:
        print(f"curve {args.curve} does not meet the exceptional locus over "
              f"{args.point}", file=sys.stderr)
        return EXIT_USAGE
    pv = pullback_coefficients(lattice, list(vec), curve.id)
    coeffs = ", ".join(format_rat(c) for c in pv.coefficients)
    print(f"{curve.id} at {args.point} ({lattice.ade.label}): ({coeffs})")
    return EXIT_OK


def cmd_certify(args) -> int:
    system = LinearSystem.from_json(json.loads(Path(args.system).read_text()))
    outcome = check_feasibility(system)
    if isinstance(outcome, Infeasible):
        print(json.dumps({"status": "infeasible",
                          "certificate": outcome.certificate.to_json()}, indent=2))
        return EXIT_OK
    print(json.dumps({"status": "feasible",
                      "witness": {k: format_rat(v) for k, v in outcome.witness.items()}},
                     indent=2))
    return EXIT_FAILED


def cmd_replay(args) -> int:
    system = LinearSystem.from_json(json.loads(Path(args.system).read_text()))
    cert = InfeasibilityCertificate.from_json(json.loads(Path(args.certificate).read_text()))
    ok = replay_certificate(system, cert)
    print(json.dumps({"replay": bool(ok)}))
    return EXIT_OK if ok else EXIT_FAILED


def cmd_equivariant(args) -> int:
    fixture = _resolve_fixture(args.fixture, fixture_dir(args.fixtures))
    if fixture.group is None:
        print("fixture has no group data", file=sys.stderr)
        return EXIT_USAGE
    result = equivariant.invariant_threshold(fixture)
    payload = {
        "group": result.group_name,
        "image_order": result.image_order,
        "upper": format_rat(result.upper),
        "lct": format_rat(result.lct) if result.lct is not None else None,
        "ke": result.ke,
        "assumptions": list(result.assumptions),
        **({"elimination": result.trace.conclusion} if result.trace else
           {"elimination_error": result.elimination_error}),
    }
    print(json.dumps(payload, indent=2) if args.json else
          "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return EXIT_OK if result.verified else EXIT_FAILED


def cmd_fiberwise(args) -> int:
    fixture = _resolve_fixture(args.fixture, fixture_dir(args.fixtures))
    data = fixture.fiberwise
    if data is None:
        print("fixture has no fiberwise data", file=sys.stderr)
        return EXIT_USAGE
    payload: dict = {"lct_pair": [format_rat(v) for v in data.lct_pair]}
    ok = True
    if data.source_poly is not None:
        source = fw.Poly.from_terms(data.source_poly)
        target = fw.Poly.from_terms(data.target_poly)
        mapping = fw.SubstitutionMap.from_dict(dict(data.map_powers))
        try:
            k = fw.substitute_and_factor(target, mapping, source)
        except fw.NoFactorization:
            k = None   # the substitution identity fails: a verification failure
        payload["k"] = k
        ok = k is not None and (data.expected_k is None or k == data.expected_k)
    verdict = fw.biregularity_criterion(data.lct_pair[0], data.lct_pair[1],
                                        data.log_terminal[0], data.log_terminal[1])
    payload["verdict"] = verdict.verdict
    payload["clause"] = verdict.clause
    ok = ok and verdict.verdict == data.expected_verdict
    payload["verified"] = ok
    print(json.dumps(payload, indent=2) if args.json else
          "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubiclct",
        description="exact verification of log canonical thresholds on cubic surfaces")
    parser.add_argument("--fixtures", help=f"fixture directory (default: bundled; "
                                           f"env {ENV_FIXTURE_DIR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="classification table with verification status")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("case", help="full case result with certificates")
    p.add_argument("profile", help="profile key (e.g. A5), fixture name, or path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_case)

    p = sub.add_parser("pullback", help="pullback coefficient vector of a curve")
    p.add_argument("fixture")
    p.add_argument("curve")
    p.add_argument("point")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("certify", help="decide a standalone system file")
    p.add_argument("system")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("replay", help="replay a certificate against a system")
    p.add_argument("system")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("equivariant", help="invariant threshold of a group fixture")
    p.add_argument("fixture")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equivariant)

    p = sub.add_parser("fiberwise", help="substitution exponent and biregularity verdict")
    p.add_argument("fixture")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fiberwise)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SelfCheckFailed as exc:
        print(f"verification failed: self-check: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (ParseError, FileNotFoundError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

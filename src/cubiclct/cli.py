"""Batch command-line front end.

Subcommands: ``table``, ``case``, ``pullback``, ``certify``, ``replay``,
``equivariant``, ``fiberwise``.  Exit codes: 0 all verified, 1 a
verification failed (the feasible witness point is printed, a leaf refuted
without its closure row is named, a verified omega differs from its
classification clause, the FM kernel's own witness or certificate check
failed, or stdout was closed before the report was written), 2 input or usage
error: every such fault is a ``ParseError`` raised where it is found, or a
printed validation finding, and ``main`` is the one place that exits 2.
All rationals print as ``p/q``, never as decimals.
"""

from __future__ import annotations

import argparse
import functools
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

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def fixture_dir(override: str | None = None) -> Path:
    """``override``, which must be a directory, else the fixture directory
    bundled with the package."""
    if not override:
        return Path(str(resources.files("cubiclct") / "fixtures"))
    if not _at_path(Path.is_dir, override):
        raise ParseError(f"--fixtures {override}: not a directory")
    return Path(override)


def _at_path(call, path):
    """``call(Path(path))``; an OSError, or a file that is not UTF-8, is a
    ParseError that names ``path``."""
    try:
        return call(Path(path))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read(path) -> str:
    return _at_path(functools.partial(Path.read_text, encoding="utf-8"), path)


def _load(path: Path) -> CaseFixture:
    return load_fixture(_read(path), name=path.stem)


def load_all_fixtures(directory: Path) -> dict[str, CaseFixture]:
    """The fixtures under ``directory`` by file stem."""
    return {path.stem: _load(path) for path in sorted(directory.glob("*.yaml"))}


def _case_stem(key: str) -> str:
    """The file stem of profile ``key``'s case fixture: ``A5+A1`` is ``a5a1``."""
    return key.replace("+", "").lower()


def case_fixtures(fixtures: dict[str, CaseFixture]) -> dict[str, CaseFixture]:
    """Case fixtures keyed by profile; each file stem must be its profile's
    ``_case_stem``, so no two can declare one profile."""
    cases: dict[str, CaseFixture] = {}
    for stem, f in fixtures.items():
        if f.script is None:
            continue
        key = f.model.profile.key
        if stem != _case_stem(key):
            raise ParseError(f"{stem}: the case fixture of profile {key} must be named "
                             f"{_case_stem(key)}.yaml")
        cases[key] = f
    return cases


class InvalidFixture(Exception):
    """Validation findings were printed; ``main`` exits 2."""


def _check_valid(fixtures) -> None:
    """Print every validation finding of ``fixtures``; InvalidFixture if any."""
    lines = [f"invalid fixture: {f.name}: {x}" for f in fixtures for x in validate_fixture(f)]
    if lines:
        print("\n".join(lines), file=sys.stderr)
        raise InvalidFixture


def _open_fixture(token: str, directory: Path) -> CaseFixture:
    """The validated fixture that ``token`` names: a path, else the file
    ``<directory>/<token>.yaml``, else the case fixture of profile ``token``,
    the file that ``_case_stem`` names.  Each step reads one file."""
    for path in (Path(token), directory / f"{token}.yaml"):
        if _at_path(Path.is_file, path):
            fixture = _load(path)
            break
    else:
        try:
            key = profile_key(token.split("+"))
        except ValueError:
            key = token
        path = directory / f"{_case_stem(key)}.yaml"
        fixture = (case_fixtures({path.stem: _load(path)}).get(key)
                   if _at_path(Path.is_file, path) else None)
        if fixture is None:
            raise ParseError(f"no fixture named or matching {token!r} under {directory}")
    _check_valid([fixture])
    return fixture


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
        if leaf.vacuous:
            print(f"  [VACUOUS]    {leaf.name}  infeasible without {leaf.system.pretty()[0]}")
        elif leaf.certificate is not None:
            mults = [m for m in leaf.certificate.multipliers if m != 0]
            print(f"  [infeasible] {leaf.name} ({len(mults)} active multipliers)")
        else:
            point = ", ".join(f"{k}={format_rat(v)}" for k, v in leaf.witness.items())
            print(f"  [FEASIBLE]   {leaf.name}  witness: {point}")
    for a in result.lower.assumptions:
        status = "" if a.checked is None else (" [checked]" if a.checked else " [FAILED]")
        print(f"  assumption ({a.tag}){status}: {a.note}")
    print(f"  verified: {result.verified}")


def cmd_table(args) -> int:
    t0 = time.monotonic()
    directory = fixture_dir(args.fixtures)
    fixtures = case_fixtures(load_all_fixtures(directory))
    if not fixtures:
        raise ParseError(f"no case fixture under {directory}")
    items = sorted(fixtures.items())
    _check_valid(fixture for _, fixture in items)
    results = {key: engine.compute_case_threshold(fixture) for key, fixture in items}
    table = engine.assemble_table(results, ADMISSIBLE_PROFILES)
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
    fixture = _open_fixture(args.profile, fixture_dir(args.fixtures))
    if fixture.script is None:
        kind = "equivariant" if fixture.group else "fiberwise" if fixture.fiberwise else None
        hint = f"; try `cubiclct {kind} {fixture.name}`" if kind else ""
        raise ParseError(f"fixture {fixture.name!r} has no case script{hint}")
    result = engine.compute_case_threshold(fixture)
    engine.check_clause(result)
    if args.json:
        payload = {"command": f"case {args.profile}", **_case_json(result)}
        print(json.dumps(payload, indent=2))
    else:
        _print_case_text(result)
    return EXIT_OK if result.verified else EXIT_FAILED


def cmd_pullback(args) -> int:
    fixture = _open_fixture(args.fixture, fixture_dir(args.fixtures))
    try:
        curve = fixture.model.curve_map[args.curve]
        ade = fixture.model.ade(args.point)
    except KeyError as exc:
        raise ParseError(f"{fixture.name}: no curve or point {exc}") from exc
    vec = curve.incidence_at(args.point)
    if vec is None:
        raise ParseError(f"curve {args.curve} does not meet the exceptional locus over "
                         f"{args.point}")
    coeffs = ", ".join(format_rat(c) for c in pullback_coefficients(ade, list(vec)))
    print(f"{curve.id} at {args.point} ({ade.label}): ({coeffs})")
    return EXIT_OK


def _read_json(path: str, from_json):
    """``from_json`` of the JSON file at ``path``; a malformed document is a
    ParseError that names the file."""
    text = _read(path)   # its ParseError names the file already
    try:
        return from_json(json.loads(text))
    except (ParseError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def cmd_certify(args) -> int:
    system = _read_json(args.system, LinearSystem.from_json)
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
    system = _read_json(args.system, LinearSystem.from_json)
    cert = _read_json(args.certificate, InfeasibilityCertificate.from_json)
    ok = replay_certificate(system, cert)
    print(json.dumps({"replay": bool(ok)}))
    return EXIT_OK if ok else EXIT_FAILED


def cmd_equivariant(args) -> int:
    fixture = _open_fixture(args.fixture, fixture_dir(args.fixtures))
    if fixture.group is None:
        raise ParseError(f"fixture {fixture.name!r} has no group data")
    result = equivariant.invariant_threshold(fixture)
    payload = {
        "group": result.group_name,
        "image_order": result.image_order,
        "upper": format_rat(result.upper),
        "lct": format_rat(result.lct) if result.lct is not None else None,
        "ke": result.ke,
        "assumptions": list(result.assumptions),
        ("elimination" if result.verified else "elimination_error"): result.elimination,
    }
    print(json.dumps(payload, indent=2) if args.json else
          "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return EXIT_OK if result.verified else EXIT_FAILED


def cmd_fiberwise(args) -> int:
    fixture = _open_fixture(args.fixture, fixture_dir(args.fixtures))
    data = fixture.fiberwise
    if data is None:
        raise ParseError(f"fixture {fixture.name!r} has no fiberwise data")
    payload: dict = {"lct_pair": [format_rat(v) for v in data.lct_pair]}
    ok = True
    if data.source_poly is not None:
        source = fw.Poly.from_terms(data.source_poly)
        target = fw.Poly.from_terms(data.target_poly)
        mapping = fw.SubstitutionMap.from_dict(dict(data.map_powers))
        k = fw.substitute_and_factor(target, mapping, source)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command grammar, built on the first call and shared by every later
    one: it depends on no input, and ``parse_args`` does not change it."""
    parser = argparse.ArgumentParser(
        prog="cubiclct",
        description="exact verification of log canonical thresholds on cubic surfaces")
    parser.add_argument("--fixtures", help="fixture directory (default: bundled)")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()   # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # No reader is left for the report.  Point stdout at the null device,
        # so that the flush at exit does not fail again, and print nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED
    except SelfCheckFailed as exc:
        print(f"verification failed: self-check: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except engine.Inconsistent as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except InvalidFixture:
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

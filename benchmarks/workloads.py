"""The four benchmark workloads and the checks that judge every op.

Each workload turns a seed into a fixed list of inputs and runs one op per
input.  An op calls cubiclct's public functions and then checks the output
against answers transcribed in ``expected.py`` or against the op's own input
(a witness must satisfy every row, a certificate must replay).  An op that
raises or fails a check counts as failed; an op that runs past its
workload's time limit counts as undecided.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import signal
import sys
import traceback
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path
from types import SimpleNamespace

import expected

MODULES = ("qexact", "lattice", "model", "linsys", "engine", "equivariant",
           "fiberwise", "cli")


class CheckFailed(Exception):
    """The program's output disagrees with the expected answer."""


class OpTimeout(BaseException):
    """An op ran past its time limit.

    A ``BaseException``, so no ``except Exception`` inside the program can
    swallow it.
    """


def load_program(src: Path) -> SimpleNamespace:
    """Import cubiclct afresh from ``src``; its modules by short name.

    Earlier imports are dropped first, so every call pays the full import.
    Ops reach the program only through these module attributes, which is
    what lets the traced run wrap them.
    """
    for name in [m for m in sys.modules if m == "cubiclct" or m.startswith("cubiclct.")]:
        del sys.modules[name]
    prog = SimpleNamespace(**{n: importlib.import_module(f"cubiclct.{n}") for n in MODULES})
    origin = Path(prog.model.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"cubiclct was imported from {origin}, not from {src}")
    return prog


def _alarm(signum, frame):
    raise OpTimeout


def attempt(op, limit_s: float, label: str) -> str:
    """Run ``op()`` under a wall-clock limit: ``ok``, ``failed`` or ``timeout``."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            op()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout"
    except CheckFailed as exc:
        print(f"check failed: {label}: {exc}", file=sys.stderr)
        return "failed"
    except Exception:
        print(f"op raised: {label}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return "failed"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return "ok"


# --- checks ---------------------------------------------------------------------


def check_witness(system, witness: dict) -> None:
    """Evaluate every row at the witness point, independently of cubiclct."""
    point = [Q(witness[v]) for v in system.variables]
    for i, row in enumerate(system.rows):
        value = sum((c * x for c, x in zip(row.coeffs, point)), Q(0))
        holds = value > row.constant if row.relation == ">" else value >= row.constant
        if not holds:
            raise CheckFailed(f"witness violates row {i}: {value} {row.relation} "
                              f"{row.constant} is false")


def check_certificate(prog, system, certificate) -> None:
    if not prog.linsys.replay_certificate(system, certificate):
        raise CheckFailed("Farkas certificate does not replay")


def check_table(table) -> None:
    """The assembled table must match the 8 clauses and all 20 rows."""
    if tuple(table.clauses) != expected.CLAUSES:
        raise CheckFailed(f"clauses differ: {table.clauses}")
    got = {r.profile: (r.clause, r.omega, r.status) for r in table.rows}
    if len(got) != len(table.rows):
        raise CheckFailed("table repeats a profile")
    wrong = sorted(p for p in got.keys() | expected.TABLE.keys()
                   if got.get(p) != expected.TABLE.get(p))
    if wrong:
        raise CheckFailed(f"table rows differ from the paper: {wrong}")


def _check_case(prog, profile: str, result) -> None:
    if result.profile.key != profile:
        raise CheckFailed(f"profile {result.profile.key}, expected {profile}")
    if result.omega_upper != expected.CASE_OMEGA[profile]:
        raise CheckFailed(f"{profile}: witness omega {result.omega_upper}, "
                          f"paper {expected.CASE_OMEGA[profile]}")
    if not result.verified or not result.lower.verified:
        raise CheckFailed(f"{profile}: not verified")
    for leaf in result.lower.leaves:
        if leaf.certificate is None:
            raise CheckFailed(f"{profile}: leaf {leaf.name!r} is feasible")
        check_certificate(prog, leaf.system, leaf.certificate)
    if any(a.checked is False for a in result.lower.assumptions):
        raise CheckFailed(f"{profile}: an assumption's exclusion system is feasible")


# --- workloads ------------------------------------------------------------------


class Table:
    """Verify one bundled fixture from its YAML text; a pass ends with the table."""

    name = "table"
    limit_s = 60.0

    def __init__(self):
        self._results = {}

    def inputs(self, prog, seed: int) -> list:
        directory = Path(str(prog.cli.fixture_dir()))
        names = tuple(sorted(p.stem for p in directory.glob("*.yaml")))
        if names != expected.FIXTURE_NAMES:
            raise CheckFailed(f"bundled fixtures are {names}")
        return [(name, (directory / f"{name}.yaml").read_text(), name == names[-1])
                for name in names]

    def label(self, item) -> str:
        return item[0]

    def run(self, prog, item, tally: Counter) -> None:
        name, text, closes_pass = item
        fixture = prog.model.load_fixture(text, name=name)
        findings = prog.model.validate_fixture(fixture)
        if findings:
            raise CheckFailed(f"{name}: validation findings {findings}")
        if name in expected.CASE_FIXTURES:
            profile = expected.CASE_FIXTURES[name]
            result = prog.engine.compute_case_threshold(fixture)
            _check_case(prog, profile, result)
            self._results[profile] = result
        elif name in expected.EQUIVARIANT:
            result = prog.equivariant.invariant_threshold(fixture)
            if (result.lct, result.ke) != expected.EQUIVARIANT[name]:
                raise CheckFailed(f"{name}: lct {result.lct}, KE {result.ke}")
        else:
            want_k, want_verdict = expected.FIBERWISE[name]
            data = fixture.fiberwise
            k = None
            if data.source_poly is not None:
                fw = prog.fiberwise
                k = fw.substitute_and_factor(
                    fw.Poly.from_terms(data.target_poly),
                    fw.SubstitutionMap.from_dict(dict(data.map_powers)),
                    fw.Poly.from_terms(data.source_poly))
            verdict = prog.fiberwise.biregularity_criterion(
                data.lct_pair[0], data.lct_pair[1], *data.log_terminal)
            if (k, verdict.verdict) != (want_k, want_verdict):
                raise CheckFailed(f"{name}: k {k}, verdict {verdict.verdict}")
        if closes_pass:
            results, self._results = self._results, {}
            check_table(prog.engine.assemble_table(results, prog.model.ADMISSIBLE_PROFILES))


def _case_fixtures(prog) -> list:
    """The 17 parsed case fixtures, sorted by profile key."""
    fixtures = prog.cli.load_all_fixtures(prog.cli.fixture_dir())
    cases = prog.cli.case_fixtures(fixtures)
    if sorted(cases) != sorted(expected.CASE_OMEGA):
        raise CheckFailed(f"case fixtures cover {sorted(cases)}")
    return [cases[p] for p in sorted(cases)]


class Audit:
    """``mutation_audit`` on one case script; fixtures are parsed in set-up."""

    name = "audit"
    limit_s = 60.0

    def inputs(self, prog, seed: int) -> list:
        return _case_fixtures(prog)

    def label(self, item) -> str:
        return item.model.profile.key

    def run(self, prog, item, tally: Counter) -> None:
        records = prog.engine.mutation_audit(item)
        authored = [r for r in records if r.authored]
        for r in authored:
            if r.flips == r.declared_redundant:
                raise CheckFailed(f"{self.label(item)}: row {r.text!r} at {r.location} "
                                  f"flips={r.flips}, declared redundant={r.declared_redundant}")
        if not any(r.flips for r in authored):
            raise CheckFailed(f"{self.label(item)}: no essential row")
        tally["engine.audit_flips"] += sum(r.flips for r in records)

    def support_pairs(self, prog, items) -> tuple[int, int]:
        """(row, leaf) pairs over all leaves, and those whose row has a nonzero
        multiplier in the leaf's certificate.  By Farkas' lemma only the
        latter need re-solving when an audit deletes the row."""
        pairs = support = 0
        for fixture in items:
            script = fixture.script
            for leaf in prog.engine.materialize_leaves(fixture):
                system = prog.linsys.LinearSystem(script.variables,
                                                  tuple(r.row for r in leaf.rows))
                multipliers = prog.linsys.check_feasibility(system).certificate.multipliers
                pairs += len(multipliers)
                support += sum(m != 0 for m in multipliers)
        return pairs, support


class Cli:
    """In-process ``cubiclct case <profile> --json``; certificates are read back."""

    name = "cli"
    limit_s = 60.0

    def inputs(self, prog, seed: int) -> list:
        items = []
        for fixture in _case_fixtures(prog):
            script = fixture.script
            leaves = {leaf.name: prog.linsys.LinearSystem(
                          script.variables, tuple(r.row for r in leaf.rows))
                      for leaf in prog.engine.materialize_leaves(fixture)}
            items.append((fixture.model.profile.key, leaves))
        return items

    def label(self, item) -> str:
        return item[0]

    def run(self, prog, item, tally: Counter) -> None:
        profile, leaf_systems = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = prog.cli.main(["case", profile, "--json"])
        text = out.getvalue()
        tally["cli.json_bytes"] += len(text.encode())
        if code != 0:
            raise CheckFailed(f"{profile}: exit code {code}: {err.getvalue().strip()}")
        report = json.loads(text)
        if report["verified"] is not True or report["profile"] != profile:
            raise CheckFailed(f"{profile}: report says verified={report['verified']}")
        if Q(report["omega"]) != expected.CASE_OMEGA[profile]:
            raise CheckFailed(f"{profile}: omega {report['omega']}")
        leaves = report["lower"]["leaves"]
        if sorted(leaf["name"] for leaf in leaves) != sorted(leaf_systems):
            raise CheckFailed(f"{profile}: leaf names differ from the script")
        for leaf in leaves:
            if "certificate" not in leaf:
                raise CheckFailed(f"{profile}: leaf {leaf['name']!r} has no certificate")
            cert = prog.linsys.InfeasibilityCertificate.from_json(leaf["certificate"])
            check_certificate(prog, leaf_systems[leaf["name"]], cert)


#: The dense corpus: draws of the criterion-3 style generator at a fixed base
#: seed.  FM cost on such draws spans four decades (about 1 ms to past 5 s),
#: so independent draws per seed would need thousands of systems for a steady
#: median.  ``--seed`` instead permutes the rows and mirrors variables
#: (x -> -x) of every corpus system: new systems of the same shape and the
#: same FM blow-up.
DENSE_BASE_SEED = 0
DENSE_DRAWS = 100
DENSE_VARS = 4


def _dense_corpus() -> list:
    rng = random.Random(DENSE_BASE_SEED)
    corpus = []
    for i in range(DENSE_DRAWS):
        planted = i % 2 == 0
        nrows = 8 + (i // 2) % 3
        if planted:
            point = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(DENSE_VARS)]
        rows = []
        for _ in range(nrows):
            coeffs = tuple(Q(rng.randint(-4, 4)) for _ in range(DENSE_VARS))
            strict = rng.random() < 0.4
            if planted:
                slack = Q(rng.randint(0, 4), rng.randint(1, 2))
                if strict:
                    slack += Q(1, rng.randint(1, 3))
                constant = sum((c * x for c, x in zip(coeffs, point)), Q(0)) - slack
            else:
                constant = Q(rng.randint(-5, 5))
            rows.append((coeffs, constant, ">" if strict else ">="))
        corpus.append((planted, rows))
    return corpus


class DenseFm:
    """``check_feasibility`` on one dense 4-variable system, under a time limit."""

    name = "dense_fm"
    limit_s = 2.0

    def inputs(self, prog, seed: int) -> list:
        rng = random.Random(seed)
        variables = tuple(f"x{j}" for j in range(DENSE_VARS))
        items = []
        for planted, rows in _dense_corpus():
            rows = rng.sample(rows, len(rows))
            signs = [rng.choice((1, -1)) for _ in variables]
            system = prog.linsys.LinearSystem(variables, tuple(
                prog.linsys.Row(tuple(s * c for s, c in zip(signs, coeffs)), constant, rel)
                for coeffs, constant, rel in rows))
            items.append((len(items), planted, system))
        return items

    def label(self, item) -> str:
        return f"draw {item[0]}"

    def run(self, prog, item, tally: Counter) -> None:
        _, planted, system = item
        outcome = prog.linsys.check_feasibility(system)
        if isinstance(outcome, prog.linsys.Feasible):
            check_witness(system, outcome.witness)
        elif planted:
            raise CheckFailed("planted-feasible system reported Infeasible")
        else:
            check_certificate(prog, system, outcome.certificate)


WORKLOADS = {w.name: w for w in (Table(), Audit(), DenseFm(), Cli())}

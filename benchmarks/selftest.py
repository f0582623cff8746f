"""Self-tests of the benchmark: its checks catch wrong answers, and the seed
is used as documented.

``run.py`` runs these during set-up of every run and prints no result when
one fails.  Run them alone with ``python3 benchmarks/selftest.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import expected
from workloads import WORKLOADS, attempt, load_program

SRC = Path(__file__).resolve().parent.parent / "src"


class SelfTestFailed(Exception):
    pass


def _outcome(op, label: str) -> str:
    with contextlib.redirect_stderr(io.StringIO()):  # the expected failure reports
        return attempt(op, 30.0, f"self-test: {label}")


def _expect_caught(op, patch, label: str) -> None:
    """``op`` passes on the program's real output and fails once ``patch``
    doctors it; ``patch`` returns the function that undoes it."""
    if _outcome(op, label) != "ok":
        raise SelfTestFailed(f"{label}: the honest output does not pass")
    undo = patch()
    try:
        caught = _outcome(op, label) == "failed"
    finally:
        undo()
    if not caught:
        raise SelfTestFailed(f"{label}: the doctored output does not count as a failed op")


def _patch_check(linsys, doctor):
    real = linsys.check_feasibility

    def patch():
        linsys.check_feasibility = lambda system, **kw: doctor(system, real(system, **kw))
        return lambda: setattr(linsys, "check_feasibility", real)
    return patch


def check_faults_caught(prog) -> None:
    """A zeroed multiplier, a witness off one row and a flipped table status
    each make the op that sees them fail."""
    linsys, engine = prog.linsys, prog.engine
    dense = WORKLOADS["dense_fm"]
    variables = ("x", "y")
    infeasible = linsys.LinearSystem(variables, (
        linsys.Row((Q(1), Q(0)), Q(1), ">="),
        linsys.Row((Q(-1), Q(0)), Q(0), ">="),
        linsys.Row((Q(0), Q(1)), Q(0), ">")))
    feasible = linsys.LinearSystem(variables, (
        linsys.Row((Q(1), Q(1)), Q(1), ">="),
        linsys.Row((Q(1), Q(-1)), Q(0), ">")))

    def zero_one_multiplier(system, outcome):
        mults = list(outcome.certificate.multipliers)
        mults[next(i for i, m in enumerate(mults) if m != 0)] = Q(0)
        return linsys.Infeasible(linsys.InfeasibilityCertificate(
            tuple(mults), outcome.certificate.derived))

    def nudge_off_row(system, outcome):
        witness = dict(outcome.witness)
        row = system.rows[0]
        j = next(i for i, c in enumerate(row.coeffs) if c != 0)
        value = sum(c * witness[v] for c, v in zip(row.coeffs, variables))
        witness[variables[j]] -= (value - row.constant + 1) / row.coeffs[j]
        return linsys.Feasible(witness)

    _expect_caught(lambda: dense.run(prog, (0, False, infeasible), Counter()),
                   _patch_check(linsys, zero_one_multiplier),
                   "certificate with one multiplier zeroed")
    _expect_caught(lambda: dense.run(prog, (0, True, feasible), Counter()),
                   _patch_check(linsys, nudge_off_row),
                   "witness nudged off one row")

    # The op that closes a table pass, with a hand-built table standing in
    # for the assembled one.
    table = WORKLOADS["table"]
    closing = table.inputs(prog, 0)[-1]
    rows = tuple(engine.TableRow(p, omega, clause, status)
                 for p, (clause, omega, status) in sorted(expected.TABLE.items()))
    honest = engine.ThresholdTable(expected.CLAUSES, rows)
    first = rows[0]
    flipped = engine.ThresholdTable(expected.CLAUSES, (
        engine.TableRow(first.profile, first.omega, first.clause, "FAILED"),) + rows[1:])
    real = engine.assemble_table

    def serve(result):
        engine.assemble_table = lambda results, admissible: result
        return lambda: setattr(engine, "assemble_table", real)

    undo = serve(honest)
    try:
        _expect_caught(lambda: table.run(prog, closing, Counter()),
                       lambda: serve(flipped), "table with one status flipped")
    finally:
        undo()


def check_seed_use(prog, workload, items, seed: int) -> None:
    """``dense_fm`` draws differ between seeds but keep their shape; the
    other workloads do not depend on the seed."""
    other = workload.inputs(prog, seed + 1)
    if workload.name != "dense_fm":
        if other != items:
            raise SelfTestFailed(f"{workload.name}: inputs depend on the seed")
        return

    def shape(draws):
        return [(planted, len(s.variables), len(s.rows), sorted(r.relation for r in s.rows))
                for _, planted, s in draws]

    if shape(other) != shape(items):
        raise SelfTestFailed("dense_fm: two seeds give draws of different shapes")
    if sum(a[2] != b[2] for a, b in zip(items, other)) < len(items) // 2:
        raise SelfTestFailed("dense_fm: two seeds give the same draws")
    if any(abs(c) > 4 for _, _, s in other for r in s.rows for c in r.coeffs):
        raise SelfTestFailed("dense_fm: a coefficient is outside [-4, 4]")


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    prog = load_program(SRC)
    try:
        check_faults_caught(prog)
        for workload in WORKLOADS.values():
            check_seed_use(prog, workload, workload.inputs(prog, 7), 7)
    except SelfTestFailed as exc:
        print(f"self-test FAILED: {exc}", file=sys.stderr)
        return 1
    print("self-tests passed: 3 doctored outputs caught; seed use as documented "
          f"on {len(WORKLOADS)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())

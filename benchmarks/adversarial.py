"""The named adversarial FM system, run alone in its own process.

Draw 153 (counting from 0) of the criterion-3 planted-feasible generator at
seed 1234: 4 variables, 10 rows.  Fourier-Motzkin grows it level by level
(10 -> 19 -> 66 -> ~1000 rows) before the last pairing.  The system is
planted feasible, so the verdict must be Feasible with a witness that
satisfies all 10 rows.

Usage: ``python3 benchmarks/adversarial.py``; prints one JSON object with
the seconds ``check_feasibility`` took, the peak resident memory of this
process in MB, and the outcome (ok, failed or timeout).
"""

from __future__ import annotations

import json
import random
import resource
import sys
from fractions import Fraction as Q
from pathlib import Path
from time import perf_counter

from workloads import CheckFailed, attempt, check_witness, load_program

SRC = Path(__file__).resolve().parent.parent / "src"
SEED, DRAW, VARS, ROWS = 1234, 153, 4, 10
LIMIT_S = 45.0


def adversarial_rows() -> list:
    """Replay the generator's random stream up to the named draw."""
    rng = random.Random(SEED)
    for _ in range(DRAW + 1):
        n = rng.randint(1, 4)
        point = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 10)):
            coeffs = tuple(Q(rng.randint(-4, 4)) for _ in range(n))
            value = sum((c * x for c, x in zip(coeffs, point)), Q(0))
            strict = rng.random() < 0.4
            slack = Q(rng.randint(0, 4), rng.randint(1, 2))
            if strict:
                slack += Q(1, rng.randint(1, 3))
            rows.append((coeffs, value - slack, ">" if strict else ">="))
    if (n, len(rows)) != (VARS, ROWS):
        raise SystemExit(f"draw {DRAW} has shape {n}x{len(rows)}, expected {VARS}x{ROWS}")
    return rows


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    prog = load_program(SRC)
    linsys = prog.linsys
    system = linsys.LinearSystem(tuple(f"x{i}" for i in range(VARS)), tuple(
        linsys.Row(coeffs, constant, rel) for coeffs, constant, rel in adversarial_rows()))

    def op():
        outcome = linsys.check_feasibility(system)
        if not isinstance(outcome, linsys.Feasible):
            raise CheckFailed("planted-feasible system reported Infeasible")
        check_witness(system, outcome.witness)

    t0 = perf_counter()
    outcome = attempt(op, LIMIT_S, f"adversarial draw {DRAW}")
    seconds = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"seconds": seconds, "rss_mb": rss_mb, "outcome": outcome}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

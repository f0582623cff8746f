"""Exact feasibility of strict/non-strict rational linear inequality systems.

A row states ``sum(coeffs[i] * x[i])  REL  constant`` with REL one of
``>=`` or ``>``.  Feasibility is decided by Fourier-Motzkin elimination;
the elimination trace doubles as a Farkas-style refutation, so every
``Infeasible`` verdict comes with nonnegative multipliers that combine the
input rows into ``0 >= c`` with ``c > 0``, or into ``0 > c`` with
``c >= 0`` and a strict row weighted positively.  ``replay_certificate``
re-checks such a combination from scratch.

Systems are tiny (at most ~8 variables), which is why Fourier-Motzkin wins
over an exact simplex here: certificates fall out of the trace for free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction as Rat

from cubiclct.qexact import format_rat, parse_rat


class UnknownVariable(KeyError):
    pass


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Row:
    coeffs: tuple[Rat, ...]
    constant: Rat
    relation: str  # ">=" or ">"
    provenance: str = ""

    def __post_init__(self):
        if self.relation not in (">=", ">"):
            raise ValueError(f"bad relation {self.relation!r}")

    def evaluate(self, point: list[Rat]) -> bool:
        value = sum((c * x for c, x in zip(self.coeffs, point)), Rat(0))
        return value > self.constant if self.relation == ">" else value >= self.constant

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def constant_holds(self) -> bool:
        zero = Rat(0)
        return zero > self.constant if self.relation == ">" else zero >= self.constant

    def pretty(self, variables: tuple[str, ...]) -> str:
        terms = []
        for c, v in zip(self.coeffs, variables):
            if c == 0:
                continue
            if c == 1:
                terms.append(f"+ {v}")
            elif c == -1:
                terms.append(f"- {v}")
            elif c > 0:
                terms.append(f"+ {format_rat(c)}*{v}")
            else:
                terms.append(f"- {format_rat(-c)}*{v}")
        lhs = " ".join(terms).lstrip("+ ") or "0"
        return f"{lhs} {self.relation} {format_rat(self.constant)}"


@dataclass(frozen=True)
class LinearSystem:
    variables: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row.coeffs) != len(self.variables):
                raise DimensionMismatch("row width does not match variable count")

    def with_row(self, row: Row) -> "LinearSystem":
        return LinearSystem(self.variables, self.rows + (row,))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(name) from None

    def substitute(self, name: str, value: Rat) -> "LinearSystem":
        """Fix one variable to a rational value (used for display regression)."""
        idx = self.var_index(name)
        new_vars = self.variables[:idx] + self.variables[idx + 1:]
        new_rows = []
        for row in self.rows:
            coeffs = row.coeffs[:idx] + row.coeffs[idx + 1:]
            const = row.constant - row.coeffs[idx] * value
            new_rows.append(Row(coeffs, const, row.relation, row.provenance))
        return LinearSystem(new_vars, tuple(new_rows))

    def pretty(self) -> list[str]:
        return [row.pretty(self.variables) for row in self.rows]

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "rows": [
                {
                    "coeffs": [format_rat(c) for c in row.coeffs],
                    "relation": row.relation,
                    "constant": format_rat(row.constant),
                    "provenance": row.provenance,
                }
                for row in self.rows
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "LinearSystem":
        variables = tuple(data["variables"])
        rows = tuple(
            Row(tuple(parse_rat(c) for c in r["coeffs"]),
                parse_rat(r["constant"]), r["relation"], r.get("provenance", ""))
            for r in data["rows"])
        return LinearSystem(variables, rows)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Nonnegative multipliers combining rows into an explicit contradiction."""

    multipliers: tuple[Rat, ...]
    derived: Row

    def to_json(self) -> dict:
        return {
            "multipliers": [format_rat(m) for m in self.multipliers],
            "derived": {
                "coeffs": [format_rat(c) for c in self.derived.coeffs],
                "relation": self.derived.relation,
                "constant": format_rat(self.derived.constant),
            },
        }

    @staticmethod
    def from_json(data: dict) -> "InfeasibilityCertificate":
        derived = data["derived"]
        return InfeasibilityCertificate(
            tuple(parse_rat(m) for m in data["multipliers"]),
            Row(tuple(parse_rat(c) for c in derived["coeffs"]),
                parse_rat(derived["constant"]), derived["relation"]))


@dataclass(frozen=True)
class Feasible:
    witness: dict[str, Rat]


@dataclass(frozen=True)
class Infeasible:
    certificate: InfeasibilityCertificate


# --- row expression parsing -------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)?\*?(?P<var>[A-Za-z_]\w*)?(?:/(?P<den>\d+))?$")
_REL_RE = re.compile(r"(>=|<=|>|<)")


def _parse_side(text: str) -> tuple[dict[str, Rat], Rat]:
    """Parse one side of an inequality into (variable coeffs, constant)."""
    coeffs: dict[str, Rat] = {}
    constant = Rat(0)
    text = text.replace("−", "-").replace("-", "+-").replace(" ", "")
    for raw in text.split("+"):
        if not raw:
            continue
        sign = Rat(1)
        if raw.startswith("-"):
            sign = Rat(-1)
            raw = raw[1:]
        m = _TERM_RE.match(raw)
        if m is None or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {raw!r}")
        coef = parse_rat(m.group("coef")) if m.group("coef") else Rat(1)
        if m.group("den"):
            coef /= int(m.group("den"))
        var = m.group("var")
        if var is None:
            constant += sign * coef
        else:
            coeffs[var] = coeffs.get(var, Rat(0)) + sign * coef
    return coeffs, constant


def parse_row(expr: str, variables: tuple[str, ...], provenance: str = "") -> Row:
    """Parse ``"2*a1 - a2 > tau - a4"`` style text into a normalized Row.

    All variables move to the left, constants to the right; ``<=`` and ``<``
    are normalized by negation.  Unknown variable names raise KeyError so a
    typo in a fixture cannot silently introduce a fresh unknown.
    """
    m = _REL_RE.search(expr)
    if m is None:
        raise ValueError(f"no relation in {expr!r}")
    rel = m.group(1)
    left, right = expr[:m.start()], expr[m.end():]
    lvars, lconst = _parse_side(left)
    rvars, rconst = _parse_side(right)
    coeffs: dict[str, Rat] = dict(lvars)
    for var, c in rvars.items():
        coeffs[var] = coeffs.get(var, Rat(0)) - c
    constant = rconst - lconst
    if rel in ("<=", "<"):
        coeffs = {v: -c for v, c in coeffs.items()}
        constant = -constant
        rel = ">=" if rel == "<=" else ">"
    unknown = set(coeffs) - set(variables)
    if unknown:
        raise UnknownVariable(f"{sorted(unknown)} not among variables {variables}")
    vec = tuple(coeffs.get(v, Rat(0)) for v in variables)
    return Row(vec, constant, rel, provenance)


# --- Fourier-Motzkin --------------------------------------------------------

@dataclass(frozen=True)
class _Traced:
    row: Row
    lineage: dict[int, Rat] = field(default_factory=dict)  # original index -> multiplier


def _combine(a: _Traced, b: _Traced, ma: Rat, mb: Rat, provenance: str) -> _Traced:
    coeffs = tuple(ma * x + mb * y for x, y in zip(a.row.coeffs, b.row.coeffs))
    constant = ma * a.row.constant + mb * b.row.constant
    rel = ">" if ">" in (a.row.relation, b.row.relation) else ">="
    lineage: dict[int, Rat] = {}
    for src, mult in ((a, ma), (b, mb)):
        for idx, m in src.lineage.items():
            lineage[idx] = lineage.get(idx, Rat(0)) + mult * m
    return _Traced(Row(coeffs, constant, rel, provenance), lineage)


def _implies(r1: Row, r2: Row) -> bool:
    """True when r1 makes r2 redundant (same coefficient vector)."""
    if r1.coeffs != r2.coeffs:
        return False
    if r1.constant > r2.constant:
        return True
    if r1.constant == r2.constant:
        return not (r1.relation == ">=" and r2.relation == ">")
    return False


def _prune(rows: list[_Traced]) -> list[_Traced]:
    """Drop rows implied by a single other row; verdict is unaffected."""
    kept: list[_Traced] = []
    for cand in rows:
        dominated = any(_implies(k.row, cand.row) for k in kept)
        if dominated:
            continue
        kept = [k for k in kept if not _implies(cand.row, k.row)]
        kept.append(cand)
    return kept


def fourier_motzkin_eliminate(sys: LinearSystem, var: str) -> LinearSystem:
    """Eliminate one variable, returning an equisatisfiable system.

    Provenance of each combined row records the parent row indices and the
    multipliers used, which is enough to reconstruct certificates.
    """
    idx = sys.var_index(var)
    pos = [(i, r) for i, r in enumerate(sys.rows) if r.coeffs[idx] > 0]
    neg = [(i, r) for i, r in enumerate(sys.rows) if r.coeffs[idx] < 0]
    zero = [(i, r) for i, r in enumerate(sys.rows) if r.coeffs[idx] == 0]

    new_vars = sys.variables[:idx] + sys.variables[idx + 1:]

    def strip(row: Row, provenance: str) -> Row:
        coeffs = row.coeffs[:idx] + row.coeffs[idx + 1:]
        return Row(coeffs, row.constant, row.relation, provenance)

    new_rows = [strip(r, r.provenance) for _, r in zero]
    for i, p in pos:
        mi = 1 / p.coeffs[idx]
        for j, n in neg:
            mj = -1 / n.coeffs[idx]
            coeffs = tuple(mi * x + mj * y for x, y in zip(p.coeffs, n.coeffs))
            constant = mi * p.constant + mj * n.constant
            rel = ">" if ">" in (p.relation, n.relation) else ">="
            prov = f"fm({var}): {format_rat(mi)}*row{i} + {format_rat(mj)}*row{j}"
            new_rows.append(strip(Row(coeffs, constant, rel), prov))
    return LinearSystem(new_vars, tuple(new_rows))


def check_feasibility(sys: LinearSystem, *, prune: bool = True,
                      order: list[str] | None = None) -> Feasible | Infeasible:
    """Decide the system exactly; Infeasible carries a replayable certificate.

    ``order`` pins the elimination order (used by the order-independence
    tests); by default the variable minimizing the pos*neg fan-out goes
    first, ties broken by position.
    """
    variables = list(sys.variables)
    traced = [_Traced(row, {i: Rat(1)}) for i, row in enumerate(sys.rows)]
    # (var, rows mentioning it at elimination time) for witness back-substitution
    levels: list[tuple[str, list[Row]]] = []

    def find_violated(rows: list[_Traced]) -> _Traced | None:
        for t in rows:
            if t.row.is_constant() and not t.row.constant_holds():
                return t
        return None

    def certificate(t: _Traced) -> Infeasible:
        multipliers = tuple(t.lineage.get(i, Rat(0)) for i in range(len(sys.rows)))
        derived = Row(tuple(Rat(0) for _ in sys.variables), t.row.constant, t.row.relation)
        return Infeasible(InfeasibilityCertificate(multipliers, derived))

    remaining = list(variables)
    while True:
        bad = find_violated(traced)
        if bad is not None:
            return certificate(bad)
        traced = [t for t in traced if not t.row.is_constant()]
        if prune:
            traced = _prune(traced)
        if not remaining:
            break
        if order:
            pending = [v for v in order if v in remaining]
            var = pending[0] if pending else remaining[0]
        else:
            def fanout(v: str) -> tuple[int, int]:
                k = variables.index(v)
                p = sum(1 for t in traced if t.row.coeffs[k] > 0)
                n = sum(1 for t in traced if t.row.coeffs[k] < 0)
                return (p * n, k)
            var = min(remaining, key=fanout)
        remaining.remove(var)
        k = variables.index(var)
        involved = [t.row for t in traced if t.row.coeffs[k] != 0]
        levels.append((var, involved))
        pos = [t for t in traced if t.row.coeffs[k] > 0]
        neg = [t for t in traced if t.row.coeffs[k] < 0]
        keep = [t for t in traced if t.row.coeffs[k] == 0]
        combined = []
        for p in pos:
            mi = 1 / p.row.coeffs[k]
            for n in neg:
                mj = -1 / n.row.coeffs[k]
                combined.append(_combine(p, n, mi, mj, f"fm({var})"))
        traced = keep + combined

    # Feasible: rebuild a witness in reverse elimination order.
    assignment: dict[str, Rat] = {}
    for var, rows in reversed(levels):
        k = variables.index(var)
        lower: tuple[Rat, bool] | None = None  # (bound, strict)
        upper: tuple[Rat, bool] | None = None
        for row in rows:
            rest = sum((c * assignment.get(v, Rat(0))
                        for c, v in zip(row.coeffs, variables) if v != var), Rat(0))
            bound = (row.constant - rest) / row.coeffs[k]
            strict = row.relation == ">"
            if row.coeffs[k] > 0:
                if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                    lower = (bound, strict)
            else:
                if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                    upper = (bound, strict)
        if lower is None and upper is None:
            assignment[var] = Rat(0)
        elif lower is None:
            assignment[var] = upper[0] - 1 if upper[1] else upper[0]
        elif upper is None:
            assignment[var] = lower[0] + 1 if lower[1] else lower[0]
        else:
            if lower[0] == upper[0]:
                # FM guarantees the interval is nonempty, so neither is strict.
                assignment[var] = lower[0]
            else:
                assignment[var] = (lower[0] + upper[0]) / 2
    witness = {v: assignment.get(v, Rat(0)) for v in variables}
    return Feasible(witness)


def replay_certificate(sys: LinearSystem, cert: InfeasibilityCertificate) -> bool:
    """Recheck a certificate from scratch with exact arithmetic."""
    if len(cert.multipliers) != len(sys.rows):
        raise DimensionMismatch("multiplier count does not match row count")
    if any(m < 0 for m in cert.multipliers):
        return False
    coeffs = [Rat(0)] * len(sys.variables)
    constant = Rat(0)
    strict_used = False
    for mult, row in zip(cert.multipliers, sys.rows):
        if mult == 0:
            continue
        for i, c in enumerate(row.coeffs):
            coeffs[i] += mult * c
        constant += mult * row.constant
        if row.relation == ">":
            strict_used = True
    if any(c != 0 for c in coeffs):
        return False
    # Combined row reads 0 >= constant (or 0 > constant with a strict parent).
    if constant > 0:
        return True
    return strict_used and constant >= 0

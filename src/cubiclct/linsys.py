"""Exact feasibility of strict/non-strict rational linear inequality systems.

A row states ``sum(coeffs[i] * x[i])  REL  constant`` with REL one of
``>=`` or ``>``.  Feasibility is decided by Fourier-Motzkin elimination
over the integers:

- every input row is scaled to a primitive integer row (times the lcm of
  its denominators, divided by the gcd of its entries, constant included),
  once per ``Row`` (``Row.primitive``); each combination step multiplies
  the pair by ``b/g`` and ``a/g`` with ``g = gcd(a, b)`` and divides the
  result by its content, so no ``Fraction`` is built inside the
  elimination loop;
- one table keyed by coefficient direction (the coefficients over their
  gcd, computed once per row) is carried across the levels: eliminating
  ``x_k`` takes out the rows that mention it, and each new combination is
  offered to it as it is made.  The table keeps only the tightest row per
  direction, which collapses the duplicates that make FM blow up; an
  all-zero combination is instead tested for a contradiction at once;
- Chernikov's rule (S. N. Chernikov, "The convolution of finite systems of
  linear inequalities", USSR Comput. Math. Math. Phys. 5(1), 1965; J.-L.
  Imbert, "Fourier's elimination: which to choose?", PPCP 1993): after s
  eliminations, a row built from more than s+1 input rows is implied by
  rows built from fewer, so at the level that eliminates the s-th variable
  a pair whose histories (bitmasks of input rows) together hold more than
  s+1 rows is skipped before any arithmetic.  Of two rows on one direction
  the kept one takes the AND of both histories; so every row that FM
  without the rule would build from at most s+1 input rows keeps a
  representative at least as tight whose history lies inside its support.
  Histories decide pruning only: certificates and witnesses read the parent
  pointers;
- every derived row stores parent pointers ``(parent_a, mult_a, parent_b,
  mult_b, divisor)`` instead of its own lineage.

The elimination trace doubles as a Farkas-style refutation (Dantzig and
Eaves, "Fourier-Motzkin elimination and its dual", JCT A 14, 1973): only for
the one violated row are the parent pointers walked back to nonnegative
rational multipliers that combine the input rows into ``0 >= c`` with
``c > 0``, or into ``0 > c`` with ``c >= 0`` and a strict row weighted
positively.  ``replay_certificate`` re-checks such a combination from
scratch, and ``check_feasibility`` runs that replay, or evaluates its
witness against every input row (``Row.evaluate``), before it returns; a
failure raises ``SelfCheckFailed``.

The certificate walk and the witness back-substitution run in integers over
one common denominator; a ``Fraction`` is built only for each nonzero
multiplier, witness coordinate and variable value they emit.  The replay and
the witness check sum in integers too, from each row's own numerators and
denominators, cached once per Row as one flat tuple (``Row.integer_ratios``);
they never read the kernel's scaled rows (``primitive``, ``direction``), so
they do not depend on the scaling they check.

Systems are tiny (at most ~8 variables), which is why Fourier-Motzkin wins
over an exact simplex here: certificates fall out of the trace for free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction as Rat
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from cubiclct.qexact import format_rat
from cubiclct.schema import CERTIFICATE, SYSTEM, ParseError, walk


class SelfCheckFailed(RuntimeError):
    """check_feasibility produced a witness or certificate that does not check."""


# A dataclass, not a NamedTuple: it checks its relation and caches ``primitive``.
@dataclass(frozen=True)
class Row:
    coeffs: tuple[Rat, ...]
    constant: Rat
    relation: str  # ">=" or ">"
    provenance: str = ""

    def __post_init__(self):
        if self.relation not in (">=", ">"):
            raise ValueError(f"bad relation {self.relation!r}")

    @cached_property
    def primitive(self) -> tuple[tuple[int, ...], int, int, int]:
        """``(coeffs, constant, lcm, g)``: this row times ``lcm/g`` as coprime integers.

        ``lcm`` clears every denominator and ``g`` is the gcd of the cleared
        entries, constant included (1 for an all-zero row).  Computed once per
        Row; ``dataclasses.replace`` builds a new Row, which computes its own.
        """
        values = (*self.coeffs, self.constant)
        scale = lcm(*(v.denominator for v in values))
        ints = [v.numerator * (scale // v.denominator) for v in values]
        g = gcd(*ints) or 1
        return tuple(v // g for v in ints[:-1]), ints[-1] // g, scale, g

    @cached_property
    def integer_ratios(self) -> tuple[int, ...]:
        """``(n_1, d_1, ..., n_k, d_k, n, d)``: each coefficient's and then the
        constant's numerator and denominator, read once per Row for the
        self-checks; ``dataclasses.replace`` builds a new Row, which reads its own."""
        return tuple(x for v in (*self.coeffs, self.constant) for x in v.as_integer_ratio())

    @cached_property
    def direction(self) -> tuple[tuple[int, ...], int]:
        """``(key, g)``: ``primitive``'s coefficients are ``g * key`` with ``key``
        primitive, or ``g = 0`` and ``key`` all zero.  Computed once per Row;
        for ``g`` 0 or 1, ``key`` is ``primitive``'s own tuple."""
        coeffs = self.primitive[0]
        g = gcd(*coeffs)
        return (tuple(c // g for c in coeffs) if g > 1 else coeffs), g

    def evaluate(self, point: list[Rat]) -> bool:
        """Whether ``point`` satisfies the row, from ``integer_ratios``: the
        left side is summed as one integer fraction ``num/den``, ``den > 0``,
        and compared with the constant by cross-multiplying."""
        ratios = iter(self.integer_ratios)
        num, den = 0, 1
        for x, n, d in zip(point, ratios, ratios):
            if n:
                xn, xd = x.as_integer_ratio()
                if xn:
                    d *= xd
                    if d == den:
                        num += n * xn
                    else:
                        num, den = num * d + n * xn * den, den * d
        n, d = ratios
        return num * d > n * den if self.relation == ">" else num * d >= n * den

    def pretty(self, variables: tuple[str, ...]) -> str:
        ratios = iter(self.integer_ratios)
        terms = []
        for v, n, d in zip(variables, ratios, ratios):
            if n:
                size = abs(n)
                scale = "" if size == d == 1 else f"{size}*" if d == 1 else f"{size}/{d}*"
                terms.append(f"{'+' if n > 0 else '-'} {scale}{v}")
        lhs = " ".join(terms).lstrip("+ ") or "0"
        return f"{lhs} {self.relation} {format_rat(self.constant)}"


# A dataclass, not a NamedTuple: it checks every row's width.
@dataclass(frozen=True)
class LinearSystem:
    variables: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row.coeffs) != len(self.variables):
                raise ParseError("row width does not match variable count")

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
        """The system of a ``to_json`` document; a ParseError names a bad value."""
        data = walk(SYSTEM, data)
        variables = data["variables"]
        if len(set(variables)) != len(variables):
            raise ParseError(f"variables: expected a list of distinct strings, "
                             f"got {list(variables)!r}")
        return LinearSystem(variables, tuple(
            Row(r["coeffs"], r["constant"], r["relation"], r.get("provenance", ""))
            for r in data["rows"]))


class InfeasibilityCertificate(NamedTuple):
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
        """The certificate of a ``to_json`` document; a ParseError names a bad value."""
        data = walk(CERTIFICATE, data)
        derived = data["derived"]
        return InfeasibilityCertificate(
            data["multipliers"], Row(derived["coeffs"], derived["constant"], derived["relation"]))


class Feasible(NamedTuple):
    witness: dict[str, Rat]


class Infeasible(NamedTuple):
    certificate: InfeasibilityCertificate


# --- row expression parsing -------------------------------------------------
#
# A term is ``[p[/q]][*][var][/d]``.  Each variable's coefficient and the
# constant are summed as integer pairs (numerator, positive denominator), and
# a ``Fraction`` is built only for each nonzero entry of the finished Row.

_TERM_RE = re.compile(
    r"^(?:(?P<num>\d+)(?:/(?P<q>\d+))?)?\*?(?P<var>[A-Za-z_]\w*)?(?:/(?P<den>\d+))?$")
_REL_RE = re.compile(r"(>=|<=|>|<)")
_ZERO = Rat(0)


def _parse_side(text: str, sign: int, sums: dict[str | None, tuple[int, int]]) -> None:
    """Add ``sign`` times each term of one side into ``sums``: variable (or
    ``None`` for the constant) -> (numerator, denominator)."""
    text = text.replace("\u2212", "-").replace("-", "+-").replace(" ", "")
    for raw in text.split("+"):
        if not raw:
            continue
        s = sign
        if raw.startswith("-"):
            s, raw = -sign, raw[1:]
        m = _TERM_RE.match(raw)
        if m is None or (m.group("num") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {raw!r}")
        num, q, var, d = m.group("num", "q", "var", "den")
        n = s * int(num) if num else s
        q = (int(q) if q else 1) * (int(d) if d else 1)
        if q == 0:
            raise ValueError(f"zero denominator in {raw!r}")
        held = sums.get(var)
        sums[var] = (n, q) if held is None else (held[0] * q + n * held[1], held[1] * q)


def parse_row(expr: str, variables: tuple[str, ...], provenance: str = "") -> Row:
    """Parse ``"2*a1 - a2 > tau - a4"`` style text into a normalized Row.

    All variables move to the left, constants to the right; ``<=`` and ``<``
    are normalized by negation.  An unknown variable name raises ValueError,
    so a typo in a fixture cannot silently introduce a fresh unknown; so does
    a zero denominator.
    """
    m = _REL_RE.search(expr)
    if m is None:
        raise ValueError(f"no relation in {expr!r}")
    rel = m.group(1)
    sums: dict[str | None, tuple[int, int]] = {}
    _parse_side(expr[:m.start()], 1, sums)
    _parse_side(expr[m.end():], -1, sums)
    # sums holds left minus right; the constant moves to the right
    flip = 1
    if rel in ("<=", "<"):
        flip, rel = -1, (">=" if rel == "<=" else ">")
    n, q = sums.pop(None, (0, 1))
    unknown = set(sums) - set(variables)
    if unknown:
        raise ValueError(f"{sorted(unknown)} not among variables {variables}")
    vec = tuple(Rat(flip * c[0], c[1]) if (c := sums.get(v)) and c[0] else _ZERO
                for v in variables)
    return Row(vec, Rat(-flip * n, q) if n else _ZERO, rel, provenance)


# --- Fourier-Motzkin --------------------------------------------------------

# A kernel row ``g * key . x  REL  constant`` is held as ``key -> (constant,
# strict, node, g, hist)``: ``key`` is its primitive coefficient direction,
# ``g > 0`` the gcd of its coefficients, ``node`` its index in the
# parent-pointer table of check_feasibility and ``hist`` its history for
# Chernikov's rule: input row i has bit i, a combination the OR of its
# parents' histories, and a row kept on a direction the AND of the histories
# of every row offered there.
_IntRow = tuple[int, bool, int, int, int]
_ZERO_LT = (0).__lt__   # c -> 0 < c, for counting positive entries in C


def check_feasibility(sys: LinearSystem) -> Feasible | Infeasible:
    """Decide the system exactly; Infeasible carries a replayable certificate.

    Each level eliminates the variable minimizing the pos*neg fan-out, ties
    broken by position.
    """
    variables = list(sys.variables)
    # Input row i, as its Row.primitive, is kernel node i.  A derived node
    # stores (parent_a, mult_a, parent_b, mult_b, divisor): its row is
    # (mult_a * row_a + mult_b * row_b) / divisor.
    parents: list[tuple[int, int, int, int, int] | None] = [None] * len(sys.rows)
    # The rows of the current level, one per direction.  ``g*key . x >= c``
    # reads ``key . x >= c/g``, so of two rows on one key the one with the
    # larger ``c/g`` implies the other; on a tie the strict row implies the
    # non-strict one.  A key keeps its first-insertion position.
    table: dict[tuple[int, ...], _IntRow] = {}

    def offer(key: tuple[int, ...], row: _IntRow) -> None:
        held = table.get(key)
        if held is not None:
            # the kept row takes the AND of both histories (see _IntRow)
            mine, theirs, hist = row[0] * held[3], held[0] * row[3], held[4] & row[4]
            if mine < theirs or (mine == theirs and (held[1] or not row[1])):
                row = held
            row = (*row[:4], hist)
        table[key] = row

    for i, row in enumerate(sys.rows):
        (key, g), constant, strict = row.direction, row.primitive[1], row.relation == ">"
        if g:
            offer(key, (constant, strict, i, g, 1 << i))
        elif constant >= 0 if strict else constant > 0:
            return _self_checked(sys, Infeasible(_certificate(sys, parents, i)))

    # (variable index, rows mentioning it at elimination time) for the witness
    levels: list[tuple[int, list[tuple[tuple[int, ...], _IntRow]]]] = []
    remaining = list(range(len(variables)))
    while remaining and table:  # variables left once the table empties stay 0
        # one sweep of the table's columns: the least pos*neg fan-out, ties
        # broken by position (only a smaller fan-out replaces ``k``)
        columns, least = list(zip(*table)), None
        for j in remaining:
            column = columns[j]
            plus = sum(map(_ZERO_LT, column))
            fanout = plus * (len(column) - plus - column.count(0))
            if least is None or fanout < least:
                k, least = j, fanout
        remaining.remove(k)
        level = [(key, row) for key, row in table.items() if key[k]]
        levels.append((k, level))
        for key, _ in level:
            del table[key]
        neg = [(key, row) for key, row in level if key[k] < 0]
        most = len(levels) + 1   # Chernikov: at most s+1 input rows after s eliminations
        for p_key, (p_const, p_strict, p_node, p_g, p_hist) in level:
            if p_key[k] < 0:
                continue
            a = p_g * p_key[k]
            for n_key, (n_const, n_strict, n_node, n_g, n_hist) in neg:
                hist = p_hist | n_hist
                if hist.bit_count() > most:
                    continue
                b = -n_g * n_key[k]
                h = gcd(a, b)
                ma, mb = b // h, a // h
                pa, nb = ma * p_g, mb * n_g
                coeffs = [pa * x + nb * y for x, y in zip(p_key, n_key)]
                constant = ma * p_const + mb * n_const
                g = gcd(*coeffs)
                d = gcd(g, constant) or 1
                parents.append((p_node, ma, n_node, mb, d))
                strict = p_strict or n_strict
                if g:
                    offer(tuple(coeffs) if g == 1 else tuple(c // g for c in coeffs),
                          (constant // d, strict, len(parents) - 1, g // d, hist))
                elif constant >= 0 if strict else constant > 0:
                    return _self_checked(
                        sys, Infeasible(_certificate(sys, parents, len(parents) - 1)))

    # Feasible: rebuild a witness in reverse elimination order, as integer
    # numerators over one common denominator.  A row bounds x_k by num/q,
    # from below if q > 0 and from above if q < 0; on either side the larger
    # num/|q| is the tighter bound, compared by cross-multiplying.
    nums, den = [0] * len(variables), 1
    for k, level in reversed(levels):
        tightest: dict[bool, tuple[int, int, bool]] = {}  # below? -> (num, |q|, strict)
        for key, (constant, strict, _, g, _) in level:
            # nums[k] is still 0, so x_k drops out of the sum
            rest = sum(c * x for c, x in zip(key, nums) if c and x)
            num, q = constant * den - g * rest, g * den * key[k]
            held = tightest.get(q > 0)
            if held is None or (cross := num * held[1] - held[0] * abs(q)) > 0 or (
                    cross == 0 and strict):
                tightest[q > 0] = (num, abs(q), strict)
        lower, upper = tightest.get(True), tightest.get(False)
        if lower and upper:
            # the midpoint: FM guarantees the interval is nonempty
            value = Rat(lower[0] * upper[1] - upper[0] * lower[1], 2 * lower[1] * upper[1])
        elif lower:
            value = Rat(lower[0] + lower[1] if lower[2] else lower[0], lower[1])
        elif upper:
            value = Rat(-upper[0] - upper[1] if upper[2] else -upper[0], upper[1])
        else:
            value = Rat(0)
        t = value.denominator // gcd(den, value.denominator)
        if t > 1:
            nums, den = [x * t for x in nums], den * t
        nums[k] = value.numerator * (den // value.denominator)
    witness = {v: Rat(x, den) for v, x in zip(variables, nums)}
    return _self_checked(sys, Feasible(witness))


def _certificate(sys: LinearSystem,
                 parents: list[tuple[int, int, int, int, int] | None],
                 node: int) -> InfeasibilityCertificate:
    """Walk the parent pointers of the violated node back to the input rows.

    The weights are integers over one common denominator ``den``.  A node
    is its parents' combination divided by its ``divisor``; before its
    weight is shared out, every weight and ``den`` are scaled by what of the
    divisor the weight does not already hold.  Input row i carries weight
    ``w/den`` on its primitive form, so its multiplier is ``w*lcm/(den*g)``.
    """
    den, weights = 1, {node: 1}
    for n in range(node, len(sys.rows) - 1, -1):  # parents precede their children
        if n in weights:
            a, ma, b, mb, d = parents[n]
            t = d // gcd(weights[n], d)
            if t > 1:
                den *= t
                weights = {k: w * t for k, w in weights.items()}
            share = weights.pop(n) // d
            weights[a] = weights.get(a, 0) + share * ma
            weights[b] = weights.get(b, 0) + share * mb
    multipliers, constant, strict = [], 0, False
    for i, row in enumerate(sys.rows):
        w = weights.get(i, 0)
        _, c, scale, g = row.primitive
        multipliers.append(Rat(w * scale, den * g) if w else _ZERO)
        constant += w * c
        strict = strict or (w > 0 and row.relation == ">")
    derived = Row((_ZERO,) * len(sys.variables), Rat(constant, den), ">" if strict else ">=")
    return InfeasibilityCertificate(tuple(multipliers), derived)


def _self_checked(sys: LinearSystem, outcome: Feasible | Infeasible) -> Feasible | Infeasible:
    """Evaluate a witness against every row, or replay a certificate."""
    if isinstance(outcome, Feasible):
        point = [outcome.witness[v] for v in sys.variables]
        bad = next((row for row in sys.rows if not row.evaluate(point)), None)
        if bad is not None:
            raise SelfCheckFailed(f"witness violates {bad.pretty(sys.variables)}")
    elif not replay_certificate(sys, outcome.certificate):
        raise SelfCheckFailed("Farkas certificate does not replay")
    return outcome


def replay_certificate(sys: LinearSystem, cert: InfeasibilityCertificate) -> bool:
    """Recheck a certificate from scratch with exact arithmetic.

    Each multiplier is read once, and each row it weights through
    ``integer_ratios``.  Every entry of the combined row is summed as one
    integer fraction with a positive denominator, so its numerator has the
    entry's sign.  The certificate's ``derived`` row must be that combination:
    zero coefficients, the same constant, and ``>`` exactly when a strict row
    has a positive weight.  A certificate whose widths do not fit the system
    is a ParseError.
    """
    if len(cert.multipliers) != len(sys.rows):
        raise ParseError("multiplier count does not match row count")
    if len(cert.derived.coeffs) != len(sys.variables):
        raise ParseError("derived row width does not match variable count")
    width = len(sys.variables) + 1
    nums, dens = [0] * width, [1] * width
    strict_used = False
    for m, row in zip(cert.multipliers, sys.rows):
        mn, md = m.as_integer_ratio()
        if mn < 0:
            return False
        if not mn:
            continue
        strict_used = strict_used or row.relation == ">"
        ratios = iter(row.integer_ratios)
        for j, n, d in zip(range(width), ratios, ratios):
            if n:
                d *= md
                if d == dens[j]:
                    nums[j] += mn * n
                else:
                    nums[j], dens[j] = nums[j] * d + mn * n * dens[j], dens[j] * d
    *coeffs, constant = nums
    derived = cert.derived.integer_ratios
    if (any(coeffs) or any(derived[:-2:2]) or derived[-2] * dens[-1] != constant * derived[-1]
            or cert.derived.relation != (">" if strict_used else ">=")):
        return False
    # Combined row reads 0 >= constant (or 0 > constant with a strict row used).
    return constant > 0 or (strict_used and constant >= 0)

"""Fiberwise degeneration checks: exact substitution identities and the
threshold-sum biregularity criterion.

The degeneration examples live in C^1 x P^3 with coordinates
``(x, y, z, w)`` on P^3 and ``t`` on the base.  A coordinate map sends each
projective coordinate to ``t^e`` times itself; substituting it into the
smooth-family equation must reproduce the singular-family equation times a
pure power of ``t``, and that exponent is computed exactly.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from typing import NamedTuple

VARIABLES = ("x", "y", "z", "w", "t")
T_INDEX = 4


class Poly(NamedTuple):
    """Sparse polynomial in (x, y, z, w, t); no zero coefficients stored."""

    terms: tuple[tuple[tuple[int, ...], Rat], ...]

    @staticmethod
    def from_terms(items) -> "Poly":
        acc: dict[tuple[int, ...], Rat] = {}
        for coef, exps in items:
            coef = Rat(coef)
            exps = tuple(int(e) for e in exps)
            acc[exps] = acc.get(exps, Rat(0)) + coef
        cleaned = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return Poly(cleaned)

    def shift_t(self, k: int) -> "Poly":
        return Poly.from_terms(
            [(c, e[:T_INDEX] + (e[T_INDEX] + k,)) for e, c in self.terms])

    def min_t_power(self) -> int:
        return min(e[T_INDEX] for e, _ in self.terms)


class SubstitutionMap(NamedTuple):
    """Each projective coordinate goes to t^e times itself."""

    powers: tuple[int, ...]  # t-exponent for (x, y, z, w)

    @staticmethod
    def from_dict(mapping: dict[str, int]) -> "SubstitutionMap":
        return SubstitutionMap(tuple(int(mapping.get(v, 0)) for v in VARIABLES[:T_INDEX]))

    def apply(self, poly: Poly) -> Poly:
        out = []
        for exps, coef in poly.terms:
            extra = sum(exps[i] * self.powers[i] for i in range(T_INDEX))
            out.append((coef, exps[:T_INDEX] + (exps[T_INDEX] + extra,)))
        return Poly.from_terms(out)


def substitute_and_factor(target: Poly, mapping: SubstitutionMap, source: Poly) -> int | None:
    """The unique k >= 0 with target∘map = t^k * source, expanded exactly;
    None when there is none, or either side is the zero polynomial."""
    image = mapping.apply(target)
    if not image.terms or not source.terms:
        return None
    k = image.min_t_power() - source.min_t_power()
    return k if k >= 0 and source.shift_t(k) == image else None


class BiregularityVerdict(NamedTuple):
    verdict: str      # "Biregular" | "Inconclusive"
    clause: str


def biregularity_criterion(lct_x: Rat, lct_xbar: Rat,
                           x_log_terminal: bool,
                           xbar_log_terminal: bool) -> BiregularityVerdict:
    """One-directional criterion: the map between fibrations is forced
    biregular when both special fibers are log terminal and the thresholds
    sum past 1, or when the source fiber is log terminal with threshold >= 1.
    """
    if x_log_terminal and lct_x >= 1:
        return BiregularityVerdict("Biregular", "lct(X) >= 1")
    if x_log_terminal and xbar_log_terminal and lct_x + lct_xbar > 1:
        return BiregularityVerdict("Biregular", "lct(X) + lct(Xbar) > 1")
    return BiregularityVerdict("Inconclusive", "criterion is sufficient only")

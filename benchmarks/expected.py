"""Expected answers, transcribed by hand from PAPER.md.

Nothing here is computed by cubiclct.  A classifier or checker regression
therefore shows up as a failed op in the benchmark, instead of being
compared against its own output.
"""

from fractions import Fraction as Q

#: The 8 classification clauses, in the order the paper lists them.
CLAUSES = (
    ("Sigma = {A1}", Q(2, 3)),          # exactly one A1
    ("Sigma contains A4", Q(1, 3)),
    ("Sigma = {D4}", Q(1, 3)),          # exactly D4
    ("Sigma contains A2+A2", Q(1, 3)),  # contains two A2
    ("Sigma contains A5", Q(1, 4)),
    ("Sigma = {D5}", Q(1, 4)),          # exactly D5
    ("Sigma = {E6}", Q(1, 6)),          # exactly E6
    ("other cases", Q(1, 2)),           # all other profiles
)
_OMEGA = dict(CLAUSES)

VERIFIED = "verified"
ASSERTED = "paper-asserted"

#: Admissible profile -> (clause, status).  17 profiles are verified from
#: shipped fixtures; 3xA1, 4xA1 and 3xA2 are covered by the clauses only.
_ROWS = {
    "A1": ("Sigma = {A1}", VERIFIED),
    "A1+A1": ("other cases", VERIFIED),
    "A1+A1+A1": ("other cases", ASSERTED),
    "A1+A1+A1+A1": ("other cases", ASSERTED),
    "A2": ("other cases", VERIFIED),
    "A2+A1": ("other cases", VERIFIED),
    "A2+A1+A1": ("other cases", VERIFIED),
    "A2+A2": ("Sigma contains A2+A2", VERIFIED),
    "A2+A2+A1": ("Sigma contains A2+A2", VERIFIED),
    "A2+A2+A2": ("Sigma contains A2+A2", ASSERTED),
    "A3": ("other cases", VERIFIED),
    "A3+A1": ("other cases", VERIFIED),
    "A3+A1+A1": ("other cases", VERIFIED),
    "A4": ("Sigma contains A4", VERIFIED),
    "A4+A1": ("Sigma contains A4", VERIFIED),
    "A5": ("Sigma contains A5", VERIFIED),
    "A5+A1": ("Sigma contains A5", VERIFIED),
    "D4": ("Sigma = {D4}", VERIFIED),
    "D5": ("Sigma = {D5}", VERIFIED),
    "E6": ("Sigma = {E6}", VERIFIED),
}

#: profile -> (clause, omega, status) for all 20 admissible profiles.
TABLE = {p: (clause, _OMEGA[clause], status) for p, (clause, status) in _ROWS.items()}

#: The 17 profiles verified end to end, with their thresholds.
CASE_OMEGA = {p: omega for p, (_, omega, status) in TABLE.items() if status == VERIFIED}

#: Case fixture name -> profile key.
CASE_FIXTURES = {
    "a1": "A1", "a1a1": "A1+A1",
    "a2": "A2", "a2a1": "A2+A1", "a2a1a1": "A2+A1+A1",
    "a2a2": "A2+A2", "a2a2a1": "A2+A2+A1",
    "a3": "A3", "a3a1": "A3+A1", "a3a1a1": "A3+A1+A1",
    "a4": "A4", "a4a1": "A4+A1",
    "a5": "A5", "a5a1": "A5+A1",
    "d4": "D4", "d5": "D5", "e6": "E6",
}

#: Equivariant fixtures: invariant threshold 1, which certifies the
#: Kaehler-Einstein criterion (1 > 2/3 in dimension 2).
EQUIVARIANT = {"cayley": (Q(1), "KECertified"), "xyzt3": (Q(1), "KECertified")}

#: Fiberwise fixtures: substitution exponent k (None: no substitution
#: identity shipped) and the threshold-sum verdict.  Every pair sums to at
#: most 1 (1/6+2/3, 1/4+2/3, 2/3+1/3) with source threshold below 1, so the
#: sufficient criterion stays inconclusive.
FIBERWISE = {
    "fiber_d4": (None, "Inconclusive"),
    "fiber_d5": (4, "Inconclusive"),
    "fiber_e6": (6, "Inconclusive"),
}

#: All 22 bundled fixtures, in the sorted order the table workload cycles.
FIXTURE_NAMES = tuple(sorted([*CASE_FIXTURES, *EQUIVARIANT, *FIBERWISE]))

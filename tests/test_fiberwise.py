from fractions import Fraction as Rat

import pytest

from cubiclct.cli import fixture_dir, load_all_fixtures
from cubiclct.engine import classify_profile
from cubiclct.fiberwise import (Poly, SubstitutionMap, biregularity_criterion,
                                substitute_and_factor)
from cubiclct.model import SingularityProfile

FIXTURES = load_all_fixtures(fixture_dir())

SMOOTH_LCT = {"smooth-eckardt": Rat(2, 3), "smooth-general": Rat(3, 4)}


def _poly(fixture_terms):
    return Poly.from_terms([(c, e) for c, e in fixture_terms])


def test_e6_substitution_exponent():
    data = FIXTURES["fiber_e6"].fiberwise
    k = substitute_and_factor(_poly(data.target_poly),
                              SubstitutionMap.from_dict(dict(data.map_powers)),
                              _poly(data.source_poly))
    assert k == 6


def test_d5_substitution_exponent():
    data = FIXTURES["fiber_d5"].fiberwise
    k = substitute_and_factor(_poly(data.target_poly),
                              SubstitutionMap.from_dict(dict(data.map_powers)),
                              _poly(data.source_poly))
    assert k == 4


def test_identity_map_gives_zero():
    poly = Poly.from_terms([(Rat(1), (3, 0, 0, 0, 0)), (Rat(-2), (0, 1, 1, 1, 0))])
    assert substitute_and_factor(poly, SubstitutionMap.from_dict({}), poly) == 0


def test_no_factorization_gives_none():
    identity = SubstitutionMap.from_dict({})
    source = Poly.from_terms([(Rat(1), (3, 0, 0, 0, 0)), (Rat(1), (0, 0, 0, 3, 0))])
    target = Poly.from_terms([(Rat(1), (3, 0, 0, 0, 0)), (Rat(2), (0, 0, 0, 3, 0))])
    assert substitute_and_factor(target, identity, source) is None
    # t-powers misaligned across terms
    target2 = Poly.from_terms([(Rat(1), (3, 0, 0, 0, 1)), (Rat(1), (0, 0, 0, 3, 0))])
    assert substitute_and_factor(target2, identity, source) is None
    # a negative exponent, and the zero polynomial
    assert substitute_and_factor(source, identity, source.shift_t(1)) is None
    assert substitute_and_factor(Poly.from_terms([]), identity, source) is None


def test_substitution_is_exact_remultiplication():
    data = FIXTURES["fiber_e6"].fiberwise
    target = _poly(data.target_poly)
    source = _poly(data.source_poly)
    mapping = SubstitutionMap.from_dict(dict(data.map_powers))
    k = substitute_and_factor(target, mapping, source)
    assert source.shift_t(k) == mapping.apply(target)


def test_exponent_invariant_under_common_scaling():
    data = FIXTURES["fiber_d5"].fiberwise
    target = _poly([(c * Rat(7, 3), e) for c, e in data.target_poly])
    source = _poly([(c * Rat(7, 3), e) for c, e in data.source_poly])
    mapping = SubstitutionMap.from_dict(dict(data.map_powers))
    assert substitute_and_factor(target, mapping, source) == 4


@pytest.mark.parametrize("pair,expected", [
    ((Rat(3, 4), Rat(3, 4)), "Biregular"),
    ((Rat(2, 3), Rat(1, 3)), "Inconclusive"),
    ((Rat(1, 6), Rat(2, 3)), "Inconclusive"),
    ((Rat(1, 4), Rat(2, 3)), "Inconclusive"),
    ((Rat(1), Rat(1, 6)), "Biregular"),
])
def test_biregularity_criterion_values(pair, expected):
    verdict = biregularity_criterion(pair[0], pair[1], True, True)
    assert verdict.verdict == expected


def test_criterion_needs_log_terminal_flags():
    assert biregularity_criterion(Rat(3, 4), Rat(3, 4), True, False).verdict == "Inconclusive"
    assert biregularity_criterion(Rat(3, 4), Rat(3, 4), False, True).verdict == "Inconclusive"
    # the second clause only needs the source fiber
    assert biregularity_criterion(Rat(1), Rat(1, 6), True, False).verdict == "Biregular"


def test_criterion_monotonicity():
    import random
    rng = random.Random(9)
    for _ in range(200):
        a = Rat(rng.randint(1, 12), 12)
        b = Rat(rng.randint(1, 12), 12)
        da = Rat(rng.randint(0, 6), 12)
        db = Rat(rng.randint(0, 6), 12)
        lo = biregularity_criterion(a, b, True, True).verdict
        hi = biregularity_criterion(a + da, b + db, True, True).verdict
        if lo == "Biregular":
            assert hi == "Biregular"


def test_criterion_symmetry_below_one():
    for a, b in [(Rat(1, 2), Rat(2, 3)), (Rat(1, 6), Rat(2, 3)), (Rat(3, 4), Rat(3, 4))]:
        assert biregularity_criterion(a, b, True, True).verdict == \
            biregularity_criterion(b, a, True, True).verdict


def test_fixture_pairs_and_verdicts():
    for name in ("fiber_e6", "fiber_d5", "fiber_d4"):
        data = FIXTURES[name].fiberwise
        verdict = biregularity_criterion(data.lct_pair[0], data.lct_pair[1],
                                         *data.log_terminal)
        assert verdict.verdict == data.expected_verdict, name


def test_fixture_lct_pairs_match_the_classification():
    for name in ("fiber_e6", "fiber_d5", "fiber_d4"):
        data = FIXTURES[name].fiberwise
        for value, label in zip(data.lct_pair, data.fiber_profiles):
            if label in SMOOTH_LCT:
                assert value == SMOOTH_LCT[label], (name, label)
            else:
                profile = SingularityProfile.of(label.split("+"))
                assert value == classify_profile(profile)[1], (name, label)

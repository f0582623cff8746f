import itertools
from fractions import Fraction as Rat

import pytest

from cubiclct import qexact
from cubiclct.lattice import (AdeType, TowerStep, cartan_matrix, exceptional_nef_rows,
                              inverse_cartan, pullback_coefficients, tower_log_discrepancy)
from cubiclct.qexact import solve_linear_system
from oracles import positive_definite_by_expansion

ALL_TYPES = [AdeType("A", n) for n in range(1, 7)] + \
            [AdeType("D", 4), AdeType("D", 5), AdeType("E", 6)]


def test_ade_type_range():
    for label, message in [("E7", "only E6 occurs on cubic surfaces"),
                           ("E8", "only E6 occurs on cubic surfaces"),
                           ("A0", "A_n needs rank >= 1"), ("D3", "D_n needs rank >= 4")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            AdeType.parse(label)
    assert AdeType.parse("D5") == AdeType("D", 5)
    assert AdeType("D", 4).nodes == ("E1", "E2", "E3", "E4")


def test_cartan_a1_a2():
    assert cartan_matrix(AdeType("A", 1)) == ((2,),)
    assert cartan_matrix(AdeType("A", 2)) == ((2, -1), (-1, 2))


def test_cartan_d4_shape():
    d4 = cartan_matrix(AdeType("D", 4))
    # center node last, joined to each outer node
    for i in range(3):
        assert d4[i][3] == -1 and d4[3][i] == -1
        for j in range(3):
            if i != j:
                assert d4[i][j] == 0
    assert all(d4[i][i] == 2 for i in range(4))
    assert positive_definite_by_expansion(d4)


def test_cartan_positive_definite_all_types():
    for ade in ALL_TYPES:
        assert positive_definite_by_expansion(cartan_matrix(ade)), ade.label


@pytest.mark.parametrize("ade,inc,expected", [
    ("A2", [0, 1], [Rat(1, 3), Rat(2, 3)]),
    ("A2", [1, 0], [Rat(2, 3), Rat(1, 3)]),
    ("A3", [1, 0, 0], [Rat(3, 4), Rat(1, 2), Rat(1, 4)]),
    ("A3", [0, 1, 0], [Rat(1, 2), Rat(1), Rat(1, 2)]),
    ("A4", [0, 0, 1, 0], [Rat(2, 5), Rat(4, 5), Rat(6, 5), Rat(3, 5)]),
    ("A4", [0, 0, 0, 1], [Rat(1, 5), Rat(2, 5), Rat(3, 5), Rat(4, 5)]),
    ("A5", [0, 0, 0, 1, 0], [Rat(1, 3), Rat(2, 3), Rat(1), Rat(4, 3), Rat(2, 3)]),
])
def test_pullback_reference_vectors(ade, inc, expected):
    assert list(pullback_coefficients(AdeType.parse(ade), inc)) == expected


def test_pullback_incidence_identity():
    # Cartan . c reproduces the incidence exactly
    for ade in ALL_TYPES:
        cartan = cartan_matrix(ade)
        for j in range(ade.rank):
            inc = [1 if i == j else 0 for i in range(ade.rank)]
            c = pullback_coefficients(ade, inc)
            assert [sum(cartan[i][k] * c[k] for k in range(ade.rank))
                    for i in range(ade.rank)] == [Rat(v) for v in inc]


def test_pullback_positivity():
    for ade in ALL_TYPES:
        for j in range(ade.rank):
            inc = [1 if i == j else 0 for i in range(ade.rank)]
            c = pullback_coefficients(ade, inc)
            assert all(x > 0 for x in c), ade.label


def test_an_closed_form():
    # unit incidence at node j: c_i = min(i,j) * (n+1-max(i,j)) / (n+1)
    for n in range(1, 7):
        ade = AdeType("A", n)
        for j in range(1, n + 1):
            inc = [1 if i == j else 0 for i in range(1, n + 1)]
            c = pullback_coefficients(ade, inc)
            for i in range(1, n + 1):
                expected = Rat(min(i, j) * (n + 1 - max(i, j)), n + 1)
                assert c[i - 1] == expected


def test_an_chain_reversal_symmetry():
    for n in range(2, 7):
        ade = AdeType("A", n)
        inc = [1 if i in (0, 2) else 0 for i in range(n)]
        forward = pullback_coefficients(ade, inc)
        backward = pullback_coefficients(ade, inc[::-1])
        assert backward == forward[::-1]


def test_nef_rows_match_cartan():
    rows = exceptional_nef_rows(AdeType("A", 5))
    assert rows[0] == {"a1": 2, "a2": -1}
    assert rows[2] == {"a2": -1, "a3": 2, "a4": -1}
    assert len(rows) == 5
    assert exceptional_nef_rows(AdeType("A", 1)) == [{"a1": 2}]
    a2 = exceptional_nef_rows(AdeType("A", 2))
    assert a2 == [{"a1": 2, "a2": -1}, {"a2": 2, "a1": -1}]


def test_e6_unique_line_node():
    # the node carrying the unique line: unit-incidence pullback has maximum
    # coefficient exactly 2 and diagonal entry 4/3; only the chain ends work
    matching = []
    for j in range(6):
        inc = [1 if i == j else 0 for i in range(6)]
        c = pullback_coefficients(AdeType("E", 6), inc)
        if max(c) == 2 and c[j] == Rat(4, 3):
            matching.append(j)
    assert matching == [0, 4]


def test_tower_eckardt_point():
    tower = (TowerStep("F", (("L1", 1), ("L2", 1), ("L3", 1)), ()),)
    [(name, a, o)] = tower_log_discrepancy(
        tower, {"L1": Rat(1), "L2": Rat(1), "L3": Rat(1)}, {})
    assert (name, a, o) == ("F", Rat(1), Rat(3))


def test_tower_point_off_boundary():
    tower = (TowerStep("F", (), ()),)
    [(_, a, o)] = tower_log_discrepancy(tower, {}, {})
    assert (a, o) == (Rat(1), Rat(0))


def test_tower_on_two_exceptionals():
    tower = (TowerStep("F", (), ("E1", "E2")),)
    [(_, a, o)] = tower_log_discrepancy(
        tower, {}, {"E1": Rat(1), "E2": Rat(4, 3)})
    assert (a, o) == (Rat(1), Rat(7, 3))


def test_tower_empty_boundary_property():
    # with an empty boundary every order vanishes and a_F >= 1 throughout
    tower = (
        TowerStep("F1", (), ("E1",)),
        TowerStep("F2", (), ("F1",)),
        TowerStep("F3", (), ("F1", "F2")),
    )
    out = tower_log_discrepancy(tower, {}, {"E1": Rat(0)})
    assert [o for _, _, o in out] == [Rat(0)] * 3
    assert all(a >= 1 for _, a, _ in out)
    assert [a for _, a, _ in out] == [Rat(1), Rat(2), Rat(4)]


def test_cached_pullback_equals_a_fresh_solve():
    for ade in ALL_TYPES:
        cartan = cartan_matrix(ade)
        for inc in itertools.product(range(3), repeat=ade.rank):
            assert (pullback_coefficients(ade, list(inc))
                    == tuple(solve_linear_system(cartan, list(inc)))), (ade.label, inc)


def test_second_pullback_of_a_type_makes_no_bareiss_call(monkeypatch):
    calls = []
    bareiss = qexact._bareiss_triangularize
    monkeypatch.setattr(qexact, "_bareiss_triangularize",
                        lambda aug: calls.append(1) or bareiss(aug))
    inverse_cartan.cache_clear()
    d5 = AdeType("D", 5)
    pullback_coefficients(d5, [1, 0, 0, 0, 0])
    assert len(calls) == 5   # one solve per unit column
    pullback_coefficients(d5, [0, 2, 0, 1, 0])
    assert len(calls) == 5
    pullback_coefficients(AdeType("A", 2), [1, 1])
    assert len(calls) == 7

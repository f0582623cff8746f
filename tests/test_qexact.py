import random
from fractions import Fraction as Rat

import pytest
from hypothesis import given, strategies as st

from cubiclct.lattice import AdeType, cartan_matrix
from cubiclct.qexact import SingularMatrix, format_rat, parse_rat, solve_linear_system
from oracles import determinant_by_expansion, positive_definite_by_expansion

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20)


def test_parse_and_format_roundtrip():
    for text, expected in [("3/4", Rat(3, 4)), ("-3/4", Rat(-3, 4)),
                           ("7", Rat(7)), ("0", Rat(0)),
                           ("−1/2", Rat(-1, 2))]:
        assert parse_rat(text) == expected
    assert format_rat(Rat(3, 4)) == "3/4"
    assert format_rat(Rat(-5)) == "-5"
    assert format_rat(Rat(6, 4)) == "3/2"


def test_parse_rejects_garbage():
    for bad in ["", "1/0", "1.5", "a/2", "1/2/3"]:
        with pytest.raises(ValueError):
            parse_rat(bad)


@given(rationals, rationals)
def test_rat_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(rationals.filter(lambda x: x != 0))
def test_rat_mul_inverse(a):
    assert a * (1 / a) == 1


def test_solve_unit_incidence_on_a1():
    assert solve_linear_system([[2]], [1]) == [Rat(1, 2)]


def test_solve_a3_unit_incidence():
    a = cartan_matrix(AdeType("A", 3))
    assert solve_linear_system(a, [1, 0, 0]) == [Rat(3, 4), Rat(1, 2), Rat(1, 4)]


def test_solve_d4_unit_incidence():
    # hand fraction-free elimination on the 4x4 system gives (1, 1/2, 1/2, 1)
    a = cartan_matrix(AdeType("D", 4))
    assert solve_linear_system(a, [1, 0, 0, 0]) == [Rat(1), Rat(1, 2), Rat(1, 2), Rat(1)]


def test_solve_singular_matrix():
    with pytest.raises(SingularMatrix):
        solve_linear_system([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(SingularMatrix):
        solve_linear_system([[1, 2]], [1])


def test_solve_random_roundtrip():
    rng = random.Random(20240)
    solved = 0
    while solved < 60:
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [Rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        try:
            x = solve_linear_system(a, b)
        except SingularMatrix:
            assert determinant_by_expansion(a) == 0
            continue
        assert [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)] == b
        solved += 1


def test_solve_row_order_independent():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-5, 5) for _ in range(n)]
        try:
            x = solve_linear_system(rows, b)
        except SingularMatrix:
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        assert solve_linear_system([rows[i] for i in perm], [b[i] for i in perm]) == x


def test_positive_definite_trivial():
    assert positive_definite_by_expansion([[2]])
    assert not positive_definite_by_expansion([[2, -3], [-3, 2]])


def test_positive_definite_e6_via_cofactor_oracle():
    e6 = cartan_matrix(AdeType("E", 6))
    minors = [determinant_by_expansion([row[:k] for row in e6[:k]]) for k in range(1, 7)]
    assert positive_definite_by_expansion(e6)
    # chain minors are A_k determinants k+1; the full E6 determinant is 3
    assert minors == [Rat(2), Rat(3), Rat(4), Rat(5), Rat(6), Rat(3)]


def test_positive_definite_requires_symmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        positive_definite_by_expansion([[2, 1], [0, 2]])

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from linrew import GF, QQ
from linrew import linalg


def frows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rank_simple():
    assert linalg.rank(frows([[1, 2], [2, 4]]), QQ) == 1
    assert linalg.rank(frows([[1, 0], [0, 1]]), QQ) == 2
    assert linalg.rank([], QQ) == 0


def test_rank_fractions():
    rows = frows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert linalg.rank(rows, QQ) == 1


def test_solve_rows():
    rows = frows([[1, 0, 1], [0, 1, 1]])
    sol = linalg.solve_rows(rows, frows([[1, 1, 2]])[0], QQ)
    assert sol == [1, 1]
    assert linalg.solve_rows(rows, frows([[0, 0, 1]])[0], QQ) is None


matrices = st.lists(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@given(matrices)
@settings(max_examples=80, deadline=None)
def test_bareiss_agrees_with_generic_elimination(rows):
    q = frows(rows)
    by_bareiss = linalg.rank(q, QQ)
    _, pivots = linalg.row_reduce(q, QQ)
    assert by_bareiss == len(pivots)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_mod_p_bounded_by_rational_rank(rows):
    F = GF(32003)
    q = frows(rows)
    mod = [[F.coerce(x) for x in r] for r in rows]
    assert linalg.rank(mod, F) <= linalg.rank(q, QQ)

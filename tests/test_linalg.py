import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from linrew import GF, ParameterField, QQ
from linrew import linalg

import dense_linalg

QA = ParameterField(("a",))
FIELDS = (QQ, GF(7), QA)


def element(F, n: int, m: int):
    """n/(|m| + 1) over Q, n + m in GF(p), n + m a over Q(a)."""
    if F is QQ:
        return Fraction(n, abs(m) + 1)
    if F is QA:
        return F.add(F.coerce(n), F.mul(F.coerce(m), F.gens["a"]))
    return F.coerce(n + m)


def vector(F, raw: dict) -> dict:
    """The sparse vector of {key: (n, m)}, its zero entries dropped."""
    out = {k: element(F, *nm) for k, nm in raw.items()}
    return {k: c for k, c in out.items() if not F.is_zero(c)}


def dense(F, v: dict, width: int) -> list:
    return [v.get(j, F.zero) for j in range(width)]


def qvecs(rows):
    return [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]


def test_rank_simple():
    assert linalg.rank(qvecs([[1, 2], [2, 4]]), QQ) == 1
    assert linalg.rank(qvecs([[1, 0], [0, 1]]), QQ) == 2
    assert linalg.rank([], QQ) == 0
    assert linalg.rank([{}, {}], QQ) == 0


def test_rank_fractions():
    rows = qvecs([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert linalg.rank(rows, QQ) == 1


def test_solve():
    vectors = qvecs([[1, 0, 1], [0, 1, 1]])
    assert linalg.solve(vectors, qvecs([[1, 1, 2]])[0], QQ) == [1, 1]
    assert linalg.solve(vectors, qvecs([[0, 0, 1]])[0], QQ) is None
    # the repeated vector adds nothing and gets 0
    assert linalg.solve(vectors[:1] * 2 + vectors[1:], qvecs([[2, 1, 3]])[0], QQ) == [2, 0, 1]
    assert linalg.solve([], {}, QQ) == []
    assert linalg.solve([], {0: QQ.one}, QQ) is None


WIDTH = 4
entries = st.tuples(st.integers(-3, 3), st.integers(-2, 2))
raw_vectors = st.lists(st.dictionaries(st.integers(0, WIDTH - 1), entries, max_size=WIDTH), max_size=5)


@given(st.sampled_from(FIELDS), raw_vectors, st.lists(entries, min_size=5, max_size=5), st.booleans())
@settings(max_examples=150, deadline=None)
def test_rank_and_solve_agree_with_dense_reference(F, raw, coeffs, spanned):
    """Sparse rank and solve against the dense kernel, on dependent sets
    and on unsolvable targets: equal ranks, and equal solutions or None,
    with sum x_i v_i equal to the target; no input vector is mutated."""
    vectors = [vector(F, r) for r in raw]
    if spanned:
        pairs = [(c, v) for (n, m), v in zip(coeffs, vectors) if not F.is_zero(c := element(F, n, m))]
        target = F.linear_combination(pairs)
    else:
        target = vector(F, dict(enumerate(coeffs[:WIDTH])))
    kept = copy.deepcopy((vectors, target))
    rows = [dense(F, v, WIDTH) for v in vectors]
    assert linalg.rank(vectors, F) == dense_linalg.rank(rows, F)
    x = linalg.solve(vectors, target, F)
    assert x == dense_linalg.solve_rows(rows, dense(F, target, WIDTH), F)
    assert (vectors, target) == kept
    if spanned:
        assert x is not None
    if x is not None:
        assert F.linear_combination([(c, v) for c, v in zip(x, vectors) if not F.is_zero(c)]) == target


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rank_mod_p_bounded_by_rational_rank(rows):
    F = GF(32003)
    mod = [{j: F.coerce(x) for j, x in enumerate(r) if x} for r in rows]
    assert linalg.rank(mod, F) <= linalg.rank(qvecs(rows), QQ)

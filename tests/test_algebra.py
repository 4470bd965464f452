import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linrew import (
    GF,
    CompositionError,
    Generator,
    Monomial,
    MonomialOrder,
    ParameterField,
    Polygraph2,
    Polynomial,
    QQ,
    Quiver,
    Rule,
    leading_data,
    monomial_poly,
    nf,
)

from brute_force import rightmost_nf

Q3 = Quiver.free("xyz")

words = st.lists(st.sampled_from("xyz"), min_size=0, max_size=6).map(tuple)
nonempty_words = st.lists(st.sampled_from("xyz"), min_size=1, max_size=6).map(tuple)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def poly_from(pairs):
    return Q3.poly(QQ, [(c, Q3.monomial(w)) for c, w in pairs])


polys = st.lists(st.tuples(coeffs, words), min_size=0, max_size=5).map(poly_from)

QA = ParameterField(("a",))
FIELDS = {
    "Q": (QQ, coeffs),
    "GF7": (GF(7), st.integers(min_value=-9, max_value=9)),
    "Qa": (QA, st.tuples(coeffs, coeffs).map(lambda t: f"({t[0]})*a + ({t[1]})")),
}


def polys_over(name, max_size):
    """Polynomials over FIELDS[name]."""
    field, scalars = FIELDS[name]
    return st.lists(st.tuples(scalars, words), max_size=max_size).map(
        lambda pairs: Q3.poly(field, [(c, Q3.monomial(w)) for c, w in pairs])
    )


def assert_no_zero_term(*fs):
    for f in fs:
        assert not any(f.field.is_zero(c) for c in f.terms.values()), f


def test_free_quiver_shape():
    assert Q3.objects == ("*",)
    assert set(Q3.generators) == {"x", "y", "z"}
    m = Q3.monomial(("x", "y"))
    assert m.degree == 2 and str(m) == "x y"


def test_monomial_str_power_sugar():
    m = Q3.monomial(tuple("xxxyzz"))
    assert str(m) == "x^3 y z^2"


def test_composition_boundaries():
    quiver = Quiver(
        ["o1", "o2"],
        [Generator("f", "o1", "o2"), Generator("g", "o2", "o1")],
    )
    fg = quiver.monomial(("f", "g"))
    assert (fg.source, fg.target) == ("o1", "o1")
    with pytest.raises(CompositionError):
        quiver.monomial(("f", "f"))


# (word, source, target, degree): the constructor's argument order.
monomial_fields = st.tuples(
    words, st.sampled_from(["o1", "o2"]), st.sampled_from(["o1", "o2"]), st.integers(0, 6)
)


@given(st.lists(monomial_fields, max_size=8))
def test_monomials_sort_by_degree_source_target_word(fields):
    got = [(m.degree, m.source, m.target, m.word) for m in sorted(Monomial(*f) for f in fields)]
    assert got == sorted((d, s, t, w) for w, s, t, d in fields)


@given(monomial_fields, monomial_fields)
def test_monomial_equality_and_hash(a, b):
    m = Monomial(*a)
    assert (m.word, m.source, m.target, m.degree) == a
    assert m == Monomial(*a) and hash(m) == hash(Monomial(*a))
    assert (m == Monomial(*b)) == (a == b)
    assert pickle.loads(pickle.dumps(m)) == m


def test_identities_on_different_objects_are_distinct_keys():
    quiver = Quiver(["o1", "o2"], [Generator("f", "o1", "o2")])
    one1, one2 = quiver.identity("o1"), quiver.identity("o2")
    assert one1 != one2 and one1.word == one2.word == ()
    table = {one1: "o1", one2: "o2"}
    assert table[quiver.monomial((), at="o1")] == "o1"
    assert table[Monomial((), "o2", "o2", 0)] == "o2"


@given(words)
def test_weight_is_the_word_length(w):
    m = Q3.monomial(w)
    assert m.weight == len(m.word) == len(w)
    assert len(m) == 4  # a Monomial is a 4-tuple whatever its weight


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_polynomial_module_laws(name, data):
    field = FIELDS[name][0]
    f, g, h = (data.draw(polys_over(name, 5)) for _ in range(3))
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f - f == Q3.zero(field)
    assert f - g == f + (-g)
    assert f.scale(field.coerce(2)) == f + f
    assert_no_zero_term(f + g, f - g, -f, (f + g) + h, f.scale(field.coerce(2)))


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_multiplication_distributes(name, data):
    f, g, h = (data.draw(polys_over(name, 5)) for _ in range(3))
    assert (f + g) * h == f * h + g * h
    assert f * (g + h) == f * g + f * h
    assert_no_zero_term(f * h, (f + g) * h, f * (g + h))


@given(polys, polys, polys)
@settings(max_examples=30, deadline=None)
def test_multiplication_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(nonempty_words, nonempty_words)
@settings(max_examples=100, deadline=None)
def test_deglex_total_on_parallel(w1, w2):
    order = MonomialOrder("deglex", "xyz")
    m1, m2 = Q3.monomial(w1), Q3.monomial(w2)
    c = order.compare(m1, m2)
    assert c in (-1, 0, 1)
    assert (c == 0) == (m1 == m2)
    assert c == -order.compare(m2, m1)


@given(nonempty_words, nonempty_words, nonempty_words)
@settings(max_examples=100, deadline=None)
def test_orders_compatible_with_composition(w1, w2, c):
    for order in (
        MonomialOrder("deglex", "xyz"),
        MonomialOrder("weighted-deglex", "xyz", weights={"x": 2, "y": 1, "z": 3}),
        MonomialOrder("elimination-block-deglex", "xyz", blocks=[["x", "y"], ["z"]]),
    ):
        m1, m2 = Q3.monomial(w1), Q3.monomial(w2)
        ctx = Q3.monomial(c)
        if order.less(m1, m2):
            assert order.less(ctx * m1, ctx * m2)
            assert order.less(m1 * ctx, m2 * ctx)


@given(nonempty_words)
@settings(max_examples=60, deadline=None)
def test_degree_dominates(w):
    # Degree-first comparison is what makes every kind well-founded.
    order = MonomialOrder("deglex", "xyz")
    m = Q3.monomial(w)
    longer = Q3.monomial(w + ("x",))
    assert order.less(m, longer)


def test_leading_data():
    order = MonomialOrder("deglex", "xyz")
    f = poly_from([(Fraction(2), tuple("zz")), (Fraction(1), tuple("xy"))])
    lm, lc, lt = leading_data(f, order)
    assert str(lm) == "z^2" and lc == 2
    assert lt == monomial_poly(QQ, lm, Fraction(2))
    lm0, lc0, _ = leading_data(Q3.zero(QQ), order)
    assert lm0 is None and lc0 == 0


def test_whisker():
    f = poly_from([(Fraction(1), tuple("xy")), (Fraction(3), tuple("z"))])
    u = Q3.monomial(("z",))
    g = f.whisker(u, None)
    assert set(str(m) for m in g.terms) == {"z x y", "z^2"}


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_whisker_is_product_with_contexts(name, data):
    field, scalars = FIELDS[name]
    f = data.draw(st.lists(st.tuples(scalars, words), max_size=4).map(
        lambda pairs: Q3.poly(field, [(c, Q3.monomial(w)) for c, w in pairs])
    ))
    u, v = Q3.monomial(data.draw(words)), Q3.monomial(data.draw(words))
    expected = monomial_poly(field, u) * f * monomial_poly(field, v)
    assert f.whisker(u, v) == expected
    assert f.whisker(u, None) == monomial_poly(field, u) * f
    assert f.whisker(None, v) == f * monomial_poly(field, v)
    one = Q3.identity("*")
    assert f.whisker(one, one) == f.whisker(None, None) == f


# Two objects: f : o1 -> o2, g : o2 -> o1, h : o1 -> o1.
QUIVER2 = Quiver(
    ["o1", "o2"], [Generator("f", "o1", "o2"), Generator("g", "o2", "o1"), Generator("h", "o1", "o1")]
)
loops = st.lists(st.sampled_from([("h",), ("f", "g")]), max_size=3).map(lambda blocks: sum(blocks, ()))


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_results_built_unchecked_pass_the_check(name, data):
    """whisker, sums, scale and nf build their results without the
    boundary check.  Each equals its terms built independently through the
    checked constructor, and that constructor still rejects a term with
    another boundary."""
    field, scalars = FIELDS[name]
    q = QUIVER2

    def poly(pairs, source="o1", target="o2"):
        return q.poly(field, pairs, source, target)

    o1_to_o2 = loops.map(lambda w: q.monomial(w + ("f",)))
    f, g = (poly(data.draw(st.lists(st.tuples(scalars, o1_to_o2), max_size=4))) for _ in "fg")
    c = field.coerce(data.draw(scalars))
    u, v = q.monomial(data.draw(loops), at="o1"), q.monomial(("g",) + data.draw(loops))
    minus = [(field.neg(k), m) for k, m in g.items()]
    assert f.whisker(u, v) == poly([(k, u * m * v) for k, m in f.items()], "o1", "o1")
    assert f + g == poly(f.items() + g.items())
    assert f - g == poly(f.items() + minus)
    assert f.scale(c) == poly([(field.mul(c, k), m) for k, m in f.items()])
    rule = Rule("r", q.monomial(("f", "g")), q.poly(field, [(c, q.monomial(("h",)))], "o1", "o1"))
    P = Polygraph2(q, field, [rule], MonomialOrder("deglex", "hfg"))
    assert nf(f, P) == rightmost_nf(f, P)
    with pytest.raises(CompositionError):
        Polynomial(field, {u * v: field.one}, "o1", "o2")


def test_whisker_zero_polynomial():
    u = Q3.monomial(("x", "y"))
    assert Q3.zero(QQ).whisker(u, u) == Q3.zero(QQ)


def test_whisker_boundary_mismatch():
    quiver = Quiver(["o1", "o2"], [Generator("f", "o1", "o2"), Generator("g", "o2", "o1")])
    f, g = quiver.monomial(("f",)), quiver.monomial(("g",))
    p = monomial_poly(QQ, f)  # o1 -> o2
    assert p.whisker(g, g) == monomial_poly(QQ, quiver.monomial(("g", "f", "g")))
    zero = quiver.zero(QQ, "o1", "o2")
    for poly in (p, zero):
        for left, right in ((f, None), (None, f), (quiver.identity("o2"), None),
                            (None, quiver.identity("o1"))):
            with pytest.raises(CompositionError):
                poly.whisker(left, right)
            with pytest.raises(CompositionError):
                monomial_poly(QQ, left or quiver.identity("o1")) * poly * monomial_poly(
                    QQ, right or quiver.identity("o2"))


def test_sum_boundary_mismatch():
    quiver = Quiver(["o1", "o2"], [Generator("f", "o1", "o2"), Generator("g", "o2", "o1")])
    p = monomial_poly(QQ, quiver.monomial(("f",)))  # o1 -> o2
    for q in (monomial_poly(QQ, quiver.monomial(("g",))), quiver.zero(QQ, "o2", "o1")):
        for a, b in ((p, q), (q, p)):
            with pytest.raises(CompositionError):
                a + b
            with pytest.raises(CompositionError):
                a - b

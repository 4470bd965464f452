import operator
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from linrew import FieldError, GF, ParameterField, QQ
from linrew.scalars import Field


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert QQ.is_zero(QQ.sub(QQ.one, QQ.one))
    assert QQ.coerce(7) == Fraction(7)
    with pytest.raises(FieldError):
        QQ.inv(QQ.zero)


def test_prime_field():
    F = GF(32003)
    a = F.coerce(-1)
    assert a == 32002
    assert F.mul(F.inv(F.coerce(17)), F.coerce(17)) == F.one
    assert F.coerce(Fraction(1, 2)) == F.div(F.one, F.coerce(2))
    with pytest.raises(FieldError):
        F.inv(F.zero)


def test_prime_field_requires_prime():
    with pytest.raises(FieldError):
        GF(10)


def test_parameter_field_inverts_only_declared_units():
    F = ParameterField(("a",), ("a",))
    a, a1 = F.coerce("a"), F.coerce("a + 1")
    assert F.is_zero(F.sub(F.mul(F.inv(a), a), F.one))
    # a + 1 was not declared non-vanishing, so division must refuse.
    with pytest.raises(FieldError):
        F.inv(a1)
    # Internal linear algebra may still pivot on it.
    assert F.is_zero(F.sub(F.mul(F.generic_inv(a1), a1), F.one))


def test_parameter_field_canonical_equality():
    F = ParameterField(("a",), ("a",))
    a = F.coerce("a")
    left = F.mul(F.inv(a), F.mul(a, a))
    assert F.is_zero(F.sub(left, a))


def test_parameter_linear_combination_drops_a_sum_that_cancels():
    # The zero test is plain equality, so each sum must come back cancelled:
    # a/(a+1) + 1/(a+1) - 1 and a * (1/a) - 1 vanish only after cancel.
    F = ParameterField(("a",), ("a",))
    a = F.coerce("a")
    pairs = [
        (F.one, {"x": F.coerce("a/(a+1)"), "y": F.one}),
        (F.one, {"x": F.coerce("1/(a+1)"), "y": a}),
        (F.coerce(-1), {"x": F.one}),
        (a, {"z": F.inv(a)}),
        (F.coerce(-1), {"z": F.one}),
    ]
    assert F.linear_combination(pairs) == {"y": F.coerce("a + 1")}


# Parity with sympy, the reference: Q(params) against sympy.cancel.  In
# ("t", "a"), t comes first in sympy's order of generators (which fixes the
# sign of a denominator) and a first in its printed order.
PARAMS = [("a",), ("a", "b"), ("t", "a")]


def _trees(names):
    """(text, sympy expression) pairs of expression trees over + - * / and
    small integer powers.  A division by zero becomes a product."""
    n0, n1 = names[0], names[-1]
    atoms = [n0, n1, f"({n0} + 1)", f"({n0}*{n1} - 1)"]
    leaves = st.integers(-3, 3).map(lambda n: (f"({n})", sympy.Integer(n))) | st.sampled_from(atoms).map(
        lambda t: (t, sympy.sympify(t))
    )

    def combine(parts):
        (lt, le), (rt, re_), op, k = parts
        if op == "**":
            k = abs(k) if k < 0 and sympy.cancel(le) == 0 else k
            return f"({lt})**({k})", le**k
        if op == "/" and sympy.cancel(re_) == 0:
            op = "*"
        value = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op](le, re_)
        return f"({lt}){op}({rt})", value

    return st.recursive(
        leaves,
        lambda inner: st.tuples(inner, inner, st.sampled_from(["+", "-", "*", "/", "**"]), st.integers(-2, 3)).map(
            combine
        ),
        max_leaves=6,
    )


def _old_refuses(e, declared) -> bool:
    """The reference rule, by factoring: inverting e is refused when a factor
    of its numerator, made monic, is no factor of the numerator or the
    denominator of a declared expression."""

    def monic(b):
        return sympy.cancel(b / sympy.LC(b, sorted(b.free_symbols, key=str)[0]))

    const, factors = sympy.factor_list(sympy.fraction(sympy.cancel(e))[0])
    parts = [part for nv in declared for part in sympy.fraction(sympy.cancel(nv))]
    allowed = {monic(b) for part in parts for b, _ in sympy.factor_list(part)[1] if b.free_symbols}
    return const == 0 or any(b.free_symbols and monic(b) not in allowed for b, _ in factors)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_parameter_field_matches_sympy(data):
    """Equality, zero, printing and the arithmetic agree with sympy.cancel;
    inv refuses as the factoring rule does; the printed text reads back as
    the same element."""
    names = data.draw(st.sampled_from(PARAMS))
    n0, n1 = names[0], names[-1]
    candidates = [n0, n1, f"{n0} + 1", f"{n0}*{n1} - 1", f"({n0} + 1)/{n1}", f"{n0}**2 + 1"]
    declared = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=3))
    F = ParameterField(names, tuple(declared))
    (xt, xe), (yt, ye) = data.draw(_trees(names)), data.draw(_trees(names))
    x, y = F.coerce(xt), F.coerce(yt)
    for got, want in [(x, xe), (y, ye), (F.add(x, y), xe + ye), (F.sub(x, y), xe - ye), (F.mul(x, y), xe * ye)]:
        want = sympy.cancel(want)
        assert str(got) == str(want)
        assert F.is_zero(got) == (want == 0)
    assert F.coerce(str(x)) == x and hash(F.coerce(str(x))) == hash(x)
    assert (x == y) == (sympy.cancel(xe - ye) == 0)
    if not F.is_zero(y):
        assert str(F.mul(x, F.generic_inv(y))) == str(sympy.cancel(xe / ye))
    assume(not F.is_zero(x))
    symbols = {n: sympy.Symbol(n) for n in names}
    if _old_refuses(xe, [sympy.sympify(d, locals=symbols) for d in declared]):
        with pytest.raises(FieldError):
            F.inv(x)
    else:
        assert F.mul(F.inv(x), x) == F.one


def test_parameter_field_prints_an_element_once(monkeypatch):
    """to_str keeps each element's text: printing it again reads no parts."""
    F = ParameterField(("z", "p", "c"))
    x = F.mul(F.coerce("(z*p + c)/(z - p*c + 1)"), F.coerce("(z - p*c + 1)*(p + c)/(z*c*c - p)"))
    calls = []
    original = ParameterField._parts
    monkeypatch.setattr(ParameterField, "_parts", lambda self, a: calls.append((self, a)) or original(self, a))
    assert str(x) == str(x) == str(F.coerce(str(x))) == "(c**2 + c*p*z + c*p + p**2*z)/(c**2*z - p)"
    assert [a for K, a in calls if K is F] == [x]


def test_parameter_field_refuses_an_undeclared_factor():
    F = ParameterField(("a", "b"), ("a", "b - 1"))
    assert str(F.inv(F.coerce("a**2*(b - 1)/(a + 1)"))) == "(a + 1)/(a**2*b - a**2)"
    for text in ["a + 1", "a*(a + 1)", "(a + 1)**2*b", "a*b"]:
        with pytest.raises(FieldError):
            F.inv(F.coerce(text))


nonzero = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))
term_maps = st.dictionaries(st.sampled_from("abcde"), nonzero, max_size=4)


@given(st.lists(st.tuples(nonzero, term_maps), max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_rational_linear_combination_is_the_generic_fold(pairs, data):
    # Cancellations: some pairs come back negated, some split in two halves.
    negated = data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    halved = data.draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    pairs = pairs + [(-c, t) for c, t in negated]
    pairs += [(-c / 2, t) for c, t in halved] * 2 + [(c, t) for c, t in halved]
    pairs = data.draw(st.permutations(pairs))
    got = QQ.linear_combination(pairs)
    assert got == Field.linear_combination(QQ, pairs)
    for c in got.values():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def test_rational_linear_combination_cancels():
    x = {"x": Fraction(1, 3), "y": Fraction(2)}
    y = {"x": Fraction(-1, 6), "z": Fraction(1, 4)}
    got = QQ.linear_combination([(Fraction(1), x), (Fraction(2), y), (Fraction(-1, 2), {"y": Fraction(4)})])
    assert got == {"z": Fraction(1, 2)}
    assert QQ.linear_combination([(Fraction(3, 4), x), (Fraction(-3, 4), x)]) == {}


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
def test_linear_combination_returns_a_fresh_dict(F):
    # ReducedComplex.collapse edits columns in place, so no result may be
    # a dict that a caller (such as the walk memo) still holds.
    terms = {"x": F.one, "y": F.coerce(3)}
    for pairs in ([(F.one, terms)], [(F.one, {}), (F.one, terms)]):
        got = F.linear_combination(pairs)
        assert got == terms and got is not terms


@given(nonzero, st.dictionaries(st.sampled_from("abcde"), nonzero, max_size=4))
@settings(max_examples=200, deadline=None)
def test_rational_sum_forms_of_one_pair(c, terms):
    """A lone (coefficient, form) pair is scaled without the general sum:
    the result is still c times the vector, with numerators coprime to
    their common denominator, and counts the form's terms."""
    form, _ = QQ.sum_forms([(coeff, QQ.unit_form(t)) for t, coeff in terms.items()])
    (D, got), summed = QQ.sum_forms([(c, form)])
    assert summed == len(terms)
    assert QQ.form_terms((D, got), {t: t for t in terms}) == QQ.linear_combination([(c, terms)])
    assert D > 0 and gcd(D, *got.values()) == 1
    assert (D, got) == QQ.sum_forms([(c, form), (Fraction(1), (1, {}))])[0]

"""Exact coefficient fields: rationals, prime fields, and parameter fields.

Coefficients are plain canonical values (Fraction, int mod p, or a
canonicalized sympy expression); the field object supplies the arithmetic.
Canonical representation means ``==`` and ``hash`` decide equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any


class FieldError(ArithmeticError):
    pass


class Field:
    """Abstract exact field. Elements are immutable canonical values."""

    zero: Any
    one: Any

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def generic_inv(self, a):
        """Inverse for internal linear algebra; same as inv except for
        parameter fields, where any nonzero rational function is invertible
        generically (no non-vanishing declaration required)."""
        return self.inv(a)

    def is_zero(self, a) -> bool:
        return a == self.zero

    def linear_combination(self, pairs) -> dict:
        """sum(coeff * terms) over (coeff, terms) pairs, where terms is a
        sparse vector {key: coefficient}; the one loop in linrew that sums
        such vectors.  Contract:
        - every pair coefficient and every term coefficient is nonzero;
        - the result is a fresh dict holding the keys whose sum is
          nonzero, with that sum, and no zero value;
        - the order of its keys is not promised."""
        add, mul, is_zero, one = self.add, self.mul, self.is_zero, self.one
        acc: dict = {}
        for coeff, terms in pairs:
            unit = coeff == one
            if unit and not acc:
                acc.update(terms)
                continue
            for t, c in terms.items():
                if not unit:
                    c = mul(coeff, c)
                s = acc.get(t)
                if s is None:
                    acc[t] = c
                    continue
                s = add(s, c)
                if is_zero(s):
                    del acc[t]
                else:
                    acc[t] = s
        return acc

    # A form is how rewriting.nf keeps a normal form in its memo.  Here it is
    # the sparse vector itself; RationalField keeps integers instead.

    def unit_form(self, key):
        """The form of the vector {key: one}."""
        return {key: self.one}

    def form_terms(self, form) -> dict:
        """The sparse vector {key: coefficient} of a form.  It may be the
        form's own dict: the caller must not change it."""
        return form

    def sum_forms(self, pairs: list) -> tuple:
        """(the form of sum(coeff * vector of form), the number of terms of
        the summed forms) over a list of (coeff, form) pairs, under
        linear_combination's contract."""
        return self.linear_combination(pairs), sum(len(form) for _, form in pairs)

    def coerce(self, x):
        """Build an element from an int, Fraction, or string like '-1/2'."""
        raise NotImplementedError

    def to_str(self, a) -> str:
        return str(a)


class RationalField(Field):
    """The rationals, backed by fractions.Fraction."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def linear_combination(self, pairs) -> dict:
        """Field.linear_combination summed in ints: each key keeps one
        (numerator, denominator) pair, over a common denominator of the
        products met, and becomes one normalised Fraction at the end."""
        acc: dict = {}
        for coeff, terms in pairs:
            a, b = coeff.numerator, coeff.denominator
            for t, c in terms.items():
                n, d = a * c.numerator, b * c.denominator
                old = acc.get(t)
                if old is None:
                    acc[t] = (n, d)
                elif old[1] == d:
                    acc[t] = (old[0] + n, d)
                else:
                    on, od = old
                    g = gcd(od, d)
                    acc[t] = (on * (d // g) + n * (od // g), od // g * d)
        return {t: Fraction(n, d) for t, (n, d) in acc.items() if n}

    def unit_form(self, key) -> tuple:
        """A form over Q is (D, {key: int}): a common denominator D and the
        numerators over it, whose gcd with D is 1."""
        return 1, {key: 1}

    def form_terms(self, form: tuple) -> dict:
        D, terms = form
        if D == 1:  # Fraction(n) skips the gcd that Fraction(n, 1) computes
            return {t: Fraction(n) for t, n in terms.items()}
        return {t: Fraction(n, D) for t, n in terms.items()}

    def sum_forms(self, pairs: list) -> tuple:
        """Field.sum_forms in ints: each form is scaled to the lcm of the
        pairs' denominators and summed, and the sum is divided by the gcd of
        its numerators and that lcm.  A lone pair with coefficient 1 keeps
        its form, and a lone a/b * (D, terms) is scaled directly: as
        gcd(a, b) = gcd(numerators, D) = 1, that gcd is gcd(a, D) *
        gcd(b, numerators)."""
        if len(pairs) == 1:
            c, (D, terms) = pairs[0]
            if c == 1:
                return pairs[0][1], len(terms)
            a, b = c.numerator, c.denominator
            g, h = gcd(a, D), gcd(b, *terms.values())
            k = a // g
            return (b // h * (D // g), {t: k * (n // h) for t, n in terms.items()}), len(terms)
        scaled = [(c.numerator, c.denominator * D, terms) for c, (D, terms) in pairs]
        L = lcm(*[b for _, b, _ in scaled])
        acc: dict = {}
        summed = 0
        for a, b, terms in scaled:
            summed += len(terms)
            k = a * (L // b)
            if not acc:
                acc = {t: k * n for t, n in terms.items()}
                continue
            get = acc.get
            for t, n in terms.items():
                acc[t] = get(t, 0) + k * n
        if 0 in acc.values():
            acc = {t: n for t, n in acc.items() if n}
        g = gcd(L, *acc.values())
        if g > 1:
            L //= g
            acc = {t: n // g for t, n in acc.items()}
        return (L, acc), summed

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """GF(p); elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2:
            raise FieldError(f"bad characteristic {p}")
        # A tiny primality check is enough at desk scale.
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise FieldError(f"{p} is not prime")
            d += 1
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, -1, self.p)

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise FieldError(f"cannot coerce {x!r} into {self.name}")

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class ParameterField(Field):
    """Rational functions in named parameters over Q, via sympy.

    Elements are sympy expressions normalized with ``cancel`` so equality is
    decidable: every operation returns a cancelled value, so the inherited
    zero test ``a == zero`` is exact.  Division is only allowed by
    expressions whose non-constant factors all belong to the declared
    non-vanishing set.
    """

    def __init__(self, params: tuple[str, ...], nonvanishing: tuple[str, ...] = ()):
        import sympy

        self._sympy = sympy
        self.params = tuple(params)
        self.symbols = {name: sympy.Symbol(name) for name in params}
        self.name = "Q(" + ", ".join(params) + ")"
        self.zero = sympy.Integer(0)
        self.one = sympy.Integer(1)
        self.nonvanishing = tuple(
            sympy.cancel(sympy.sympify(s, locals=self.symbols)) for s in nonvanishing
        )

    def _canon(self, e):
        return self._sympy.cancel(e)

    def add(self, a, b):
        return self._canon(a + b)

    def neg(self, a):
        return self._canon(-a)

    def mul(self, a, b):
        return self._canon(a * b)

    def _monic(self, poly_expr):
        sympy = self._sympy
        syms = sorted(poly_expr.free_symbols, key=str)
        return sympy.cancel(poly_expr / sympy.LC(poly_expr, syms[0]))

    def _check_invertible(self, a):
        sympy = self._sympy
        num, _ = sympy.fraction(sympy.cancel(a))
        const, factors = sympy.factor_list(num)
        if const == 0:
            raise FieldError("division by zero")
        allowed = set()
        for nv in self.nonvanishing:
            _, nvf = sympy.factor_list(nv)
            for base, _ in nvf:
                if base.free_symbols:
                    allowed.add(self._monic(base))
        for base, _ in factors:
            if not base.free_symbols:
                continue
            if self._monic(base) not in allowed:
                raise FieldError(
                    f"division by possibly-vanishing expression {a} "
                    f"(factor {base} not declared non-vanishing)"
                )

    def inv(self, a):
        self._check_invertible(a)
        return self._canon(1 / a)

    def generic_inv(self, a):
        if self.is_zero(a):
            raise FieldError("division by zero")
        return self._canon(1 / a)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return self._sympy.Rational(x.numerator, x.denominator)
        if isinstance(x, int):
            return self._sympy.Integer(x)
        if isinstance(x, str):
            return self._canon(self._sympy.sympify(x, locals=self.symbols))
        return self._canon(self._sympy.sympify(x))

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return (
            isinstance(other, ParameterField)
            and other.params == self.params
            and other.nonvanishing == self.nonvanishing
        )

    def __hash__(self):
        return hash(("Qparam", self.params))


QQ = RationalField()

DEFAULT_PRIME = 32003


def GF(p: int = DEFAULT_PRIME) -> PrimeField:
    return PrimeField(p)

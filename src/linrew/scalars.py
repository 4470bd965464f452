"""Exact coefficient fields: rationals, prime fields, and parameter fields.

Coefficients are plain canonical values (Fraction, int mod p, or a
RationalFunction in a tower of univariate rational-function fields over Q);
the field object supplies the arithmetic.  Canonical representation means
``==`` and ``hash`` decide equality.  No module here imports sympy.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property, reduce
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

    # A form is how rewriting.nf keeps a normal form in its memo: a vector
    # over the memo's leaf numbers, which the list keys maps to monomials.
    # Here it is the sparse vector itself; RationalField keeps integers.

    def unit_form(self, key):
        """The form of the vector {key: one}."""
        return {key: self.one}

    def form_terms(self, form, keys) -> dict:
        """The sparse vector {keys[key]: coefficient} of a form, as a fresh
        dict."""
        return {keys[t]: c for t, c in form.items()}

    def form_texts(self, form, keys) -> list:
        """The (keys[key], coefficient text) pairs of a form, sorted by
        key: a sum of terms to print (see algebra.terms_text)."""
        return sorted([(keys[t], self.to_str(c)) for t, c in form.items()])

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

    def form_terms(self, form: tuple, keys) -> dict:
        D, terms = form
        if D == 1:  # Fraction(n) skips the gcd that Fraction(n, 1) computes
            return {keys[t]: Fraction(n) for t, n in terms.items()}
        return {keys[t]: Fraction(n, D) for t, n in terms.items()}

    def form_texts(self, form: tuple, keys) -> list:
        """Field.form_texts from the integers, as str of a Fraction prints
        n/D in lowest terms: no Fraction is built."""
        D, terms = form
        texts = []
        for t, n in terms.items():
            g = gcd(n, D)
            texts.append((keys[t], str(n // g) if g == D else f"{n // g}/{D // g}"))
        texts.sort()
        return texts

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


def _padd(K, f, g):
    """f + g for polynomials over K: coefficient tuples, lowest power first."""
    f, g = (f, g) if len(f) >= len(g) else (g, f)
    out = [K.add(c, g[i]) if i < len(g) else c for i, c in enumerate(f)]
    while out and K.is_zero(out[-1]):
        out.pop()
    return tuple(out)


def _pmul(K, f, g):
    out = [K.zero] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return tuple(out)


def _pdiv(K, f, g):
    """f / g, for g a nonzero divisor of f."""
    r, n = list(f), len(g) - 1
    q = [K.zero] * max(len(f) - n, 0)
    lead = K.generic_inv(g[-1])
    for k in reversed(range(len(q))):
        c = q[k] = K.mul(r[k + n], lead)
        for j, y in enumerate(g):
            r[k + j] = K.sub(r[k + j], K.mul(c, y))
    return tuple(q)


def _pgcd(K, f, g):
    """The monic gcd of f and g, not both zero, by the primitive remainder
    sequence: its remainders stay in Z[params], where Euclid's swell."""
    f, g = _primitive(K, f), _primitive(K, g)
    while g:
        r = f
        while len(r) >= len(g):  # r lc(g) - lc(r) t^k g has a lower degree
            r = _padd(K, _pmul(K, r, (g[-1],)), _pmul(K, (K.zero,) * (len(r) - len(g)) + g, (K.neg(r[-1]),)))
        f, g = g, _primitive(K, r)
    return _pmul(K, f, (K.generic_inv(f[-1]),))


def _cancel(K, f, g):
    """f/h and g/h for h the monic gcd of f and g; f and g are nonzero."""
    if len(f) > 1 and len(g) > 1 and len(h := _pgcd(K, f, g)) > 1:
        return _pdiv(K, f, h), _pdiv(K, g, h)
    return f, g


def _primitive(K, f):
    """f over the content of its coefficients: in Z[params], with gcd 1."""
    return _pmul(K, f, (K.generic_inv(_content(K, f)),)) if f else f


def _content(K, xs):
    """c in K (QQ or a ParameterField) with the x / c in Z[params], of gcd 1
    up to sign.  Over K = B(t) it is g / l (the nums' gcd over the dens' lcm)
    times the content in B of the coefficients of the x * l / g in B[t]."""
    if K is QQ:
        return Fraction(gcd(*[x.numerator for x in xs]), lcm(*[x.denominator for x in xs]))
    B, xs = K.base, [x for x in xs if x.num]
    g, l = (), (B.one,)
    for x in xs:
        g, l = _pgcd(B, g, x.num), _pdiv(B, _pmul(B, l, x.den), _pgcd(B, l, x.den))
    inner = [c for x in xs for c in _pmul(B, _pdiv(B, x.num, g), _pdiv(B, l, x.den))]
    return K._make(_pmul(B, g, (_content(B, inner),)), l)


class RationalFunction:
    """An element of a ParameterField.  Its + * - and ** (a negative power
    inverts generically) take ints and Fractions too, for lpformat's
    expression evaluator."""

    __slots__ = ("num", "den", "field")

    def __init__(self, num: tuple, den: tuple, field: ParameterField):
        self.num, self.den, self.field = num, den, field

    def __eq__(self, other):
        return isinstance(other, RationalFunction) and (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return self.field.to_str(self)

    def __add__(self, other):
        return self.field.add(self, self.field.coerce(other))

    def __mul__(self, other):
        return self.field.mul(self, self.field.coerce(other))

    __radd__, __rmul__, __repr__ = __add__, __mul__, __str__

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, k: int):
        out = reduce(operator.mul, [self] * abs(k), self.field.one)
        return out if k >= 0 else self.field.generic_inv(out)


class ParameterField(Field):
    """Q(a1, ..., an) as a tower: K(an) over K = Q(a1, ..., a(n-1)), down to
    K = Q.  An element is num/den, polynomials in an over K cancelled by
    their gcd in K[an], with den monic: a unique form, so == is the exact
    zero test.  Elements print as str(sympy.cancel(e)) does, and read as
    lpformat reads a coefficient."""

    def __init__(self, params: tuple[str, ...], nonvanishing: tuple[str, ...] = ()):
        self.params = tuple(params)
        self.name = "Q(" + ", ".join(params) + ")"
        self.base = K = ParameterField(self.params[:-1]) if len(self.params) > 1 else QQ
        self.zero = RationalFunction((), (K.one,), self)
        self.one = RationalFunction((K.one,), (K.one,), self)
        self.gens = {n: self.coerce(g) for n, g in (K.gens if K is not QQ else {}).items()}
        self.gens[self.params[-1]] = RationalFunction((K.zero, K.one), (K.one,), self)
        self.nonvanishing = tuple(self.coerce(s) for s in nonvanishing)
        self._printed: dict = {}  # element -> its text, see to_str
        self._declared = self.one  # the product of their numerators and denominators
        for e in self.nonvanishing:  # a zero one fails here with "division by zero"
            self._declared = self.mul(self._declared, self.mul(*self._parts(e)))

    def _make(self, num, den):
        """num/den cancelled, with den monic; den is nonzero."""
        if not num:
            return self.zero
        return self._monic(*_cancel(self.base, num, den))

    def _monic(self, num, den):
        """num/den with den made monic; num and den are coprime."""
        K = self.base
        if den[-1] != K.one:
            lead = (K.generic_inv(den[-1]),)
            num, den = _pmul(K, num, lead), _pmul(K, den, lead)
        return RationalFunction(num, den, self)

    def add(self, a, b):
        K = self.base
        return self._make(_padd(K, _pmul(K, a.num, b.den), _pmul(K, b.num, a.den)), _pmul(K, a.den, b.den))

    def neg(self, a):
        return RationalFunction(tuple(self.base.neg(c) for c in a.num), a.den, self)

    def mul(self, a, b):
        """a.num/a.den times b.num/b.den, each numerator cancelled against
        the other's denominator: both fractions are in lowest terms, so the
        product is too."""
        if not (a.num and b.num):
            return self.zero
        K = self.base
        (p, s), (q, r) = _cancel(K, a.num, b.den), _cancel(K, b.num, a.den)
        return self._monic(_pmul(K, p, q), _pmul(K, r, s))

    def generic_inv(self, a):
        if not a.num:
            raise FieldError("division by zero")
        return self._make(a.den, a.num)

    def inv(self, a):
        """generic_inv, refused unless a's numerator, divided by its gcd with
        the declared expressions' product until that gcd is 1, is constant."""
        rest = self._parts(self.generic_inv(a))[1]
        while (smaller := self._parts(self.mul(rest, self.generic_inv(self._declared)))[0]) not in (rest, -rest):
            rest = smaller
        if any(map(any, self._terms(rest))):
            raise FieldError(f"division by possibly-vanishing expression {a} (factor {rest} not declared non-vanishing)")
        return self.generic_inv(a)

    def coerce(self, x):
        if isinstance(x, RationalFunction) and x.field.params == self.params:
            return x
        if isinstance(x, str):
            from .lpformat import _exact_value
            value = _exact_value(x, self.gens)
            if value is None:
                raise FieldError(f"cannot read {x!r} in {self.name}")
            return self.coerce(value)
        c = self.base.coerce(x)
        return RationalFunction(() if self.base.is_zero(c) else (c,), (self.base.one,), self)

    def _parts(self, a):
        """(p, q): coprime elements of Z[params] with a = p / q, a nonzero."""
        K = self.base
        u = K.mul(_content(K, a.num), K.generic_inv(_content(K, a.den)))
        pu, qu = K._parts(u) if K is not QQ else (Fraction(u.numerator), Fraction(u.denominator))
        p, q = _pmul(K, _primitive(K, a.num), (pu,)), _pmul(K, _primitive(K, a.den), (qu,))
        return RationalFunction(p, (K.one,), self), RationalFunction(q, (K.one,), self)

    def _terms(self, p) -> dict:
        """{exponents of params: int coefficient} of p in Z[params]."""
        inner = self.base._terms if self.base is not QQ else lambda c: {(): int(c)}
        return {e + (k,): n for k, c in enumerate(p.num) for e, n in inner(c).items() if n}

    def to_str(self, a) -> str:
        """a as str(sympy.cancel(a)) prints it, kept once printed."""
        text = self._printed.get(a)
        if text is None:
            text = self._printed[a] = self._print(a) if a.num else "0"
        return text

    @cached_property
    def _lex_order(self) -> list[int]:
        """The params' positions, ranked as sympy's polys.polyutils._sort_gens
        ranks generators."""
        stems = [re.fullmatch(r"(.*?)(\d*)", name).groups() for name in self.params]
        letters = {c: (100 if c > "w" else 200 if c > "o" else 300) + ord(c) - 96 for c in "abcdefghijklmnopqrstuvwxyz"}
        rank = [(letters.get(stem, 1000), stem, int(index or 0)) for stem, index in stems]
        return sorted(range(len(rank)), key=rank.__getitem__)

    def _print(self, a) -> str:
        P, Q = (self._terms(x) for x in self._parts(a))
        # sympy keeps positive the lex-leading coefficient of the denominator.
        order = self._lex_order
        if Q[max(Q, key=lambda e: [e[i] for i in order])] < 0:
            P, Q = ({e: -n for e, n in X.items()} for X in (P, Q))
        return _sympy_str(self.params, P, Q)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        same = isinstance(other, ParameterField) and other.params == self.params
        return same and set(other.nonvanishing) == set(self.nonvanishing)

    def __hash__(self):
        return hash(("Qparam", self.params))


def _sympy_str(names, P: dict, Q: dict) -> str:
    """What sympy's str printer writes for P/Q, coprime in Z[names] as
    {exponents: coefficient}; its Add and Mul put names in alphabetical order."""
    alpha = sorted(range(len(names)), key=names.__getitem__)

    def powers(e):
        return [names[i] + f"**{e[i]}" * (e[i] > 1) for i in alpha if e[i]]

    def mul(c: Fraction, top: list, bottom: list) -> str:
        top = [str(abs(c.numerator))] * (abs(c.numerator) != 1) + top
        bottom = [str(c.denominator)] * (c.denominator != 1) + bottom
        over = "" if not bottom else "/" + bottom[0] if len(bottom) == 1 else "/(" + "*".join(bottom) + ")"
        return "-" * (c < 0) + "*".join(top or ["1"]) + over

    def add(P: dict, d: int = 1) -> str:
        terms = sorted(P.items(), key=lambda t: [t[0][i] for i in alpha], reverse=True)
        if len(terms) == 2 and terms[0][1] < 0 < terms[1][1] and not any(terms[1][0]) and sum(map(bool, terms[0][0])) == 1:
            terms.reverse()  # sympy writes 1 - a, not -a + 1
        out = [mul(Fraction(c, d), powers(e), []) for e, c in terms]
        return out[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in out[1:])

    zero = (0,) * len(names)
    if list(Q) == [zero]:
        return add(P, Q[zero])
    c, top, bottom = Fraction(1), [f"({add(P)})"], [f"({add(Q)})"]
    if len(P) == 1:
        ((e, n),) = P.items()
        c, top = Fraction(n), powers(e)
    if len(Q) == 1:
        ((e, n),) = Q.items()
        c, bottom = c / n, powers(e)
        if c == 1 and not top and len(bottom) == 1 and max(e) > 1:
            return bottom[0].replace("**", "**(-") + ")"  # 1/a**2 prints as a**(-2)
    return mul(c, top, bottom)


QQ = RationalField()

DEFAULT_PRIME = 32003


def GF(p: int = DEFAULT_PRIME) -> PrimeField:
    return PrimeField(p)

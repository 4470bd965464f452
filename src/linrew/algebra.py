"""Quivers, path monomials, noncommutative polynomials, and monomial orders.

Monomials are composable words of quiver generators; polynomials are exact
field-coefficient combinations of parallel monomials.  All values are
immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping

from .scalars import Field


class CompositionError(ValueError):
    """Raised when boundaries do not match."""


@dataclass(frozen=True)
class Generator:
    name: str
    source: str
    target: str
    degree: int = 1

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"generator {self.name} must have positive degree")


class Quiver:
    """A finite quiver: objects and typed generators with degrees."""

    def __init__(self, objects: Iterable[str], generators: Iterable[Generator]):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        self.generators: dict[str, Generator] = {}
        for g in generators:
            if g.name in self.generators:
                raise ValueError(f"duplicate generator id {g.name}")
            if g.source not in self.objects or g.target not in self.objects:
                raise ValueError(f"generator {g.name} references unknown object")
            self.generators[g.name] = g

    @classmethod
    def free(cls, names: Iterable[str], degrees: Mapping[str, int] | None = None) -> "Quiver":
        """One-object quiver (ordinary free algebra) over the given letters."""
        degrees = degrees or {}
        return cls(["*"], [Generator(n, "*", "*", degrees.get(n, 1)) for n in names])

    def identity(self, obj: str) -> "Monomial":
        if obj not in self.objects:
            raise ValueError(f"unknown object {obj}")
        return Monomial((), obj, obj, 0)

    def monomial(self, word: Iterable[str], at: str | None = None) -> "Monomial":
        word = tuple(word)
        if not word:
            if at is None:
                if len(self.objects) != 1:
                    raise CompositionError("identity monomial needs an object")
                at = self.objects[0]
            return self.identity(at)
        degree = 0
        prev: Generator | None = None
        for name in word:
            g = self.generators.get(name)
            if g is None:
                raise ValueError(f"unknown generator {name}")
            if prev is not None and prev.target != g.source:
                raise CompositionError(
                    f"non-composable word: {prev.name}:{prev.source}->{prev.target} "
                    f"then {g.name}:{g.source}->{g.target}"
                )
            degree += g.degree
            prev = g
        src = self.generators[word[0]].source
        tgt = self.generators[word[-1]].target
        m = Monomial(word, src, tgt, degree)
        if at is not None and src != at:
            raise CompositionError(f"word starts at {src}, expected {at}")
        return m

    def zero(self, field: Field, source: str | None = None, target: str | None = None) -> "Polynomial":
        if source is None or target is None:
            if len(self.objects) != 1:
                raise CompositionError("zero polynomial needs boundary objects")
            source = target = self.objects[0]
        return Polynomial(field, {}, source, target)

    def poly(self, field: Field, terms, source: str | None = None, target: str | None = None) -> "Polynomial":
        """Build a polynomial from (coeff, monomial) pairs; prunes zeros."""
        acc: dict[Monomial, object] = {}
        for coeff, m in terms:
            acc[m] = field.add(acc.get(m, field.zero), field.coerce(coeff))
        acc = {m: c for m, c in acc.items() if not field.is_zero(c)}
        if acc:
            any_m = next(iter(acc))
            source, target = any_m.source, any_m.target
        return Polynomial(field, acc, *_boundary_or_default(self, source, target))


def _boundary_or_default(quiver: Quiver, source, target):
    if source is None or target is None:
        if len(quiver.objects) != 1:
            raise CompositionError("boundary objects required")
        source = target = quiver.objects[0]
    return source, target


class Monomial(tuple):
    """A path in the quiver: a composable word of generator names.

    A Monomial is the tuple (degree, source, target, word), so equality,
    hashing and the canonical (order-independent) sort used for
    deterministic storage are plain tuple operations.  Semantic
    comparisons go through MonomialOrder.  Its length as a tuple is
    always 4; the weight is len(m.word)."""

    __slots__ = ()

    def __new__(cls, word: tuple[str, ...], source: str, target: str, degree: int):
        return tuple.__new__(cls, (degree, source, target, word))

    degree = property(itemgetter(0))
    source = property(itemgetter(1))
    target = property(itemgetter(2))
    word = property(itemgetter(3))

    def __getnewargs__(self):
        return self.word, self.source, self.target, self.degree

    def __repr__(self):
        return (
            f"Monomial(word={self.word!r}, source={self.source!r}, "
            f"target={self.target!r}, degree={self.degree!r})"
        )

    @property
    def weight(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def compose(self, other: "Monomial") -> "Monomial":
        if self.target != other.source:
            raise CompositionError(
                f"cannot compose {self} : ->{self.target} with {other} : {other.source}->"
            )
        return Monomial(
            self.word + other.word, self.source, other.target, self.degree + other.degree
        )

    __mul__ = compose

    def factor_positions(self, factor: tuple[str, ...]) -> list[int]:
        """All start indices where factor occurs as a subword."""
        n, k = len(self.word), len(factor)
        return [i for i in range(n - k + 1) if self.word[i : i + k] == factor]

    def __str__(self):
        word = self.word
        if not word:
            return f"1_{self.source}"
        out = []
        prev, run = word[0], 0
        for letter in word:
            if letter == prev:
                run += 1
            else:
                out.append(prev if run == 1 else f"{prev}^{run}")
                prev, run = letter, 1
        out.append(prev if run == 1 else f"{prev}^{run}")
        return " ".join(out)


class Polynomial:
    """Finite linear combination of parallel monomials with exact coefficients."""

    __slots__ = ("field", "terms", "source", "target", "_hash")

    def __init__(self, field: Field, terms: Mapping[Monomial, object], source: str, target: str):
        for m in terms:
            if (m.source, m.target) != (source, target):
                raise CompositionError(
                    f"term {m} has boundary ({m.source},{m.target}), expected ({source},{target})"
                )
        _fill(self, field, dict(terms), source, target)

    @classmethod
    def _unchecked(cls, field: Field, terms: dict, source: str, target: str) -> "Polynomial":
        """A polynomial on terms, taken as it is: terms must be a fresh dict
        whose monomials all run from source to target."""
        self = object.__new__(cls)
        _fill(self, field, terms, source, target)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def monomials(self) -> list[Monomial]:
        return sorted(self.terms)

    def items(self):
        """Reduced expression: (coefficient, monomial) pairs, canonically sorted."""
        return [(self.terms[m], m) for m in self.monomials]

    def _plus(self, other: "Polynomial", coeff) -> "Polynomial":
        """self + coeff * other, for a nonzero coeff."""
        if (self.source, self.target) != (other.source, other.target):
            raise CompositionError("boundary mismatch in polynomial addition")
        f = self.field
        terms = f.linear_combination(((f.one, self.terms), (coeff, other.terms)))
        return Polynomial._unchecked(f, terms, self.source, self.target)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, self.field.one)

    def __neg__(self) -> "Polynomial":
        return self.scale(self.field.neg(self.field.one))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, self.field.neg(self.field.one))

    def scale(self, coeff) -> "Polynomial":
        f = self.field
        if coeff == f.one:
            return self
        if f.is_zero(coeff):
            return Polynomial._unchecked(f, {}, self.source, self.target)
        return Polynomial._unchecked(
            f, {m: f.mul(coeff, c) for m, c in self.terms.items()}, self.source, self.target
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """0-composition (concatenation product), distributing over terms."""
        if self.target != other.source:
            raise CompositionError("boundary mismatch in polynomial product")
        f = self.field
        terms = f.linear_combination(
            [(c1, other.whisker(m1, None).terms) for m1, c1 in self.terms.items()]
        )
        return Polynomial(f, terms, self.source, other.target)

    def whisker(self, left: Monomial | None, right: Monomial | None) -> "Polynomial":
        """left * self * right, by relabelling each term m as left m right:
        concatenation is injective on words, so coefficients stay as they
        are and no two terms merge.  None stands for an identity."""
        source, target = self.source, self.target
        lw = rw = ()
        ld = rd = 0
        if left is not None:
            if left.target != source:
                raise CompositionError("boundary mismatch in polynomial product")
            lw, ld, source = left.word, left.degree, left.source
        if right is not None:
            if right.source != target:
                raise CompositionError("boundary mismatch in polynomial product")
            rw, rd, target = right.word, right.degree, right.target
        if not lw and not rw:
            return self
        terms = {
            Monomial(lw + m.word + rw, source, target, ld + m.degree + rd): c
            for m, c in self.terms.items()
        }
        return Polynomial._unchecked(self.field, terms, source, target)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and (self.source, self.target) == (other.source, other.target)
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            h = hash((self.source, self.target, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __str__(self):
        f = self.field
        return terms_text([(m, f.to_str(c)) for c, m in self.items()])

    __repr__ = __str__


def _fill(p: Polynomial, field: Field, terms: dict, source: str, target: str) -> None:
    object.__setattr__(p, "field", field)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "source", source)
    object.__setattr__(p, "target", target)
    object.__setattr__(p, "_hash", None)


# An operator in a coefficient text, other than a leading minus: the text
# is put in parentheses before its monomial.
_COMPOUND = re.compile(r"(?!^-)[-+*/]").search


def terms_text(pairs: list) -> str:
    """The text of a sum of terms from its (monomial, coefficient text)
    pairs in canonical order, as Polynomial prints itself: a unit
    coefficient is left out, an identity monomial is left out, and a
    negative term is subtracted."""
    if not pairs:
        return "0"
    parts = []
    for m, cs in pairs:
        if not m.word:
            part = cs
        elif cs == "1":
            part = str(m)
        elif cs == "-1":
            part = f"-{m}"
        else:
            part = f"({cs}) {m}" if _COMPOUND(cs) else f"{cs} {m}"
        if not parts:
            parts.append(part)
        elif part.startswith("-"):
            parts.append(f" - {part[1:].lstrip()}")
        else:
            parts.append(f" + {part}")
    return "".join(parts)


def monomial_poly(field: Field, m: Monomial, coeff=None) -> Polynomial:
    c = field.one if coeff is None else coeff
    if field.is_zero(c):
        return Polynomial(field, {}, m.source, m.target)
    return Polynomial(field, {m: c}, m.source, m.target)


class MonomialOrder:
    """Degree-first well-founded orders on parallel monomials.

    kinds: 'deglex', 'weighted-deglex' (non-negative letter weights
    compared before degree), 'elimination-block-deglex' (degree, then
    block-degree vector, then lex).  Every kind is well-founded and
    compatible with composition.
    """

    KINDS = ("deglex", "weighted-deglex", "elimination-block-deglex")

    def __init__(
        self,
        kind: str,
        precedence: Iterable[str],
        weights: Mapping[str, int] | None = None,
        blocks: Iterable[Iterable[str]] | None = None,
    ):
        if kind not in self.KINDS:
            raise ValueError(f"unknown order kind {kind}")
        self.kind = kind
        self.precedence = tuple(precedence)
        self.rank = {g: i for i, g in enumerate(self.precedence)}
        self.weights = dict(weights or {})
        self.blocks = tuple(tuple(b) for b in (blocks or ()))
        if kind == "weighted-deglex" and not self.weights:
            raise ValueError("weighted-deglex needs letter weights")
        if any(w < 0 for w in self.weights.values()):
            # A negative weight makes x^n descend forever: y -> x y decreases.
            raise ValueError("letter weights must be non-negative")
        if kind == "elimination-block-deglex" and not self.blocks:
            raise ValueError("elimination-block-deglex needs blocks")
        self._block_of = {}
        for i, b in enumerate(self.blocks):
            for g in b:
                self._block_of[g] = i

    def key(self, m: Monomial):
        lex = tuple(self.rank[g] for g in m.word)
        if self.kind == "deglex":
            return (m.degree, m.weight, lex)
        if self.kind == "weighted-deglex":
            w = sum(self.weights.get(g, 1) for g in m.word)
            return (w, m.degree, m.weight, lex)
        counts = [0] * len(self.blocks)
        for g in m.word:
            counts[self._block_of[g]] += 1
        return (m.degree, m.weight, tuple(counts), lex)

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        if (m1.source, m1.target) != (m2.source, m2.target):
            raise CompositionError("cannot compare non-parallel monomials")
        k1, k2 = self.key(m1), self.key(m2)
        return -1 if k1 < k2 else (1 if k1 > k2 else 0)

    def less(self, m1: Monomial, m2: Monomial) -> bool:
        return self.compare(m1, m2) < 0

    def max_monomial(self, f: Polynomial) -> Monomial | None:
        best = None
        for m in f.terms:
            if best is None or self.key(m) > self.key(best):
                best = m
        return best


def leading_data(f: Polynomial, order: MonomialOrder):
    """(leading monomial, leading coefficient, leading term); zeros for f = 0."""
    lm = order.max_monomial(f)
    if lm is None:
        return None, f.field.zero, f
    lc = f.terms[lm]
    return lm, lc, monomial_poly(f.field, lm, lc)

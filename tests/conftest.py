import itertools
import os
from fractions import Fraction
from pathlib import Path

import pytest

from linrew import (
    MonomialOrder,
    PatternMeasure,
    Polygraph2,
    QQ,
    Quiver,
    Rule,
    certify_termination,
    check_confluence,
)

FIXTURES = Path(__file__).parent / "fixtures"


def corpus_seed() -> int:
    return int(os.environ.get("LINREW_SEED", "0"))


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def make_poly(quiver, field, terms):
    return quiver.poly(
        field, [(c, quiver.monomial(tuple(w))) for c, w in terms]
    )


@pytest.fixture
def sys_xyz():
    """xyz -> x^3 + y^3 + z^3, certified by the pattern measure."""
    Q = Quiver.free("xyz")
    rule = Rule(
        "g",
        Q.monomial(tuple("xyz")),
        make_poly(Q, QQ, [(1, "xxx"), (1, "yyy"), (1, "zzz")]),
    )
    P = Polygraph2(Q, QQ, [rule], MonomialOrder("deglex", "xyz"))
    measure = PatternMeasure((("y", 1),), ((("x", "y", "z"), 3),), 3)
    P.termination_certificate = certify_termination(P, measure)
    check_confluence(P)
    return P


@pytest.fixture
def sys_xy():
    """xy -> x^2, y^2 -> x^2 under deglex x < y (not yet completed)."""
    Q = Quiver.free("xy")
    order = MonomialOrder("deglex", "xy")
    rules = [
        Rule("a", Q.monomial(tuple("xy")), make_poly(Q, QQ, [(1, "xx")])),
        Rule("b", Q.monomial(tuple("yy")), make_poly(Q, QQ, [(1, "xx")])),
    ]
    return Polygraph2(Q, QQ, rules, order)


@pytest.fixture
def sys_pp(request):
    """yz -> -x^2, zy -> -(1/a) x^2 with a = 2 (not yet completed)."""
    Q = Quiver.free("xyz")
    order = MonomialOrder("deglex", "xyz")
    a = Fraction(2)
    rules = [
        Rule("alpha", Q.monomial(tuple("yz")), make_poly(Q, QQ, [(-1, "xx")])),
        Rule("beta", Q.monomial(tuple("zy")), make_poly(Q, QQ, [(-1 / a, "xx")])),
    ]
    return Polygraph2(Q, QQ, rules, order)


def deglex_system(gens, rules):
    """Polygraph over Q, ordered deglex by the order of gens, from
    (name, source word, [(coefficient, word), ...]) triples."""
    Q = Quiver.free(gens)
    return Polygraph2(
        Q, QQ,
        [Rule(name, Q.monomial(tuple(src)), make_poly(Q, QQ, tgt)) for name, src, tgt in rules],
        MonomialOrder("deglex", gens),
    )


# Two rules of one source once oriented under deglex x < y: a critical
# branching of the source with itself, between the two rules.
EQUAL_SOURCES = {
    "yx": "field Q\ngenerators x y\norder deglex x < y\nrule a : y x -> x y\nrule b : y x -> 2 x y\n",
    "yy": "field Q\ngenerators x y\norder deglex x < y\nrule a : y y -> x x\nrule b : x x -> 2 y y\n",
}


def h1_system():
    """Three quadratic relations whose completion never stops."""
    return deglex_system("xyz", [
        ("a", "zy", [(1, "yz"), (1, "xx")]),
        ("b", "zx", [(1, "xz"), (2, "yy")]),
        ("c", "yx", [(1, "xy"), (1, "zz")]),
    ])


def cubic_system():
    return deglex_system("xyz", [
        ("p", "zzz", [(1, "xyz"), (1, "yyx")]),
        ("q", "zzy", [(1, "xxy")]),
    ])


SKEW_COEFFS = (2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 3))


def skew_system(n):
    """The skew-polynomial algebra on the first n of a..l, ordered deglex
    alphabetically: y x -> c x y for x < y, the c cycling through
    SKEW_COEFFS.  Convergent and Koszul for any nonzero c."""
    gens = "abcdefghijkl"[:n]
    pairs = [(x, y) for j, y in enumerate(gens) for x in gens[:j]]
    return deglex_system(gens, [
        (f"s{x}{y}", y + x, [(SKEW_COEFFS[i % len(SKEW_COEFFS)], x + y)])
        for i, (x, y) in enumerate(pairs)
    ])


def plactic_system(n):
    """The plactic algebra P_n on the first n of a..l, a < b < ...: Knuth's
    relations x z y = z x y for x <= y < z and y x z = y z x for x < y <= z,
    each oriented deglex."""
    gens = "abcdefghijkl"[:n]
    triples = itertools.product(range(n), repeat=3)
    relations = [
        pair for x, y, z in triples for pair, holds in (
            (((x, z, y), (z, x, y)), x <= y < z),
            (((y, x, z), (y, z, x)), x < y <= z),
        ) if holds
    ]
    rules = []
    for i, pair in enumerate(relations):
        low, high = sorted("".join(gens[k] for k in w) for w in pair)
        rules.append((f"k{i}", high, [(1, low)]))
    return deglex_system(gens, rules)


def tableau_count(n: int, d: int) -> int:
    """The semistandard Young tableaux of size d with entries <= n, by the
    hook-content formula: the sum over partitions of d into at most n parts
    of the product over boxes of (n + content) / hook."""
    total = Fraction(0)
    for shape in _partitions(d, d):
        if len(shape) > n:
            continue
        columns = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
        product = Fraction(1)
        for i, row in enumerate(shape):
            for j in range(row):
                product *= Fraction(n + j - i, (row - j - 1) + (columns[j] - i - 1) + 1)
        total += product
    return int(total)


def _partitions(d: int, largest: int):
    """The partitions of d into parts of at most largest, as tuples in
    decreasing order."""
    if d == 0:
        yield ()
        return
    for part in range(min(d, largest), 0, -1):
        for rest in _partitions(d - part, part):
            yield (part,) + rest

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from linrew import (
    Generator,
    Monomial,
    MonomialOrder,
    Polygraph2,
    QQ,
    Quiver,
    Rule,
    RewriteError,
    RewriteStep,
    certify_termination,
    check_confluence,
    complete,
    completion,
    is_confluent,
    lpformat,
    monomial_poly,
    nf,
    normal_form,
    pbw_check,
    quotient_dimension,
    standard_basis,
)

from linrew.completion import DegreeBoundExceeded

from brute_force import all_words, dense_pbw_check, dense_quotient_dimension, rightmost_nf
from conftest import (
    FIXTURES,
    cubic_system,
    deglex_system,
    h1_system,
    make_poly,
    plactic_system,
    skew_system,
    tableau_count,
)


def certified(P):
    P.termination_certificate = certify_termination(P, P.order)
    check_confluence(P)
    return P


@pytest.fixture
def sys_ab():
    """ba -> ab over two letters; convergent, commutative polynomial ring."""
    Q = Quiver.free("ab")
    order = MonomialOrder("deglex", "ab")
    rule = Rule("s", Q.monomial(("b", "a")), make_poly(Q, QQ, [(1, "ab")]))
    return certified(Polygraph2(Q, QQ, [rule], order))


def test_rule_validation():
    Q = Quiver.free("xy")
    with pytest.raises(RewriteError):
        # Source monomial may not reappear in the target.
        Rule("r", Q.monomial(("x", "y")), make_poly(Q, QQ, [(1, "xy")]))
    with pytest.raises(RewriteError):
        Rule("r", Q.identity("*"), make_poly(Q, QQ, [(1, "xy")]))


def test_rule_index_refuses_a_name_twice():
    """Two rules of one name raise, given together or one after the other;
    a refused add_rules leaves the rules and the index as they were."""
    Q = Quiver.free("xy")
    r = Rule("r", Q.monomial(("y", "x")), make_poly(Q, QQ, [(1, "xy")]))
    again = Rule("r", Q.monomial(("y", "y")), make_poly(Q, QQ, [(1, "xx")]))
    s = Rule("s", Q.monomial(("y", "y", "y")), make_poly(Q, QQ, [(1, "xxx")]))
    with pytest.raises(RewriteError, match="duplicate rule names"):
        Polygraph2(Q, QQ, [r, again])
    P = Polygraph2(Q, QQ, [r])
    for rules in ([again], [s, again], [s, s]):
        with pytest.raises(RewriteError, match="duplicate rule names"):
            P.add_rules(rules)
        assert P.rules == [r] and P.rule_index == {"r": 0}
    P.add_rules([s])
    assert P.rule_index == {"r": 0, "s": 1}


def test_occurrences_overlapping(sys_ab):
    m = sys_ab.quiver.monomial(tuple("bba"))
    assert sys_ab.occurrences(m) == [(0, 1)]
    m2 = sys_ab.quiver.monomial(tuple("baba"))
    assert sys_ab.occurrences(m2) == [(0, 0), (0, 2)]


SEARCH_QUIVERS = {
    "one-object-degree-2": Quiver.free("xy", {"y": 2}),
    "two-objects": Quiver(
        ["o1", "o2"],
        [Generator("f", "o1", "o2"), Generator("g", "o2", "o1"), Generator("h", "o1", "o1", 2)],
    ),
}


@st.composite
def paths(draw, quiver, min_size, max_size):
    """A composable word of the quiver, as a Monomial."""
    start = obj = draw(st.sampled_from(quiver.objects))
    word = []
    for _ in range(draw(st.integers(min_size, max_size))):
        g = draw(st.sampled_from([g for g in quiver.generators.values() if g.source == obj]))
        word.append(g.name)
        obj = g.target
    return quiver.monomial(word, at=start)


def monomial_rules(quiver, sources):
    return [Rule(f"r{i}", s, quiver.zero(QQ, s.source, s.target)) for i, s in enumerate(sources)]


@pytest.mark.parametrize("name", sorted(SEARCH_QUIVERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_walk_search_and_sliced_contexts(name, data):
    """The one-walk rightmost search is the latest-start, lowest-index
    occurrence, and contexts sliced from the word are the monomials that
    Quiver.monomial validates from the same slices."""
    quiver = SEARCH_QUIVERS[name]
    sources = data.draw(st.lists(paths(quiver, 1, 3), min_size=1, max_size=4))
    if data.draw(st.booleans()):  # a factor of a source: not left-reduced
        w = sources[0].word
        i = data.draw(st.integers(0, len(w) - 1))
        j = data.draw(st.integers(i + 1, len(w)))
        sources.append(quiver.monomial(w[i:j]))
    P = Polygraph2(quiver, QQ, monomial_rules(quiver, data.draw(st.permutations(sources))))
    m = data.draw(paths(quiver, 0, 8))
    occ = P.occurrences(m)
    expected = max(occ, key=lambda o: (o[1], -o[0])) if occ else None
    assert P.rightmost_occurrence(m) == expected
    for idx, start in occ:
        source = P.rules[idx].source
        end = start + source.weight
        assert P.contexts(m, P.rules[idx], start) == (
            quiver.monomial(m.word[:start], at=m.source),
            quiver.monomial(m.word[end:], at=source.target),
        )


def test_rightmost_occurrence_ties_go_to_the_lowest_rule_index():
    # x and x y both start at 0 in x y; the walk meets x first either way.
    Q = Quiver.free("xy")
    x, xy = Q.monomial(("x",)), Q.monomial(("x", "y"))
    for sources in ([xy, x], [x, xy]):
        P = Polygraph2(Q, QQ, monomial_rules(Q, sources))
        assert not P.left_reduced
        assert P.rightmost_occurrence(xy) == (0, 0)
    assert P.rightmost_occurrence(Q.monomial(("y", "y"))) is None


def test_step_soundness(sys_ab):
    Q = sys_ab.quiver
    f = make_poly(Q, QQ, [(2, "bab")])
    bab = Q.monomial(tuple("bab"))
    idx, start = sys_ab.rightmost_occurrence(bab)
    rule = sys_ab.rules[idx]
    left, right = sys_ab.contexts(bab, rule, start)
    g = RewriteStep(Fraction(2), left, rule, right).apply(f)
    # f' = f - lam * u (source - target) v
    assert g == make_poly(Q, QQ, [(2, "abb")])


def test_rightmost_vs_leftmost(sys_ab):
    m = sys_ab.quiver.monomial(tuple("baba"))
    assert sys_ab.occurrences(m) == [(0, 0), (0, 2)]
    assert sys_ab.rightmost_occurrence(m) == (0, 2)
    assert sys_ab.rightmost_occurrence(sys_ab.quiver.monomial(tuple("aab"))) is None


def test_normal_form_sorts_letters(sys_ab):
    Q = sys_ab.quiver
    result = nf(make_poly(Q, QQ, [(1, "bbaa")]), sys_ab)
    assert result == make_poly(Q, QQ, [(1, "aabb")])


def test_normal_form_idempotent(sys_ab):
    Q = sys_ab.quiver
    f = make_poly(Q, QQ, [(1, "baba"), (3, "ba"), (-2, "b")])
    r1, trace = normal_form(f, sys_ab)
    assert trace.check()
    r2, trace2 = normal_form(r1, sys_ab)
    assert r1 == r2 and len(trace2) == 0


words_ab = st.lists(st.sampled_from("ab"), min_size=0, max_size=6).map(tuple)
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(st.lists(st.tuples(coeffs, words_ab), min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_normal_form_linear(pairs):
    Q = Quiver.free("ab")
    order = MonomialOrder("deglex", "ab")
    rule = Rule("s", Q.monomial(("b", "a")), make_poly(Q, QQ, [(1, "ab")]))
    P = certified(Polygraph2(Q, QQ, [rule], order))
    f = Q.poly(QQ, [(c, Q.monomial(w)) for c, w in pairs])
    total = nf(f, P)
    by_parts = Q.zero(QQ)
    for c, w in pairs:
        by_parts = by_parts + nf(monomial_poly(QQ, Q.monomial(w), QQ.coerce(c)), P)
    assert total == by_parts


def test_nf_builds_no_trace(monkeypatch):
    """nf builds no rewriting step, and finds the redex of each reducible
    monomial it visits at most once."""
    from linrew import rewriting

    Q = Quiver.free("xyz")
    P = Polygraph2(Q, QQ, [
        Rule("a", Q.monomial(tuple("zy")), make_poly(Q, QQ, [(1, "yz"), (1, "xx")])),
        Rule("b", Q.monomial(tuple("zx")), make_poly(Q, QQ, [(1, "xz"), (2, "yy")])),
    ], MonomialOrder("deglex", "xyz"))
    built, searched = [], []

    def counting_step(*args):
        built.append(args)
        return RewriteStep(*args)

    def counting_search(self, m):
        found = rightmost_occurrence(self, m)
        if found is not None:
            searched.append(m)
        return found

    rightmost_occurrence = Polygraph2.rightmost_occurrence
    monkeypatch.setattr(rewriting, "RewriteStep", counting_step)
    monkeypatch.setattr(Polygraph2, "rightmost_occurrence", counting_search)
    nf(make_poly(Q, QQ, [(1, "zzzzzyyxx")]), P)
    reducible = sum(1 for _, redex, _ in P._nf_cache.values() if redex is not None)
    assert not built
    assert 0 < len(searched) <= reducible


LETTERS = "abc"
DEGLEX = MonomialOrder("deglex", LETTERS)
# Nonzero, and often fractional or negative.
q_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
abc_words = st.lists(st.sampled_from(LETTERS), max_size=5)


@st.composite
def q_systems(draw):
    """One to three rules over Q on a < b < c whose target terms lie below
    their source in deglex, so rightmost rewriting terminates."""
    Q = Quiver.free(LETTERS)
    rules = []
    for k in range(draw(st.integers(1, 3))):
        source = Q.monomial(draw(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3)))
        below = [w for d in range(source.degree + 1) for w in all_words(Q, d) if DEGLEX.less(w, source)]
        words = draw(st.lists(st.sampled_from(below), max_size=3, unique=True))
        rules.append(Rule(f"r{k}", source, Q.poly(QQ, [(draw(q_coeffs), w) for w in words])))
    return Polygraph2(Q, QQ, rules, DEGLEX)


@given(q_systems(), st.lists(st.tuples(q_coeffs, abc_words), max_size=4))
@settings(max_examples=80, deadline=None)
def test_nf_matches_the_memo_free_reducer(P, pairs):
    """nf, which sums integer forms over one denominator, is the normal
    form that rightmost steps reach with Fraction arithmetic; so f minus
    that normal form has normal form 0."""
    Q = P.quiver
    f = Q.poly(QQ, [(c, Q.monomial(w)) for c, w in pairs])
    expected = rightmost_nf(f, P)
    assert nf(f, P) == expected
    assert nf(f - expected, P).is_zero()


@pytest.mark.parametrize("sign, expected", [(1, [(1, "a")]), (-1, [])])
def test_nf_memo_sums_over_one_denominator(sign, expected):
    """c -> a/2 +- b/2 and b -> a: the halves make a whole or cancel, and the
    memo keeps the normal form of c over the denominator 1, keyed by the
    leaf numbers that P._leaves decodes."""
    Q = Quiver.free(LETTERS)
    P = Polygraph2(Q, QQ, [
        Rule("c", Q.monomial("c"), make_poly(Q, QQ, [(Fraction(1, 2), "a"), (Fraction(sign, 2), "b")])),
        Rule("b", Q.monomial("b"), make_poly(Q, QQ, [(1, "a")])),
    ], DEGLEX)
    c = Q.monomial("c")
    assert nf(monomial_poly(QQ, c), P) == make_poly(Q, QQ, expected)
    D, terms = P._nf_cache[c][0]
    assert (D, {P._leaves[t]: n for t, n in terms.items()}) == (1, {Q.monomial(w): n for n, w in expected})


def test_trace_replay(sys_xyz):
    Q = sys_xyz.quiver
    f = make_poly(Q, QQ, [(1, "xyzxyz")])
    result, trace = normal_form(f, sys_xyz)
    assert trace.check()
    assert all(sys_xyz.rightmost_occurrence(m) is None for m in result.terms)


def test_standard_basis_counts(sys_ab):
    counts = standard_basis(sys_ab, 5).counts()
    # Commutative in two variables: d+1 monomials per degree.
    assert counts == {d: d + 1 for d in range(6)}


@st.composite
def monomial_systems(draw):
    """Polygraphs with monomial rules on quivers of one to three objects
    and generators of degree 1 or 2; names are not in creation order."""
    objects = draw(st.permutations("qpr"))[: draw(st.integers(1, 3))]
    names = draw(st.permutations(["y", "x1", "x", "z"]))[: draw(st.integers(1, 4))]
    Q = Quiver(objects, [
        Generator(n, draw(st.sampled_from(objects)), draw(st.sampled_from(objects)), draw(st.integers(1, 2)))
        for n in names
    ])
    rules = []
    for k in range(draw(st.integers(0, 4))):
        word = [draw(st.sampled_from(names))]
        for _ in range(draw(st.integers(0, 2))):
            nexts = [n for n in names if Q.generators[n].source == Q.generators[word[-1]].target]
            if nexts:
                word.append(draw(st.sampled_from(nexts)))
        m = Q.monomial(word)
        rules.append(Rule(f"r{k}", m, Q.zero(QQ, m.source, m.target)))
    return Polygraph2(Q, QQ, rules)


def _irreducible_words(P, d):
    return [m for m in all_words(P.quiver, d) if P.rightmost_occurrence(m) is None]


@given(monomial_systems())
@settings(max_examples=60, deadline=None)
def test_standard_basis_matches_brute_force(P):
    basis = standard_basis(P, 6)
    for d in range(7):
        brute = _irreducible_words(P, d)
        assert basis.by_degree[d] == brute
        assert basis.words[d] == [m.word for m in brute]
        assert basis.text[d] == [str(m) for m in brute]
    assert basis.counts() == {d: len(basis.by_degree[d]) for d in range(7)}


def _monomial_system(quiver, *sources):
    return Polygraph2(quiver, QQ, [
        Rule(f"r{k}", m := quiver.monomial(w), quiver.zero(QQ, m.source, m.target)) for k, w in enumerate(sources)
    ])


@pytest.mark.parametrize(
    "P, dmax, pinned",
    [
        # x1 begins with x, so the token of a run of x begins the texts of x1;
        # runs of x reach x^12, past one digit.
        (
            _monomial_system(Quiver.free(["x1", "x"]), ["x1", "x", "x1"], ["x", "x1", "x1", "x1"]), 12,
            {"x^12", "x^11 x1", "x1 x^11", "x1^2 x^10", "x1^12"},
        ),
        # Two objects, generators of degree 1 and 2, sorted by target.
        (_monomial_system(
            Quiver("pq", [Generator("h", "p", "p", 1), Generator("f", "p", "q", 2),
                          Generator("g", "q", "p", 1), Generator("k", "q", "q", 2)]),
            ["h", "h", "f"], ["f", "k", "k"], ["g", "h", "h", "h"],
        ), 8, {"h^8", "k^4", "k^2 g h f", "h f k g h^2"}),
    ],
    ids=["prefix-names-long-runs", "weighted-two-objects"],
)
def test_standard_basis_text_at_depth(P, dmax, pinned):
    basis = standard_basis(P, dmax)
    for d in range(dmax + 1):
        assert basis.text[d] == [str(m) for m in _irreducible_words(P, d)]
    assert pinned <= set(basis.text[dmax])


def _free_system(*sources):
    return _monomial_system(Quiver.free("xy"), *sources)


@given(monomial_systems())
@example(_free_system("xy", "xy"))  # equal sources
@example(_free_system("xyx", "y"))  # a nested source
@example(_free_system("xy", "yx"))  # overlapping sources only
@settings(max_examples=100, deadline=None)
def test_left_reduced_is_the_pairwise_definition(P):
    pairwise = not any(
        r.source.factor_positions(other.source.word)
        for i, r in enumerate(P.rules)
        for j, other in enumerate(P.rules)
        if i != j
    )
    assert P.left_reduced == pairwise


def test_standard_basis_builds_no_monomials(monkeypatch):
    """The words and their text come out of the automaton walk; no
    Monomial is built per basis word."""
    P = cubic_system()
    done = complete(P, P.order)
    calls = []
    original = Monomial.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    basis = standard_basis(done, 11)
    assert len(calls) < 100
    assert sum(map(len, basis.text.values())) == sum(basis.counts().values()) > 100_000
    assert len(calls) < 100


def test_standard_basis_leaves_no_reference_cycle():
    """The suffix memo is freed when standard_basis returns, without
    waiting for the cycle collector."""
    P = cubic_system()
    done = complete(P, P.order)
    gc.collect()
    gc.disable()
    try:
        standard_basis(done, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_standard_basis_memory():
    """The suffix memo keeps each key's texts as a few joined blocks, not
    one str per text, and each degree's texts stay one block: the 124,198
    words of the completed cubic system through degree 11 peak at about
    6.5 MB (12-13 MB split into one str per text, 17-18 MB with one str
    per text in the memo)."""
    P = cubic_system()
    done = complete(P, P.order)
    tracemalloc.start()
    try:
        standard_basis(done, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_000_000


def test_standard_basis_at_a_degree_past_the_recursion_limit():
    """The suffix memo is built on an explicit stack, so a degree far past
    Python's recursion limit works.  With x y and y x both zero, the words
    of degree d are x^d and y^d."""
    P = _free_system("xy", "yx")
    basis = standard_basis(P, 3000)
    assert basis.text[3000] == ["x^3000", "y^3000"]
    assert basis.counts()[2999] == 2


def test_quotient_dimension_matches_standard_basis(sys_ab):
    for d in range(5):
        assert quotient_dimension(sys_ab, d) == dense_quotient_dimension(sys_ab, d) == d + 1


def test_ideal_member(sys_ab):
    """On a convergent system, f is in the ideal iff its normal form is 0."""
    Q = sys_ab.quiver
    assert sys_ab.certified_convergent
    rel = make_poly(Q, QQ, [(1, "ba"), (-1, "ab")])
    emb = rel.whisker(Q.monomial(("a",)), Q.monomial(("b",)))
    assert nf(rel + emb.scale(Fraction(3)), sys_ab).is_zero()
    assert not nf(make_poly(Q, QQ, [(1, "ab")]), sys_ab).is_zero()
    assert nf(Q.zero(QQ), sys_ab).is_zero()


def test_pbw_xy_example():
    Q = Quiver.free("xy")
    order = MonomialOrder("deglex", "xy")
    rule = Rule("a", Q.monomial(("x", "y")), make_poly(Q, QQ, [(1, "xx")]))
    P = certified(Polygraph2(Q, QQ, [rule], order))
    cand = [
        Q.monomial(tuple("y" * i + "x" * j))
        for d in range(1, 5)
        for i in range(d + 1)
        for j in [d - i]
    ]
    report = pbw_check(P, cand, 4)
    assert report["passed"] and report["N"] == 2

    bad = cand + [Q.monomial(tuple("xy"))]
    report2 = pbw_check(P, bad, 4)
    assert not report2["passed"]
    assert report2["failures"]


def test_pbw_builds_quadratic_polygraph(monkeypatch):
    Q = Quiver.free("xy")
    order = MonomialOrder("deglex", "xy")
    rule = Rule("a", Q.monomial(("x", "y")), make_poly(Q, QQ, [(1, "xx")]))
    P = certified(Polygraph2(Q, QQ, [rule], order))
    cand = [
        Q.monomial(tuple("y" * i + "x" * j))
        for d in range(1, 5)
        for i in range(d + 1)
        for j in [d - i]
    ]
    decided = []
    monkeypatch.setattr(completion, "is_confluent", lambda xi: decided.append(xi) or is_confluent(xi))
    report = pbw_check(P, cand, 4, build_xi=True)
    assert report["passed"]
    assert report["xi"]["rules"] == ["xi0 : x y => x^2"]
    assert report["xi"]["convergent"]
    assert [xi.certified_convergent for xi in decided] == [True]


def _ordered_words(P, dmax, reverse=False):
    """The words up to degree dmax whose letters never decrease in P's
    generator order (never increase with reverse): a PBW basis of the skew
    systems, one that fails the window condition when reversed."""
    gens = list(P.quiver.generators)
    rank = {g: -i if reverse else i for i, g in enumerate(gens)}
    return [
        P.quiver.monomial(w) for d in range(1, dmax + 1) for w in itertools.product(gens, repeat=d)
        if list(w) == sorted(w, key=rank.get)
    ]


def _normal_words(P, dmax):
    """The normal words of degree 1 to dmax of P's completion to degree
    dmax, or of the partial system when it stops on that bound."""
    try:
        done = complete(P, P.order, max_degree=dmax)
    except DegreeBoundExceeded as e:
        done = e.partial
    basis = standard_basis(done, dmax)
    return [m for d in range(1, dmax + 1) for m in basis.by_degree[d]]


def _homogeneous_a6_systems(count):
    """Seeded homogeneous systems on 2-3 letters: 1-3 rules of one degree,
    2 or 3, each source rewritten to 0-2 smaller words of its degree."""
    rng = random.Random(6)
    for _ in range(count):
        gens = "xyz"[: rng.randint(2, 3)]
        words = ["".join(w) for w in itertools.product(gens, repeat=rng.choice([2, 2, 3]))]
        rules = []
        for i, source in enumerate(rng.sample(words, rng.randint(1, 3))):
            lower = [w for w in words if w < source]
            targets = rng.sample(lower, min(len(lower), rng.randint(0, 2)))
            rules.append((f"r{i}", source, [(rng.choice([-2, -1, 1, 2]), w) for w in targets]))
        yield deglex_system(gens, rules)


def _pbw_cases():
    """(system, candidates, dmax) on which pbw_check is compared with the
    dense reference."""
    xy = [Quiver.free("xy").monomial(tuple("y" * i + "x" * (d - i))) for d in range(1, 5) for i in range(d + 1)]
    for path in sorted(FIXTURES.glob("*.lp")):
        P = lpformat.parse_file(path)[0]
        if P.homogeneous:
            yield P, [m for m in xy if set(m.word) <= set(P.quiver.generators)], 4
            yield P, _normal_words(P, 4), 4
    for n, dmax in ((3, 4), (4, 4), (5, 3)):
        yield skew_system(n), _ordered_words(skew_system(n), dmax), dmax
        yield skew_system(n), _ordered_words(skew_system(n), dmax, reverse=True), dmax - 1
    # a^2 swapped for b a: as many candidates as normal words in degree 2,
    # but b a = 2 a b, and a^2 is a window of the candidate a^2 b.
    Q = skew_system(3).quiver
    swapped = [m for m in _ordered_words(skew_system(3), 4) if m.word != ("a", "a")] + [Q.monomial("ba")]
    yield skew_system(3), swapped, 4
    for system in (h1_system, cubic_system):
        yield system(), _ordered_words(system(), 5), 5
        yield system(), _ordered_words(system(), 5, reverse=True), 4
        yield system(), _normal_words(system(), 5), 4
    for P in _homogeneous_a6_systems(40):
        yield P, (_normal_words(P, 4) if len(P.rules) % 2 else _ordered_words(P, 4)), 4
    measured = lpformat.parse(
        "field Q\ngenerators a b\nmeasure pattern b a 1\nmeasure bound 2\nrule r : b a -> 2 a b\n"
    )[0]
    yield measured, _ordered_words(measured, 4), 4


def test_pbw_check_is_the_dense_reference():
    """pbw_check reads normal forms under a completion; the reference ranks
    dense ideal slices over every word and lists every word's windows.  The
    reports are equal, failure lists and xi included, on the fixtures, skew
    q3-q5, H1, the cubic system, seeded homogeneous systems and an input
    with a measure and no order."""
    seen = set()
    for P, cand, dmax in _pbw_cases():
        report = pbw_check(P, cand, dmax, build_xi=True)
        assert report == dense_pbw_check(P, cand, dmax, build_xi=True), [str(r) for r in P.rules]
        words = {str(m) for m in cand}
        for f in report["failures"]:
            if f["condition"] == "iii":
                seen.add(("iii", f["detail"].rpartition(" on ")[2] in words))
            else:
                seen.add((f["condition"], "dependent" in f["detail"]))
        seen.update([("xi", True)] if "xi" in report else [])
    # both kinds of failure of (i) and of (iii): a wrong count or dependent
    # candidates, a candidate with a bad window or a word that is not one
    assert seen == {("i", False), ("i", True), ("ii", False), ("iii", False), ("iii", True), ("xi", True)}


def test_pbw_on_a_certified_system_reads_it_directly(monkeypatch):
    """A certified-convergent input is its own exact system: no completion."""
    P = certified(skew_system(3))
    monkeypatch.setattr(completion, "complete", None)
    cand = _ordered_words(P, 4)
    assert pbw_check(P, cand, 4, build_xi=True) == dense_pbw_check(P, cand, 4, build_xi=True)


def test_xi_gives_each_word_one_rule():
    """A cubic word of P_3 that is not normal, such as b a a, is a product
    of candidates in two ways, b·(a a) and (b a)·a; xi gives it one rule.
    The 8 such words give 8 rules with distinct sources, and the report
    equals the dense reference's, verdict included."""
    P = plactic_system(3)
    cand = _normal_words(P, 3)
    report = pbw_check(P, cand, 3, build_xi=True)
    sources = [r.split(" : ")[1].split(" => ")[0] for r in report["xi"]["rules"]]
    assert len(sources) == len(set(sources)) == 8
    assert report == dense_pbw_check(P, cand, 3, build_xi=True)


def test_plactic_p3_counts_and_pbw():
    """P_3: the Hilbert function is the count of semistandard tableaux with
    entries <= 3 through degree 9.  Its normal words up to degree 6 pass
    the PBW conditions through degree 3, where Knuth's cubic rules are the
    Groebner basis; at degree 4 completion adds c b a b => b c b a, whose
    source no cubic rule reduces and whose 3-windows are all normal, so
    conditions (ii) and (iii) fail on it."""
    P = plactic_system(3)
    tableaux = [tableau_count(3, d) for d in range(10)]
    assert tableaux == [1, 3, 9, 19, 39, 69, 119, 189, 294, 434]
    assert [quotient_dimension(P, d) for d in range(10)] == tableaux
    cand = _normal_words(P, 6)
    assert pbw_check(P, cand, 3)["passed"]
    failures = pbw_check(P, cand, 4)["failures"]
    assert {(f["condition"], f["detail"]) for f in failures} == {
        ("ii", "c b a b neither candidate nor reducible"), ("iii", "window condition fails on c b a b"),
    }

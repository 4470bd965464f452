import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from linrew import (
    CompletionBoundExceeded,
    Generator,
    MonomialOrder,
    PatternMeasure,
    Polygraph2,
    QQ,
    Quiver,
    Rule,
    certify_termination,
    check_confluence,
    complete,
    enumerate_critical_branchings,
    is_confluent,
    lpformat,
    monomial_poly,
    nf,
    orient,
    s_polynomial,
)
from linrew import algebra, completion
from linrew.completion import MEASURE_PAIR_BUDGET, _context_pairs, _interreduce_rules
from linrew.rewriting import NotCertifiedError, RewriteStep, StepBudgetExceeded

import brute_force
from conftest import EQUAL_SOURCES, FIXTURES, cubic_system, deglex_system, h1_system, make_poly, skew_system
from test_acceptance import random_system


def test_order_certificate(sys_xy):
    cert = certify_termination(sys_xy, sys_xy.order)
    assert cert.ok and cert.kind == "order-compatible"


def test_order_certificate_failure(sys_xyz):
    # deglex x < y < z does not orient xyz => ... + z^3.
    cert = certify_termination(sys_xyz, MonomialOrder("deglex", "xyz"))
    assert not cert.ok
    assert "not below" in cert.notes


def test_pattern_measure_certificate(sys_xyz):
    measure = PatternMeasure((("y", 1),), ((("x", "y", "z"), 3),), 3)
    cert = certify_termination(sys_xyz, measure)
    assert cert.ok and cert.kind == "pattern-measure"
    assert "semi-sound" in cert.notes
    # A declared bound below the longest pattern length - 1 does not narrow
    # the contexts checked.
    cert = certify_termination(sys_xyz, PatternMeasure(measure.letter_weights, measure.pattern_weights, 0))
    assert cert.ok and "contexts up to length 2;" in cert.notes


@pytest.mark.parametrize("generators,bound", [
    ("generators a b c", 3),
    # c c c c has degree 8: contexts are counted in letters, not degree.
    ("generators a b\ngenerator c degree 2", 4),
], ids=["bound-3", "c-of-degree-2"])
def test_pattern_measure_checks_contexts_past_the_bound(generators, bound):
    """c c c c b -> c c c c a decreases the measure in every context of up
    to 3 letters, but a -> b raises it after c c c c: rewriting c^4 a
    never ends."""
    P, meta = lpformat.parse(
        f"field Q\n{generators}\nmeasure letter a 2\nmeasure letter b 1\n"
        f"measure pattern c c c c b 10\nmeasure bound {bound}\n"
        "rule r : a -> b\nrule s : c c c c b -> c c c c a\n"
    )
    cert = certify_termination(P, meta["measure"])
    assert not cert.ok
    assert cert.notes == "rule r: measure does not decrease in context (c^4, 1_*) on target monomial b"


def test_pattern_measure_budget(sys_xyz):
    """Past MEASURE_PAIR_BUDGET (u, v) context pairs the measure check is
    refused before any pair is compared; the pairs are counted per object,
    as the check pairs its contexts, without listing a word."""
    measure = PatternMeasure((("y", 1),), ((("x", "y", "z"), 3),), 7)
    cert = certify_termination(sys_xyz, measure)
    assert not cert.ok and cert.kind == "pattern-measure" and cert.measure is measure
    assert cert.notes == (
        f"measure check over contexts of up to 7 letters exceeds its budget of "
        f"{MEASURE_PAIR_BUDGET} (u, v) context pairs: 1194649 pairs already at 6 letters"
    )
    assert _context_pairs(sys_xyz, 5) == (132496, 5) and 132496 <= MEASURE_PAIR_BUDGET
    two = Quiver(["o1", "o2"], [Generator("f", "o1", "o2"), Generator("g", "o2", "o1"), Generator("h", "o1", "o1")])
    P = Polygraph2(two, QQ, [Rule("r", two.monomial("hf"), monomial_poly(QQ, two.monomial("f")))])
    for n in range(5):
        words = completion._words_up_to_weight(two, n)
        listed = sum(u.target == "o1" for u in words) * sum(v.source == "o2" for v in words)
        assert _context_pairs(P, n) == (listed, n)


def test_pattern_measure_refuses_negative_weights():
    with pytest.raises(ValueError, match="non-negative"):
        PatternMeasure((("x", -1),), ())
    with pytest.raises(ValueError, match="non-negative"):
        PatternMeasure((), ((("x", "x"), -2),))


_WORDS = st.lists(st.sampled_from("xy"), max_size=3).map("".join)


@st.composite
def measured_systems(draw):
    """A system on x, y with 1-3 rules whose targets are sums of at most
    two words of at most 3 letters, and a measure with letter weights 0-3,
    at most two patterns of 1-4 letters weighing 0-6 and a declared bound
    0-3."""
    sources = draw(st.lists(_WORDS.filter(bool), min_size=1, max_size=3, unique=True))
    rules = [
        (f"r{i}", src, [(1, t) for t in draw(st.lists(_WORDS, max_size=2, unique=True)) if t != src])
        for i, src in enumerate(sources)
    ]
    letters = tuple((g, draw(st.integers(0, 3))) for g in "xy")
    pattern = st.lists(st.sampled_from("xy"), min_size=1, max_size=4).map(tuple)
    patterns = tuple(draw(st.lists(st.tuples(pattern, st.integers(0, 6)), max_size=2)))
    return deglex_system("xy", rules), PatternMeasure(letters, patterns, draw(st.integers(0, 3)))


@given(measured_systems())
@example((  # both rules decrease the measure bare, y -> x raises it after x: x x -> y y -> y x -> x x
    deglex_system("xy", [("r", "xx", [(1, "yy")]), ("s", "y", [(1, "x")])]),
    PatternMeasure((("y", 1),), ((("x", "x"), 3),), 0),
))
@settings(max_examples=150, deadline=None)
def test_certified_measure_terminates(system):
    """Whenever the measure certifies termination, rewriting every word up
    to degree 6 ends within the step budget."""
    P, measure = system
    if certify_termination(P, measure).ok:
        for w in brute_force.words_up_to(P.quiver, 6):
            nf(monomial_poly(P.field, w), P)


def test_pattern_measure_counts_overlaps():
    m = PatternMeasure((), ((("a", "a"), 1),), 3)
    assert m.measure(("a", "a", "a")) == 2


_LONG_WORDS = st.lists(st.sampled_from("xy"), max_size=6).map(tuple)


@given(measured_systems(), _LONG_WORDS, _LONG_WORDS, _LONG_WORDS, _LONG_WORDS)
@example(  # u is shorter than the window
    (deglex_system("xy", [("r", "x", [])]), PatternMeasure((), ((("x", "x", "x"), 1), (("x",) * 4, 0)))),
    ("x", "x"), (), ("x",), (),
)
@settings(max_examples=200, deadline=None)
def test_measure_window_decides_the_decrease(system, u, s, t, v):
    """The measures of u.s.v and u.t.v differ as those of the window the
    measure check compares: the last k - 1 letters of u, then s or t, then
    the first k - 1 letters of v."""
    _, measure = system
    left, right = measure.window(u, v)
    whole = measure.measure(u + s + v) - measure.measure(u + t + v)
    assert whole == measure.measure(left + s + right) - measure.measure(left + t + right)


def test_critical_branchings_xy(sys_xy):
    words = sorted(str(b.word) for b in enumerate_critical_branchings(sys_xy))
    assert words == ["x y^2", "y^3"]


def test_s_polynomial_sign(sys_xy):
    b = next(
        b for b in enumerate_critical_branchings(sys_xy) if str(b.word) == "x y^2"
    )
    # Convention: one-step target of the leftmost leg minus the rightmost's.
    assert s_polynomial(sys_xy, b) == make_poly(sys_xy.quiver, QQ, [(1, "xxy"), (-1, "xxx")])


def test_completion_xy(sys_xy):
    done = complete(sys_xy, sys_xy.order)
    added = [r for r in done.rules if r.name not in ("a", "b")]
    assert len(added) == 1
    assert str(added[0].source) == "y x^2"
    assert added[0].target == make_poly(sys_xy.quiver, QQ, [(1, "xxx")])
    assert done.certified_convergent and done.left_reduced
    # Right-reduced: every rule target is irreducible.
    assert all(done.rightmost_occurrence(m) is None for r in done.rules for m in r.target.terms)


def test_completion_pp(sys_pp):
    done = complete(sys_pp, sys_pp.order)
    by_source = {str(r.source): r for r in done.rules}
    assert set(by_source) == {"y z", "z y", "y x^2", "z x^2"}
    assert by_source["y x^2"].target == make_poly(
        sys_pp.quiver, QQ, [(2, "xxy")]
    )
    assert by_source["z x^2"].target == make_poly(
        sys_pp.quiver, QQ, [(Fraction(1, 2), "xxz")]
    )
    assert len(enumerate_critical_branchings(done)) == 4
    # complete appends rules and interreduces: its index still names each
    # rule's position.
    assert done.rule_index == {r.name: k for k, r in enumerate(done.rules)}


def test_completed_system_confluent(sys_pp):
    done = complete(sys_pp, sys_pp.order)
    report = check_confluence(done)
    assert report["convergent"]
    assert all(e["joinable"] for e in report["entries"])


def test_orient():
    Q = Quiver.free("xy")
    order = MonomialOrder("deglex", "xy")
    f = make_poly(Q, QQ, [(2, "yy"), (-4, "xx")])
    r = orient(f, order, "r")
    assert str(r.source) == "y^2"
    assert r.target == make_poly(Q, QQ, [(2, "xx")])
    assert orient(Q.zero(QQ), order, "z") is None


def test_interreduce_idempotent(sys_xy):
    """A reduced system comes back as the same object, memo included."""
    done = complete(sys_xy, sys_xy.order)
    assert _interreduce_rules(done) is done


def test_confluence_requires_certificate(sys_xy):
    with pytest.raises(Exception):
        check_confluence(Polygraph2(sys_xy.quiver, QQ, sys_xy.rules, None))


def test_sys_xyz_no_criticals(sys_xyz):
    assert enumerate_critical_branchings(sys_xyz) == []
    assert check_confluence(sys_xyz)["convergent"]


def assert_legs_are_step_replays(P):
    """Each branching's sliced legs, and its S-polynomial, equal replaying
    its two rewriting steps, built from the contexts of its redexes, on the
    overlap word (brute_force.replayed_legs)."""
    for b in enumerate_critical_branchings(P):
        t1, t2 = brute_force.replayed_legs(P, b)
        legs = completion._leg_terms(P, b)
        assert tuple(P.quiver.poly(P.field, leg, b.word.source, b.word.target) for leg in legs) == (t1, t2)
        assert s_polynomial(P, b) == t1 - t2 == brute_force.s_polynomial(P, b)


def assert_branchings_match_reference(P):
    """The overlap-index enumeration lists what the loop over every rule
    pair finds, in the same order."""
    found = [(str(b.word), b.rule1.name, b.rule2.name, b.start2) for b in enumerate_critical_branchings(P)]
    assert found == brute_force.critical_branchings(P)


def fixture_and_completion(path):
    """The fixture's system and, under its order, its completion to degree
    5 or the partial system where that trips."""
    P, _ = lpformat.parse_file(path)
    if P.order is None:
        return [P]
    try:
        done = complete(P, P.order, max_degree=5)
    except CompletionBoundExceeded as e:
        done = e.partial
    return [P, done]


def zyz_system():
    """y z is a factor of z y z: the system is not left-reduced, so z y z
    also branches into its own rule and r2 inside it."""
    return deglex_system("xyz", [
        ("r1", "zyz", [(1, "xxy"), (-2, "y")]),
        ("r2", "yz", [(Fraction(1, 2), "xx")]),
    ])


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_legs_equal_step_replay_a6(seed):
    assert_legs_are_step_replays(random_system(random.Random(seed)))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lp")), ids=lambda p: p.stem)
def test_legs_equal_step_replay_fixtures(path):
    for P in fixture_and_completion(path):
        assert_legs_are_step_replays(P)


def test_legs_equal_step_replay_inclusion_overlap():
    P = zyz_system()
    assert not P.left_reduced
    inclusions = [b for b in enumerate_critical_branchings(P) if b.word == b.rule1.source]
    assert [(str(b.word), b.rule2.name, b.start2) for b in inclusions] == [("z y z", "r2", 1)]
    assert_legs_are_step_replays(P)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_branchings_match_reference_a6(seed):
    assert_branchings_match_reference(random_system(random.Random(seed)))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lp")), ids=lambda p: p.stem)
def test_branchings_match_reference_fixtures(path):
    for P in fixture_and_completion(path):
        assert_branchings_match_reference(P)


def test_branchings_match_reference_inclusion_overlap():
    assert_branchings_match_reference(zyz_system())


@given(st.integers(min_value=0, max_value=2**32), st.data())
@settings(max_examples=100, deadline=None)
def test_rules_added_in_place_match_a_fresh_system(seed, data):
    """A system grown by add_rules, one rule at a time, has the flags, the
    reduct templates, the overlap index, the redexes and the critical
    branchings of the system built on all its rules at once."""
    P = random_system(random.Random(seed))
    k = data.draw(st.integers(0, len(P.rules)))
    grown = Polygraph2(P.quiver, P.field, P.rules[:k], P.order)
    grown.overlap_index  # built now, so that the rules appended are added to it
    for rule in P.rules[k:]:
        nf(monomial_poly(P.field, rule.source), grown)  # builds the templates so far
        grown.add_rules([rule])
    for S in (grown, P):
        nf(monomial_poly(P.field, P.rules[-1].source), S)
    flags = lambda S: (S.left_reduced, S.homogeneous, S.homogeneity_degree)  # noqa: E731
    assert flags(grown) == flags(P)
    assert grown._reducts == P._reducts and grown.overlap_index == P.overlap_index
    assert grown.rule_index == P.rule_index
    assert enumerate_critical_branchings(grown) == enumerate_critical_branchings(P)
    words = brute_force.words_up_to(P.quiver, 4)
    assert [grown.rightmost_occurrence(m) for m in words] == [P.rightmost_occurrence(m) for m in words]


def test_check_confluence_replays_no_step(monkeypatch):
    P, _ = lpformat.parse_file(FIXTURES / "pp05.lp")
    done = complete(P, P.order)

    def no_replay(self, f):
        raise AssertionError("RewriteStep.apply called")

    monkeypatch.setattr(RewriteStep, "apply", no_replay)
    report = check_confluence(done)
    assert report["convergent"] and report["critical_branchings"] == 4


def test_convergence_certificate_is_bound_to_its_rules(sys_pp):
    """A convergence certificate certifies the rules it was proved on and no
    others: not a copy with a rule dropped or added, not its own system
    once a rule is appended, and not a certificate that names no rules."""
    done = complete(sys_pp, sys_pp.order)
    assert done.certified_convergent
    extra = Rule("extra", done.quiver.monomial(tuple("xxx")), done.quiver.zero(QQ))
    cert = done.convergence_certificate
    for rules, certificate in [
        (done.rules[:-1], cert),
        (done.rules + [extra], cert),
        (done.rules, {k: v for k, v in cert.items() if k != "rules"}),
    ]:
        copy = Polygraph2(done.quiver, done.field, rules, done.order)
        copy.termination_certificate = done.termination_certificate
        copy.convergence_certificate = certificate
        assert not copy.certified_convergent
    done.rules.append(extra)
    assert not done.certified_convergent


def assert_report_s_polynomials_are_step_replays(P, report):
    """Each entry of P's check report prints the S-polynomial that replaying
    its branching's two steps gives (brute_force.s_polynomial)."""
    replays = [str(brute_force.s_polynomial(P, b)) for b in enumerate_critical_branchings(P)]
    assert [e["s_polynomial"] for e in report["entries"]] == replays


def test_is_confluent_is_the_report_verdict():
    """is_confluent decides what check_confluence reports and attaches the
    same certificate, on 200 random systems (78 of them confluent, 1002
    critical branchings), whose reports print the step-replay
    S-polynomials."""
    verdicts, entries = [], 0
    for seed in range(200):
        decided, reported = random_system(random.Random(seed)), random_system(random.Random(seed))
        verdict = is_confluent(decided)
        report = check_confluence(reported)
        assert verdict == report["convergent"]
        assert decided.convergence_certificate == reported.convergence_certificate
        assert_report_s_polynomials_are_step_replays(reported, report)
        verdicts.append(verdict)
        entries += len(report["entries"])
    assert sum(verdicts) == 78 and entries == 1002


_DECIDED = {
    "equal-sources": EQUAL_SOURCES["yx"],
    "gf7-h1": "field GF(7)\ngenerators x y z\norder deglex x < y < z\n"
    "rule a : z y -> y z + x x\nrule b : z x -> x z + 2 y y\nrule c : z z -> y x - x y\n",
    "gf5-skew": "field GF(5)\ngenerators x y z\norder deglex x < y < z\n"
    "rule a : z y -> 2 y z\nrule b : z x -> 3 x z\nrule c : y x -> 4 x y\n",
    "qa-skew": "field Q\nparam a nonzero\ngenerators x y z\norder deglex x < y < z\n"
    "rule r : z y -> a y z\nrule s : z x -> (1/a) x z\nrule t : y x -> (a + 1) x y\n",
    "qa-not-joinable": "field Q\nparam a\ngenerators x y\norder deglex x < y\nrule r : y y -> a x y + x x\n",
    # Normal forms with constant terms and negative fractions.
    "q-inhomogeneous": "field Q\ngenerators x y\norder deglex x < y\n"
    "rule r : y x -> (-1/2) x y + (3/4) x + (-2/3)\nrule s : y y -> (-5/3) x y + (1/2) y + (-1)\n",
}


def _decided_cases():
    cases = {path.stem: (lambda path=path: lpformat.parse_file(str(path))) for path in sorted(FIXTURES.glob("*.lp"))}
    cases.update({name: (lambda text=text: lpformat.parse(text)) for name, text in _DECIDED.items()})
    cases["inclusion-overlap"] = lambda: (zyz_system(), {})
    return cases


@pytest.mark.parametrize("name, parsed", _decided_cases().items(), ids=list(_decided_cases()))
def test_is_confluent_is_the_report_verdict_on_fixtures_and_fields(name, parsed):
    """Every fixture, two rules of one source, an inclusion overlap, GF(p)
    and Q(a): is_confluent decides what check_confluence reports, and what
    nf says of every S-polynomial, attaches the same certificate, and sums
    the same terms into normal forms; the report prints the step-replay
    S-polynomials, and the normal forms that nf gives their legs as
    Polynomials print."""
    (decided, meta), (reported, _), (normalized, _) = parsed(), parsed(), parsed()
    for P in (decided, reported, normalized):
        P.termination_certificate = completion.certify_declared(P, meta.get("measure"))
        assert P.certified_terminating, name
    verdict = is_confluent(decided)
    report = check_confluence(reported)
    assert verdict == report["convergent"]
    assert_report_s_polynomials_are_step_replays(reported, report)
    branchings = enumerate_critical_branchings(normalized)
    assert len(branchings) == len(report["entries"])
    for b, entry in zip(branchings, report["entries"]):
        nf1, nf2 = (nf(leg, normalized) for leg in brute_force.replayed_legs(normalized, b))
        assert (entry["nf1"], entry["nf2"], entry["s_polynomial_nf"]) == (str(nf1), str(nf2), str(nf1 - nf2))
    assert verdict == all(
        nf(brute_force.s_polynomial(normalized, b), normalized).is_zero() for b in branchings
    )
    assert decided.convergence_certificate == reported.convergence_certificate
    if verdict:
        assert decided._nf_work == reported._nf_work and set(decided._nf_cache) == set(reported._nf_cache)


def test_is_confluent_builds_no_polynomial(monkeypatch):
    """The decision slices the legs and sums their normal forms as forms:
    no Polynomial is built, on the skew system on 8 generators (28 rules,
    56 critical branchings)."""
    P = skew_system(8)
    P.termination_certificate = certify_termination(P)
    built = []
    original = algebra._fill
    monkeypatch.setattr(algebra, "_fill", lambda *args: built.append(None) or original(*args))
    assert is_confluent(P) and P.certified_convergent
    assert built == [] and P.convergence_certificate["criticals_checked"] == 56


def test_is_confluent_stops_at_the_first_branching_that_does_not_join():
    """After the first branching that does not join, no node of a later
    branching's legs is built: the memo is the one nf builds on the legs
    of the branchings up to it."""
    decided, reference = (lpformat.parse(_DECIDED["gf7-h1"].replace("GF(7)", "Q"))[0] for _ in range(2))
    for P in (decided, reference):
        P.termination_certificate = certify_termination(P)
    branchings = enumerate_critical_branchings(reference)
    first = next(k for k, b in enumerate(branchings) if not nf(brute_force.s_polynomial(reference, b), reference).is_zero())
    reference._nf_cache.clear()
    for b in branchings[: first + 1]:
        for leg in brute_force.replayed_legs(reference, b):
            nf(leg, reference)
    later = {m for b in branchings[first + 1 :] for leg in brute_force.replayed_legs(reference, b) for m in leg.terms}
    assert later - set(reference._nf_cache)
    assert not is_confluent(decided) and decided.convergence_certificate is None
    assert list(decided._nf_cache) == list(reference._nf_cache)


def test_is_confluent_refuses_an_uncertified_system_and_stops_a_loop():
    P = zyz_system()
    with pytest.raises(NotCertifiedError):
        is_confluent(P)
    # x x -> y and y -> x x: the legs y x and x y of x x x rewrite forever.
    Q = Quiver.free("xy")
    loop = Polygraph2(Q, QQ, [
        Rule("r", Q.monomial(("x", "x")), make_poly(Q, QQ, [(1, "y")])),
        Rule("s", Q.monomial(("y",)), make_poly(Q, QQ, [(1, "xx")])),
    ])
    loop.termination_certificate = completion.TerminationCertificate("user-asserted", True)
    with pytest.raises(StepBudgetExceeded):
        is_confluent(loop)


def random_quadratic_system(rng: random.Random):
    """Two or three generators and one to four rules of degree 2, each with
    a target of at most two lower words of degree 2 (deglex on one degree
    is lex)."""
    gens = "xyz"[: rng.randint(2, 3)]
    words = [a + b for a in gens for b in gens]
    rules = []
    for i, src in enumerate(rng.sample(words, rng.randint(1, 4))):
        lower = [w for w in words if w < src]
        picked = rng.sample(lower, min(len(lower), rng.randint(0, 2)))
        rules.append((f"r{i}", src, [(rng.choice([-2, -1, 1, 2, Fraction(1, 2)]), w) for w in picked]))
    return deglex_system(gens, rules)


def assert_complete_is_the_reference(P, max_degree: int = 12, max_rules: int = 512):
    """complete, with its memo and pair queue, appends the rules that the
    memo-free loop of brute_force.reference_completion appends, under the
    same names and in the same order, and trips the same bound at the same
    partial rules."""
    rules, message = brute_force.reference_completion(P, max_degree, max_rules)
    as_data = lambda rs: [(r.name, r.source, r.target) for r in rs]  # noqa: E731
    try:
        done = complete(P, P.order, max_degree=max_degree, max_rules=max_rules)
    except CompletionBoundExceeded as e:
        assert (as_data(e.partial.rules), str(e)) == (as_data(rules), message)
    else:
        assert message is None and as_data(done.rules) == as_data(rules)
        assert done.certified_convergent


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lp")), ids=lambda p: p.stem)
def test_complete_is_the_reference_fixtures(path):
    P, _ = lpformat.parse_file(path)
    if P.order is not None:
        assert_complete_is_the_reference(P)


@pytest.mark.parametrize("system, max_degree, max_rules", [
    (cubic_system, 12, 512),
    (cubic_system, 12, 4),
    (h1_system, 5, 512),
    (h1_system, 6, 512),
    (h1_system, 12, 8),
], ids=["cubic", "cubic-rules-4", "h1-d5", "h1-d6", "h1-rules-8"])
def test_complete_is_the_reference(system, max_degree, max_rules):
    assert_complete_is_the_reference(system(), max_degree, max_rules)


@pytest.mark.parametrize("name", sorted(EQUAL_SOURCES))
def test_equal_sources_branch(name):
    """Two rules of one source branch on it, rule1 the earlier one, and
    their S-polynomial does not join; completion joins it as the memo-free
    reference does."""
    P = lpformat.parse(EQUAL_SOURCES[name])[0]
    oriented = Polygraph2(P.quiver, P.field, [orient(r.relation(), P.order, r.name) for r in P.rules], P.order)
    oriented.termination_certificate = certify_termination(oriented)
    word = {"yx": "y x", "yy": "y^2"}[name]
    assert [b for b in brute_force.critical_branchings(oriented) if b[3] == 0] == [(word, "a", "b", 0)]
    assert_branchings_match_reference(oriented)
    report = check_confluence(oriented)
    assert (word, ("a", "b"), False) in [(e["word"], e["rules"], e["joinable"]) for e in report["entries"]]
    assert_complete_is_the_reference(P)


@pytest.mark.parametrize("seed", range(50))
def test_complete_is_the_reference_quadratic(seed):
    assert_complete_is_the_reference(random_quadratic_system(random.Random(seed)), max_degree=6)

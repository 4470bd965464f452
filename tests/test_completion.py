import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linrew import (
    CompletionBoundExceeded,
    MonomialOrder,
    PatternMeasure,
    Polygraph2,
    QQ,
    Quiver,
    certify_termination,
    check_confluence,
    complete,
    enumerate_critical_branchings,
    is_confluent,
    lpformat,
    monomial_poly,
    orient,
    s_polynomial,
)
from linrew.completion import _interreduce_rules
from linrew.rewriting import RewriteStep

from conftest import FIXTURES, deglex_system, make_poly
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


def test_pattern_measure_counts_overlaps():
    m = PatternMeasure((), ((("a", "a"), 1),), 3)
    assert m.measure(("a", "a", "a")) == 2


def test_critical_branchings_xy(sys_xy):
    words = sorted(str(b.word) for b in enumerate_critical_branchings(sys_xy))
    assert words == ["x y^2", "y^3"]


def test_s_polynomial_sign(sys_xy):
    b = next(
        b for b in enumerate_critical_branchings(sys_xy) if str(b.word) == "x y^2"
    )
    # Convention: one-step target of the leftmost leg minus the rightmost's.
    assert s_polynomial(b) == make_poly(sys_xy.quiver, QQ, [(1, "xxy"), (-1, "xxx")])


def test_completion_xy(sys_xy):
    done = complete(sys_xy, sys_xy.order)
    added = [r for r in done.rules if r.name not in ("a", "b")]
    assert len(added) == 1
    assert str(added[0].source) == "y x^2"
    assert added[0].target == make_poly(sys_xy.quiver, QQ, [(1, "xxx")])
    assert done.certified_convergent and done.left_reduced
    # Right-reduced: every rule target is irreducible.
    assert not any(done.is_reducible(m) for r in done.rules for m in r.target.terms)


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
    done = complete(sys_xy, sys_xy.order)
    again = _interreduce_rules(done, done.order)
    assert [r.relation() for r in again.rules] == [r.relation() for r in done.rules]


def test_confluence_requires_certificate(sys_xy):
    with pytest.raises(Exception):
        check_confluence(Polygraph2(sys_xy.quiver, QQ, sys_xy.rules, None))


def test_sys_xyz_no_criticals(sys_xyz):
    assert enumerate_critical_branchings(sys_xyz) == []
    assert check_confluence(sys_xyz)["convergent"]


def assert_legs_are_step_replays(P):
    """Each branching's legs, and its S-polynomial, equal replaying its two
    rewriting steps on the overlap word."""
    for b in enumerate_critical_branchings(P):
        w = monomial_poly(P.field, b.word)
        t1, t2 = b.step1.apply(w), b.step2.apply(w)
        assert b.legs == (t1, t2)
        assert s_polynomial(b) == t1 - t2


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_legs_equal_step_replay_a6(seed):
    assert_legs_are_step_replays(random_system(random.Random(seed)))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lp")), ids=lambda p: p.stem)
def test_legs_equal_step_replay_fixtures(path):
    P, _ = lpformat.parse_file(path)
    assert_legs_are_step_replays(P)
    if P.order is not None:
        try:
            done = complete(P, P.order, max_degree=5)
        except CompletionBoundExceeded as e:
            done = e.partial
        assert_legs_are_step_replays(done)


def test_legs_equal_step_replay_inclusion_overlap():
    # y z is a factor of z y z: the system is not left-reduced, so z y z
    # also branches into its own rule and r2 inside it.
    P = deglex_system("xyz", [
        ("r1", "zyz", [(1, "xxy"), (-2, "y")]),
        ("r2", "yz", [(Fraction(1, 2), "xx")]),
    ])
    assert not P.left_reduced
    inclusions = [b for b in enumerate_critical_branchings(P) if b.word == b.step1.rule.source]
    assert [(str(b.word), b.positions) for b in inclusions] == [("z y z", (0, 1))]
    assert_legs_are_step_replays(P)


def test_check_confluence_replays_no_step(monkeypatch):
    P, _ = lpformat.parse_file(FIXTURES / "pp05.lp")
    done = complete(P, P.order)

    def no_replay(self, f):
        raise AssertionError("RewriteStep.apply called")

    monkeypatch.setattr(RewriteStep, "apply", no_replay)
    report = check_confluence(done)
    assert report["convergent"] and report["critical_branchings"] == 4


def test_is_confluent_is_the_report_verdict():
    """is_confluent decides what check_confluence reports and attaches the
    same certificate, on 200 random systems (78 of them confluent)."""
    verdicts = []
    for seed in range(200):
        decided, reported = random_system(random.Random(seed)), random_system(random.Random(seed))
        verdict = is_confluent(decided)
        assert verdict == check_confluence(reported)["convergent"]
        assert decided.convergence_certificate == reported.convergence_certificate
        verdicts.append(verdict)
    assert sum(verdicts) == 78

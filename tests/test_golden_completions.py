"""The completion contract: what `complete` returns on a fixed corpus, and
properties every correct completion has.

`tests/golden_completions.json` pins, for each case, the rules of the
completed system as [name, source, target], or the bound message and the
rules of the partial system, or the error.  The corpus is every fixture with
the default bounds and with max_degree 3, the cubic system, the stress system
H1 at max_degree 5-7, and the first 200 systems of the A6 generator (seed 0)
at max_degree 5 and max_rules 64.  After an intended change of completion
output, re-record with

    PYTHONPATH=src python tests/test_golden_completions.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from linrew import (
    CompletionBoundExceeded,
    Polygraph2,
    RewriteError,
    complete,
    completion,
    is_confluent,
    lpformat,
    standard_basis,
)

from brute_force import dense_quotient_dimension
from conftest import cubic_system, deglex_system, h1_system
from test_acceptance import random_system

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden_completions.json"


def corpus():
    """(case id, system, bounds) for every case of the golden file."""
    for path in sorted(FIXTURES.glob("*.lp")):
        P, _ = lpformat.parse_file(path)
        yield f"fixture/{path.stem}", P, {}
        yield f"fixture/{path.stem}/d3", P, {"max_degree": 3}
    yield "cubic", cubic_system(), {}
    for d in (5, 6, 7):
        yield f"h1/d{d}", h1_system(), {"max_degree": d}
    rng = random.Random(0)
    for i in range(200):
        yield f"a6/{i}", random_system(rng), {"max_degree": 5, "max_rules": 64}


def rule_list(P) -> list:
    return [[r.name, str(r.source), str(r.target)] for r in P.rules]


def outcome(P, **bounds) -> dict:
    try:
        done = complete(P, P.order, **bounds)
    except CompletionBoundExceeded as e:
        return {"bound": str(e), "partial": rule_list(e.partial)}
    except RewriteError as e:
        return {"error": f"{type(e).__name__}: {e}"}
    return {"rules": rule_list(done)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def outcomes():
    return {case_id: outcome(P, **bounds) for case_id, P, bounds in corpus()}


def test_golden_file_covers_corpus(golden, outcomes):
    assert sorted(golden) == sorted(outcomes)


@pytest.mark.parametrize("group", ["fixture", "cubic", "h1", "a6"])
def test_completion_unchanged(group, golden, outcomes):
    cases = [c for c in outcomes if c.split("/")[0] == group]
    assert cases
    assert [c for c in cases if outcomes[c] != golden[c]] == []


def test_shuffled_input_same_basis(outcomes):
    """The reduced Groebner basis of an ideal is unique for a given order,
    so the order of the input rules changes at most the rule names."""
    rng = random.Random(1)
    checked = 0
    for case_id, P, bounds in corpus():
        first = outcomes[case_id]
        if "rules" not in first:
            continue
        rules = list(P.rules)
        rng.shuffle(rules)
        shuffled = Polygraph2(P.quiver, P.field, rules, P.order)
        again = outcome(shuffled, **bounds)
        assert "rules" in again, case_id
        pairs = sorted((s, t) for _, s, t in first["rules"])
        assert sorted((s, t) for _, s, t in again["rules"]) == pairs, case_id
        checked += 1
    assert checked >= 50


def test_certificate_is_a_fresh_check():
    """complete reduces its rules once and does not check the reduced
    rules again: a fresh system on the rules it returns, given only its
    termination certificate, is confluent and checks as many critical
    branchings as complete's certificate counts."""
    checked = 0
    for case_id, P, bounds in corpus():
        try:
            done = complete(P, P.order, **bounds)
        except RewriteError:
            continue
        fresh = Polygraph2(P.quiver, P.field, done.rules, P.order)
        fresh.termination_certificate = done.termination_certificate
        assert is_confluent(fresh), case_id
        assert fresh.convergence_certificate == done.convergence_certificate, case_id
        checked += 1
    assert checked >= 50


def test_h1_degree7_rightmost_steps(monkeypatch):
    """Completion keeps its memo across rounds: the redexes it finds stay
    close to the number of monomials it visits."""
    calls = []

    def counting_search(self, m):
        found = rightmost_occurrence(self, m)
        if found is not None:
            calls.append(m)
        return found

    rightmost_occurrence = Polygraph2.rightmost_occurrence
    monkeypatch.setattr(Polygraph2, "rightmost_occurrence", counting_search)
    with pytest.raises(CompletionBoundExceeded):
        complete(h1_system(), max_degree=7)
    assert 0 < len(calls) <= 1200


def test_h1_degree7_nf_work():
    """The terms nf sums into normal forms while completing H1 up to degree
    7, which DEFAULT_WORK_BUDGET is counted in."""
    with pytest.raises(CompletionBoundExceeded) as trip:
        complete(h1_system(), max_degree=7)
    assert trip.value.partial._nf_work == 25_110


@pytest.mark.parametrize("case, drops", [("h1-d7", 306), ("cubic", 8)])
def test_memo_forms_name_leaves_still_in_the_memo(case, drops, monkeypatch):
    """After completions that drop memo nodes, every key of every form in
    the nf memo decodes through P._leaves to a monomial whose node is
    still in the memo, is that key's unit form, and is irreducible under
    the current rules: no form names a dropped leaf."""
    dropped, systems = [], []
    drop, interreduce = completion._drop, completion._interreduce_rules

    def counted_drop(*args):
        gone = drop(*args)
        dropped.extend(gone)
        return gone

    monkeypatch.setattr(completion, "_drop", counted_drop)
    monkeypatch.setattr(completion, "_interreduce_rules", lambda P: systems.append(P) or interreduce(P))
    if case == "h1-d7":
        with pytest.raises(CompletionBoundExceeded) as trip:
            complete(h1_system(), max_degree=7)
        systems.append(trip.value.partial)
    else:
        complete(cubic_system())
    (P,) = systems  # the system whose memo the completion grew
    assert len(dropped) == drops
    cache, leaves = P._nf_cache, P._leaves
    keys = {t for form, _, _ in cache.values() for t in form[1]}  # a form over Q is (D, {key: numerator})
    assert keys and len(keys) < len(leaves)  # some leaves were dropped
    for t in keys:
        m = leaves[t]
        assert m in cache and cache[m] == ((1, {t: 1}), None, ())
        assert P.rightmost_occurrence(m) is None


WORDS = {2: ["xx", "xy", "yx", "yy"]}
WORDS[3] = [a + w for a in "xy" for w in WORDS[2]]


@st.composite
def homogeneous_systems(draw):
    """One or two rules of degree 2 or 3 on x < y, each with a target of
    lower monomials of the same degree."""
    degree = draw(st.sampled_from([2, 3]))
    words = WORDS[degree]
    sources = draw(st.lists(st.sampled_from(words), min_size=1, max_size=2, unique=True))
    rules = []
    for i, src in enumerate(sources):
        lower = [w for w in words if w < src]  # deglex x < y on one degree is lex
        terms = draw(st.lists(
            st.tuples(st.sampled_from([-2, -1, 1, 2]), st.sampled_from(lower)),
            max_size=2, unique_by=lambda t: t[1],
        )) if lower else []
        rules.append((f"r{i}", src, terms))
    return deglex_system("xy", rules)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(homogeneous_systems())
def test_completed_basis_counts_quotient(P):
    """For homogeneous P, the irreducible words of the completed system
    count the presented algebra in each degree (brute-force rank)."""
    try:
        done = complete(P, P.order, max_degree=6, max_rules=32)
    except CompletionBoundExceeded:
        assume(False)
    counts = standard_basis(done, 5).counts()
    for d in range(6):
        assert counts[d] == dense_quotient_dimension(P, d), d


if __name__ == "__main__":
    cases = {case_id: outcome(P, **bounds) for case_id, P, bounds in corpus()}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)

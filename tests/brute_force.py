"""Brute-force reference oracles: every word up to a degree, the spanning
set of the relation ideal over those words, normal forms with no memo,
S-polynomials by replaying rewriting steps, the critical branchings of
every pair of rules, and completion with no memo and no pair queue.  They
enumerate all contexts or pairs of all rules, so they are meant for the
small systems of the tests."""

import itertools

from linrew.algebra import monomial_poly
from linrew.completion import certify_termination, enumerate_critical_branchings, orient
from linrew.rewriting import Polygraph2, _row, all_words, nf


def words_up_to(quiver, dmax: int) -> list:
    out = []
    for d in range(dmax + 1):
        out.extend(all_words(quiver, d))
    return out


def ideal_spanning(P, dmax: int):
    """All context embeddings u (source - target) v whose top monomial has
    degree <= dmax, as rows over the basis of all words of degree <= dmax.
    Returns (rows, index)."""
    field = P.field
    words = words_up_to(P.quiver, dmax)
    index = {m: i for i, m in enumerate(words)}
    contexts = words  # identity contexts included
    rows = []
    for rule in P.rules:
        rel = rule.relation()
        for u in contexts:
            if u.target != rule.source.source or u.degree + rule.degree > dmax:
                continue
            for v in contexts:
                if v.source != rule.source.target:
                    continue
                if u.degree + rule.source.degree + v.degree > dmax:
                    continue
                emb = rel.whisker(u, v)
                if any(m.degree > dmax for m in emb.terms):
                    continue
                rows.append(_row(emb, index, field))
    return rows, index


def step(P, f, c, m, rule, start: int):
    """f rewritten once, at the occurrence of rule's source at start in its
    term c m: f - c u (source - target) v, for u and v the contexts of that
    occurrence."""
    return f - rule.relation().whisker(*P.contexts(m, rule, start)).scale(c)


def rightmost_nf(f, P):
    """nf with Polynomial arithmetic and no memo: apply the rightmost step
    of the last reducible term, in canonical order, until no term is
    reducible.  A rightmost step leaves nf's value unchanged, so the
    order in which terms are rewritten does not change the result."""
    while True:
        reducible = [(c, m, found) for c, m in f.items() if (found := P.rightmost_occurrence(m)) is not None]
        if not reducible:
            return f
        c, m, (idx, start) = reducible[-1]
        f = step(P, f, c, m, P.rules[idx], start)


def replayed_legs(P, b) -> tuple:
    """The two legs of the critical branching b, each one step replayed on
    its word: no reduct is sliced."""
    w = monomial_poly(P.field, b.word)
    return tuple(step(P, w, P.field.one, b.word, rule, start) for rule, start in ((b.rule1, 0), (b.rule2, b.start2)))


def s_polynomial(P, b):
    """The S-polynomial of b, first leg minus second, by step replay."""
    leg1, leg2 = replayed_legs(P, b)
    return leg1 - leg2


def critical_branchings(P) -> list:
    """The critical branchings of P by a loop over every pair of rules, as
    (str(word), rule1 name, rule2 name, start2): the proper overlaps of
    source(rule1) with source(rule2) and, on a system that is not
    left-reduced, the inclusions of source(rule2) in source(rule1), two
    equal sources counting once, with rule1 the earlier rule.  Ordered by
    rule pair, then by the weight of the word."""
    out = []
    for i, r1 in enumerate(P.rules):
        w1 = r1.source.word
        for j, r2 in enumerate(P.rules):
            w2 = r2.source.word
            found = [
                (w1 + w2[o:], len(w1) - o)
                for o in range(1, min(len(w1), len(w2)))
                if w1[len(w1) - o :] == w2[:o]
            ]
            if not P.left_reduced and i != j and len(w2) <= len(w1):
                found += [
                    (w1, start2)
                    for start2 in r1.source.factor_positions(w2)
                    if not (w2 == w1 and i > j)
                ]
            found.sort(key=lambda t: len(t[0]))
            out += [
                (str(P.quiver.monomial(word, at=r1.source.source)), r1.name, r2.name, start2)
                for word, start2 in found
            ]
    return out


def reference_completion(P, max_degree: int, max_rules: int):
    """complete's rules under P's order, or the partial rules where a bound
    trips, found with no memo and no pair queue: each round builds a fresh
    system on the rules so far, lists every critical branching with
    enumerate_critical_branchings, and appends as a rule the first nonzero
    rightmost_nf of an S-polynomial, in degree then discovery order.  Once
    every S-polynomial reduces to 0 the rules are interreduced by
    interreduce_sweep, and the loop starts again unless that changed
    nothing.  Returns (rules, None) or (partial rules, the bound's
    message)."""
    order = P.order
    rules = [orient(r.relation(), order, r.name) for r in P.rules]
    fresh = itertools.count()
    while True:
        cur = Polygraph2(P.quiver, P.field, rules, order)
        cur.termination_certificate = certify_termination(cur, order)
        assert cur.termination_certificate.ok
        branchings = sorted(enumerate(enumerate_critical_branchings(cur)), key=lambda t: (t[1].word.degree, t[0]))
        normal_forms = (rightmost_nf(s_polynomial(cur, b), cur) for _, b in branchings)
        spnf = next((f for f in normal_forms if not f.is_zero()), None)
        if spnf is not None:
            rule = orient(spnf, order, f"c{next(fresh)}")
            if rule.degree > max_degree:
                return rules, f"completion exceeded max degree {max_degree}"
            if len(rules) + 1 > max_rules:
                return rules, f"completion exceeded max rule count {max_rules}"
            rules = rules + [rule]
            continue
        reduced = interreduce_sweep(cur, order)
        if [r.relation() for r in reduced] == [r.relation() for r in rules]:
            return rules, None
        rules = list(reduced)


def interreduce_sweep(P, order) -> list:
    """P's rules, each in turn rewritten to its relation's normal form
    under the other rules (a fresh system on them, certified by the order)
    and oriented again, or dropped when that is 0; the sweep starts again
    from the first rule after every change, until none changes."""
    rules = list(P.rules)
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(rules):
            others = rules[:i] + rules[i + 1 :]
            sub = Polygraph2(P.quiver, P.field, others, order)
            sub.termination_certificate = certify_termination(sub, order)
            relnf = nf(r.relation(), sub)
            new = orient(relnf, order, r.name)
            if new is None:
                rules = others
            elif new.relation() != r.relation():
                rules = rules[:i] + [new] + rules[i + 1 :]
            else:
                continue
            changed = True
            break
    return rules

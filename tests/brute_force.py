"""Brute-force reference oracles: every word up to a degree, the spanning
set of the relation ideal over those words, dimensions and the PBW
conditions by dense row reduction of its slices, normal forms with no
memo, S-polynomials by replaying rewriting steps, the critical branchings
of every pair of rules, and completion with no memo and no pair queue.
They enumerate all contexts or pairs of all rules, so they are meant for
the small systems of the tests."""

import itertools

import dense_linalg
from linrew.algebra import Monomial, monomial_poly
from linrew.completion import certify_termination, enumerate_critical_branchings, is_confluent, orient
from linrew.rewriting import Polygraph2, RewriteError, Rule, nf


def all_words(quiver, degree: int) -> list:
    """All composable words of the given internal degree, sorted."""
    out = []
    frontier = [quiver.identity(obj) for obj in quiver.objects]
    while frontier:
        nxt = []
        for m in frontier:
            if m.degree == degree:
                out.append(m)
                continue
            for g in quiver.generators.values():
                if g.source == m.target and m.degree + g.degree <= degree:
                    nxt.append(Monomial(m.word + (g.name,), m.source, g.target, m.degree + g.degree))
        frontier = nxt
    return sorted(out)


def row(f, index: dict, field) -> list:
    """The coefficients of f as a dense row over index, {monomial: column}."""
    out = [field.zero] * len(index)
    for m, c in f.terms.items():
        out[index[m]] = c
    return out


def ideal_rows_in_degree(P, degree: int):
    """The u (source - target) v of every rule and word contexts u, v in
    one degree, as rows over all words of that degree; the rules must be
    homogeneous.  Returns (rows, index)."""
    if not P.homogeneous:
        raise RewriteError("degreewise ideal slices need homogeneous rules")
    field = P.field
    words = all_words(P.quiver, degree)
    index = {m: i for i, m in enumerate(words)}
    rows = []
    for rule in P.rules:
        rest = degree - rule.degree
        if rest < 0:
            continue
        for du in range(rest + 1):
            for u in all_words(P.quiver, du):
                if u.target != rule.source.source:
                    continue
                for v in all_words(P.quiver, rest - du):
                    if v.source != rule.source.target:
                        continue
                    emb = rule.relation().whisker(u, v)
                    if not emb.is_zero():
                        rows.append(row(emb, index, field))
    return rows, index


def dense_quotient_dimension(P, degree: int) -> int:
    """dim of the presented algebra in one degree: all words of that degree
    less the rank of the ideal slice."""
    rows, index = ideal_rows_in_degree(P, degree)
    return len(index) - dense_linalg.rank(rows, P.field)


def dense_pbw_check(P, candidate, dmax: int, build_xi: bool = False) -> dict:
    """rewriting.pbw_check's report by dense linear algebra on the ideal
    slices and by listing every word: (i) by the rank of the slice with and
    without the candidates' rows, (iii) by the windows of every word, and
    xi by solving uv in the candidates' rows modulo the slice."""
    if not P.homogeneous or P.homogeneity_degree is None:
        raise RewriteError("PBW check needs an N-homogeneous system")
    N = P.homogeneity_degree
    field = P.field
    cand = sorted(set(candidate))
    for m in cand:
        P.quiver.monomial(m.word, at=m.source)
    cand_set = set(cand)
    by_degree: dict = {}
    for m in cand:
        by_degree.setdefault(m.degree, []).append(m)
    if 0 not in by_degree:
        cand_set.update(P.quiver.identity(obj) for obj in P.quiver.objects)
    failures = []

    for d in range(1, dmax + 1):
        rows, index = ideal_rows_in_degree(P, d)
        rank_ideal = dense_linalg.rank(rows, field)
        dim_a = len(index) - rank_ideal
        cd = by_degree.get(d, [])
        if len(cd) != dim_a:
            failures.append({"condition": "i", "degree": d, "detail": f"{len(cd)} candidates vs dim {dim_a}"})
            continue
        cand_rows = [row(monomial_poly(field, m), index, field) for m in cd]
        if dense_linalg.rank(rows + cand_rows, field) != rank_ideal + len(cd):
            failures.append({"condition": "i", "degree": d, "detail": "candidates linearly dependent mod ideal"})

    for u in cand:
        for v in cand:
            if u.is_identity() or v.is_identity() or u.target != v.source:
                continue
            uv = u * v
            if uv.degree <= dmax and uv not in cand_set and P.rightmost_occurrence(uv) is None:
                failures.append(
                    {"condition": "ii", "degree": uv.degree, "detail": f"{uv} neither candidate nor reducible"}
                )

    for d in range(N, dmax + 1):
        for w in all_words(P.quiver, d):
            if w.weight < N:
                continue
            windows_ok = all(
                P.quiver.monomial(w.word[k : k + N]) in cand_set for k in range(w.weight - N + 1)
            )
            if (w in cand_set) != windows_ok:
                failures.append({"condition": "iii", "degree": d, "detail": f"window condition fails on {w}"})

    report = {"passed": not failures, "dmax": dmax, "N": N, "failures": failures}
    if build_xi and not failures:
        report["xi"] = _dense_xi(P, cand, N)
    return report


def _dense_xi(P, cand, N: int) -> dict:
    """The rules uv => [uv] of degree N, one per word uv, [uv] the
    coefficients of uv on the degree-N candidates modulo the ideal slice,
    and their convergence under P's order, if any."""
    field = P.field
    rows, index = ideal_rows_in_degree(P, N)
    cand_n = [m for m in cand if m.degree == N]
    columns = rows + [row(monomial_poly(field, b), index, field) for b in cand_n]
    rules = []
    for u in cand:
        for v in cand:
            if u.is_identity() or v.is_identity() or u.target != v.source:
                continue
            uv = u * v
            if uv.degree != N or uv in cand_n or any(r.source == uv for r in rules):
                continue
            sol = dense_linalg.solve_rows(columns, row(monomial_poly(field, uv), index, field), field)
            if sol is None:
                continue
            target = P.quiver.poly(field, zip(sol[len(rows) :], cand_n), uv.source, uv.target)
            rules.append(Rule(f"xi{len(rules)}", uv, target))
    xi = Polygraph2(P.quiver, field, rules, P.order)
    result = {"rules": [str(r) for r in rules], "convergent": None}
    if P.order is not None:
        xi.termination_certificate = cert = certify_termination(xi, hint=P.order)
        if cert.ok:
            result["convergent"] = is_confluent(xi)
    return result


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
                rows.append(row(emb, index, field))
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

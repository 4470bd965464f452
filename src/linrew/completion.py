"""Termination certificates, critical branchings, S-polynomials, the
confluence decision, and completion: one pass that joins every critical
branching, then one reduction of the convergent rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Optional

from .algebra import Monomial, MonomialOrder, Polynomial, leading_data, monomial_poly, terms_text
from .rewriting import (
    NotCertifiedError,
    Polygraph2,
    RewriteError,
    Rule,
    _build_nodes,
    _node_form,
    _reduct_terms,
    nf,
)

DEFAULT_CONTEXT_BOUND = 3
DEFAULT_MAX_DEGREE = 12
DEFAULT_MAX_RULES = 512
# Terms nf may sum into normal forms over one completion: the work of
# completion is coefficient arithmetic on large normal forms.
DEFAULT_WORK_BUDGET = 250_000
# (u, v) context pairs a pattern-measure check may compare, over all rules:
# tests/fixtures/xyz.lp has 132,496 at measure bound 5 and 1,194,649 at 6.
MEASURE_PAIR_BUDGET = 200_000


@dataclass(frozen=True)
class PatternMeasure:
    """Letter weights plus subword-pattern weights; the measure of a monomial
    is the weighted count of letters and (possibly overlapping) pattern
    occurrences."""

    letter_weights: tuple[tuple[str, int], ...]
    pattern_weights: tuple[tuple[tuple[str, ...], int], ...]
    context_bound: int = DEFAULT_CONTEXT_BOUND

    def __post_init__(self):
        # A negative weight makes the measure unbounded below, so that a
        # decrease proves nothing: x -> x x decreases it when x weighs -1.
        if any(w < 0 for _, w in self.letter_weights + self.pattern_weights):
            raise ValueError("measure weights must be non-negative")

    @cached_property
    def _letters(self) -> dict[str, int]:
        return dict(self.letter_weights)

    def measure(self, word: tuple[str, ...]) -> int:
        letters = self._letters
        total = sum(letters.get(g, 0) for g in word)
        for pattern, w in self.pattern_weights:
            k = len(pattern)
            total += w * sum(
                1 for i in range(len(word) - k + 1) if word[i : i + k] == pattern
            )
        return total

    def window(self, u: tuple[str, ...], v: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The last k - 1 letters of u and the first k - 1 letters of v, for
        k the longest pattern: the measures of u.s.v and u.t.v differ as
        those of the window around s and t do (see certify_termination)."""
        k = max((len(p) for p, _ in self.pattern_weights), default=1)
        return u[max(len(u) - k + 1, 0) :], v[: k - 1]


@dataclass
class TerminationCertificate:
    kind: str  # 'order-compatible' | 'pattern-measure' | 'user-asserted'
    ok: bool
    order: Optional[MonomialOrder] = None
    measure: Optional[PatternMeasure] = None
    notes: str = ""

    def summary(self) -> dict:
        out = {"kind": self.kind, "ok": self.ok, "notes": self.notes}
        if self.measure is not None:
            out["context_bound"] = self.measure.context_bound
        return out


@dataclass(frozen=True)
class Branching:
    """A critical branching: word rewritten by rule1 at 0 and by rule2 at start2."""

    word: Monomial
    rule1: Rule
    rule2: Rule
    start2: int


def certify_termination(P: Polygraph2, hint=None) -> TerminationCertificate:
    """Order-compatible or pattern-measure certificate; failure is a report
    naming the first violating rule, never an exception."""
    if hint is None:
        hint = P.order
    if isinstance(hint, MonomialOrder):
        failure = _order_failure(P.rules, hint)
        return TerminationCertificate("order-compatible", failure is None, order=hint, notes=failure or "")
    if isinstance(hint, PatternMeasure):
        # The weights are nonnegative, so the measure is a natural number.
        # The pattern occurrences that differ between u.s.v and u.t.v lie in
        # the last k - 1 letters of u, then s or t, then the first k - 1
        # letters of v, for k the longest pattern: contexts of at most
        # k - 1 letters decide the decrease in every context.  The declared
        # bound may only widen the window.
        L = max([0, hint.context_bound] + [len(p) - 1 for p, _ in hint.pattern_weights])
        failure = _measure_failure(P, hint, L)
        return TerminationCertificate("pattern-measure", failure is None, measure=hint, notes=failure or (
            f"bounded check, contexts up to length {L}; semi-sound (decrease verified only in bounded contexts)"
        ))
    return TerminationCertificate("user-asserted", False, notes="no usable hint (give an order or a measure)")


def certify_declared(P: Polygraph2, measure: Optional[PatternMeasure] = None) -> TerminationCertificate:
    """Certify termination under P's order, then under the measure (with no
    hint when neither is given): the first certificate that holds, else the
    last one."""
    for hint in [h for h in (P.order, measure) if h is not None] or [None]:
        cert = certify_termination(P, hint)
        if cert.ok:
            break
    return cert


def _order_failure(rules, order: MonomialOrder) -> Optional[str]:
    return next((
        f"rule {rule.name}: target monomial {t} not below source {rule.source}"
        for rule in rules for t in rule.target.terms if not order.less(t, rule.source)
    ), None)


def _measure_failure(P: Polygraph2, measure: PatternMeasure, L: int) -> Optional[str]:
    """Why some rule does not decrease the measure in some context (u, v) of
    at most L letters a side, or None; none past MEASURE_PAIR_BUDGET pairs."""
    pairs, letters = _context_pairs(P, L)
    if pairs > MEASURE_PAIR_BUDGET:
        return (f"measure check over contexts of up to {L} letters exceeds its budget of {MEASURE_PAIR_BUDGET} "
                f"(u, v) context pairs: {pairs} pairs already at {letters} letters")
    contexts = _words_up_to_weight(P.quiver, L)
    measure_of = cache(measure.measure)  # of window words, which repeat
    for rule in P.rules:
        src = rule.source
        for u in (u for u in contexts if u.target == src.source):
            for v in (v for v in contexts if v.source == src.target):
                left, right = measure.window(u.word, v.word)
                base = measure_of(left + src.word + right)
                for t in rule.target.terms:
                    if measure_of(left + t.word + right) >= base:
                        return f"rule {rule.name}: measure does not decrease in context ({u}, {v}) on target monomial {t}"
    return None


def _context_pairs(P: Polygraph2, n: int) -> tuple[int, int]:
    """(pairs, letters): the (u, v) context pairs of at most `letters` letters
    a side around the rule sources, counted up to n letters, and no further
    once past MEASURE_PAIR_BUDGET or once no word is longer."""
    objects, gens = P.quiver.objects, P.quiver.generators.values()
    ending = starting = dict.fromkeys(objects, 1)  # per object, the words ending (starting) there
    pairs, letters = len(P.rules), 0
    while letters < n and pairs <= MEASURE_PAIR_BUDGET:
        longer = dict.fromkeys(objects, 1), dict.fromkeys(objects, 1)
        for g in gens:
            longer[0][g.target] += ending[g.source]
            longer[1][g.source] += starting[g.target]
        if longer[0] == ending:
            break
        (ending, starting), letters = longer, letters + 1
        pairs = sum(ending[r.source.source] * starting[r.source.target] for r in P.rules)
    return pairs, letters


def _words_up_to_weight(quiver, n: int) -> list[Monomial]:
    """Every composable word of at most n letters, in canonical order."""
    letters = [quiver.monomial((g,)) for g in quiver.generators]
    words = frontier = [quiver.identity(obj) for obj in quiver.objects]
    for _ in range(n):
        frontier = [m * g for m in frontier for g in letters if m.target == g.source]
        words = words + frontier
    return sorted(words)


def enumerate_critical_branchings(P: Polygraph2) -> list[Branching]:
    """The critical branchings of every rule with itself and the rules
    before it (see _branchings_from), ordered by r1, r2, then word weight:
    inclusions first."""
    return [e[5] for e in sorted(_branchings_from(P, 0), key=itemgetter(1, 2, 3, 4))]


def _branchings_from(P: Polygraph2, first: int) -> list[tuple]:
    """The critical branchings of each rule n from rules[first] on with
    itself and with the rules before it: one per proper overlap (a
    nonempty proper suffix of source(r1) = a prefix of source(r2), looked
    up in the prefixes of P.overlap_index for r1 = n and in its suffixes
    for r2 = n) and, on a system that is not left-reduced, one per other
    rule source inside source(r1), two equal sources giving one branching
    with r1 the earlier rule and start2 = 0.  Each comes as (word degree,
    r1 index, r2 index, word weight, start2, branching)."""
    rules, (prefixes, suffixes) = P.rules, P.overlap_index
    found = []
    for n in range(first, len(rules)):
        src = rules[n].source
        word, k = src.word, len(src.word)
        for cut in range(1, k):
            found += [(n, j, src * rest, cut) for j, rest in prefixes.get(word[cut:], ()) if j <= n]
            found += [
                (i, n, Monomial(rules[i].source.word[:s] + word, rules[i].source.source, src.target, d + src.degree), s)
                for i, s, d in suffixes.get(word[:cut], ()) if i < n
            ]
        if not P.left_reduced:  # the sources before n inside source(n), then source(n) inside theirs or equal
            found += [
                (n, j, src, s) for j, s in P.occurrences(src)
                if j < n and (s, len(rules[j].source.word)) != (0, k)
            ]
            for i, w1 in enumerate(r.source.word for r in rules[:n]):
                found += [
                    (i, n, rules[i].source, s) for s in range(len(w1) - k + 1)
                    if w1[s : s + k] == word
                ]
    return [(w.degree, i, j, len(w.word), s, Branching(w, rules[i], rules[j], s)) for i, j, w, s in found]


def s_polynomial(P: Polygraph2, b: Branching) -> Polynomial:
    """t1(leftmost leg) - t1(rightmost leg) of a critical branching of P."""
    return _difference(P, b, *_leg_terms(P, b))


def _leg_terms(P: Polygraph2, b: Branching) -> tuple[list, list]:
    """The terms of b's two legs, sliced from its word by their rules'
    reduct templates (see _reduct_terms), as nf slices a reduct."""
    index = P.rule_index
    return _reduct_terms(P, index[b.rule1.name], b.word, 0), _reduct_terms(P, index[b.rule2.name], b.word, b.start2)


def _difference(P: Polygraph2, b: Branching, leg1: list, leg2: list) -> Polynomial:
    """The terms leg1 minus the terms leg2, as a Polynomial parallel to b's
    word."""
    field = P.field
    terms = field.linear_combination([
        (field.one, {m: c for c, m in leg1}), (field.neg(field.one), {m: c for c, m in leg2}),
    ])
    return Polynomial._unchecked(field, terms, b.word.source, b.word.target)


def _legs(P: Polygraph2):
    """(branching, the terms of its first leg, the terms of its second) per
    critical branching of P, in enumerate_critical_branchings's order, with
    the nodes of the legs' monomials built."""
    if not P.certified_terminating:
        raise NotCertifiedError("confluence check requires a termination certificate")
    for b in enumerate_critical_branchings(P):
        legs = _leg_terms(P, b)
        for leg in legs:
            _build_nodes(P, leg, b.word)
        yield b, *legs


def _certify(P: Polygraph2, criticals: int) -> None:
    """Attach a convergence certificate to P, bound to the rules it was
    proved on."""
    P.convergence_certificate = {"criticals_checked": criticals, "rules": tuple(P.rules)}


def is_confluent(P: Polygraph2) -> bool:
    """check_confluence's verdict without its report: stops at the first
    branching that is not joinable.  The normal forms of each branching's
    legs are summed, first leg minus second, as forms: no Polynomial is
    built."""
    neg, form_terms = P.field.neg, P.field.form_terms
    met = 0
    for _, leg1, leg2 in _legs(P):
        met += 1
        if form_terms(_node_form(P, leg1 + [(neg(c), m) for c, m in leg2]), P._leaves):
            return False
    _certify(P, met)
    return True


def check_confluence(P: Polygraph2) -> dict:
    """Convergence report: every critical S-polynomial must normalize to 0.
    nf is linear, so the normal form of the S-polynomial is the difference
    of its legs' normal forms, each summed as a form and printed from it.
    Attaches a convergence certificate to P when convergent."""
    field, leaves = P.field, P._leaves
    one, minus_one, texts = field.one, field.neg(field.one), field.form_texts
    entries = []
    for b, leg1, leg2 in _legs(P):
        f1, f2 = _node_form(P, leg1), _node_form(P, leg2)
        spnf = texts(field.sum_forms([(one, f1), (minus_one, f2)])[0], leaves)
        # A joinable branching has nf1 == nf2, printed once.
        nf1 = terms_text(texts(f1, leaves))
        entries.append({
            "word": str(b.word),
            "rules": (b.rule1.name, b.rule2.name),
            "s_polynomial": str(_difference(P, b, leg1, leg2)),
            "s_polynomial_nf": terms_text(spnf),
            "joinable": not spnf,
            "nf1": nf1,
            "nf2": terms_text(texts(f2, leaves)) if spnf else nf1,
        })
    convergent = all(e["joinable"] for e in entries)
    if convergent:
        _certify(P, len(entries))
    return {"convergent": convergent, "critical_branchings": len(entries), "entries": entries}


def orient(f: Polynomial, order: MonomialOrder, name: str) -> Optional[Rule]:
    """Orient a nonzero polynomial as lm => lm - f/lc under the order.  A
    nonzero scalar, whose leading monomial is an identity, has no such rule:
    it raises NotCertifiedError."""
    if f.is_zero():
        return None
    lm, lc, _ = leading_data(f, order)
    if lm.is_identity():
        raise NotCertifiedError(f"rule {name}: the ideal contains the nonzero scalar {f}")
    field = f.field
    monic = f.scale(field.generic_inv(lc))
    target = monomial_poly(field, lm) - monic
    return Rule(name, lm, target)


class CompletionBoundExceeded(RewriteError):
    def __init__(self, message, partial: Polygraph2):
        super().__init__(message)
        self.partial = partial


class DegreeBoundExceeded(CompletionBoundExceeded):
    """Completion met a rule above its max degree."""


def complete(
    P: Polygraph2,
    order: Optional[MonomialOrder] = None,
    max_degree: int = DEFAULT_MAX_DEGREE,
    max_rules: int = DEFAULT_MAX_RULES,
) -> Polygraph2:
    """Knuth-Bendix/Buchberger completion: returns a reduced convergent
    polygraph presenting the same algebra, carrying order-compatible
    termination and convergence certificates.  Raises
    CompletionBoundExceeded (carrying the partial, non-certified system)
    when a bound trips, DegreeBoundExceeded for the degree bound, or when
    nf has summed more than DEFAULT_WORK_BUDGET terms into normal forms.

    One pass grows one system in place.  Its critical branchings wait on a
    heap by overlap degree, then in the order of
    enumerate_critical_branchings; the first whose S-polynomial does not
    reduce to 0 gives the next rule, and waits again.  A rule appended
    changes no rightmost step of a monomial its source does not divide, so
    only the memo nodes that can reach a monomial it divides are dropped,
    and a branching whose S-polynomial reduced to 0 waits again only when
    the node of one of its terms is dropped.  Once the heap is empty every
    critical branching joins, and the system is reduced once."""
    if order is None:
        order = P.order
    if order is None:
        raise RewriteError("completion needs a monomial order")
    rules: list[Rule] = []
    fresh = itertools.count()
    for r in P.rules:
        rel = r.relation()
        if rel.is_zero():
            raise RewriteError(f"rule {r.name} is a zero relation; not orientable")
        rules.append(orient(rel, order, r.name))

    cur = Polygraph2(P.quiver, P.field, rules, order)
    cur.termination_certificate = cert = certify_termination(cur, order)
    if not cert.ok:
        raise RewriteError(f"orientation broke the termination order: {cert.notes}")
    queue = _branchings_from(cur, 0)
    heapify(queue)
    text: dict = {}  # see _drop
    spolys: dict = {}  # heap key -> S-polynomial
    users: dict = {}  # monomial -> the queue entries with it as an S-polynomial term
    joined: set = set()  # heap keys whose S-polynomial reduced to 0 on nodes still in the memo
    while queue:
        entry = heappop(queue)
        key, b = entry[:5], entry[5]
        sp = spolys.get(key)
        if sp is None:
            sp = spolys[key] = s_polynomial(cur, b)
            for m in sp.terms:
                users.setdefault(m, []).append(entry)
        spnf = nf(sp, cur)
        if cur._nf_work > DEFAULT_WORK_BUDGET:
            raise _over_budget(cur, "reducing S-polynomials")
        if spnf.is_zero():
            joined.add(key)
            continue
        new_rule = orient(spnf, order, f"c{next(fresh)}")
        if new_rule.degree > max_degree:
            raise DegreeBoundExceeded(f"completion exceeded max degree {max_degree}", cur)
        if len(cur.rules) + 1 > max_rules:
            raise CompletionBoundExceeded(f"completion exceeded max rule count {max_rules}", cur)
        failure = _order_failure([new_rule], order)
        if failure:
            raise RewriteError(f"orientation broke the termination order: {failure}")
        heappush(queue, entry)
        for m in _drop(cur, text, new_rule.source.word):
            for dropped in users.get(m, ()):
                if dropped[:5] in joined:
                    joined.remove(dropped[:5])
                    heappush(queue, dropped)
        cur.add_rules([new_rule])
        for e in _branchings_from(cur, len(cur.rules) - 1):
            heappush(queue, e)
    done = _interreduce_rules(cur)
    if cur._nf_work > DEFAULT_WORK_BUDGET:
        raise _over_budget(cur, "interreducing")
    if done is not cur:
        done.termination_certificate = certify_termination(done, order)
    criticals = len(spolys) if done is cur else len(_branchings_from(done, 0))
    _certify(done, criticals)
    return done


def _over_budget(partial: Polygraph2, stage: str) -> CompletionBoundExceeded:
    return CompletionBoundExceeded(
        f"completion exceeded its work budget of {DEFAULT_WORK_BUDGET} terms summed "
        f"into normal forms while {stage}, at {len(partial.rules)} rules of degree "
        f"up to {max(r.degree for r in partial.rules)}",
        partial,
    )


def _drop(P: Polygraph2, text: dict, source: tuple) -> list[Monomial]:
    """Drops from P's nf memo the nodes whose word contains source, and
    their ancestors, and returns their monomials: a rule with this source
    leaves every other node as it is.  text keeps the memo's words, one
    character a letter, so that each factor test runs in C; children come
    first in the memo, so one pass from the first node that contains source
    finds the rest."""
    cache, code = P._nf_cache, {g: chr(i) for i, g in enumerate(P.quiver.generators)}.__getitem__
    text.update((m, "".join(map(code, m.word))) for m in itertools.islice(cache, len(text), None))
    s = "".join(map(code, source))
    first = next((i for i, t in enumerate(text.values()) if s in t), None)
    if first is None:
        return []
    dropped, gone = [], set()  # gone: the ids of the nodes dropped
    for m, node in itertools.islice(cache.items(), first, None):
        if s in text[m] or any(id(child) in gone for _, child in node[2]):
            dropped.append(m)
            gone.add(id(node))
    for m in dropped:
        del cache[m], text[m]
    return dropped


def _interreduce_rules(P: Polygraph2) -> Polygraph2:
    """The reduced system of a convergent P: drops each rule whose source
    contains another rule's source (of equal sources the last stays), and
    replaces each target by its normal form.  The rules kept have the
    reducible monomials of P, so they are convergent with P's normal forms,
    and P's memo reduces the targets.  P itself, when nothing changes."""
    rules = P.rules
    kept = [
        r for j, r in enumerate(rules)
        if all(i == j or (i < j and rules[i].source == r.source) for i, _ in P.occurrences(r.source))
    ]
    reduced = [Rule(r.name, r.source, nf(r.target, P)) for r in kept]
    if [r.target for r in reduced] == [r.target for r in rules]:
        return P
    return Polygraph2(P.quiver, P.field, reduced, P.order)

"""Termination certificates, branchings, S-polynomials, confluence decision,
completion, and interreduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .algebra import Monomial, MonomialOrder, Polynomial, leading_data, monomial_poly
from .rewriting import (
    NotCertifiedError,
    Polygraph2,
    RewriteError,
    Rule,
    nf,
    reduct,
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

    def measure(self, word: tuple[str, ...]) -> int:
        letters = dict(self.letter_weights)
        total = sum(letters.get(g, 0) for g in word)
        for pattern, w in self.pattern_weights:
            k = len(pattern)
            total += w * sum(
                1 for i in range(len(word) - k + 1) if word[i : i + k] == pattern
            )
        return total


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

    @cached_property
    def legs(self) -> tuple[Polynomial, Polynomial]:
        """The reducts of word by its two redexes."""
        return reduct(self.word, self.rule1, 0), reduct(self.word, self.rule2, self.start2)


def certify_termination(P: Polygraph2, hint=None) -> TerminationCertificate:
    """Order-compatible or pattern-measure certificate; failure is a report
    naming the first violating rule, never an exception."""
    if hint is None:
        hint = P.order
    if isinstance(hint, MonomialOrder):
        failure = next((
            f"rule {rule.name}: target monomial {t} not below source {rule.source}"
            for rule in P.rules for t in rule.target.terms if not hint.less(t, rule.source)
        ), None)
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


def _measure_failure(P: Polygraph2, measure: PatternMeasure, L: int) -> Optional[str]:
    """Why some rule does not decrease the measure in some context (u, v) of
    at most L letters a side, or None; none past MEASURE_PAIR_BUDGET pairs."""
    pairs, letters = _context_pairs(P, L)
    if pairs > MEASURE_PAIR_BUDGET:
        return (f"measure check over contexts of up to {L} letters exceeds its budget of {MEASURE_PAIR_BUDGET} "
                f"(u, v) context pairs: {pairs} pairs already at {letters} letters")
    contexts = _words_up_to_weight(P.quiver, L)
    for rule in P.rules:
        src = rule.source
        for u in (u for u in contexts if u.target == src.source):
            for v in (v for v in contexts if v.source == src.target):
                base = measure.measure(u.word + src.word + v.word)
                for t in rule.target.terms:
                    if measure.measure(u.word + t.word + v.word) >= base:
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
    """One branching per proper overlap of two rule sources (nonempty proper
    suffix of source(r1) = prefix of source(r2), looked up in P.prefix_index);
    on non-left-reduced systems also one per other rule source inside
    source(r1).  Ordered by r1, r2, then word weight: inclusions first."""
    rules, index = P.rules, P.prefix_index
    out = []
    for i, r1 in enumerate(rules):
        src = r1.source
        found = [] if P.left_reduced else [
            (j, src, start2)
            for j, start2 in P.occurrences(src)
            if j != i and not (start2 == 0 and rules[j].source.weight == src.weight)
        ]
        for start2 in range(1, src.weight):
            found += [(j, src * rest, start2) for j, rest in index.get(src.word[start2:], ())]
        found.sort(key=lambda t: (t[0], t[1].weight))
        out += [Branching(word, r1, rules[j], start2) for j, word, start2 in found]
    return out


def s_polynomial(b: Branching) -> Polynomial:
    """t1(leftmost leg) - t1(rightmost leg) of a critical branching."""
    leg1, leg2 = b.legs
    return leg1 - leg2


def _joins(P: Polygraph2):
    """(branching, nf of its first leg, nf of its second leg, their
    difference) per critical branching of P; nf is linear, so the difference
    is the normal form of the S-polynomial.  Once every branching has been
    met and every difference is 0, attaches a convergence certificate to P,
    bound to the rules it was proved on."""
    if not P.certified_terminating:
        raise NotCertifiedError("confluence check requires a termination certificate")
    branchings = enumerate_critical_branchings(P)
    convergent = True
    for b in branchings:
        nf1, nf2 = (nf(leg, P) for leg in b.legs)
        spnf = nf1 - nf2
        convergent = convergent and spnf.is_zero()
        yield b, nf1, nf2, spnf
    if convergent:
        P.convergence_certificate = {
            "criticals_checked": len(branchings),
            "rules": tuple(P.rules),
        }


def is_confluent(P: Polygraph2) -> bool:
    """check_confluence's verdict without its report: stops at the first
    branching that is not joinable."""
    return all(spnf.is_zero() for *_, spnf in _joins(P))


def check_confluence(P: Polygraph2) -> dict:
    """Convergence report: every critical S-polynomial must normalize to 0.
    Attaches a convergence certificate to P when convergent."""
    entries = [
        {
            "word": str(b.word),
            "rules": (b.rule1.name, b.rule2.name),
            "s_polynomial": str(s_polynomial(b)),
            "s_polynomial_nf": str(spnf),
            "joinable": spnf.is_zero(),
            "nf1": str(nf1),
            "nf2": str(nf2),
        }
        for b, nf1, nf2, spnf in _joins(P)
    ]
    convergent = all(e["joinable"] for e in entries)
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
    when a bound trips, or when nf has summed more than DEFAULT_WORK_BUDGET
    terms into normal forms.

    Each round reduces the S-polynomials in degree order and appends the
    first nonzero one as a rule.  A rule appended to the system changes no
    rightmost step of a monomial it does not divide, so the next round keeps
    every memo node that cannot reach such a monomial, and skips every
    branching whose S-polynomial reduced to 0 on nodes that are all kept."""
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

    memo: dict = {}  # the _nf_cache nodes still valid for `rules`
    spolys: dict = {}  # branching key -> S-polynomial
    joined: dict = {}  # branching key -> the (monomial, node) pairs it reduced to 0 on
    work = 0
    while True:
        cur = Polygraph2(P.quiver, P.field, rules, order)
        cur._nf_cache = memo
        cur._nf_work = work
        cert = certify_termination(cur, order)
        if not cert.ok:
            raise RewriteError(f"orientation broke the termination order: {cert.notes}")
        cur.termination_certificate = cert
        # Fair queue: ascending overlap-word degree, then discovery order.
        pending = sorted(
            enumerate(enumerate_critical_branchings(cur)),
            key=lambda t: (t[1].word.degree, t[0]),
        )
        new_rule = None
        for _, b in pending:
            key = (b.rule1.name, b.rule2.name, b.start2, b.word.word)
            used = joined.get(key)
            if used is not None and all(memo.get(m) is node for m, node in used):
                continue
            sp = spolys.get(key)
            if sp is None:
                sp = spolys[key] = s_polynomial(b)
            spnf = nf(sp, cur)
            if cur._nf_work > DEFAULT_WORK_BUDGET:
                raise _over_budget(cur, "reducing S-polynomials")
            if spnf.is_zero():
                joined[key] = tuple((m, memo[m]) for m in sp.terms)
                continue
            new_rule = orient(spnf, order, f"c{next(fresh)}")
            if new_rule.degree > max_degree:
                raise CompletionBoundExceeded(
                    f"completion exceeded max degree {max_degree}", cur
                )
            if len(rules) + 1 > max_rules:
                raise CompletionBoundExceeded(
                    f"completion exceeded max rule count {max_rules}", cur
                )
            break
        if new_rule is not None:
            rules.append(new_rule)
            memo = _unchanged_by(new_rule.source.word, memo)
        else:
            reduced = _interreduce_rules(cur, order)
            if cur._nf_work > DEFAULT_WORK_BUDGET:
                raise _over_budget(cur, "interreducing")
            if [r.relation() for r in reduced.rules] == [r.relation() for r in cur.rules]:
                # Every S-polynomial reduced to 0 and interreduction changed
                # nothing: attach the convergence certificate (the nf cache
                # is warm).
                is_confluent(cur)
                return cur
            rules = list(reduced.rules)
            memo, spolys, joined = {}, {}, {}
        work = cur._nf_work


def _over_budget(partial: Polygraph2, stage: str) -> CompletionBoundExceeded:
    return CompletionBoundExceeded(
        f"completion exceeded its work budget of {DEFAULT_WORK_BUDGET} terms summed "
        f"into normal forms while {stage}, at {len(partial.rules)} rules of degree "
        f"up to {max(r.degree for r in partial.rules)}",
        partial,
    )


def _unchanged_by(source: tuple, memo: dict) -> dict:
    """The nodes of memo that appending a rule with this source word leaves
    as they are: the source divides neither the node's monomial nor, through
    its children, any monomial its rewriting reaches.  memo is filled
    children first, so one forward pass decides."""
    kept: dict = {}
    valid: set[int] = set()  # ids of the kept nodes
    for m, node in memo.items():
        if m.factor_positions(source):
            continue
        if all(id(child) in valid for _, child in node[2]):
            kept[m] = node
            valid.add(id(node))
    return kept


def _interreduce_rules(P: Polygraph2, order: MonomialOrder) -> Polygraph2:
    """Left- and right-reduce a terminating system (Tietze-equivalent,
    idempotent)."""
    rules = list(P.rules)
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(rules):
            others = rules[:i] + rules[i + 1 :]
            sub = Polygraph2(P.quiver, P.field, others, order)
            sub.termination_certificate = certify_termination(sub, order)
            relnf = nf(r.relation(), sub)
            P._nf_work += sub._nf_work
            new = orient(relnf, order, r.name) if not relnf.is_zero() else None
            if new is None:
                rules = others
                changed = True
                break
            if new.relation() != r.relation():
                rules = rules[:i] + [new] + rules[i + 1 :]
                changed = True
                break
    # Each source is now irreducible by the other rules, and each target is
    # normal for them; a rule cannot fire on its own target, whose monomials
    # lie below its source, so the system is also right-reduced.  Equal
    # relations share a source, so one of them was dropped above.
    return Polygraph2(P.quiver, P.field, rules, order)


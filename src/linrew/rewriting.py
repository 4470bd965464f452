"""Rules, linear 2-polygraphs, rewriting steps with traces, normal forms,
standard bases and PBW verification.

A rule is a monic oriented relation m => h with monomial source and
polynomial target.  A rewriting step replaces one occurrence of a rule
source inside one term: f' = f - lam * m1 (m - h) m2.  The algebra in a
degree is seen only through normal forms: quotient dimensions and the PBW
conditions read the normal words and forms of a system exact through that
degree (see _exact_through).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional

from .algebra import (
    CompositionError,
    Monomial,
    MonomialOrder,
    Polynomial,
    Quiver,
    monomial_poly,
)
from .scalars import Field
from . import linalg

DEFAULT_STEP_BUDGET = 10**6
# Irreducible words standard_basis may list.  On a 2-core x86-64 machine,
# `hilbert` lists the 1,127,251 words of x y -> x x up to degree 1500 in
# 0.3-0.5 s at 55 MB peak RSS; standard_basis alone builds the 4.5 million
# of tests/fixtures/groebner2.lp up to degree 14 in 0.6-0.9 s at 308 MB.
BASIS_WORD_BUDGET = 2_000_000


class RewriteError(ValueError):
    pass


class NotCertifiedError(RewriteError):
    pass


class StepBudgetExceeded(RewriteError):
    pass


class BasisBudgetExceeded(RewriteError):
    pass


@dataclass(frozen=True)
class Rule:
    name: str
    source: Monomial
    target: Polynomial

    def __post_init__(self):
        if self.source.is_identity():
            raise RewriteError(f"rule {self.name}: source must be a non-identity monomial")
        if (self.source.source, self.source.target) != (self.target.source, self.target.target):
            raise CompositionError(f"rule {self.name}: source and target are not parallel")
        if self.source in self.target.terms:
            raise RewriteError(
                f"rule {self.name}: source monomial occurs in target (not in normal shape)"
            )

    @property
    def degree(self) -> int:
        return self.source.degree

    @property
    def homogeneous(self) -> bool:
        return all(m.degree == self.source.degree for m in self.target.terms)

    def relation(self) -> Polynomial:
        """source - target, as an element of the ideal."""
        return monomial_poly(self.target.field, self.source) - self.target

    def __str__(self):
        return f"{self.name} : {self.source} => {self.target}"


class _Automaton:
    """Aho-Corasick factor matcher over the rule sources.  The failure links
    are folded into a full transition table, so each letter read costs one
    dict lookup; out[state] lists the rules whose sources end there."""

    def __init__(self, rules: list[Rule]):
        goto: list[dict[str, int]] = [{}]
        self.out: list[list[int]] = [[]]
        for idx, rule in enumerate(rules):
            state = 0
            for letter in rule.source.word:
                nxt = goto[state].get(letter)
                if nxt is None:
                    nxt = goto[state][letter] = len(goto)
                    goto.append({})
                    self.out.append([])
                state = nxt
            self.out[state].append(idx)
        # Breadth first: a state's failure state is shallower, so its row
        # and its matches are complete when the state is reached.
        self.delta: list[dict[str, int]] = [goto[0]] * len(goto)
        queue = deque((t, 0) for t in goto[0].values())  # (state, failure state)
        while queue:
            s, f = queue.popleft()
            self.delta[s] = {**self.delta[f], **goto[s]}
            self.out[s] = self.out[s] + self.out[f]
            queue.extend((t, self.delta[f].get(letter, 0)) for letter, t in goto[s].items())

    def step(self, state: int, letter: str) -> int:
        return self.delta[state].get(letter, 0)


@dataclass(frozen=True)
class RewriteStep:
    """One rewriting step: coefficient, left context, rule, right context."""

    coeff: object
    left: Monomial
    rule: Rule
    right: Monomial

    def delta(self) -> Polynomial:
        """lam * m1 (source - target) m2; applying the step subtracts this."""
        return self.rule.relation().whisker(self.left, self.right).scale(self.coeff)

    def apply(self, f: Polynomial) -> Polynomial:
        return f - self.delta()


@dataclass(frozen=True)
class Trace:
    """A recorded positive rewriting sequence."""

    start: Polynomial
    steps: tuple[RewriteStep, ...]
    end: Polynomial

    def __len__(self):
        return len(self.steps)

    def check(self) -> bool:
        f = self.start
        for s in self.steps:
            f = s.apply(f)
        return f == self.end


class Polygraph2:
    """A linear 2-polygraph: quiver, ordered rules, optional monomial order.

    Reducedness and homogeneity flags are recomputed, never trusted from
    input.  Certificates (termination, convergence) are attached by the
    completion module.  A convergence certificate holds the rules it was
    proved on, and certifies the system only while its rules equal those.
    """

    def __init__(
        self,
        quiver: Quiver,
        field: Field,
        rules: Iterable[Rule],
        order: Optional[MonomialOrder] = None,
    ):
        self.quiver = quiver
        self.field = field
        self.order = order
        self.termination_certificate = None
        self.convergence_certificate = None
        # The rightmost rewriting DAG, one node per visited monomial m:
        # (normal form, redex, children).  The normal form is kept as a
        # field form.  The redex of a reducible m is (rule, start, m), with
        # one (coefficient, node) child per term of its reduct, in canonical
        # order; an irreducible m has redex None and no children.  Every
        # node is inserted after its children.  A form's keys are leaf
        # numbers: an irreducible m is numbered when its node is built.
        self._nf_cache: dict[Monomial, tuple] = {}
        self._leaves: list[Monomial] = []  # leaf number -> its irreducible monomial
        self._nf_work = 0  # terms nf has summed into normal forms
        self.rules: list[Rule] = []
        self.rule_index: dict[str, int] = {}  # rule name -> its position in rules
        self._source_weights: list[int] = []
        self._reducts: list[list[tuple]] = []  # per rule: (coeff, word, degree shift) per target term, see _reduct_terms
        self._overlaps: tuple[dict, dict] = {}, {}  # see overlap_index
        self._overlapped = 0  # the rules in _overlaps
        self.left_reduced = self.homogeneous = True
        self.add_rules(list(rules))

    def add_rules(self, rules: list[Rule]) -> None:
        """Append rules.  The flags and the reduct templates are updated for
        them alone, the overlap index on its next use; the automaton is
        rebuilt."""
        index = {r.name: k for k, r in enumerate(rules, len(self.rules))}
        if len(index) != len(rules) or not index.keys().isdisjoint(self.rule_index):
            raise RewriteError("duplicate rule names")
        self.rule_index.update(index)
        self.rules += rules
        self._automaton = _Automaton(self.rules)
        self._reducts += [[(c, t.word, t.degree - r.degree) for c, t in r.target.items()] for r in rules]
        weights = [r.source.weight for r in rules]
        self._source_weights += weights
        # Left-reduced: no rule source is a factor of another's (an equal or
        # nested source adds a second occurrence to a rule's own source).
        shortest = min(weights, default=0)
        self.left_reduced = self.left_reduced and all(
            len(self.occurrences(r.source)) == 1 for r, w in zip(self.rules, self._source_weights) if w >= shortest
        )
        self.homogeneous = self.homogeneous and all(r.homogeneous for r in rules)
        self.homogeneity_degree = (
            min((r.degree for r in self.rules), default=None) if self.homogeneous else None
        )

    @property
    def certified_terminating(self) -> bool:
        cert = self.termination_certificate
        return cert is not None and getattr(cert, "ok", False)

    @property
    def certified_convergent(self) -> bool:
        return self.certified_terminating and (self.convergence_certificate or {}).get("rules") == tuple(self.rules)

    # -- redex search --------------------------------------------------------

    def occurrences(self, m: Monomial) -> list[tuple[int, int]]:
        """All (rule index, start) occurrences of rule sources in m,
        sorted by start position then rule index."""
        found = []
        state = 0
        for i, letter in enumerate(m.word):
            state = self._automaton.step(state, letter)
            for idx in self._automaton.out[state]:
                found.append((idx, i + 1 - self._source_weights[idx]))
        found.sort(key=lambda t: (t[1], t[0]))
        return found

    def rightmost_occurrence(self, m: Monomial) -> tuple[int, int] | None:
        """The (rule index, start) occurrence of a rule source in m with the
        latest start, ties broken by lowest rule index (only possible on
        non-left-reduced systems), or None when m is irreducible: one walk
        of the automaton."""
        delta, out, weights = self._automaton.delta, self._automaton.out, self._source_weights
        best = None
        state = 0
        for end, letter in enumerate(m.word, 1):
            state = delta[state].get(letter, 0)
            for idx in out[state]:
                start = end - weights[idx]
                if best is None or start > best[1] or (start == best[1] and idx < best[0]):
                    best = idx, start
        return best

    @property
    def overlap_index(self) -> tuple[dict, dict]:
        """(prefixes, suffixes): each proper prefix of a rule source ->
        (rule index, the rest of the source), and each proper suffix ->
        (rule index, its start, the degree before it), in rule order: the
        overlaps of critical branchings and of chains.  Built on first use,
        as most systems never need it, and brought up to date with the
        rules appended since at each use."""
        if self._overlapped < len(self.rules):
            (prefixes, suffixes), gens = self._overlaps, self.quiver.generators
            for idx, src in enumerate((r.source for r in self.rules[self._overlapped :]), self._overlapped):
                for cut in range(1, src.weight):
                    head, rest = src.word[:cut], src.word[cut:]
                    degree = sum(gens[g].degree for g in rest)
                    prefixes.setdefault(head, []).append((idx, Monomial(rest, gens[rest[0]].source, src.target, degree)))
                    suffixes.setdefault(rest, []).append((idx, cut, src.degree - degree))
            self._overlapped = len(self.rules)
        return self._overlaps

    def contexts(self, m: Monomial, rule: Rule, start: int) -> tuple[Monomial, Monomial]:
        """The left and right contexts of the occurrence of rule's source at
        start in m, sliced from m.word: slices of a composable word are
        composable, so only their degrees are computed."""
        source, gens = rule.source, self.quiver.generators
        word = m.word
        left_word = word[:start]
        left_degree = sum(gens[g].degree for g in left_word)
        left = Monomial(left_word, m.source, source.source, left_degree)
        right = Monomial(
            word[start + len(source.word) :],
            source.target,
            m.target,
            m.degree - left_degree - source.degree,
        )
        return left, right


# -- operations --------------------------------------------------------------


def nf(f: Polynomial, P: Polygraph2) -> Polynomial:
    """Normalize f by the rightmost strategy, monomial by monomial (linear
    in f): the nodes of its monomials are built (see _build_nodes), then
    their normal forms are summed, and the terms summed are added to
    P._nf_work."""
    items = f.items()
    _build_nodes(P, items, f)
    # form_terms decodes into a fresh dict: no node shares the result's terms.
    terms = P.field.form_terms(_node_form(P, items), P._leaves)
    return Polynomial._unchecked(P.field, terms, f.source, f.target)


def _node_form(P: Polygraph2, items: list):
    """The sum of the normal forms in P._nf_cache of the monomials of the
    (coefficient, monomial) pairs items, as a form; the terms summed are
    added to P._nf_work."""
    cache = P._nf_cache
    form, summed = P.field.sum_forms([(coeff, cache[m][0]) for coeff, m in items])
    P._nf_work += summed
    return form


def _reduct_terms(P: Polygraph2, idx: int, m: Monomial, start: int) -> list:
    """The (coefficient, monomial) terms of m rewritten by P.rules[idx] at
    start, sliced from m's word by the rule's reduct template: the one place
    a reduct is formed."""
    degree, source, target, word = m
    left, right = word[:start], word[start + P._source_weights[idx] :]
    new = tuple.__new__
    # Monomial's own fields, in tuple order, with no __new__ call.
    return [
        (c, new(Monomial, (degree + shift, source, target, left + t + right)))
        for c, t, shift in P._reducts[idx]
    ]


def _build_nodes(P: Polygraph2, items: list, of) -> None:
    """Build the missing nodes of P._nf_cache for the monomials of the
    (coefficient, monomial) pairs items, depth first with an explicit
    stack.  Each monomial rewritten costs its weight from a budget of
    10**6, 10x more once termination is certified.  Running out of it, or
    meeting a monomial again while it is still being normalized (the
    strategy loops), raises StepBudgetExceeded, naming `of` as what was
    being normalized.  The terms summed into the nodes' normal forms are
    added to P._nf_work.  One automaton walk per monomial finds its redex,
    and each reduct is sliced from the word rewritten (see _reduct_terms):
    no step or context is built."""
    cache = P._nf_cache
    stack: list = [m for _, m in reversed(items) if m not in cache]
    if not stack:
        return
    sum_forms, unit_form, find = P.field.sum_forms, P.field.unit_form, P.rightmost_occurrence
    rules, leaves = P.rules, P._leaves
    budget = DEFAULT_STEP_BUDGET * (10 if P.certified_terminating else 1)
    work = 0
    opened: set[Monomial] = set()  # rewritten, waiting for their reducts' terms
    while stack:
        m = stack.pop()
        if type(m) is tuple:  # (m, redex, reduct): every term of the reduct is done
            m, redex, reduct = m
            opened.discard(m)
            children = tuple([(coeff, cache[n]) for coeff, n in reduct])
            form, summed = sum_forms([(coeff, node[0]) for coeff, node in children])
            work += summed
            cache[m] = (form, redex, children)
            continue
        if m in cache:
            continue
        found = find(m)
        if found is None:
            cache[m] = (unit_form(len(leaves)), None, ())
            leaves.append(m)
            continue
        budget -= len(m.word)
        if budget < 0:
            raise StepBudgetExceeded(
                f"step budget exhausted while normalizing {of}"
                + ("" if P.certified_terminating else " (no termination certificate)")
            )
        idx, start = found
        reduct = _reduct_terms(P, idx, m, start)
        opened.add(m)
        stack.append((m, (rules[idx], start, m), reduct))
        for _, n in reversed(reduct):
            if n not in cache:
                if n in opened:
                    raise StepBudgetExceeded(f"rightmost rewriting of {n} loops while normalizing {of}")
                stack.append(n)
    P._nf_work += work


def normal_form(f: Polynomial, P: Polygraph2) -> tuple[Polynomial, Trace]:
    """nf(f, P) and its trace: the rightmost step of each reducible monomial
    met, depth first in the order of the normalisation, with the product of
    the coefficients on its path from f as its coefficient.  The library
    needs no trace: delta2 and delta3 walk P._nf_cache directly."""
    result = nf(f, P)
    mul = P.field.mul
    steps: list[RewriteStep] = []
    todo = [(c, P._nf_cache[m]) for c, m in reversed(f.items())]  # a stack: no recursion
    while todo:
        c, (_, redex, children) = todo.pop()
        if redex is not None:
            rule, start, m = redex
            left, right = P.contexts(m, rule, start)
            steps.append(RewriteStep(c, left, rule, right))
            todo.extend((mul(c, d), node) for d, node in reversed(children) if node[1] is not None)
    return result, Trace(f, tuple(steps), result)


@dataclass
class StandardBasis:
    """Irreducible words per internal degree, in canonical order, as text
    (the ``str`` of their Monomial); counts give the Hilbert function of the
    presented algebra when the system is convergent.  Degree 0 holds one
    empty word per object, in object order.  Each degree's texts are kept
    as one block, joined by "\n", with their number in size."""

    quiver: Quiver
    block: dict[int, str]
    size: dict[int, int]

    def counts(self) -> dict[int, int]:
        return dict(sorted(self.size.items()))

    @cached_property
    def text(self) -> dict[int, list[str]]:
        """Each degree's texts as a list, split from its block on first
        access."""
        return {d: b.split("\n") if self.size[d] else [] for d, b in self.block.items()}

    @cached_property
    def words(self) -> dict[int, list[tuple[str, ...]]]:
        """The words as tuples of generator names, read back from their
        text on first access."""
        letters = _Letters().__getitem__
        return {
            d: [tuple(chain.from_iterable(map(letters, t.split(" ")))) for t in ts] if d else [()] * len(ts)
            for d, ts in self.text.items()
        }

    @cached_property
    def by_degree(self) -> dict[int, list[Monomial]]:
        """The words as Monomials, built on first access."""
        gens = self.quiver.generators
        return {
            d: [Monomial(w, gens[w[0]].source, gens[w[-1]].target, d) for w in ws]
            if d
            else [self.quiver.identity(obj) for obj in sorted(self.quiver.objects)]
            for d, ws in self.words.items()
        }


class _Letters(dict):
    """The letters of each token of a word's text (x, or x^k for a run),
    read on first lookup."""

    def __missing__(self, token: str) -> tuple[str, ...]:
        name, _, run = token.rpartition("^")
        letters = self[token] = (name,) * int(run) if name else (token,)
        return letters


def standard_basis(P: Polygraph2, dmax: int) -> StandardBasis:
    """The irreducible words of degree <= dmax as text, in one block a
    degree.  The words of degree d from an object are the irreducible
    suffixes of degree d from the automaton's start state there (see
    _suffixes), which come out in lexicographic order; quivers with several
    objects then sort by target.  The words are counted first:
    BasisBudgetExceeded is raised, with no text built, when there are more
    than BASIS_WORD_BUDGET."""
    if dmax < 0:
        raise ValueError(f"dmax must be non-negative, got {dmax}")
    quiver, auto = P.quiver, P._automaton
    objects, by_name = sorted(quiver.objects), quiver.generators
    gens = sorted(by_name.values(), key=lambda g: g.name)
    # (automaton state, object) -> the generators read from there that
    # complete no rule source: (name, degree, target, next state)
    moves = {
        (state, obj): [
            (g.name, g.degree, g.target, nstate)
            for g in gens
            if g.source == obj and not auto.out[nstate := auto.step(state, g.name)]
        ]
        for state in range(len(auto.delta))
        for obj in objects
    }
    size = _count_words(moves, objects, dmax)
    memo: dict = {}  # see _suffixes
    roots = [
        (d, [_join_runs(_suffixes((0, src, d), memo, moves), d) for src in objects])
        for d in range(1, dmax + 1)
    ]
    # Free the memo before the blocks are joined, so that both are never
    # alive at once.
    del memo
    block = {0: "\n".join(f"1_{obj}" for obj in objects)}
    target = lambda t: by_name[t.rpartition(" ")[2].partition("^")[0]].target  # noqa: E731 (of a text's last letter)
    roots.reverse()
    while roots:  # each degree's roots freed once joined
        d, parts = roots.pop()
        if len(objects) > 1:  # by target, within each source object
            parts = ["\n" + "\n".join(sorted(p[1:].split("\n"), key=target)) if p else "" for p in parts]
        block[d] = "".join(parts)[1:]
    return StandardBasis(quiver, block, size)


_LETTER = itemgetter(0)  # of a _suffixes segment


def _suffixes(key: tuple, memo: dict, moves: dict) -> list:
    """memo[key] for key = (automaton state, object, degree): the texts, in
    lexicographic order, of the words of that degree from that object that
    complete no rule source when read on from that state.  They are kept as
    segments (letter x, its degree, rest, block), in order of x: the texts
    that begin with the same run of x, whose letters after the run have
    degree rest, in one string, each text preceded by "\\n" (which no
    generator name holds) and cut of that run.  A key's texts are its
    children's, one child per generator in name order.  The child's
    segments of the generator's own letter are shared, their run one
    longer; its other segments are joined, each run put back into its
    texts by one str.replace, and the generator is their new run.  Children
    are built first, on an explicit stack."""
    stack = [key]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        state, obj, d = top
        out = moves[state, obj]
        children = [(nstate, target, d - gdeg) for _, gdeg, target, nstate in out if gdeg < d]
        missing = [child for child in children if child not in memo]
        if missing:
            stack += missing
            continue
        stack.pop()
        segments = []
        for name, gdeg, target, nstate in out:
            if gdeg == d:
                segments.append((name, gdeg, 0, "\n"))
            elif gdeg < d:
                rest = d - gdeg
                child = memo[nstate, target, rest]
                i, j = bisect_left(child, name, key=_LETTER), bisect_right(child, name, key=_LETTER)
                if i:
                    segments.append((name, gdeg, rest, _join_runs(child[:i], rest, "\n ")))
                segments += child[i:j]
                if j < len(child):
                    segments.append((name, gdeg, rest, _join_runs(child[j:], rest, "\n ")))
        memo[top] = segments
    return memo[key]


def _join_runs(segments: list, d: int, lead: str = "\n") -> str:
    """The texts of degree d of segments as one string, each segment's run
    put back at the start of its texts, after lead."""
    out = []
    for x, xdeg, rest, block in segments:
        r = (d - rest) // xdeg
        out.append(block.replace("\n", lead + x if r == 1 else f"{lead}{x}^{r}"))
    return "".join(out)


def _count_words(moves: dict, objects: list, dmax: int) -> dict[int, int]:
    """The number of words of standard_basis per degree, counted degree by
    degree by _suffixes's recursion over counts: counts[state, obj, d] is
    the number of texts _suffixes would list for that key.  Raises
    BasisBudgetExceeded at the first degree where the words so far pass
    BASIS_WORD_BUDGET."""
    counts: dict = {}
    size = {0: len(objects)}
    total = len(objects)
    for d in range(1, dmax + 1):
        for (state, obj), out in moves.items():
            counts[state, obj, d] = sum(
                1 if gdeg == d else counts[nstate, target, d - gdeg]
                for _, gdeg, target, nstate in out
                if gdeg <= d
            )
        size[d] = sum(counts[0, obj, d] for obj in objects)
        total += size[d]
        if total > BASIS_WORD_BUDGET:
            raise BasisBudgetExceeded(
                f"standard basis exceeded its budget of {BASIS_WORD_BUDGET} words while "
                f"counting them: {total} words up to degree {d}"
            )
    return size


def _exact_through(P: Polygraph2, d: int) -> Polygraph2:
    """A system presenting the homogeneous P's algebra whose normal forms
    are exact through degree d: P itself when it is certified convergent,
    else its completion under P's order (deglex in declaration order when
    P has none) up to degree d.  Completion joins branchings by degree and
    stops on the degree bound only at a rule above d, so the partial system
    it stops with has joined every branching up to d and is returned."""
    from .completion import DegreeBoundExceeded, complete  # local import; completion depends on this module

    if P.certified_convergent:
        return P
    order = P.order if P.order is not None else MonomialOrder("deglex", P.quiver.generators)
    try:
        return complete(P, order, max_degree=d)
    except DegreeBoundExceeded as e:
        return e.partial


def quotient_dimension(P: Polygraph2, degree: int) -> int:
    """dim of the homogeneous P's algebra in one degree: the number of
    normal words of that degree under _exact_through(P, degree)."""
    if not P.homogeneous:
        raise RewriteError("quotient dimensions need homogeneous rules")
    return standard_basis(_exact_through(P, degree), degree).size[degree]


def pbw_check(P: Polygraph2, candidate: Iterable[Monomial], dmax: int, build_xi: bool = False) -> dict:
    """Verify the three PBW-basis conditions degree by degree up to dmax.

    (i) candidate is a linear basis of the algebra per degree: as many
        candidates as normal words, with independent normal forms, under a
        system exact through dmax (see _exact_through);
    (ii) composites of candidates are candidates or reducible by P's rules;
    (iii) a word is a candidate iff all its N-letter windows are.
    The check is bounded by dmax; the report records the bound.
    """
    if not P.homogeneous or P.homogeneity_degree is None:
        raise RewriteError("PBW check needs an N-homogeneous system")
    N = P.homogeneity_degree
    quiver = P.quiver
    cand = sorted(set(candidate))
    for m in cand:
        quiver.monomial(m.word, at=m.source)  # re-validate composability
    cand_set = set(cand)
    by_degree: dict[int, list[Monomial]] = {}
    for m in cand:
        by_degree.setdefault(m.degree, []).append(m)
    if 0 not in by_degree:
        cand_set.update(quiver.identity(obj) for obj in quiver.objects)
    C = _exact_through(P, max(dmax, N))
    dims = standard_basis(C, dmax).counts()
    failures: list[dict] = []

    for d in range(1, dmax + 1):
        cd = by_degree.get(d, [])
        if len(cd) != dims[d]:
            failures.append(
                {"condition": "i", "degree": d, "detail": f"{len(cd)} candidates vs dim {dims[d]}"}
            )
        elif linalg.rank([nf(monomial_poly(C.field, m), C).terms for m in cd], P.field) != len(cd):
            failures.append(
                {"condition": "i", "degree": d, "detail": "candidates linearly dependent mod ideal"}
            )

    for u in cand:
        if u.is_identity():
            continue
        for v in cand:
            if v.is_identity() or u.target != v.source:
                continue
            if u.degree + v.degree > dmax:
                continue
            uv = u * v
            if uv not in cand_set and P.rightmost_occurrence(uv) is None:
                failures.append(
                    {"condition": "ii", "degree": uv.degree, "detail": f"{uv} neither candidate nor reducible"}
                )

    # (iii): the candidates with an N-letter window that is not one, then
    # the words that are not, grown letter by letter from candidates of N
    # letters while each new window is a candidate.
    def windows_ok(w: Monomial) -> bool:
        return all(quiver.monomial(w.word[k : k + N]) in cand_set for k in range(w.weight - N + 1))

    wrong = [w for w in cand if N <= w.degree <= dmax and w.weight >= N and not windows_ok(w)]
    letters = [quiver.monomial((g,)) for g in quiver.generators]
    grown = [w for w in cand if w.weight == N]
    while grown:
        grown = [w * g for w in grown for g in letters if g.source == w.target and w.degree + g.degree <= dmax]
        grown = [w for w in grown if quiver.monomial(w.word[-N:]) in cand_set]
        wrong += [w for w in grown if w not in cand_set]
    failures += [
        {"condition": "iii", "degree": w.degree, "detail": f"window condition fails on {w}"} for w in sorted(wrong)
    ]

    report = {
        "passed": not failures,
        "dmax": dmax,
        "N": N,
        "failures": failures,
    }
    if build_xi and not failures:
        report["xi"] = _build_xi(P, C, cand, N)
    return report


def _build_xi(P: Polygraph2, C: Polygraph2, cand: list[Monomial], N: int) -> dict:
    """Construct the polygraph with one rule uv => [uv] over the candidate
    basis for each word uv of degree N that is a product of two candidates
    and not one itself (a word of degree N >= 3 has several such
    factorisations), [uv] solved from nf(uv) under C in the normal forms of
    the degree-N candidates, and report its convergence under P's order, if
    any."""
    from . import completion  # local import; completion depends on this module

    field = P.field
    cand_n = [m for m in cand if m.degree == N]
    cand_n_set = set(cand_n)
    forms = [nf(monomial_poly(field, m), C).terms for m in cand_n]
    words = dict.fromkeys(u * v for u in cand for v in cand if u.target == v.source and u.degree + v.degree == N)
    rules = []
    for uv in words:
        if uv in cand_n_set:
            continue
        coeffs = linalg.solve(forms, nf(monomial_poly(field, uv), C).terms, field)
        if coeffs is None:
            continue
        target = P.quiver.poly(field, zip(coeffs, cand_n), uv.source, uv.target)
        rules.append(Rule(f"xi{len(rules)}", uv, target))
    xi = Polygraph2(P.quiver, field, rules, P.order)
    result = {"rules": [str(r) for r in rules], "convergent": None}
    if P.order is not None:
        cert = completion.certify_termination(xi, hint=P.order)
        xi.termination_certificate = cert
        if cert.ok:
            result["convergent"] = completion.is_confluent(xi)
    return result

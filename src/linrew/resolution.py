"""Overlap chains (critical n-fold branchings), generating confluences, and
boundary data for the polygraphic resolution.

A k-chain is a word carrying k-1 properly overlapping redexes: the first
starts at position 0, each next starts strictly inside the previous one, and
the last ends at the right edge of the word.  Dimension 1 cells are the
generators, dimension 2 cells the rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .algebra import Monomial
from .rewriting import (
    NotCertifiedError,
    Polygraph2,
    RewriteError,
    Rule,
    _build_nodes,
    _reduct_terms,
)


@dataclass(frozen=True)
class ChainCell:
    dim: int
    word: Monomial
    redexes: tuple[tuple[str, int], ...]  # (rule name, start index), len == dim - 1

    @property
    def degree(self) -> int:
        return self.word.degree

    def __str__(self):
        marks = ",".join(f"{r}@{s}" for r, s in self.redexes)
        return f"[{self.word}; {marks}]" if marks else f"[{self.word}]"


def _require_usable(P: Polygraph2):
    if not P.left_reduced:
        raise RewriteError("chain enumeration needs a left-reduced system")
    if not P.certified_convergent:
        raise NotCertifiedError("chain enumeration needs a certified-convergent system")


def enumerate_chains(P: Polygraph2, kmax: int, dmax: int) -> list[ChainCell]:
    """All chain cells of dimension <= kmax and internal degree <= dmax.  A
    cell's suffixes that start inside its last redex and are proper prefixes
    of rule sources extend it by the rest of each such source, read from
    the prefixes of P.overlap_index."""
    _require_usable(P)
    cells: list[ChainCell] = []
    if kmax >= 1:
        for g in P.quiver.generators.values():
            if g.degree <= dmax:
                cells.append(
                    ChainCell(1, Monomial((g.name,), g.source, g.target, g.degree), ())
                )
    if kmax >= 2:
        for r in P.rules:
            if r.degree <= dmax:
                cells.append(ChainCell(2, r.source, ((r.name, 0),)))
    rules, (index, _) = P.rules, P.overlap_index
    frontier = [c for c in cells if c.dim == 2]
    k = 3
    while k <= kmax and frontier:
        new = []
        for c in frontier:
            w = c.word
            for q in range(c.redexes[-1][1] + 1, w.weight):
                for idx, rest in index.get(w.word[q:], ()):
                    if w.degree + rest.degree <= dmax:
                        nw = Monomial(w.word + rest.word, w.source, rest.target, w.degree + rest.degree)
                        new.append(ChainCell(k, nw, c.redexes + ((rules[idx].name, q),)))
        cells.extend(new)
        frontier = new
        k += 1
    return cells


def cell_degrees(cells: Iterable[ChainCell], N: Optional[int] = None) -> dict:
    """Count matrix per (dimension, internal degree), with the l_N
    concentration verdict per dimension when N is given."""
    counts: dict[tuple[int, int], int] = {}
    for c in cells:
        key = (c.dim, c.degree)
        counts[key] = counts.get(key, 0) + 1
    out = {"counts": dict(sorted(counts.items()))}
    if N is not None:
        verdict = {}
        for k in sorted({d for d, _ in counts}):
            expected = ell(N, k)
            verdict[k] = all(deg == expected for (d, deg), n in counts.items() if d == k and n)
        out["l_N_concentrated"] = verdict
        out["l_N"] = {k: ell(N, k) for k in sorted({d for d, _ in counts})}
    return out


def ell(N: int, k: int) -> int:
    """Koszul degree pattern: lN for k = 2l, lN + 1 for k = 2l + 1."""
    l, r = divmod(k, 2)
    return l * N + r


# -- the walk of the rightmost rewriting DAG ---------------------------------


def _walk(P: Polygraph2, k: int, items: list, right: Monomial, memo: dict, of: Monomial) -> dict:
    """The column of rho*_k along the rightmost normalisation of the
    (coefficient, monomial) pairs items, each step whiskered on the right by
    `right`: every node of P._nf_cache met whose redex starts at 0 adds
    rho*_k(rule, step's right context . right), scaled by the coefficients
    on its path from items.  A redex with a nontrivial left context adds
    nothing itself (whiskers only grow, so every cell below it vanishes),
    but its reducts are walked.  The missing nodes are built first, naming
    `of` as what is being normalized (see _build_nodes)."""
    cache = P._nf_cache
    _build_nodes(P, items, of)
    return P.field.linear_combination(
        [(c, _walk_node(P, k, cache[m], right, memo)) for c, m in items]
    )


def _walk_node(P: Polygraph2, k: int, node: tuple, right: Monomial, memo: dict) -> dict:
    """_walk from one node, memoised per (k, node, right); nf never evicts
    a node, so its identity names it for the life of P."""
    _, redex, children = node
    if redex is None:
        return {}
    key = (k, id(node), right)
    if key in memo:
        return memo[key]
    one = P.field.one
    pairs = []
    rule, start, rewritten = redex
    if start == 0:  # m: the step's right context, then right
        src = rule.source
        m = Monomial(
            rewritten.word[src.weight :] + right.word,
            src.target,
            right.target,
            rewritten.degree - src.degree + right.degree,
        )
        if k == 3:
            pairs.append((one, _rho_star_rule(P, rule, m, memo)))
        elif m.is_identity():  # rho*_2: a whole-word step is its rule
            pairs.append((one, {rule.name: one}))
    pairs += [(d, _walk_node(P, k, child, right, memo)) for d, child in children]
    col = memo[key] = P.field.linear_combination(pairs)
    return col


def generating_confluence(b: ChainCell, P: Polygraph2, memo: Optional[dict] = None) -> dict:
    """The delta2 column {rule name: coefficient} of a 3-chain: rho*_2 along
    the leg beginning with the leftmost redex minus rho*_2 along rho on the
    overlap word.  The first step's right context is the rest of the word,
    never empty, so that step adds nothing.  P's certificate makes the
    legs meet: they are not normalised again."""
    _require_usable(P)
    if b.dim != 3:
        raise RewriteError("generating confluences are indexed by 3-chains")
    w = b.word
    mid = _reduct_terms(P, P.rule_index[b.redexes[0][0]], w, 0)
    if memo is None:
        memo = {}
    field = P.field
    one = P.quiver.identity(w.target)
    return field.linear_combination([
        (field.one, _walk(P, 2, mid, one, memo, w)),
        (field.neg(field.one), _walk(P, 2, [(field.one, w)], one, memo, w)),
    ])


# -- rho*_3, the normalizing 3-trace recursion --------------------------------


def _rho_star_rule(P: Polygraph2, rule: Rule, mhat: Monomial, memo: dict) -> dict:
    """rho*_3: the 3-cell from (rule . mhat) *1 rho to rho on
    source(rule).mhat, as its column {3-chain key: coefficient} in the
    reduced complex: a generating confluence whiskered by a nontrivial
    context vanishes there.  While mhat is reducible, the rightmost redex of
    source(rule).mhat is that of mhat, disjoint from source(rule): the
    Peiffer exchange of the two steps adds no cell, so rho*_3 is linear
    along the rewriting of mhat and sums rho*_3(rule, n) over the terms n
    of the normal form of mhat.  On an irreducible mhat the rightmost redex
    overlaps source(rule), or is source(rule) itself (the identity
    3-cell)."""
    key = (rule.name, mhat)
    if key in memo:
        return memo[key]
    field = P.field
    cache = P._nf_cache
    _build_nodes(P, [(field.one, mhat)], mhat)
    form, redex, _ = cache[mhat]
    pairs = []
    if redex is not None:
        pairs = [(c, _rho_star_rule(P, rule, n, memo)) for n, c in field.form_terms(form, P._leaves).items()]
    else:
        idx, start = P.rightmost_occurrence(rule.source * mhat)
        if start > 0:
            psi = P.rules[idx]
            e = start + psi.source.weight - rule.source.weight  # the overlap ends in mhat
            assert e > 0, "inclusion overlap on a left-reduced system"
            m2 = P.quiver.monomial(mhat.word[:e])
            m3 = P.quiver.monomial(mhat.word[e:], at=m2.target)
            w = rule.source * m2
            pairs = [
                (field.one, _walk(P, 3, [(field.one, w)], m3, memo, w)),
                (field.neg(field.one), _walk(P, 3, _reduct_terms(P, P.rule_index[rule.name], w, 0), m3, memo, w)),
            ]
            if m3.is_identity():
                pairs.append((field.one, {((rule.name, 0), (psi.name, start)): field.one}))
    col = memo[key] = field.linear_combination(pairs)
    return col


def boundary4(b: ChainCell, P: Polygraph2, memo: Optional[dict] = None) -> dict:
    """The delta3 column {3-chain key: coefficient} of a 4-chain: the
    source composite minus the target composite filling the triple
    branching, by the normalizing 3-trace recursion."""
    _require_usable(P)
    if b.dim != 4:
        raise RewriteError("boundary4 is defined for 4-chains")
    if memo is None:
        memo = {}
    field = P.field
    (r1n, _), (r2n, s2), _ = b.redexes
    idx1 = P.rule_index[r1n]
    rule1 = P.rules[idx1]
    e2 = s2 + P.rules[P.rule_index[r2n]].source.weight
    w2 = P.quiver.monomial(b.word.word[:e2], at=b.word.source)
    mhat = P.quiver.monomial(b.word.word[e2:])
    m2p = P.quiver.monomial(b.word.word[rule1.source.weight :])
    minus = field.neg(field.one)
    return field.linear_combination([
        # Source: the 3-chain (rule1, rule2) whiskered by mhat, which the third
        # redex makes nonempty, so it vanishes; then rho* along rho(w2) . mhat.
        (field.one, _walk(P, 3, [(field.one, w2)], mhat, memo, w2)),
        (minus, _rho_star_rule(P, rule1, m2p, memo)),
        # Target: rule1 at 0 on w2, then rho* along its reduct . mhat.
        (minus, _walk(P, 3, _reduct_terms(P, idx1, w2, 0), mhat, memo, w2)),
    ])

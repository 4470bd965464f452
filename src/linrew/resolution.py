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

from .algebra import Monomial, monomial_poly
from .rewriting import (
    NotCertifiedError,
    Polygraph2,
    RewriteError,
    RewriteStep,
    Rule,
    Trace,
    normal_form,
    rightmost_redex,
)


@dataclass(frozen=True)
class ChainCell:
    dim: int
    word: Monomial
    redexes: tuple[tuple[str, int], ...]  # (rule name, start index), len == dim - 1

    @property
    def degree(self) -> int:
        return self.word.degree

    def parent_key(self) -> tuple:
        """Key of the (dim-1)-chain obtained by dropping the last redex."""
        if self.dim < 3:
            raise RewriteError("no parent below dimension 3")
        *init, (rule, start) = self.redexes
        return tuple(init)

    def __str__(self):
        marks = ",".join(f"{r}@{s}" for r, s in self.redexes)
        return f"[{self.word}; {marks}]" if marks else f"[{self.word}]"


@dataclass(frozen=True)
class Confluence3Cell:
    """The generating confluence filling a critical branching: the two
    rightmost-normalizing traces out of the overlap word."""

    cell: ChainCell
    source_trace: Trace  # leg beginning with the leftmost redex, then rho
    target_trace: Trace  # rho on the overlap word


def _require_usable(P: Polygraph2):
    if not P.left_reduced:
        raise RewriteError("chain enumeration needs a left-reduced system")
    if not P.certified_convergent:
        raise NotCertifiedError("chain enumeration needs a certified-convergent system")


def _rule_by_name(P: Polygraph2, name: str) -> Rule:
    for r in P.rules:
        if r.name == name:
            return r
    raise KeyError(name)


def enumerate_chains(P: Polygraph2, kmax: int, dmax: int) -> list[ChainCell]:
    """All chain cells of dimension <= kmax and internal degree <= dmax."""
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
    frontier = [c for c in cells if c.dim == 2]
    k = 3
    while k <= kmax and frontier:
        new = []
        for c in frontier:
            last_rule, last_start = c.redexes[-1]
            w = c.word
            for q in range(last_start + 1, w.weight):
                suffix = w.word[q:]
                for rule in P.rules:
                    sw = rule.source.word
                    if len(sw) <= len(suffix) or sw[: len(suffix)] != suffix:
                        continue
                    u = sw[len(suffix) :]
                    nw = P.quiver.monomial(w.word + u, at=w.source)
                    if nw.degree > dmax:
                        continue
                    new.append(ChainCell(k, nw, c.redexes + ((rule.name, q),)))
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


def generating_confluence(b: ChainCell, P: Polygraph2) -> Confluence3Cell:
    """The two rightmost-normalizing traces out of a critical branching; the
    source is the leg beginning with the leftmost redex."""
    _require_usable(P)
    if b.dim != 3:
        raise RewriteError("generating confluences are indexed by 3-chains")
    field = P.field
    (r1_name, s1), (r2_name, s2) = b.redexes
    rule1 = _rule_by_name(P, r1_name)
    left1 = P.quiver.identity(b.word.source)
    right1 = (
        P.quiver.monomial(b.word.word[rule1.source.weight :])
        if b.word.weight > rule1.source.weight
        else P.quiver.identity(b.word.target)
    )
    step1 = RewriteStep(field.one, left1, rule1, right1)
    wpoly = monomial_poly(field, b.word)
    mid = step1.apply(wpoly)
    nf1, tail = normal_form(mid, P)
    source_trace = Trace(wpoly, (step1,) + tail.steps, nf1)
    nf2, target_trace = normal_form(wpoly, P)
    if nf1 != nf2:
        raise RewriteError(f"generating confluence legs disagree on {b.word}")
    return Confluence3Cell(b, source_trace, target_trace)


# -- normalizing 3-trace recursion -------------------------------------------


def _chain3_key(rule1: Rule, rule2: Rule, start2: int) -> tuple:
    return ((rule1.name, 0), (rule2.name, start2))


def _add_scaled(col: dict, other: dict, c, field) -> None:
    """col += c * other, dropping entries that cancel."""
    for key, v in other.items():
        nv = field.add(col.get(key, field.zero), field.mul(c, v))
        if field.is_zero(nv):
            col.pop(key, None)
        else:
            col[key] = nv


def _rho_star_rule(P: Polygraph2, rule: Rule, mhat: Monomial, memo: dict) -> dict:
    """The 3-cell from (rule . mhat) *1 rho to rho on source(rule).mhat, as
    its column {3-chain key: coefficient} in the reduced complex: a
    generating confluence whiskered by a nontrivial context vanishes there."""
    key = (rule.name, mhat)
    if key in memo:
        return memo[key]
    field = P.field
    m = rule.source * mhat
    idx, start = rightmost_redex(m, P)
    psi = P.rules[idx]
    col: dict = {}  # start == 0: the step is already the rightmost one, identity 3-cell
    if start >= rule.source.weight:
        # Peiffer: exchange the two disjoint steps; no confluence cell needed.
        u = m.word[rule.source.weight : start]
        v = m.word[start + psi.source.weight :]
        for c, n in psi.target.items():
            nm = P.quiver.monomial(u + n.word + v)
            _add_scaled(col, _rho_star_rule(P, rule, nm, memo), c, field)
    elif start > 0:
        e = start + psi.source.weight
        assert e > rule.source.weight, "inclusion overlap on a left-reduced system"
        m2 = P.quiver.monomial(m.word[rule.source.weight : e])
        m3 = (
            P.quiver.monomial(m.word[e:])
            if e < m.weight
            else P.quiver.identity(m.target)
        )
        w1 = P.quiver.monomial(m.word[:e], at=m.source)
        if m3.is_identity():
            col[_chain3_key(rule, psi, start)] = field.one
        _, tr1 = normal_form(monomial_poly(field, w1), P)
        _add_scaled(col, _rho_star_trace(P, tr1.steps, m3, memo), field.one, field)
        _, trx = normal_form(rule.target * monomial_poly(field, m2), P)
        _add_scaled(col, _rho_star_trace(P, trx.steps, m3, memo), field.neg(field.one), field)
    memo[key] = col
    return col


def _rho_star_trace(
    P: Polygraph2, steps: tuple[RewriteStep, ...], extra_right: Monomial, memo: dict
) -> dict:
    """The column of rho* along a trace, each step whiskered by extra_right.
    A step with a nontrivial left context contributes nothing: whiskers
    only grow, so every cell below it vanishes."""
    field = P.field
    col: dict = {}
    for step in steps:
        if not step.left.is_identity():
            continue
        mr = step.right * extra_right if not extra_right.is_identity() else step.right
        _add_scaled(col, _rho_star_rule(P, step.rule, mr, memo), step.coeff, field)
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
    (r1n, s1), (r2n, s2), (r3n, s3) = b.redexes
    rule1 = _rule_by_name(P, r1n)
    rule2 = _rule_by_name(P, r2n)
    e2 = s2 + rule2.source.weight
    w2 = P.quiver.monomial(b.word.word[:e2], at=b.word.source)
    mhat = P.quiver.monomial(b.word.word[e2:])

    # Source: the 3-chain (rule1, rule2) whiskered by mhat, which the third
    # redex makes nonempty, so it vanishes; then rho* along rho(w2) . mhat.
    _, tr_w2 = normal_form(monomial_poly(field, w2), P)
    col = _rho_star_trace(P, tr_w2.steps, mhat, memo)

    m2p = P.quiver.monomial(b.word.word[rule1.source.weight : e2] + mhat.word)
    _add_scaled(col, _rho_star_rule(P, rule1, m2p, memo), field.neg(field.one), field)
    m2p_only = P.quiver.monomial(b.word.word[rule1.source.weight : e2])
    _, tr_x = normal_form(rule1.target * monomial_poly(field, m2p_only), P)
    _add_scaled(col, _rho_star_trace(P, tr_x.steps, mhat, memo), field.neg(field.one), field)
    return col

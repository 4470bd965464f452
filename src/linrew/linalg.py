"""Exact sparse linear algebra over any field.

A vector is a dict {key: nonzero coefficient}, as Field.linear_combination
takes it: a delta column, a normal form's terms.  rank and solve share one
reduced-echelon builder, and every sum goes through linear_combination.
No input vector is mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Field


@dataclass(frozen=True)
class _Input:  # solve's bookkeeping key for its i-th vector: equal to no other key
    index: int


def _reduce(v: dict, basis: dict, field: Field) -> dict:
    """v less its components on the basis: 0 at every pivot."""
    neg = field.neg
    return field.linear_combination([(field.one, v)] + [(neg(c), basis[p]) for p, c in v.items() if p in basis])


def _echelon(vectors, field: Field) -> dict:
    """{pivot: basis vector} spanning the vectors: each basis vector is 1 at
    its pivot and 0 at every other pivot.  A vector that adds nothing to the
    span of those before it adds no basis vector.  _Input keys are never
    pivots."""
    one, neg = field.one, field.neg
    basis: dict = {}
    for v in filter(None, vectors):
        r = _reduce(v, basis, field)
        p = next((k for k in r if not isinstance(k, _Input)), None)
        if p is None:
            continue
        if r[p] != one:
            r = field.linear_combination([(field.generic_inv(r[p]), r)])
        for q, b in basis.items():
            c = b.get(p)
            if c is not None:
                basis[q] = field.linear_combination([(one, b), (neg(c), r)])
        basis[p] = r
    return basis


def rank(vectors: list, field: Field) -> int:
    return len(_echelon(vectors, field))


def solve(vectors: list, target: dict, field: Field):
    """Coefficients x, one per vector, with sum x_i vectors[i] = target, or
    None if there are none.  A vector that adds nothing to the span of those
    before it gets 0."""
    tags = [_Input(i) for i in range(len(vectors))]
    basis = _echelon([{**v, t: field.one} for v, t in zip(vectors, tags)], field)
    r = _reduce(target, basis, field)
    if any(not isinstance(k, _Input) for k in r):
        return None
    # Each basis vector is sum c_i (vectors[i] + tag_i), so r's tag_i
    # coefficient is -x_i.
    return [field.neg(r[t]) if t in r else field.zero for t in tags]

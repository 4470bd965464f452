"""The dense reference for linrew.linalg: exact linear algebra on dense
rows, lists of field elements over a fixed list of columns.

Rationals go through fraction-free Bareiss elimination on denominator-cleared
integer rows; other fields use plain Gaussian elimination with exact field
arithmetic.  It shares no code with the library's sparse kernel, so the
brute-force oracles of brute_force.py and the property tests of
test_linalg.py check that kernel against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from linrew.scalars import Field, RationalField


def _cleared_int_rows(rows):
    out = []
    for row in rows:
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _rank_bareiss(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            rp = rows[rank]
            f = ri[col]
            for j in range(col, ncols):
                ri[j] = (p * ri[j] - f * rp[j]) // prev
        prev = p
        rank += 1
        col += 1
    return rank


def row_reduce(rows, field: Field):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    if not rows:
        return rows, pivots
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.generic_inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows, field: Field) -> int:
    rows = [r for r in rows if any(not field.is_zero(x) for x in r)]
    if not rows:
        return 0
    if isinstance(field, RationalField):
        return _rank_bareiss(_cleared_int_rows([[Fraction(x) for x in r] for r in rows]))
    _, pivots = row_reduce(rows, field)
    return len(pivots)


def solve_rows(rows, target, field: Field):
    """Coefficients x with sum x_i rows[i] = target, or None if unsolvable."""
    n = len(rows)
    if n == 0:
        return [] if all(field.is_zero(t) for t in target) else None
    ncols = len(target)
    # Augmented system on the transpose: columns are the rows, then target.
    aug = [[rows[i][j] for i in range(n)] + [target[j]] for j in range(ncols)]
    reduced, pivots = row_reduce(aug, field)
    if n in pivots:
        return None
    sol = [field.zero] * n
    for r, col in enumerate(pivots):
        sol[col] = reduced[r][n]
    return sol

"""An independent Tor oracle: dim Tor^A_{k,i}(K, K) from a minimal free
resolution of K, built degree by degree by linear algebra.

A is presented by a convergent, homogeneous, left-reduced rewriting system
on one object whose generators all have degree 1.  The only thing taken from
linrew is the product of A: the normal form (`nf`) of a word, written on the
standard basis.  No overlap chains, no reduced complex and no rho* are used.

F_0 = A and M_0 = A_+.  For each k, F_{k+1} is the free left module on a
minimal set of generators of M_k, and M_{k+1} = ker(F_{k+1} -> F_k).  As A
is generated in degree 1,

    Tor_{k+1,i} = dim (M_k)_i - dim sum_x x.(M_k)_{i-1}.

An element of (F_k)_i is a sparse dict {(g, w): c}: the standard word w of
degree i - deg(g) times the basis element e_g.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from linrew import GF, ParameterField, monomial_poly, nf, standard_basis

PRIME = 2**31 - 1
PARAMETER_VALUE = Fraction(1_000_003)  # each parameter of Q(a, ...) in a pass over GF(p)


def _at(c, value: Fraction) -> Fraction:
    """c, an element of Q or of a parameter field (num/den, polynomials in
    its last parameter over the field of the others), with every parameter
    set to value."""
    if isinstance(c, Fraction):
        return c

    def poly(coefficients):
        return sum((_at(k, value) * value**i for i, k in enumerate(coefficients)), Fraction(0))

    return poly(c.num) / poly(c.den)


class _Echelon:
    """Vectors reduced by their least key: pivot key -> (row, comb), with
    row[pivot] == 1 and every other key of the row larger than the pivot;
    comb is the combination of inserted vectors the row stands for."""

    def __init__(self, F):
        self.F = F
        self.rows: dict = {}

    def reduce(self, v: dict, comb: dict | None = None):
        """v and comb minus the rows that cancel v's least keys in turn:
        (v, comb) with v == {} when v lies in the span, otherwise v's least
        key is not a pivot."""
        F = self.F
        v = dict(v)
        heap = list(v)
        heapify(heap)
        while heap:
            key = heappop(heap)
            c = v.get(key)
            if c is None:
                continue
            if key not in self.rows:
                heappush(heap, key)
                break
            row, rcomb = self.rows[key]
            nc = F.neg(c)
            for k, r in row.items():
                s = F.add(v.get(k, F.zero), F.mul(nc, r))
                if F.is_zero(s):
                    v.pop(k, None)
                elif k not in v:
                    v[k] = s
                    heappush(heap, k)
                else:
                    v[k] = s
            if comb is not None:
                _axpy(F, comb, rcomb, nc)
        return v, comb

    def insert(self, v: dict, comb: dict | None = None) -> bool:
        """Add v to the span; False when it was already there."""
        v, comb = self.reduce(v, comb)
        if not v:
            return False
        pivot = min(v)
        s = self.F.generic_inv(v[pivot])
        self.rows[pivot] = (_scaled(self.F, v, s), _scaled(self.F, comb or {}, s))
        return True


def _axpy(F, y: dict, x: dict, a) -> None:
    """y += a * x, dropping entries that cancel."""
    for k, c in x.items():
        s = F.add(y.get(k, F.zero), F.mul(a, c))
        if F.is_zero(s):
            y.pop(k, None)
        else:
            y[k] = s


def _scaled(F, v: dict, a) -> dict:
    return {k: F.mul(a, c) for k, c in v.items()}


def tor_oracle(P, kmax: int, dmax: int, F=None) -> dict:
    """{(k, i): dim Tor_{k,i}} for 0 <= k <= kmax and 0 <= i <= dmax, over
    F: GF(2^31 - 1) by default, or P.field for an exact count.  Over GF(p),
    the parameters of a parameter field take PARAMETER_VALUE; ranks there
    are at most the generic ones, so a disagreement needs the exact count."""
    F = F or GF(PRIME)
    at = F != P.field and isinstance(P.field, ParameterField)
    Q = P.quiver
    if len(Q.objects) != 1 or any(g.degree != 1 for g in Q.generators.values()):
        raise ValueError("the oracle needs one object and generators of degree 1")
    if not (P.homogeneous and P.left_reduced and P.certified_convergent):
        raise ValueError("the oracle needs a homogeneous, left-reduced convergent system")
    letters = sorted(Q.generators)
    basis = standard_basis(P, dmax).words  # degree -> standard words
    products: dict = {}

    def product(word: tuple) -> dict:
        """The normal form of a word on the standard basis, coerced into F."""
        if word not in products:
            f = nf(monomial_poly(P.field, Q.monomial(word)), P)
            products[word] = {
                m.word: F.coerce(_at(c, PARAMETER_VALUE) if at else c)
                for m, c in f.terms.items()
            }
        return products[word]

    def times(left: tuple, v: dict) -> dict:
        """left . v for a word `left` and an element v of some F_k."""
        out: dict = {}
        for (g, w), c in v.items():
            _axpy(F, out, {(g, u): d for u, d in product(left + w).items()}, c)
        return out

    tor = {(k, i): 0 for k in range(kmax + 1) for i in range(dmax + 1)}
    tor[(0, 0)] = 1
    gens: list = []  # (degree, vector in F_{k-1}) per basis element of F_k
    for k in range(kmax):
        kernel: dict = {0: []}  # degree -> a basis of (M_k)_i
        new_gens: list = []
        for i in range(1, dmax + 1):
            if k == 0:
                kernel[i] = [{(0, w): F.one} for w in basis.get(i, ())]
            else:
                cells = [
                    (g, w) for g, (d, _) in enumerate(gens) for w in basis.get(i - d, ())
                ]
                images = {cell: times(cell[1], gens[cell[0]][1]) for cell in cells}
                ech = _Echelon(F)
                kernel[i] = []
                for cell in sorted(cells, key=lambda c: (len(images[c]), c)):
                    image, comb = ech.reduce(images[cell], {cell: F.one})
                    if image:
                        ech.insert(image, comb)
                    else:
                        kernel[i].append(comb)
            span = _Echelon(F)
            for v in kernel[i - 1]:
                for x in letters:
                    span.insert(times((x,), v))
            for v in kernel[i]:
                if span.insert(v):
                    new_gens.append((i, v))
                    tor[(k + 1, i)] += 1
        gens = new_gens
    return tor

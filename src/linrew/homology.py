"""The K-reduced right-module complex, Tor dimension tables, homotopical
collapses, and Koszulity verdicts.

Cells of dimension k sit in homological degree k (objects at 0, generators
at 1, rules at 2, overlap chains above).  delta[k] maps (k+1)-cells to
k-cells; Tor_k per internal degree is dim ker delta[k-1] - rank delta[k].

For homogeneous rules the complex is graded: every delta entry joins two
cells of one internal degree, so a chain whose degree has no cells one
dimension down gets its empty column without a walk.  Inhomogeneous systems
have every column computed in full, degree-lowering entries included.

delta2 trusts the convergence certificate, bound to the rules it was proved
on, for the meeting of the legs of each generating confluence.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional

from . import linalg
from .rewriting import NotCertifiedError, Polygraph2, RewriteError
from .resolution import (
    ChainCell,
    _require_usable,
    boundary4,
    ell,
    enumerate_chains,
    generating_confluence,
)


class ReducedComplex:
    """Truncated reduced complex: the cells of each dimension k with their
    internal degrees, cells[k] = {cell: degree} in insertion order, and the
    boundary matrices delta[k] : C_{k+1} -> C_k, stored as sparse columns.
    Columns are built fresh from Field.linear_combination results: none
    holds a zero or is shared with the walk memo, as collapse edits them."""

    def __init__(self, field, N: Optional[int]):
        self.field = field
        self.N = N
        self.cells: dict[int, dict] = {}
        self.delta: dict[int, dict] = {}
        self._ranks: dict[tuple[int, int], int] = {}

    def add_cell(self, k: int, cell_id, degree: int):
        self.cells.setdefault(k, {})[cell_id] = degree

    def basis(self, k: int, degree: Optional[int] = None) -> list:
        cells = self.cells.get(k, {})
        if degree is None:
            return list(cells)
        return [c for c, d in cells.items() if d == degree]

    def columns(self, k: int, degree: int) -> list[dict]:
        """delta[k]'s columns on C_{k+1}(degree), each keeping only its
        entries in C_k(degree)."""
        cols, degrees = self.delta.get(k, {}), self.cells.get(k, {})
        return [
            {r: c for r, c in cols.get(cell, {}).items() if degrees.get(r) == degree}
            for cell in self.basis(k + 1, degree)
        ]

    def rank(self, k: int, degree: int) -> int:
        """rank of delta[k] in one internal degree, each matrix ranked once
        until the next collapse."""
        if (k, degree) not in self._ranks:
            self._ranks[(k, degree)] = linalg.rank(self.columns(k, degree), self.field)
        return self._ranks[(k, degree)]

    def kernel_dim(self, k: int, degree: int) -> int:
        """dim ker of delta[k-1] restricted to C_k(degree)."""
        if k == 0:
            return len(self.basis(0, degree))
        return len(self.basis(k, degree)) - self.rank(k - 1, degree)

    def check_dd_zero(self) -> bool:
        """delta[k-1] . delta[k] = 0 for k = 2, 3."""
        combine = self.field.linear_combination
        return not any(
            combine([(c, self.delta.get(k - 1, {}).get(mid, {})) for mid, c in col.items()])
            for k in (2, 3)
            for col in self.delta.get(k, {}).values()
        )

    # -- homotopical reduction ------------------------------------------------

    def collapse(self, k: int, gamma, A):
        """Remove the k-cell gamma and the (k+1)-cell A by the Gaussian
        elimination this collapse induces (homology is unchanged)."""
        f = self.field
        colA = self.delta.get(k, {}).get(A, {})
        mu = colA.get(gamma)
        if mu is None:
            raise RewriteError(
                f"cannot collapse: {gamma} does not appear invertibly in the boundary of {A}"
            )
        mu_inv = f.generic_inv(mu)
        self._ranks.clear()
        cols = self.delta[k]
        del cols[A]
        for other, col in cols.items():
            c = col.get(gamma)
            if c is not None:  # col - (c / mu) colA, which drops gamma
                cols[other] = f.linear_combination(
                    [(f.one, col), (f.neg(f.mul(c, mu_inv)), colA)]
                )
        for col in self.delta.get(k + 1, {}).values():
            col.pop(A, None)
        self.delta.get(k - 1, {}).pop(gamma, None)
        del self.cells[k][gamma]
        del self.cells[k + 1][A]

    def copy(self) -> "ReducedComplex":
        other = ReducedComplex(self.field, self.N)
        other.cells = {k: dict(v) for k, v in self.cells.items()}
        other.delta = {k: {c: dict(col) for c, col in cols.items()} for k, cols in self.delta.items()}
        return other


def collapse_saturate(complexdata: ReducedComplex) -> ReducedComplex:
    """Greedy matrix-level collapse until no pair remains (deterministic)."""
    cx = complexdata.copy()
    changed = True
    while changed:
        changed = False
        for k in (3, 2, 1):
            for A in list(cx.delta.get(k, {})):
                col = cx.delta[k].get(A)
                if not col:
                    continue
                cx.collapse(k, min(col, key=str), A)
                changed = True
                break
            if changed:
                break
    return cx


def _require_augmented(P: Polygraph2) -> None:
    """Refuse a system whose algebra has no augmentation, where K is no
    module and the reduced complex is not claimed: a rule target with a
    constant term."""
    for r in P.rules:
        if any(m.is_identity() for m in r.target.terms):
            raise NotCertifiedError(
                f"Tor needs an augmented algebra, but the target of rule {r.name} has a constant term"
            )


def build_complex(P: Polygraph2, cells: Iterable[ChainCell]) -> ReducedComplex:
    """Assemble the reduced complex: delta[2] and delta[3] from one walk of
    the rightmost rewriting DAG, sharing one memo.  On a homogeneous system
    the column of a (k+1)-chain is walked only when C_k has cells of the
    chain's degree, and is empty otherwise; an inhomogeneous system has
    every column walked.  P's certificate, bound to its rules, makes the
    legs of every 3-chain's generating confluence meet, walked or not.
    Refuses a system whose algebra has no augmentation."""
    _require_usable(P)
    _require_augmented(P)
    field = P.field
    N = P.homogeneity_degree if P.homogeneous else None
    cx = ReducedComplex(field, N)
    for obj in P.quiver.objects:
        cx.add_cell(0, obj, 0)
    cells = list(cells)
    for c in cells:
        if c.dim == 1:
            cx.add_cell(1, c.word.word[0], c.degree)
        elif c.dim == 2:
            cx.add_cell(2, c.redexes[0][0], c.degree)
        elif c.dim >= 3:
            cx.add_cell(c.dim, c.redexes, c.degree)

    cx.delta[0] = {g: {} for g in cx.cells.get(1, {})}
    # delta[1]: the weight-1 terms of each rule's relation source - target.
    cx.delta[1] = {
        name: {m.word[0]: c for m, c in P.rules[P.rule_index[name]].relation().terms.items() if m.weight == 1}
        for name in cx.cells.get(2, {})
    }

    # Homogeneous rules keep every word of a chain's rewriting DAG in the
    # chain's degree, and so every cell its walk adds.
    graded = {(k, d) for k, cs in cx.cells.items() for d in cs.values()} if P.homogeneous else None
    memo: dict = {}
    cx.delta[2] = {}
    cx.delta[3] = {}
    for c in cells:
        if c.dim not in (3, 4):
            continue
        if graded is not None and (c.dim - 1, c.degree) not in graded:
            col = {}
        elif c.dim == 3:
            col = generating_confluence(c, P, memo)
        else:
            col = boundary4(c, P, memo)
        cx.delta[c.dim - 1][c.redexes] = col
    return cx


@dataclass
class TorTable:
    """Entries (k, internal degree) -> exact dim or interval, with
    provenance ('exact' | 'interval' | 'bound' | 'hard-zero')."""

    kmax: int
    dmax: int
    entries: dict = dc_field(default_factory=dict)

    def set(self, k: int, i: int, **entry):
        self.entries[(k, i)] = entry

    def get(self, k: int, i: int):
        return self.entries.get((k, i))

    def exact_dim(self, k: int, i: int) -> Optional[int]:
        e = self.entries.get((k, i))
        if e is None:
            return 0
        if e["kind"] in ("exact", "hard-zero"):
            return e["dim"]
        return None

    def as_dict(self) -> dict:
        return {f"{k},{i}": e for (k, i), e in sorted(self.entries.items())}


def _chains_for_table(P: Polygraph2, kmax: int, dmax: int):
    """Chains one dimension deeper than kmax up to the 5-chains that bound
    Tor_4, and to kmax beyond, where the counts bound Tor_k."""
    return enumerate_chains(P, max(min(kmax + 1, 5), kmax), dmax)


def tor_table(P: Polygraph2, kmax: int, dmax: int, cells=None, cx: Optional[ReducedComplex] = None) -> TorTable:
    """Exact Tor dimensions for homological degree <= 3, intervals at 4,
    counts-only bounds beyond; hard zeros below the Koszul degree pattern.
    Refuses a system whose algebra has no augmentation (see
    _require_augmented)."""
    _require_augmented(P)
    if cells is None:
        cells = _chains_for_table(P, kmax, dmax)
    if cx is None:
        cx = build_complex(P, cells)
    table = TorTable(kmax, dmax)
    N = cx.N
    count5: dict[int, int] = {}
    for c in cells:
        if c.dim == 5:
            count5[c.degree] = count5.get(c.degree, 0) + 1
    for k in range(0, kmax + 1):
        for i in range(0, dmax + 1):
            if N is not None and i < ell(N, k):
                table.set(k, i, kind="hard-zero", dim=0)
                continue
            if k <= 3:
                dim = cx.kernel_dim(k, i) - cx.rank(k, i)
                table.set(k, i, kind="exact", dim=dim)
            elif k == 4:
                hi = cx.kernel_dim(4, i)
                lo = max(0, hi - count5.get(i, 0))
                if lo == hi:
                    table.set(k, i, kind="exact", dim=hi)
                else:
                    table.set(k, i, kind="interval", lo=lo, hi=hi)
            else:
                cnt = len(cx.basis(k, i))
                if cnt == 0:
                    table.set(k, i, kind="exact", dim=0)
                else:
                    table.set(k, i, kind="bound", lo=0, hi=cnt)
    return table


@dataclass
class KoszulVerdict:
    status: str  # 'Koszul-certified' | 'Not-Koszul' | 'Koszul-up-to-bound'
    reason: Optional[str] = None
    witness: Optional[tuple[int, int]] = None
    kmax: int = 0
    dmax: int = 0
    notes: str = ""
    survivors: Optional[dict] = None
    tor: Optional[TorTable] = None

    def as_dict(self) -> dict:
        out = {
            "status": self.status,
            "reason": self.reason,
            "witness": list(self.witness) if self.witness else None,
            "kmax": self.kmax,
            "dmax": self.dmax,
            "notes": self.notes,
        }
        if self.survivors is not None:
            out["survivors"] = {str(k): [str(c) for c in v] for k, v in self.survivors.items()}
        if self.tor is not None:
            out["tor"] = self.tor.as_dict()
        return out


def _listed(degrees) -> str:
    return ", ".join(map(str, degrees[:-1])) + f" and {degrees[-1]}"


def _not_n_homogeneous(why: str) -> RewriteError:
    return RewriteError(f"Koszulity verdict needs an N-homogeneous algebra, but {why}")


def koszul_verdict(P: Polygraph2, kmax: int = 4, dmax: int = 6) -> KoszulVerdict:
    """Decision cascade: no criticals; quadratic convergent; concentrated
    after collapse; nonzero off-diagonal Tor; otherwise up-to-bound.
    Refuses with RewriteError an algebra that is not N-homogeneous: rules of
    several degrees and no critical branching, or exact Tor_2 (the minimal
    relations) nonzero in several internal degrees."""
    if not P.homogeneous or P.homogeneity_degree is None:
        raise RewriteError("Koszulity verdict needs an N-homogeneous system")
    if not P.certified_convergent:
        raise RewriteError("Koszulity verdict needs a certified-convergent system")
    N = P.homogeneity_degree
    if P.convergence_certificate["criticals_checked"] == 0:
        degrees = sorted({r.degree for r in P.rules})
        if len(degrees) > 1:
            raise _not_n_homogeneous(f"its rules have degrees {_listed(degrees)}")
        return KoszulVerdict(
            "Koszul-certified", "no-critical-branchings", kmax=kmax, dmax=dmax,
            notes=f"convergent with empty critical branching set; N={N}",
        )
    if all(r.degree == N == 2 for r in P.rules):
        return KoszulVerdict(
            "Koszul-certified", "quadratic-convergent", kmax=kmax, dmax=dmax,
            notes="quadratic convergent presentation",
        )
    cells = _chains_for_table(P, kmax, dmax)
    cx = build_complex(P, cells)
    collapsed = collapse_saturate(cx)
    # Boundary maps are exact only through delta[3], so collapse evidence is
    # conclusive for dimensions 2 and 3; higher cells are outside the window.
    survivors = {k: collapsed.basis(k) for k in (2, 3) if k in collapsed.cells}
    concentrated = all(
        collapsed.cells[k][c] == ell(N, k) for k, cs in survivors.items() for c in cs
    )
    table = tor_table(P, kmax, dmax, cells=cells, cx=cx)
    # Tor_2 counts the minimal relations by degree: rules of several degrees
    # present an N-homogeneous algebra when all but those of one degree are
    # redundant.
    relation_degrees = [i for (k, i), e in sorted(table.entries.items())
                        if k == 2 and e["kind"] == "exact" and e["dim"] > 0]
    if len(relation_degrees) > 1:
        raise _not_n_homogeneous(
            f"its minimal relations lie in degrees {_listed(relation_degrees)} "
            f"(Tor_2 is nonzero in each)"
        )
    for (k, i), e in sorted(table.entries.items()):
        if i == ell(N, k):
            continue
        nonzero = (e["kind"] == "exact" and e["dim"] > 0) or (
            e["kind"] == "interval" and e["lo"] > 0
        )
        if nonzero:
            return KoszulVerdict(
                "Not-Koszul", "nonzero-off-diagonal-tor", witness=(k, i),
                kmax=kmax, dmax=dmax,
                notes=f"Tor_{k},({i}) is nonzero but l_{N}({k}) = {ell(N, k)}",
                survivors=survivors,
                tor=table,
            )
    # A window below (3, l_N(3)) holds no relation among the relations.
    sees_relations = kmax >= 3 and dmax >= ell(N, 3)
    if concentrated and sees_relations:
        return KoszulVerdict(
            "Koszul-certified", "concentrated-after-collapse", kmax=kmax, dmax=dmax,
            notes=(
                f"collapse saturation leaves only l_{N}-concentrated cells; "
                f"certificate is scoped to the truncation (kmax={kmax}, dmax={dmax})"
            ),
            survivors=survivors,
            tor=table,
        )
    return KoszulVerdict(
        "Koszul-up-to-bound", None, kmax=kmax, dmax=dmax,
        notes=(
            "no off-diagonal Tor detected within the truncation"
            if sees_relations
            else f"window (kmax={kmax}, dmax={dmax}) is too small to certify: "
            f"that needs kmax >= 3 and dmax >= l_{N}(3) = {ell(N, 3)}"
        ),
        survivors=survivors,
        tor=table,
    )

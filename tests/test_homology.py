from collections import Counter
from fractions import Fraction

import pytest

from linrew import (
    GF,
    MonomialOrder,
    Polygraph2,
    QQ,
    Quiver,
    ReducedComplex,
    RewriteError,
    Rule,
    build_complex,
    collapse_saturate,
    complete,
    enumerate_chains,
    koszul_verdict,
    tor_table,
)
from linrew import completion, homology, linalg
from linrew.resolution import _walk

from conftest import make_poly


@pytest.fixture
def pp_done(sys_pp):
    return complete(sys_pp, sys_pp.order)


@pytest.fixture
def xy_done(sys_xy):
    return complete(sys_xy, sys_xy.order)


def tor_dims(table):
    return {
        (k, i): e["dim"]
        for (k, i), e in table.entries.items()
        if e["kind"] in ("exact", "hard-zero") and e["dim"]
    }


def test_rho2_walk_whole_word_only(pp_done):
    Q = pp_done.quiver
    one = Q.identity("*")
    yz, xyz = Q.monomial(tuple("yz")), Q.monomial(tuple("xyz"))
    assert _walk(pp_done, 2, [(QQ.one, yz)], one, {}, yz) == {"alpha": Fraction(1)}
    # Whiskered steps vanish under the augmentation.
    assert _walk(pp_done, 2, [(QQ.one, xyz)], one, {}, xyz) == {}
    assert _walk(pp_done, 2, [(QQ.one, yz)], Q.monomial(("x",)), {}, yz) == {}


def test_complex_shape(pp_done):
    cells = enumerate_chains(pp_done, 5, 6)
    cx = build_complex(pp_done, cells)
    assert [len(cx.basis(k)) for k in range(5)] == [1, 3, 4, 4, 4]
    assert cx.check_dd_zero()


def test_delta2_values(pp_done):
    cells = enumerate_chains(pp_done, 4, 6)
    cx = build_complex(pp_done, cells)
    by_word = {
        "".join(c.word.word): cx.delta[2][c.redexes]
        for c in cells
        if c.dim == 3
    }
    names = {r.name: r for r in pp_done.rules}
    gamma = next(n for n, r in names.items() if str(r.source) == "y x^2")
    delta = next(n for n, r in names.items() if str(r.source) == "z x^2")
    # With b = -1/a = -1/2: the yzy confluence hits gamma with -b, the zyz
    # confluence hits delta with 1; whiskered occurrences all cancel.
    assert by_word["yzy"] == {gamma: Fraction(1, 2)}
    assert by_word["zyz"] == {delta: Fraction(1)}
    assert by_word["yzxx"] == {}
    assert by_word["zyxx"] == {}


def test_tor_table_pp(pp_done):
    table = tor_table(pp_done, 3, 6)
    assert tor_dims(table) == {(0, 0): 1, (1, 1): 3, (2, 2): 2}
    assert table.exact_dim(2, 3) == 0
    assert table.exact_dim(3, 3) == 0
    assert table.exact_dim(3, 4) == 0


def test_tor_table_xy(xy_done):
    table = tor_table(xy_done, 3, 6)
    dims = tor_dims(table)
    assert dims[(3, 4)] == 1
    assert dims[(2, 2)] == 2


def test_tor_table_bounds_high_dimensions(xy_done):
    """Beyond k = 5 the table enumerates chains to kmax: an entry with
    k-chains is bounded by their count, never reported as an exact 0."""
    table = tor_table(xy_done, 7, 10)
    chains = Counter((c.dim, c.degree) for c in enumerate_chains(xy_done, 7, 10))
    assert table.get(6, 9) == {"kind": "bound", "lo": 0, "hi": 1}
    assert table.get(7, 10) == {"kind": "bound", "lo": 0, "hi": 5}
    for (k, i), e in table.entries.items():
        if k >= 6 and chains[(k, i)]:
            assert e == {"kind": "bound", "lo": 0, "hi": chains[(k, i)]}, (k, i)


def test_tor_table_ranks_each_matrix_once(pp_done, monkeypatch):
    built, ranked = [], []
    columns, rank = ReducedComplex.columns, linalg.rank

    def counting_columns(self, k, degree):
        built.append((k, degree))
        return columns(self, k, degree)

    def counting_rank(vectors, field):
        ranked.append(len(vectors))
        return rank(vectors, field)

    monkeypatch.setattr(ReducedComplex, "columns", counting_columns)
    monkeypatch.setattr(linalg, "rank", counting_rank)
    tor_table(pp_done, 4, 6)
    assert built and len(ranked) == len(built) == len(set(built))


def test_hard_zeros_flagged(pp_done):
    table = tor_table(pp_done, 3, 6)
    assert table.get(2, 1)["kind"] == "hard-zero"
    assert table.get(3, 2)["kind"] == "hard-zero"


def over(P, F):
    """P with its rule targets' coefficients carried into the field F."""
    Q = P.quiver
    rules = [
        Rule(
            r.name,
            r.source,
            Q.poly(
                F,
                [(F.coerce(c), m) for m, c in r.target.terms.items()],
                source=r.target.source,
                target=r.target.target,
            ),
        )
        for r in P.rules
    ]
    return Polygraph2(Q, F, rules, P.order)


def test_tor_agrees_mod_p(sys_pp):
    Pm = over(sys_pp, GF(32003))
    done_q = complete(sys_pp, sys_pp.order)
    done_p = complete(Pm, Pm.order)
    tq = tor_table(done_q, 3, 5)
    tp = tor_table(done_p, 3, 5)
    for k in range(4):
        for i in range(6):
            assert tq.exact_dim(k, i) == tp.exact_dim(k, i)


@pytest.mark.parametrize("F", [QQ, GF(32003)], ids=["Q", "GF32003"])
def test_collapse_preserves_tor(sys_pp, F):
    P = over(sys_pp, F)
    done = complete(P, P.order)
    cx = build_complex(done, enumerate_chains(done, 5, 6))
    collapsed = collapse_saturate(cx)
    assert collapsed.check_dd_zero()
    for k in range(3):
        for i in range(7):
            before = cx.kernel_dim(k, i) - cx.rank(k, i)
            after = collapsed.kernel_dim(k, i) - collapsed.rank(k, i)
            assert before == after, (k, i)


def test_collapse_pair_hypothesis(pp_done):
    cells = enumerate_chains(pp_done, 4, 6)
    cx = build_complex(pp_done, cells)
    cell4 = next(c for c in cells if c.dim == 4 and c.degree == 4)
    col = cx.delta[3][cell4.redexes]
    gamma = next(iter(col))
    out = cx.copy()
    out.collapse(3, gamma, cell4.redexes)
    assert gamma not in out.basis(3)
    assert cell4.redexes not in out.basis(4)
    # A 3-cell absent from the boundary cannot be collapsed against it.
    other = next(k for c in cells if c.dim == 3 and (k := c.redexes) not in col)
    with pytest.raises(RewriteError):
        cx.copy().collapse(3, other, cell4.redexes)


def test_koszul_verdicts(sys_xyz, pp_done, xy_done):
    v1 = koszul_verdict(sys_xyz, 4, 6)
    assert v1.status == "Koszul-certified"
    assert v1.reason == "no-critical-branchings"

    v2 = koszul_verdict(pp_done, 4, 6)
    assert v2.status == "Koszul-certified"
    assert v2.reason == "concentrated-after-collapse"
    assert v2.survivors == {2: ["alpha", "beta"], 3: []}

    v3 = koszul_verdict(xy_done, 4, 6)
    assert v3.status == "Not-Koszul"
    assert v3.witness == (3, 4)


def test_koszul_reads_the_certificate_count(pp_done, monkeypatch):
    """koszul_verdict takes the number of critical branchings from the
    convergence certificate and enumerates none itself."""
    calls = []
    for module in (completion, homology):
        monkeypatch.setattr(module, "enumerate_critical_branchings",
                            lambda P: calls.append(P) or [], raising=False)
    assert pp_done.convergence_certificate["criticals_checked"] > 0
    assert koszul_verdict(pp_done, 4, 6).reason == "concentrated-after-collapse"
    assert calls == []


def test_koszul_requires_homogeneous():
    Q = Quiver.free("xy")
    order = MonomialOrder("deglex", "xy")
    rule = Rule("r", Q.monomial(("x", "y")), make_poly(Q, QQ, [(1, "x")]))
    P = Polygraph2(Q, QQ, [rule], order)
    with pytest.raises(RewriteError):
        koszul_verdict(P, 4, 6)


def test_quadratic_convergent_shortcut():
    # x^2 -> 0 (dual numbers) is quadratic and convergent with one critical
    # branching on x^3.
    Q = Quiver.free("x")
    order = MonomialOrder("deglex", "x")
    rule = Rule("s", Q.monomial(("x", "x")), Q.zero(QQ))
    P = complete(Polygraph2(Q, QQ, [rule], order), order)
    v = koszul_verdict(P, 4, 6)
    assert v.status == "Koszul-certified"
    assert v.reason == "quadratic-convergent"

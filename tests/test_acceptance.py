"""Acceptance suite: the six gate criteria, exact equality throughout."""

import random
from fractions import Fraction

from linrew import (
    GF,
    MonomialOrder,
    Polygraph2,
    QQ,
    Quiver,
    Rule,
    build_complex,
    certify_termination,
    check_confluence,
    collapse_saturate,
    complete,
    enumerate_chains,
    enumerate_critical_branchings,
    koszul_verdict,
    nf,
    standard_basis,
    tor_table,
)
from linrew import monomial_poly

from brute_force import ideal_spanning, words_up_to
from conftest import corpus_seed, make_poly


def tor_dims(table):
    return {
        (k, i): e["dim"]
        for (k, i), e in table.entries.items()
        if e["kind"] in ("exact", "hard-zero")
    }


# -- A1: xyz -> x^3 + y^3 + z^3 ----------------------------------------------


def test_a1_sys_xyz(sys_xyz):
    cert = sys_xyz.termination_certificate
    assert cert.ok and cert.kind == "pattern-measure"
    assert enumerate_critical_branchings(sys_xyz) == []
    assert sys_xyz.certified_convergent

    verdict = koszul_verdict(sys_xyz, 4, 6)
    assert verdict.status == "Koszul-certified"

    table = tor_table(sys_xyz, 3, 6)
    dims = tor_dims(table)
    expected = {(0, 0): 1, (1, 1): 3, (2, 3): 1}
    for key, dim in expected.items():
        assert dims[key] == dim
    for key, dim in dims.items():
        if key not in expected:
            assert dim == 0, key


# -- A2: yz -> -x^2, zy -> -(1/a) x^2 with a = 2 ------------------------------


def test_a2_sys_pp(sys_pp):
    done = complete(sys_pp, sys_pp.order)
    added = {
        str(r.source): r.target for r in done.rules if r.name not in ("alpha", "beta")
    }
    assert set(added) == {"y x^2", "z x^2"}
    assert added["y x^2"] == make_poly(done.quiver, QQ, [(2, "xxy")])
    assert added["z x^2"] == make_poly(done.quiver, QQ, [(Fraction(1, 2), "xxz")])

    criticals = enumerate_critical_branchings(done)
    assert len(criticals) == 4
    report = check_confluence(done)
    assert report["convergent"] and all(e["joinable"] for e in report["entries"])

    cells = enumerate_chains(done, 4, 6)
    quads = sorted("".join(c.word.word) for c in cells if c.dim == 4)
    assert quads == ["yzyxx", "yzyz", "zyzxx", "zyzy"]

    table = tor_table(done, 3, 6)
    dims = tor_dims(table)
    assert dims[(2, 2)] == 2
    assert dims[(2, 3)] == 0
    assert dims[(3, 3)] == 0
    assert dims[(3, 4)] == 0

    verdict = koszul_verdict(done, 4, 6)
    assert verdict.status == "Koszul-certified"
    assert verdict.survivors == {2: ["alpha", "beta"], 3: []}


# -- A3: xy -> x^2, y^2 -> x^2 ------------------------------------------------


def test_a3_sys_xy(sys_xy):
    done = complete(sys_xy, sys_xy.order)
    added = [r for r in done.rules if r.name not in ("a", "b")]
    assert len(added) == 1
    assert str(added[0].source) == "y x^2"
    assert added[0].target == make_poly(done.quiver, QQ, [(1, "xxx")])

    criticals = sorted(str(b.word) for b in enumerate_critical_branchings(done))
    assert criticals == ["x y x^2", "x y^2", "y x^2 y", "y^2 x^2", "y^3"]

    cells = enumerate_chains(done, 4, 5)
    triples = sorted("".join(c.word.word) for c in cells if c.dim == 4)
    assert triples == [
        "xyxxy",
        "xyyxx",
        "xyyy",
        "yxxyy",
        "yyxxy",
        "yyyxx",
        "yyyy",
    ]
    threes_deg4 = [c for c in cells if c.dim == 3 and c.degree == 4]
    fours_deg4 = [c for c in cells if c.dim == 4 and c.degree == 4]
    assert (len(threes_deg4), len(fours_deg4)) == (3, 2)

    verdict = koszul_verdict(done, 4, 6)
    assert verdict.status == "Not-Koszul"
    assert verdict.witness == (3, 4)
    assert tor_dims(tor_table(done, 3, 6))[(3, 4)] >= 1


# -- A4: xy -> x^2 and its reversal ------------------------------------------


def test_a4_standard_basis_and_reversal():
    Q = Quiver.free("xy")
    order = MonomialOrder("deglex", "xy")
    rule = Rule("a", Q.monomial(("x", "y")), make_poly(Q, QQ, [(1, "xx")]))
    P = Polygraph2(Q, QQ, [rule], order)
    P.termination_certificate = certify_termination(P, order)
    assert check_confluence(P)["convergent"]

    basis = standard_basis(P, 8)
    for d in range(9):
        monomials = set(basis.by_degree[d])
        expected = {Q.monomial(tuple("y" * i + "x" * (d - i))) for i in range(d + 1)}
        assert monomials == expected
        assert len(monomials) == d + 1

    reversed_order = MonomialOrder("deglex", "yx")
    rev = Rule("r", Q.monomial(("x", "x")), make_poly(Q, QQ, [(1, "xy")]))
    R = Polygraph2(Q, QQ, [rev], reversed_order)
    R.termination_certificate = certify_termination(R, reversed_order)
    report = check_confluence(R)
    assert not report["convergent"]
    witness = [e for e in report["entries"] if not e["joinable"]]
    assert witness and witness[0]["word"] == "x^3"


# -- A5: two-element Groebner basis -------------------------------------------


def test_a5_groebner_fixture(sys_xyz):
    Q = sys_xyz.quiver
    order = MonomialOrder("deglex", "xyz")
    r1 = Rule(
        "r1",
        Q.monomial(tuple("zzz")),
        make_poly(Q, QQ, [(1, "xyz"), (-1, "xxx"), (-1, "yyy")]),
    )
    r2 = Rule(
        "r2",
        Q.monomial(tuple("zyyy")),
        make_poly(
            Q,
            QQ,
            [(1, "zxyz"), (-1, "zxxx"), (-1, "xyzz"), (1, "xxxz"), (1, "yyyz")],
        ),
    )
    P = Polygraph2(Q, QQ, [r1, r2], order)
    P.termination_certificate = certify_termination(P, order)
    report = check_confluence(P)
    assert report["convergent"]
    assert all(e["joinable"] for e in report["entries"])
    assert sorted(e["word"] for e in report["entries"]) == ["z^3 y^3", "z^4", "z^5"]

    assert standard_basis(P, 6).counts() == standard_basis(sys_xyz, 6).counts()


# -- A6: randomized property corpus ------------------------------------------


LETTERS = "xyz"


def random_system(rng: random.Random):
    n_gens = rng.randint(1, 3)
    gens = LETTERS[:n_gens]
    quiver = Quiver.free(gens)
    order = MonomialOrder("deglex", gens)
    n_rules = rng.randint(1, 4)
    rules = []
    sources_seen = set()
    for i in range(n_rules):
        for _ in range(30):
            src_word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))
            if src_word not in sources_seen:
                break
        else:
            continue
        sources_seen.add(src_word)
        source = quiver.monomial(src_word)
        src_key = order.key(source)
        terms = []
        for _ in range(rng.randint(0, 2)):
            for _ in range(20):
                w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
                m = quiver.monomial(w) if w else quiver.identity("*")
                if order.key(m) < src_key:
                    c = rng.choice([-2, -1, 1, 2])
                    terms.append((Fraction(c), m))
                    break
        target = quiver.poly(QQ, terms)
        rules.append(Rule(f"r{i}", source, target))
    P = Polygraph2(quiver, QQ, rules, order)
    P.termination_certificate = certify_termination(P, order)
    assert P.termination_certificate.ok
    return P


def local_branchings_joinable(P, max_len=6):
    """Joinability of every local branching on words up to max_len: all
    one-step reducts of a word must share one normal form."""
    for w in words_up_to(P.quiver, max_len):
        if w.is_identity():
            continue
        occ = P.occurrences(w)
        if len(occ) < 2:
            continue
        results = set()
        for idx, start in occ:
            left, right = P.contexts(w, P.rules[idx], start)
            reduct = P.rules[idx].target.whisker(left, right)
            results.add(nf(reduct, P))
            if len(results) > 1:
                return False
    return True


def _sparse_reduce(row, pivots):
    row = dict(row)
    while row:
        col = min(row)
        piv = pivots.get(col)
        if piv is None:
            return col, row
        factor = row[col]
        for c, v in piv.items():
            nv = row.get(c, QQ.zero) - factor * v
            if nv == 0:
                row.pop(c, None)
            else:
                row[c] = nv
    return None, row


def brute_force_member(f, P, dmax=5):
    """Independent oracle: sparse Gaussian elimination over the context
    embeddings of the relations on words of degree <= dmax."""
    rows, index = ideal_spanning(P, dmax)
    if any(m not in index for m in f.terms):
        return None
    pivots = {}
    for row in rows:
        sparse = {j: c for j, c in enumerate(row) if c != 0}
        col, reduced = _sparse_reduce(sparse, pivots)
        if col is not None:
            lead = reduced[col]
            pivots[col] = {c: v / lead for c, v in reduced.items()}
    vec = {index[m]: c for m, c in f.terms.items() if c != 0}
    col, reduced = _sparse_reduce(vec, pivots)
    return col is None


def to_gf(P, F):
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
    R = Polygraph2(Q, F, rules, P.order)
    R.termination_certificate = certify_termination(R, R.order)
    return R


def euler_degrees(P, dmax=4):
    """Check sum_k (-1)^k dim Tor_{k,i} = [t^i] 1/H_A(t) for i <= dmax (one
    object, generators of degree >= 1, so Tor_{k,i} = 0 for k > i) at every
    degree whose Tor_{k,i}, k <= i, are all exact; return those degrees.
    tor_table enumerates its own chains, one dimension deeper than it
    reports, so an interval at k = 4 is not taken for an exact entry."""
    table = tor_table(P, dmax, dmax)
    h = standard_basis(P, dmax).counts()
    assert h[0] == 1
    inverse = [1]  # coefficients of 1/H_A(t)
    for n in range(1, dmax + 1):
        inverse.append(-sum(h[j] * inverse[n - j] for j in range(1, n + 1)))
    checked = []
    for i in range(dmax + 1):
        dims = [table.exact_dim(k, i) for k in range(i + 1)]
        if None in dims:
            continue
        euler = sum((-1) ** k * d for k, d in enumerate(dims))
        assert euler == inverse[i], f"degree {i}: Tor {dims}, 1/H_A {inverse}"
        checked.append(i)
    return checked


def test_a6_property_corpus():
    rng = random.Random(corpus_seed())
    F = GF(32003)
    n_systems = 200
    n_convergent = 0
    n_complexes = 0
    n_euler4 = 0  # degree-4 identities read delta3
    for trial in range(n_systems):
        P = random_system(rng)

        # Newman / critical-pair agreement.
        report = check_confluence(P)
        criticals_ok = report["convergent"]
        assert criticals_ok == local_branchings_joinable(P), (
            f"trial {trial}: Newman disagreement on "
            f"{[str(r) for r in P.rules]}"
        )
        if not criticals_ok:
            continue
        n_convergent += 1

        # Ideal membership (nf is 0 on the certified system) against
        # brute-force linear algebra.
        rel = rng.choice(P.rules).relation()
        ctx = P.quiver.monomial(
            tuple(rng.choice(sorted(P.quiver.generators)) for _ in range(rng.randint(0, 1)))
        )
        member = rel.whisker(ctx if not ctx.is_identity() else None, None)
        probe = member
        if rng.random() < 0.5 and not member.is_zero():
            probe = member + monomial_poly(QQ, next(iter(member.terms)))
        expected = brute_force_member(probe, P)
        if expected is not None:
            assert P.certified_convergent
            assert nf(probe, P).is_zero() == expected, f"trial {trial}"

        # Complex checks need a left-reduced convergent system.
        if not P.left_reduced or not P.homogeneous:
            continue
        cells = enumerate_chains(P, 4, 4)
        cx = build_complex(P, cells)
        n_complexes += 1
        assert cx.check_dd_zero(), f"trial {trial}: d^2 != 0"

        # Tor over Q agrees with Tor over GF(32003).
        Pm = to_gf(P, F)
        rep_m = check_confluence(Pm)
        assert rep_m["convergent"], f"trial {trial}: convergence not stable mod p"
        tq = tor_table(P, 2, 4, cells=cells, cx=cx)
        tp = tor_table(Pm, 2, 4)
        assert tor_dims(tq) == tor_dims(tp), f"trial {trial}"

        # Collapse invariance of homology.
        collapsed = collapse_saturate(cx)
        for k in range(3):
            for i in range(5):
                before = cx.kernel_dim(k, i) - cx.rank(k, i)
                after = collapsed.kernel_dim(k, i) - collapsed.rank(k, i)
                assert before == after, f"trial {trial}: Tor_{k},({i}) changed"

        # Euler characteristic against the Hilbert series.
        n_euler4 += 4 in euler_degrees(P)

    # The corpus must actually exercise the deep checks.
    assert n_convergent >= 20
    assert n_complexes >= 10
    assert n_euler4 > 0


def test_a6_euler_characteristic_fixtures(sys_pp, sys_xy):
    Q = Quiver.free("xyz")
    cubic = Polygraph2(Q, QQ, [
        Rule("p", Q.monomial(tuple("zzz")), make_poly(Q, QQ, [(1, "xyz"), (1, "yyx")])),
        Rule("q", Q.monomial(tuple("zzy")), make_poly(Q, QQ, [(1, "xxy")])),
    ], MonomialOrder("deglex", "xyz"))
    for P in (sys_pp, sys_xy):
        assert euler_degrees(complete(P, P.order)) == [0, 1, 2, 3, 4]
    # Degree 5 of the cubic system is the first that reads a nonzero delta3.
    assert euler_degrees(complete(cubic, cubic.order), 6) == [0, 1, 2, 3, 4, 5]

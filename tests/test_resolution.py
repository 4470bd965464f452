import hashlib
import random
from fractions import Fraction

import pytest

from linrew import (
    QQ,
    NotCertifiedError,
    RewriteError,
    boundary4,
    build_complex,
    cell_degrees,
    certify_termination,
    check_confluence,
    complete,
    ell,
    enumerate_chains,
    generating_confluence,
    homology,
    is_confluent,
    koszul_verdict,
    lpformat,
    nf,
    resolution,
    rewriting,
    standard_basis,
)
from linrew.rewriting import StepBudgetExceeded
from linrew.scalars import RationalField

from conftest import FIXTURES, cubic_system, deglex_system, skew_system
from test_acceptance import random_system


@pytest.fixture
def pp_done(sys_pp):
    return complete(sys_pp, sys_pp.order)


@pytest.fixture
def xy_done(sys_xy):
    return complete(sys_xy, sys_xy.order)


def chain_count_series(P, dmax: int) -> list:
    """The coefficients of sum_k (-1)^k c_k(t) H_A(t) up to t^dmax, where
    c_k(t) counts the k-chains by degree (c_0 = 1, for the empty chain) and
    H_A(t) counts the normal words.  Anick's resolution makes it 1."""
    c = [[0] * (dmax + 1) for _ in range(dmax + 1)]
    c[0][0] = 1
    for cell in enumerate_chains(P, dmax, dmax):
        c[cell.dim][cell.degree] += 1
    h = standard_basis(P, dmax).counts()
    return [
        sum((-1) ** k * c[k][i] * h[d - i] for k in range(dmax + 1) for i in range(d + 1))
        for d in range(dmax + 1)
    ]


@pytest.mark.parametrize(
    # xyrev's completion does not stop.
    "name", [path.stem for path in sorted(FIXTURES.glob("*.lp")) if path.stem != "xyrev"] + ["cubic"]
)
def test_anick_chain_count_identity(name):
    """The chains read from the overlap index, counted with no
    differential, against the Hilbert series through degree 7."""
    P = cubic_system() if name == "cubic" else lpformat.parse_file(FIXTURES / f"{name}.lp")[0]
    assert chain_count_series(complete(P, P.order), 7) == [1] + [0] * 7


def test_ell_pattern():
    assert [ell(2, k) for k in range(6)] == [0, 1, 2, 3, 4, 5]
    assert [ell(3, k) for k in range(6)] == [0, 1, 3, 4, 6, 7]


def test_chains_require_certificate(sys_pp):
    with pytest.raises(RewriteError):
        enumerate_chains(sys_pp, 3, 6)


def test_chain_words_pp(pp_done):
    cells = enumerate_chains(pp_done, 4, 6)
    c3 = sorted("".join(c.word.word) for c in cells if c.dim == 3)
    c4 = sorted("".join(c.word.word) for c in cells if c.dim == 4)
    assert c3 == ["yzxx", "yzy", "zyxx", "zyz"]
    assert c4 == ["yzyxx", "yzyz", "zyzxx", "zyzy"]


def test_chain_words_xy(xy_done):
    cells = enumerate_chains(xy_done, 4, 5)
    c3 = sorted("".join(c.word.word) for c in cells if c.dim == 3)
    c4 = sorted("".join(c.word.word) for c in cells if c.dim == 4)
    assert c3 == ["xyxx", "xyy", "yxxy", "yyxx", "yyy"]
    assert c4 == ["xyxxy", "xyyxx", "xyyy", "yxxyy", "yyxxy", "yyyxx", "yyyy"]


def test_chain_structure(pp_done):
    for c in enumerate_chains(pp_done, 5, 8):
        if c.dim < 3:
            continue
        # First redex at 0, each next strictly inside the previous, last
        # ending at the right edge.
        rules = {r.name: r for r in pp_done.rules}
        assert c.redexes[0][1] == 0
        end = 0
        for name, start in c.redexes:
            src = rules[name].source
            assert start < end or end == 0
            assert start > 0 or end == 0
            new_end = start + src.weight
            assert new_end > end
            assert c.word.word[start:new_end] == src.word
            end = new_end
        assert end == c.word.weight


def test_parent_key(pp_done):
    cells = enumerate_chains(pp_done, 4, 6)
    keys3 = {c.redexes for c in cells if c.dim == 3}
    for c in cells:
        if c.dim == 4:
            assert c.redexes[:-1] in keys3


def test_cell_degrees_concentration(pp_done):
    cells = enumerate_chains(pp_done, 3, 6)
    stats = cell_degrees(cells, 2)
    # Degree-4 3-cells break strict concentration at dimension 3.
    assert stats["counts"][(3, 3)] == 2
    assert stats["counts"][(3, 4)] == 2
    assert not stats["l_N_concentrated"][3]


def _falsely_certified(sys_pp, pp_done):
    """The uncompleted pp system with the completed one's certificates: yzy
    splits into -x x y and -1/2 y x x, two distinct normal forms."""
    sys_pp.termination_certificate = pp_done.termination_certificate
    sys_pp.convergence_certificate = pp_done.convergence_certificate
    return sys_pp


def test_generating_confluence_legs_agree(pp_done, sys_pp):
    """On a certified system every generating confluence is delta2's column;
    a certificate copied from another system certifies nothing, so chains,
    generating confluences and boundary4 refuse it, and its yzy branching
    does not join."""
    cells = enumerate_chains(pp_done, 4, 6)
    cx = build_complex(pp_done, cells)
    names = {r.name for r in pp_done.rules}
    for c in cells:
        if c.dim == 3:
            col = generating_confluence(c, pp_done)
            assert col == cx.delta[2][c.redexes]
            assert set(col) <= names
    P = _falsely_certified(sys_pp, pp_done)
    assert not P.certified_convergent
    yzy = next(c for c in cells if c.dim == 3 and c.word.word == tuple("yzy"))
    cell4 = next(c for c in cells if c.dim == 4)
    with pytest.raises(NotCertifiedError):
        enumerate_chains(P, 3, 3)
    with pytest.raises(NotCertifiedError):
        generating_confluence(yzy, P)
    with pytest.raises(NotCertifiedError):
        boundary4(cell4, P)
    report = check_confluence(P)
    assert not report["convergent"]
    assert [e["joinable"] for e in report["entries"] if e["word"] == "y z y"] == [False]
    assert not P.certified_convergent


def test_build_complex_checks_legs_of_pruned_chains(pp_done, sys_pp):
    # Both rules have degree 2, so the degree-3 column of yzy would not be
    # walked: build_complex refuses the falsely certified system itself,
    # and so does koszul_verdict.
    P = _falsely_certified(sys_pp, pp_done)
    assert {r.degree for r in P.rules} == {2}
    with pytest.raises(NotCertifiedError, match="certified-convergent"):
        build_complex(P, enumerate_chains(pp_done, 3, 3))
    with pytest.raises(RewriteError, match="certified-convergent"):
        koszul_verdict(P, 4, 6)


def test_build_complex_trusts_the_certificate_on_skew(monkeypatch):
    """Once is_confluent has certified skew q6, build_complex normalises
    nothing: no node is missing when its walks ask for one, and no memo
    node is new, for its (all pruned) 3- and 4-chains."""
    P = skew_system(6)
    P.termination_certificate = certify_termination(P, P.order)
    assert is_confluent(P) and P.certified_convergent
    cells = enumerate_chains(P, 4, 5)
    nodes = len(P._nf_cache)
    calls = []
    build_nodes = resolution._build_nodes
    monkeypatch.setattr(resolution, "_build_nodes", lambda P, items, of: calls.extend(
        m for _, m in items if m not in P._nf_cache
    ) or build_nodes(P, items, of))
    cx = build_complex(P, cells)
    assert len(cx.delta[2]) == 20 and len(cx.delta[3]) == 15
    assert calls == [] and len(P._nf_cache) == nodes


def test_boundary4_instances(pp_done):
    cells = enumerate_chains(pp_done, 4, 6)
    keys3 = {c.redexes for c in cells if c.dim == 3}
    cx = build_complex(pp_done, cells)
    cols = {c.redexes: boundary4(c, pp_done) for c in cells if c.dim == 4}
    assert any(cols.values())
    for key, col in cols.items():
        assert set(col) <= keys3
        assert not any(QQ.is_zero(v) for v in col.values())
        assert col == cx.delta[3][key]


def test_step_budget_in_a_walk_names_the_word(pp_done, monkeypatch):
    """A step budget that runs out inside a delta walk names the word whose
    legs are walked: the 3-chain's word for generating_confluence, the
    prefix of the 4-chain's word up to its second redex for boundary4."""
    cells = enumerate_chains(pp_done, 4, 6)
    monkeypatch.setattr(rewriting, "DEFAULT_STEP_BUDGET", 0)
    for c in cells:
        if c.dim not in (3, 4):
            continue
        pp_done._nf_cache.clear()
        with pytest.raises(StepBudgetExceeded) as caught:
            (generating_confluence if c.dim == 3 else boundary4)(c, pp_done)
        (name, _), (second, start) = c.redexes[:2]
        end = start + pp_done.rules[pp_done.rule_index[second]].source.weight
        word = c.word if c.dim == 3 else pp_done.quiver.monomial(c.word.word[:end])
        assert str(caught.value) == f"step budget exhausted while normalizing {word}"


def test_rho_star_reads_the_memo_as_fractions(monkeypatch):
    """nf keeps Q normal forms as integers over one denominator; rho*_3
    reads them back as Fractions, so every coefficient it sums is one."""
    P = next(_completed([skew_system(4)]))
    read, summed = [], []
    rho_star_rule, linear_combination = resolution._rho_star_rule, RationalField.linear_combination

    def recording_rho_star_rule(P, rule, mhat, memo):
        read.append(P.rightmost_occurrence(mhat) is not None)
        return rho_star_rule(P, rule, mhat, memo)

    def recording_linear_combination(self, pairs):
        pairs = list(pairs)
        summed.extend(c for c, _ in pairs)
        return linear_combination(self, pairs)

    monkeypatch.setattr(resolution, "_rho_star_rule", recording_rho_star_rule)
    monkeypatch.setattr(RationalField, "linear_combination", recording_linear_combination)
    for cell in enumerate_chains(P, 4, 4):
        if cell.dim == 4:
            boundary4(cell, P)
    assert any(read) and any(form[0] > 1 for form, _, _ in P._nf_cache.values())
    assert summed and all(type(c) is Fraction for c in summed)


def _completed(systems, **bounds):
    for P in systems:
        try:
            yield complete(P, P.order, **bounds)
        except RewriteError:
            pass


def _fixture_systems():
    return _completed(lpformat.parse_file(p)[0] for p in sorted(FIXTURES.glob("*.lp")))


def _a6_systems():
    rng = random.Random(0)
    systems = [random_system(rng) for _ in range(200)]
    return [P for P in _completed(systems, max_degree=5, max_rules=64) if P.left_reduced]


# (systems, dmax, columns, sha256 of the delta2/delta3 columns).  The
# fixtures and the cubic system never apply a rule at the front of the
# target composite's trace in boundary4; the A6 systems do.
DELTA_CASES = {
    "fixtures": (_fixture_systems, 6, 41,
                 "987efb7fcb7240819f0c21ca3282f21da3aed73557a2e57c9a8abf0be23ea619"),
    "cubic": (lambda: _completed([cubic_system()]), 12, 73,
              "49a02e033b0b7b0cd4c759112dd19ae0f47f9b26e7fd30f02d2caeab55abafdc"),
    "a6": (_a6_systems, 6, 289,
           "6be423734b35ba8d1773cd0776a80d97b19f69b263bb1ee4c33eccc79627e9d8"),
}


def _augmented(P) -> bool:
    """No rule target of P has a constant term."""
    return not any(m.is_identity() for r in P.rules for m in r.target.terms)


@pytest.mark.parametrize("group", sorted(DELTA_CASES))
def test_delta_columns_unchanged(group):
    """The digest holds the columns of every system of the group.  Those of
    a system with no augmentation, which build_complex refuses, are each
    column's own generating_confluence or boundary4 call: such a system is
    inhomogeneous, and build_complex would walk every column of it."""
    systems, dmax, n_columns, digest = DELTA_CASES[group]
    cols = []
    for P in systems():
        cells = enumerate_chains(P, 4, dmax)
        if _augmented(P):
            delta = build_complex(P, cells).delta
        else:
            assert not P.homogeneous
            with pytest.raises(NotCertifiedError, match="augmented algebra"):
                build_complex(P, cells)
            delta = _direct_columns(P, cells)
        cols.append(sorted(
            (k, repr(cell), sorted((repr(r), str(c)) for r, c in col.items()))
            for k in (2, 3) for cell, col in delta[k].items()
        ))
    assert sum(map(len, cols)) == n_columns
    assert hashlib.sha256(repr(cols).encode()).hexdigest() == digest


def test_build_complex_refuses_a_system_with_no_augmentation():
    """On the 71st A6 system, r2 : y z => 2 - 2 y^2, delta2 . delta3 is not
    0: build_complex refuses it as tor does, before any walk."""
    P = _a6_systems()[70]
    assert str(P.rules[1]) == "r2 : y z => 2 - 2 y^2"
    with pytest.raises(NotCertifiedError) as caught:
        build_complex(P, enumerate_chains(P, 4, 6))
    assert str(caught.value) == "Tor needs an augmented algebra, but the target of rule r2 has a constant term"


@pytest.mark.parametrize("group", sorted(DELTA_CASES))
def test_delta_squares_to_zero_on_augmented_systems(group):
    """delta2 . delta3 = 0 on every system of the group whose rule targets
    have no constant term: a check of delta3 that no digest holds.  A
    target with a constant term leaves the algebra with no augmentation,
    where the reduced complex is not claimed (build_complex refuses it)."""
    systems, dmax, _, _ = DELTA_CASES[group]
    augmented = [P for P in systems() if _augmented(P)]
    assert augmented
    for P in augmented:
        assert build_complex(P, enumerate_chains(P, 4, dmax)).check_dd_zero(), [str(r) for r in P.rules]


def _counting(monkeypatch, name):
    """Replace homology.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(homology, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(homology, name, counted)
    return calls


def _direct_columns(P, cells):
    """Every delta2/delta3 column by its own generating_confluence or
    boundary4 call, with a fresh memo."""
    direct = {2: {}, 3: {}}
    for c in cells:
        if c.dim == 3:
            direct[2][c.redexes] = generating_confluence(c, P)
        elif c.dim == 4:
            direct[3][c.redexes] = boundary4(c, P)
    return direct


def _prunable(cells) -> list:
    """The 3- and 4-chains whose degree has no cells one dimension down."""
    graded = {(c.dim, c.degree) for c in cells}
    return [c for c in cells if c.dim in (3, 4) and (c.dim - 1, c.degree) not in graded]


# (homogeneous systems, dmax) on which build_complex prunes columns.
PRUNE_CASES = {
    "fixtures": (_fixture_systems, 6),
    "cubic": (lambda: _completed([cubic_system()]), 12),
    "skew": (lambda: _completed(skew_system(n) for n in (4, 5, 6)), 5),
    "a6": (lambda: [P for P in _a6_systems() if P.homogeneous], 6),
}


@pytest.mark.parametrize("group", sorted(PRUNE_CASES))
def test_pruned_columns_equal_direct_calls(group):
    systems, dmax = PRUNE_CASES[group]
    pruned = 0
    for P in systems():
        assert P.homogeneous
        cells = enumerate_chains(P, 4, dmax)
        cx = build_complex(P, cells)
        assert {k: cx.delta[k] for k in (2, 3)} == _direct_columns(P, cells)
        pruned += len(_prunable(cells))
    assert pruned


def test_build_complex_walks_no_empty_degree_on_skew(monkeypatch):
    P = next(_completed([skew_system(6)]))
    cells = enumerate_chains(P, 5, 5)
    confluences = _counting(monkeypatch, "generating_confluence")
    boundaries = _counting(monkeypatch, "boundary4")
    cx = build_complex(P, cells)
    assert len(cx.delta[2]) == 20 and len(cx.delta[3]) == 15
    assert confluences == boundaries == []


def test_build_complex_walks_every_column_when_inhomogeneous(monkeypatch):
    # The enveloping algebra of the Lie algebra with [y, x] = x and z, w
    # central: y x -> x y + x lowers degrees, so a degree-3 chain's column
    # has degree-2 entries though no rule has degree 3.
    P = next(_completed([deglex_system("xyzw", [
        ("a", "yx", [(1, "xy"), (1, "x")]),
        ("b", "zx", [(1, "xz")]),
        ("c", "zy", [(1, "yz")]),
        ("d", "wx", [(1, "xw")]),
        ("e", "wy", [(1, "yw")]),
        ("f", "wz", [(1, "zw")]),
    ])]))
    assert not P.homogeneous
    cells = enumerate_chains(P, 4, 6)
    confluences = _counting(monkeypatch, "generating_confluence")
    boundaries = _counting(monkeypatch, "boundary4")
    cx = build_complex(P, cells)
    assert confluences == [c for c in cells if c.dim == 3]
    assert boundaries == [c for c in cells if c.dim == 4]
    assert {k: cx.delta[k] for k in (2, 3)} == _direct_columns(P, cells)
    assert any(cx.delta[c.dim - 1][c.redexes] for c in _prunable(cells))
    assert cx.check_dd_zero()

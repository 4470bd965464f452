import hashlib
import random

import pytest

from linrew import (
    QQ,
    RewriteError,
    boundary4,
    build_complex,
    cell_degrees,
    complete,
    ell,
    enumerate_chains,
    generating_confluence,
    lpformat,
)

from conftest import FIXTURES, cubic_system
from test_acceptance import random_system


@pytest.fixture
def pp_done(sys_pp):
    return complete(sys_pp, sys_pp.order)


@pytest.fixture
def xy_done(sys_xy):
    return complete(sys_xy, sys_xy.order)


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
            assert c.parent_key() in keys3


def test_cell_degrees_concentration(pp_done):
    cells = enumerate_chains(pp_done, 3, 6)
    stats = cell_degrees(cells, 2)
    # Degree-4 3-cells break strict concentration at dimension 3.
    assert stats["counts"][(3, 3)] == 2
    assert stats["counts"][(3, 4)] == 2
    assert not stats["l_N_concentrated"][3]


def test_generating_confluence_legs_agree(pp_done, sys_pp):
    cells = enumerate_chains(pp_done, 3, 6)
    cx = build_complex(pp_done, cells, 3, 6)
    names = {r.name for r in pp_done.rules}
    for c in cells:
        if c.dim == 3:
            col = generating_confluence(c, pp_done)
            assert col == cx.delta[2][c.redexes]
            assert set(col) <= names
    # The uncompleted system, falsely certified: yzy splits into -x x y and
    # -1/2 y x x, two distinct normal forms.
    sys_pp.termination_certificate = pp_done.termination_certificate
    sys_pp.convergence_certificate = pp_done.convergence_certificate
    yzy = next(c for c in enumerate_chains(sys_pp, 3, 3) if c.dim == 3 and c.word.word == tuple("yzy"))
    with pytest.raises(RewriteError, match="legs disagree"):
        generating_confluence(yzy, sys_pp)


def test_boundary4_instances(pp_done):
    cells = enumerate_chains(pp_done, 4, 6)
    keys3 = {c.redexes for c in cells if c.dim == 3}
    cx = build_complex(pp_done, cells, 4, 6)
    cols = {c.redexes: boundary4(c, pp_done) for c in cells if c.dim == 4}
    assert any(cols.values())
    for key, col in cols.items():
        assert set(col) <= keys3
        assert not any(QQ.is_zero(v) for v in col.values())
        assert col == cx.delta[3][key]


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


@pytest.mark.parametrize("group", sorted(DELTA_CASES))
def test_delta_columns_unchanged(group):
    systems, dmax, n_columns, digest = DELTA_CASES[group]
    cols = []
    for P in systems():
        cx = build_complex(P, enumerate_chains(P, 4, dmax), 3, dmax)
        cols.append(sorted(
            (k, repr(cell), sorted((repr(r), str(c)) for r, c in col.items()))
            for k in (2, 3) for cell, col in cx.delta[k].items()
        ))
    assert sum(map(len, cols)) == n_columns
    assert hashlib.sha256(repr(cols).encode()).hexdigest() == digest

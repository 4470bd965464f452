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
)


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


def test_generating_confluence_legs_agree(pp_done):
    for c in enumerate_chains(pp_done, 3, 6):
        if c.dim != 3:
            continue
        conf = generating_confluence(c, pp_done)
        assert conf.source_trace.check()
        assert conf.target_trace.check()
        assert conf.source_trace.end == conf.target_trace.end
        # Source leg starts with the leftmost redex of the overlap word.
        assert conf.source_trace.steps[0].left.is_identity()


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

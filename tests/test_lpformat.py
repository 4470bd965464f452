import json
from fractions import Fraction

import pytest

from linrew import cli, complete
from linrew import lpformat
from linrew.lpformat import LpError, parse, parse_file, print_polygraph


XYZ_TEXT = """\
field Q
generators x y z
order deglex x < y < z
rule g : x y z -> x x x + y y y + z z z
"""


def test_parse_xyz():
    P, meta = parse(XYZ_TEXT)
    assert [g.name for g in P.quiver.generators.values()] == ["x", "y", "z"]
    assert len(P.rules) == 1
    rule = P.rules[0]
    assert str(rule.source) == "x y z"
    assert sorted(str(m) for m in rule.target.terms) == ["x^3", "y^3", "z^3"]
    assert P.order.kind == "deglex"


def test_parse_bound_parameter():
    P, meta = parse(
        "field Q\nparam a = 2\ngenerators x y z\n"
        "rule beta : z y -> (-1/a) x x\n"
    )
    coeff = next(iter(P.rules[0].target.terms.values()))
    assert coeff == Fraction(-1, 2)


def test_parse_symbolic_parameter():
    P, meta = parse(
        "field Q\nparam a nonzero\ngenerators x y\n"
        "rule r : x y -> (1/a) x x\n"
    )
    coeff = next(iter(P.rules[0].target.terms.values()))
    assert str(coeff) == "1/a"
    assert meta["symbolic_params"] == ["a"]


def test_parse_power_sugar():
    P, _ = parse("field Q\ngenerators x y\nrule r : x^2 y -> y^3\n")
    assert P.rules[0].source.word == ("x", "x", "y")


def test_parse_gf():
    P, _ = parse("field GF(7)\ngenerators x y\nrule r : x y -> 3 x x\n")
    assert next(iter(P.rules[0].target.terms.values())) == 3
    assert P.field.p == 7


def test_unknown_generator_has_position():
    with pytest.raises(LpError) as e:
        parse("field Q\ngenerators x\nrule r : x w -> x\n")
    assert e.value.line == 3 and e.value.col > 0


def test_duplicate_rule_name():
    with pytest.raises(LpError):
        parse(
            "field Q\ngenerators x y\n"
            "rule r : x y -> x x\nrule r : y y -> x x\n"
        )


def test_unbalanced_paren():
    with pytest.raises(LpError):
        parse("field Q\ngenerators x\nrule r : x x -> (1/2 x\n")


def test_unknown_directive():
    with pytest.raises(LpError):
        parse("florble Q\n")


def test_round_trip_fixtures(fixtures_dir):
    for name in sorted(p.name for p in fixtures_dir.glob("*.lp")):
        P, meta = parse_file(str(fixtures_dir / name))
        text = print_polygraph(P, meta)
        P2, meta2 = parse(text)
        assert print_polygraph(P2, meta2) == text, name
        assert [str(r.source) for r in P2.rules] == [str(r.source) for r in P.rules]
        assert [r.target for r in P2.rules] == [r.target for r in P.rules]


def test_certificate_round_trip(sys_xy, tmp_path):
    done = complete(sys_xy, sys_xy.order)
    path = tmp_path / "done.lp"
    lpformat.write_file(str(path), done)
    text = path.read_text()
    assert "certified convergent" in text
    loaded, meta = parse_file(str(path))
    assert loaded.certified_convergent
    assert meta["certified"]


def test_certificate_revalidated(tmp_path):
    bogus = (
        "field Q\ngenerators x y\norder deglex y < x\n"
        "rule r : x x -> x y\ncertified convergent\n"
    )
    with pytest.raises(LpError):
        parse(bogus)


def test_certificate_revalidated_by_order_then_measure(fixtures_dir, tmp_path, capsys):
    """A 'certified convergent' line is checked as `check` checks
    termination: by the order, then by the measure.  xyz.lp's rule does not
    descend in deglex but does under its pattern measure, so the file loads
    as certified; once its measure fails too, the file exits 2."""
    xyz = (fixtures_dir / "xyz.lp").read_text() + "certified convergent\n"
    P, meta = parse(xyz)
    assert P.certified_convergent and meta["certified"]
    assert P.termination_certificate.kind == "pattern-measure"
    path = tmp_path / "xyz.lp"
    path.write_text(xyz)
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    path.write_text(xyz.replace("measure pattern x y z 3", "measure pattern x y z 1"))
    assert cli.main(["check", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert "file claims 'certified convergent' but termination fails" in err


def test_measure_lines():
    P, meta = parse(
        "field Q\ngenerators x y z\n"
        "measure letter y 1\nmeasure pattern x y z 3\nmeasure bound 3\n"
        "rule g : x y z -> x^3 + y^3 + z^3\n"
    )
    m = meta["measure"]
    assert m.letter_weights == (("y", 1),)
    assert m.pattern_weights == ((("x", "y", "z"), 3),)
    assert m.context_bound == 3


@pytest.mark.parametrize("line", ["measure letter x -1", "measure pattern x x -2"])
def test_negative_measure_weight_refused(line):
    with pytest.raises(LpError, match=r"^line 3, col 9: measure weight -\d is negative"):
        parse(f"field Q\ngenerators x\n{line}\nrule r : x -> x x\n")


def test_comments_and_blanks():
    P, _ = parse(
        "# a comment\n\nfield Q\ngenerators x y  # trailing\n"
        "rule r : x y -> y x\n"
    )
    assert len(P.rules) == 1


GEN_XY = "field Q\ngenerators x y\n"
RULE = "rule r : y x -> x y\n"
MALFORMED = {
    # name: (text, line of the bad directive)
    "gf-no-prime": ("field GF\ngenerators x y\n" + RULE, 1),
    "gf-not-prime": ("field GF(8)\ngenerators x y\n" + RULE, 1),
    "gf-superscript": ("field GF(\u00b2)\ngenerators x y\n" + RULE, 1),
    "duplicate-generator": ("field Q\ngenerators x x\n", 2),
    "duplicate-generator-line": (GEN_XY + "generator y : * -> *\n", 3),
    "duplicate-object": ("field Q\nobjects a a\n", 2),
    "degree-0": ("field Q\ngenerator z : * -> * degree 0\n", 2),
    "measure-weight": (GEN_XY + "measure letter y z\n" + RULE, 3),
    "order-weight": (GEN_XY + "order weighted-deglex x:a < y\n" + RULE, 3),
    "order-no-weights": (GEN_XY + "order weighted-deglex\n" + RULE, 3),
    "order-negative-weight": (GEN_XY + "order weighted-deglex x:-1 < y:1\n" + RULE, 3),
    "order-missing": (GEN_XY + "order deglex x\n" + RULE, 3),
    "order-undeclared": (GEN_XY + "order elimination x < z\n" + RULE, 3),
    "order-twice": (GEN_XY + "order deglex x < y < x\n" + RULE, 3),
    "undeclared-object": (
        "field Q\nobjects a b\ngenerator f : a -> c\ngenerator g : b -> a\n"
        "rule r : f g -> f g f g\n", 3,
    ),
    "undeclared-object-no-objects-line": (GEN_XY + "generator f : a -> b\n", 3),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_line_is_an_lp_error(name):
    text, line = MALFORMED[name]
    with pytest.raises(LpError) as e:
        parse(text)
    assert e.value.line == line
    assert str(e.value).startswith(f"line {line}, ")


@pytest.mark.parametrize("command", [
    ["check"], ["tor", "--kmax", "3", "--dmax", "4"], ["koszul"], ["hilbert", "--dmax", "3"],
], ids=lambda argv: argv[0])
def test_cli_malformed_order_exits_2(command, tmp_path, capsys):
    path = tmp_path / "bad.lp"
    path.write_text(MALFORMED["order-missing"][0])
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("line 3, ")

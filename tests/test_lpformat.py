import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import linrew

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


def test_round_trip_two_parameters(tmp_path):
    text = (
        "field Q\nparam a nonzero\nparam b\nnonvanishing a+1, b\ngenerators x y\n"
        "rule r : y x -> (a/(a+1)/b + 1/(2*a*b)) x y\n"
    )
    P, meta = parse(text)
    assert str(P.rules[0].target) == "((2*a**2 + a + 1)/(2*a**2*b + 2*a*b)) x y"
    path = tmp_path / "two.lp"
    lpformat.write_file(str(path), P, meta)
    written = path.read_text()
    assert "nonvanishing a + 1\n" in written
    P2, meta2 = parse_file(str(path))
    lpformat.write_file(str(path), P2, meta2)
    assert path.read_text() == written
    assert P2.rules == P.rules


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
    "generator-caret": (GEN_XY + "generator x^2\norder deglex x < y < x^2\nrule r : y y -> x^2\n", 3),
    "generator-space": (GEN_XY + "generator u v : * -> *\n", 3),
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
    "param-zero-denominator": ("field Q\nparam a = 1/0\ngenerators x y\n" + RULE, 2),
    "param-then-generator": ("field Q\nparam x = 2\ngenerators x y\n" + RULE, 3),
    "generator-then-param": (GEN_XY + "param y nonzero\n" + RULE, 3),
    "param-twice": ("field Q\nparam a = 2\nparam a = 3\ngenerators x y\n" + RULE, 3),
    "param-bound-then-symbolic": ("field Q\nparam a = 2\nparam a nonzero\ngenerators x y\n" + RULE, 3),
    "coefficient-not-in-field": (
        "field Q\nparam a nonzero\nparam b\ngenerators x y\nrule r : y x -> (sqrt(a)) x y\n", 5,
    ),
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


# Bound-parameter coefficients: lpformat._exact_value against sympy.

BOUND = {"a": Fraction(2), "b": Fraction(-3, 4)}


def sympy_value(text: str):
    """sympy's value of a coefficient text with BOUND substituted, as
    lpformat's fallback computes it; None unless it is a finite rational."""
    import sympy

    syms = {n: sympy.Symbol(n) for n in BOUND}
    expr = sympy.sympify(text, locals=syms, rational=True)
    expr = sympy.cancel(expr.subs({syms[n]: sympy.Rational(v) for n, v in BOUND.items()}))
    return Fraction(int(expr.p), int(expr.q)) if expr.is_Rational else None


@pytest.mark.parametrize("text, value", [
    ("1+a^2", 5),
    ("2^3^2", 512),
    ("-a^2", -4),
    ("0.1*a", Fraction(1, 5)),
    ("1e-3*a", Fraction(1, 500)),
    ("0.1234567890123456789*a", Fraction("0.2469135780246913578")),
    ("(-1/a)", Fraction(-1, 2)),
    ("b^-2 - a**2", Fraction(16, 9) - 4),
])
def test_exact_value_is_sympys(text, value):
    assert lpformat._exact_value(text, BOUND) == value == sympy_value(text)


def _rule_with(coefficient, param="a"):
    return f"field Q\nparam {param} = 2\ngenerators x y\nrule r : y x -> {coefficient} x y\n"


@pytest.mark.parametrize("coefficient, value", [("(4^(1/2)*a)", 4), ("(sqrt(4))", 2), ("(7//a)", 3)])
def test_outside_the_grammar_sympy_values_the_coefficient(coefficient, value):
    assert lpformat._exact_value(coefficient, BOUND) is None
    P, _ = parse(_rule_with(coefficient))
    assert next(iter(P.rules[0].target.terms.values())) == value


@pytest.mark.parametrize("header", ["", "param a = 2\n", "param a nonzero\n"], ids=["Q", "bound", "symbolic"])
@pytest.mark.parametrize("coefficient, value", [("(2*3)", 6), ("(2^3^2)", 512), ("(-2^-1)", Fraction(-1, 2))])
def test_letter_free_coefficient_is_valued_exactly(header, coefficient, value):
    P, _ = parse(f"field Q\n{header}generators x y\nrule r : y x -> {coefficient} x y\n")
    assert next(iter(P.rules[0].target.terms.values())) == P.field.coerce(value)


@pytest.mark.parametrize("param, coefficient, message", [
    ("a", "(a/(a-2))", "bad coefficient '(a/(a-2))': invalid input: zoo"),
    ("a", "(4^(1/2))", "bad coefficient '(4^(1/2))': Invalid literal for Fraction: '4^(1/2)'"),
    # Python folds the ligature to the name fi; sympy keeps it apart.
    ("fi", "(\ufb01)", "bad coefficient '(\ufb01)': invalid input: \ufb01"),
])
def test_coefficient_error_text(param, coefficient, message):
    with pytest.raises(LpError) as e:
        parse(_rule_with(coefficient, param))
    assert str(e.value) == f"line 4, col 17: {message}"


PREC_SUM, PREC_PRODUCT, PREC_UNARY, PREC_POWER, PREC_ATOM = range(1, 6)


class Expr(NamedTuple):
    """A coefficient text and what decides whether _exact_value must value
    it: its undeclared names, and the (divisor,) and (base, exponent) texts
    of its divisions and powers."""

    text: str
    prec: int
    checks: tuple = ()
    declared: bool = True


def _operand(e: Expr, need: int, paren: bool) -> str:
    return f"({e.text})" if paren or e.prec < need else e.text


_leaves = st.one_of(
    st.integers(0, 50).map(str),
    st.from_regex(r"[0-9]{1,3}\.[0-9]{0,20}|\.[0-9]{1,3}", fullmatch=True),
    st.from_regex(r"[0-9]{1,2}(\.[0-9]{1,3})?[eE][+-]?[0-9]", fullmatch=True),
    st.sampled_from(["a", "b"]),
).map(lambda t: Expr(t, PREC_ATOM)) | st.just(Expr("c", PREC_ATOM, declared=False))


@st.composite
def _unary(draw, operands):
    e = draw(operands)
    text = draw(st.sampled_from("+-")) + _operand(e, PREC_UNARY, draw(st.booleans()))
    return Expr(text, PREC_UNARY, e.checks, e.declared)


@st.composite
def _binary(draw, operands):
    left, right, op = draw(operands), draw(operands), draw(st.sampled_from("+-*/"))
    prec = PREC_SUM if op in "+-" else PREC_PRODUCT
    space = draw(st.sampled_from(["", " "]))
    text = space.join([_operand(left, prec, draw(st.booleans())), op,
                       _operand(right, prec + 1, draw(st.booleans()))])
    checks = left.checks + right.checks + (((right.text,),) if op == "/" else ())
    return Expr(text, prec, checks, left.declared and right.declared)


# Exponents stay small, so that no power tower outgrows the test.
_exponents = st.recursive(
    st.sampled_from(["0", "1", "2", "3", "a", "b", "0.5"]).map(lambda t: Expr(t, PREC_ATOM)),
    lambda inner: _unary(inner) | _binary(inner),
    max_leaves=3,
)


@st.composite
def _power(draw, operands):
    base, exponent = draw(operands), draw(_exponents | _power(_exponents))
    op = draw(st.sampled_from(["^", "**"]))
    text = (_operand(base, PREC_POWER + 1, draw(st.booleans())) + op
            + _operand(exponent, PREC_UNARY, draw(st.booleans())))
    checks = base.checks + exponent.checks + ((base.text, exponent.text),)
    return Expr(text, PREC_POWER, checks, base.declared and exponent.declared)


_expressions = st.recursive(
    _leaves, lambda inner: _unary(inner) | _binary(inner) | _power(inner), max_leaves=8
)


def _in_grammar(e: Expr) -> bool:
    """Whether _exact_value must value e: every name declared, no division
    by zero, and every exponent a small integer (negative only on a nonzero
    base)."""
    if not e.declared:
        return False
    for check in e.checks:
        if len(check) == 1:
            if sympy_value(check[0]) == 0:
                return False
            continue
        base, k = sympy_value(check[0]), sympy_value(check[1])
        if k is None or k.denominator != 1 or abs(k) > lpformat._MAX_EXPONENT or (k < 0 and base == 0):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(_expressions)
def test_exact_value_is_sympys_or_declines(e):
    """_exact_value agrees with sympy on every text of its grammar and
    declines every other text, which sympy then values as before."""
    got = lpformat._exact_value(e.text, BOUND)
    if _in_grammar(e):
        assert got is not None and got == sympy_value(e.text), e.text
    else:
        assert got is None, e.text


def test_bound_parameters_do_not_import_sympy(tmp_path):
    """A fresh process running check, tor and koszul on files with bound or
    symbolic parameters never imports sympy; a coefficient outside the
    grammar, such as (sqrt(4)), still goes through it."""
    fixtures = Path(__file__).parent / "fixtures"
    sym = str(fixtures / "pp05_sym.lp")
    outside = tmp_path / "outside.lp"
    outside.write_text(
        "field Q\nparam a nonzero\ngenerators x y\norder deglex x < y\nrule r : y x -> (sqrt(4)*a) x y\n"
    )
    script = f"""
import contextlib, io, json, sys
from linrew import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["koszul", {str(fixtures / "pp05.lp")!r}]) == 0
    assert cli.main(["tor", {sym!r}, "--kmax", "3", "--dmax", "4"]) == 0
    assert cli.main(["koszul", {sym!r}]) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["check", {sym!r}]) == 3
assert json.loads(out.getvalue())["field"] == "Q(a)"
assert "sympy" not in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["check", {str(outside)!r}]) == 0
assert json.loads(out.getvalue())["rules"]["r"]["target"] == "(2*a) x y"
assert "sympy" in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(linrew.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

"""Reading and writing presentation files (.lp).

Line-oriented format; ``#`` starts a comment.  Directives:

    field Q | field GF(32003)
    param a = 2            # bound: substituted into coefficients
    param a nonzero        # symbolic, declared invertible
    objects * o1 o2
    generators x y z
    generator f : o1 -> o2 degree 2
    order deglex x < y < z
    order weighted-deglex x:2 < y:1
    order elimination x y < z
    measure letter y 1
    measure pattern x y z 3
    measure bound 3
    rule g : x y z -> x x x + y y y + z z z
    certified convergent   # revalidated on load

A generator written without a boundary runs from ``*`` to ``*``, and ``*``
stands for the first object; any other boundary must name a declared
object.  Words are space-separated generator names; ``x^3`` expands to
``x x x``.
Coefficients are integers, fractions, or parenthesized expressions in the
declared parameters, valued exactly in the field (see ``_exact_value``);
sympy values only the texts outside that grammar.
"""

from __future__ import annotations

import ast
import operator
import re
from fractions import Fraction
from typing import Optional

from .scalars import GF, QQ, FieldError, ParameterField
from .algebra import Generator, MonomialOrder, Polynomial, Quiver
from .completion import PatternMeasure, certify_declared, is_confluent
from .rewriting import Polygraph2, Rule


class LpError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


def _expand_word(tokens, line, quiver=None):
    """Expand ^ sugar and validate generator names."""
    out = []
    for tok, col in tokens:
        if "^" in tok:
            name, _, power = tok.partition("^")
            try:
                k = int(power)
            except ValueError:
                raise LpError(f"bad power {tok!r}", line, col)
            if k < 0:
                raise LpError(f"negative power {tok!r}", line, col)
        else:
            name, k = tok, 1
        if quiver is not None and name not in quiver.generators:
            raise LpError(f"unknown generator {name!r}", line, col)
        out.extend([name] * k)
    return tuple(out)


def _tokens_with_cols(text: str, offset: int = 0):
    out = []
    col = 0
    for tok in text.split(" "):
        if tok:
            out.append((tok, offset + col + 1))
        col += len(tok) + 1
    return out


def _split_terms(expr: str, line: int, offset: int):
    """Split a polynomial expression at top-level + and - (parens respected).
    Yields (sign, chunk, col)."""
    terms = []
    depth = 0
    start = 0
    pending_sign = 1
    for i, ch in enumerate(expr):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise LpError("unbalanced ')'", line, offset + i + 1)
        elif depth == 0 and ch in "+-":
            chunk = expr[start:i].strip()
            if chunk:
                terms.append((pending_sign, chunk, offset + start + 1))
                pending_sign = 1 if ch == "+" else -1
            else:
                # Leading or stacked sign.
                pending_sign *= 1 if ch == "+" else -1
            start = i + 1
    if depth != 0:
        raise LpError("unbalanced '('", line, offset + len(expr))
    tail = expr[start:].strip()
    if tail:
        terms.append((pending_sign, tail, offset + start + 1))
    return terms


def _term_tokens(chunk: str, line: int, offset: int):
    """Split one term into coefficient factors and word tokens, keeping
    parenthesized factors whole."""
    out = []
    i = 0
    while i < len(chunk):
        if chunk[i] == " ":
            i += 1
            continue
        if chunk[i] == "(":
            depth = 0
            j = i
            while j < len(chunk):
                if chunk[j] == "(":
                    depth += 1
                elif chunk[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise LpError("unbalanced '('", line, offset + i + 1)
            out.append((chunk[i : j + 1], offset + i + 1))
            i = j + 1
        else:
            j = i
            while j < len(chunk) and chunk[j] not in " (":
                j += 1
            out.append((chunk[i:j], offset + i + 1))
            i = j
    return out


def _int(tok: str, what: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise LpError(f"bad {what} {tok!r}", line, 1)


def _measure_weight(tok: str, line: int) -> int:
    weight = _int(tok, "weight", line)
    if weight < 0:  # see PatternMeasure
        raise LpError(f"measure weight {weight} is negative; weights must be non-negative", line, 9)
    return weight


_LITERAL = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# - and / through unary -, + and * and a power, which parameter fields' elements support
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: lambda x, y: x + -y, ast.Mult: operator.mul, ast.Div: lambda x, y: x * y**-1}
_MAX_EXPONENT = 1000  # a larger power is left to sympy


def _exact_value(text: str, names: dict):
    """The value of a coefficient expression, or None if it leaves this
    grammar: int and decimal literals (read exactly), ``names`` (Fractions
    or parameter field elements), unary + and -, + - * /, ** or ^ with an
    integer exponent, and parentheses.  ``^`` is ``**``, as sympify's
    convert_xor makes it.  None also covers a division by zero."""
    src = text.strip().replace("^", "**")
    if not src.isascii():  # the parser folds Unicode names; sympy does not
        return None

    def value(node):
        if isinstance(node, ast.BinOp):
            left, right = value(node.left), value(node.right)
            if isinstance(node.op, ast.Pow):
                if not isinstance(right, Fraction) or right.denominator != 1 or abs(right) > _MAX_EXPONENT:
                    raise ValueError("not a small integer exponent")
                return left ** int(right)
            return _ARITHMETIC[type(node.op)](left, right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            v = value(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.Name):
            return names[node.id]
        if isinstance(node, ast.Constant):
            literal = src[node.col_offset : node.end_col_offset]
            if _LITERAL.fullmatch(literal):
                return Fraction(literal)
        raise ValueError("outside the grammar")

    try:
        return value(ast.parse(src, mode="eval").body)
    except (SyntaxError, ValueError, LookupError, ArithmeticError, RecursionError):
        return None


class _FieldContext:
    def __init__(self):
        self.gf = None  # the prime field declared, or None for Q
        self.symbolic: list[str] = []
        self.nonvanishing: list[str] = []
        self.bound: dict[str, Fraction] = {}
        self.field = None

    def build(self):
        if self.field is not None:
            return self.field
        if self.symbolic:
            if self.gf is not None:
                raise LpError("parameters require field Q")
            try:
                self.field = ParameterField(tuple(self.symbolic), tuple(self.nonvanishing))
            except FieldError as e:
                raise LpError(f"bad nonvanishing expression: {e}")
        else:
            self.field = QQ if self.gf is None else self.gf
        return self.field

    def coefficient(self, tok: str, line: int, col: int):
        field = self.build()
        text = tok[1:-1] if tok.startswith("(") and tok.endswith(")") else tok
        try:
            try:
                return field.coerce(Fraction(text))
            except (ValueError, ZeroDivisionError) as e:
                literal_error = e
            names = {**self.bound, **(field.gens if self.symbolic else {})}
            value = _exact_value(text, names)
            if value is None:
                if not any(c.isalpha() for c in text):
                    raise literal_error
                if not names:
                    raise ValueError("no parameters declared")
                import sympy

                local = {n: sympy.Rational(self.bound[n]) if n in self.bound else sympy.Symbol(n) for n in names}
                expr = sympy.cancel(sympy.sympify(text, locals=local, rational=True))
                value = _exact_value(str(expr), names)  # None unless expr lies in the field
                if value is None:
                    raise ValueError(f"invalid input: {expr}")
            return field.coerce(value)
        except Exception as e:
            raise LpError(f"bad coefficient {tok!r}: {e}", line, col)


def _is_coefficient(tok: str, ctx: _FieldContext) -> bool:
    if tok.startswith("("):
        return True
    head = tok.lstrip("+-")
    if not head:
        return False
    if head[0].isdigit():
        return True
    return head in ctx.bound or head in ctx.symbolic


def parse(text: str):
    """Parse a presentation file; returns (Polygraph2, metadata dict)."""
    ctx = _FieldContext()
    objects: Optional[list[str]] = None
    generators: list[Generator] = []
    generator_lines: list[int] = []
    order: Optional[MonomialOrder] = None
    measure_letters: list[tuple[str, int]] = []
    measure_patterns: list[tuple[tuple[str, ...], int]] = []
    measure_bound = 3
    has_measure = False
    rule_specs = []
    want_certified = False
    order_line = 0

    def add_generator(name, src, tgt, degree, lineno):
        if "^" in name or name.split() != [name]:  # ^ writes a run; a space parts words
            raise LpError(f"bad generator name {name!r}", lineno, 1)
        if any(g.name == name for g in generators):
            raise LpError(f"duplicate generator {name!r}", lineno, 1)
        if name in ctx.bound or name in ctx.symbolic:
            raise LpError(f"{name!r} is declared as a parameter and as a generator", lineno, 1)
        try:
            generators.append(Generator(name, src, tgt, degree))
        except ValueError as e:
            raise LpError(str(e), lineno, 1)
        generator_lines.append(lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        lstr = raw.split("#", 1)[0].rstrip()
        if not lstr.strip():
            continue
        parts = lstr.split()
        head = parts[0]
        if head == "field":
            spec = "".join(parts[1:])
            if spec == "Q":
                ctx.gf = None
            elif spec.startswith("GF"):
                digits = spec[2:].strip("()")
                if not digits.isdecimal():
                    raise LpError(f"field {spec!r} needs a prime, as in GF(32003)", lineno, 7)
                try:
                    ctx.gf = GF(int(digits))
                except FieldError as e:
                    raise LpError(f"bad field {spec!r}: {e}", lineno, 7)
            else:
                raise LpError(f"unknown field {spec!r}", lineno, 7)
        elif head == "param":
            if len(parts) < 2:
                raise LpError("param needs a name", lineno, 1)
            name = parts[1]
            if name in ctx.bound or name in ctx.symbolic:
                raise LpError(f"duplicate parameter {name!r}", lineno, 1)
            if any(g.name == name for g in generators):
                raise LpError(f"{name!r} is declared as a parameter and as a generator", lineno, 1)
            if len(parts) >= 4 and parts[2] == "=":
                try:
                    ctx.bound[name] = Fraction("".join(parts[3:]))
                except (ValueError, ZeroDivisionError):
                    raise LpError(f"bad parameter value {' '.join(parts[3:])!r}", lineno, 1)
            else:
                ctx.symbolic.append(name)
                if "nonzero" in parts[2:]:
                    ctx.nonvanishing.append(name)
        elif head == "nonvanishing":
            # Comma- or space-separated, but "a + 1" (as printed) is one.
            exprs = re.sub(r"\s*([-+*/^])\s*", r"\1", " ".join(parts[1:]))
            ctx.nonvanishing.extend(exprs.replace(",", " ").split())
        elif head == "objects":
            objects = parts[1:]
            if not objects:
                raise LpError("objects needs at least one name", lineno, 1)
            if len(set(objects)) != len(objects):
                raise LpError("duplicate object names", lineno, 1)
        elif head == "generators":
            for name in parts[1:]:
                add_generator(name, "*", "*", 1, lineno)
        elif head == "generator":
            # generator f : src -> tgt [degree D]
            body = lstr[len("generator") :].strip()
            degree = 1
            if " degree " in body:
                body, _, d = body.rpartition(" degree ")
                degree = _int(d, "degree", lineno)
            name, colon, rest = body.partition(":")
            name = name.strip()
            src, tgt = "*", "*"
            if colon:
                s, arrow, t = rest.partition("->")
                if not arrow:
                    raise LpError("generator boundary needs '->'", lineno, 1)
                src, tgt = s.strip(), t.strip()
            if not name:
                raise LpError("generator needs a name", lineno, 1)
            add_generator(name, src, tgt, degree, lineno)
        elif head == "order":
            kind = parts[1] if len(parts) > 1 else ""
            body = lstr.split(None, 2)[2] if len(parts) > 2 else ""
            groups = [g.strip() for g in body.split("<")]
            order_line = lineno
            if kind == "deglex":
                order = MonomialOrder("deglex", [g for grp in groups for g in grp.split()])
            elif kind == "weighted-deglex":
                prec, weights = [], {}
                for grp in groups:
                    for item in grp.split():
                        name, _, w = item.partition(":")
                        prec.append(name)
                        weights[name] = _int(w, "weight", lineno) if w else 1
                try:
                    order = MonomialOrder("weighted-deglex", prec, weights=weights)
                except ValueError as e:  # no weights, or a negative one
                    raise LpError(str(e), lineno, 7)
            elif kind == "elimination":
                blocks = [grp.split() for grp in groups]
                order = MonomialOrder(
                    "elimination-block-deglex",
                    [g for b in blocks for g in b],
                    blocks=blocks,
                )
            else:
                raise LpError(f"unknown order kind {kind!r}", lineno, 7)
        elif head == "measure":
            has_measure = True
            if len(parts) >= 4 and parts[1] == "letter":
                measure_letters.append((parts[2], _measure_weight(parts[3], lineno)))
            elif len(parts) >= 4 and parts[1] == "pattern":
                measure_patterns.append((tuple(parts[2:-1]), _measure_weight(parts[-1], lineno)))
            elif len(parts) == 3 and parts[1] == "bound":
                measure_bound = _int(parts[2], "bound", lineno)
            else:
                raise LpError("measure needs 'letter', 'pattern', or 'bound'", lineno, 9)
        elif head == "rule":
            body = lstr[len("rule") :].strip()
            name, colon, rest = body.partition(":")
            if not colon:
                raise LpError("rule needs 'name : source -> target'", lineno, 1)
            src_text, arrow, tgt_text = rest.partition("->")
            if not arrow:
                raise LpError("rule needs '->'", lineno, 1)
            rule_specs.append((name.strip(), src_text.strip(), tgt_text.strip(), lineno, raw))
        elif head == "certified":
            if parts[1:] != ["convergent"]:
                raise LpError("only 'certified convergent' is recognized", lineno, 1)
            want_certified = True
        else:
            raise LpError(f"unknown directive {head!r}", lineno, 1)

    declared = [g.name for g in generators]
    if order is not None and sorted(order.precedence) != sorted(declared):
        raise LpError(
            f"order must name each generator once: it names {' '.join(order.precedence)}, "
            f"the generators are {' '.join(declared)}",
            order_line,
            1,
        )
    field = ctx.build()
    if objects is None:
        objects = ["*"]
    fixed = []
    for g, lineno in zip(generators, generator_lines):
        bounds = []
        for obj in (g.source, g.target):
            if obj not in objects:
                if obj != "*":
                    raise LpError(f"generator {g.name!r} names undeclared object {obj!r}", lineno, 1)
                obj = objects[0]  # no boundary written: the first object
            bounds.append(obj)
        fixed.append(Generator(g.name, *bounds, g.degree))
    quiver = Quiver(objects, fixed)

    rules = []
    seen_names = set()
    for name, src_text, tgt_text, lineno, raw in rule_specs:
        if not name:
            raise LpError("rule needs a name", lineno, 1)
        if name in seen_names:
            raise LpError(f"duplicate rule name {name!r}", lineno, 1)
        seen_names.add(name)
        src_off = raw.index(src_text) if src_text in raw else 0
        src_word = _expand_word(
            _tokens_with_cols(src_text, src_off), lineno, quiver
        )
        if not src_word:
            raise LpError("rule source must be a nonempty word", lineno, src_off + 1)
        try:
            source = quiver.monomial(src_word)
        except Exception as e:
            raise LpError(str(e), lineno, src_off + 1)
        tgt_off = raw.rindex(tgt_text) if tgt_text and tgt_text in raw else len(raw)
        terms = []
        for sign, chunk, col in _split_terms(tgt_text, lineno, tgt_off):
            toks = _term_tokens(chunk, lineno, col - 1)
            coeff = field.one if sign == 1 else field.neg(field.one)
            word_toks = []
            for tok, tcol in toks:
                if not word_toks and _is_coefficient(tok, ctx):
                    coeff = field.mul(coeff, ctx.coefficient(tok, lineno, tcol))
                else:
                    word_toks.append((tok, tcol))
            word = _expand_word(word_toks, lineno, quiver)
            try:
                m = (
                    quiver.monomial(word)
                    if word
                    else quiver.identity(source.source)
                )
            except Exception as e:
                raise LpError(str(e), lineno, col)
            terms.append((coeff, m))
        try:
            target = quiver.poly(field, terms, source=source.source, target=source.target)
            rules.append(Rule(name, source, target))
        except Exception as e:
            raise LpError(str(e), lineno, 1)

    P = Polygraph2(quiver, field, rules, order)
    measure = None
    if has_measure:
        measure = PatternMeasure(
            tuple(measure_letters), tuple(measure_patterns), measure_bound
        )
    meta = {
        "order": order,
        "measure": measure,
        "params": dict(ctx.bound),
        "symbolic_params": list(ctx.symbolic),
        "certified": want_certified,
    }
    if want_certified:
        cert = certify_declared(P, measure)
        if not cert.ok:
            raise LpError(
                f"file claims 'certified convergent' but termination fails: {cert.notes}"
            )
        P.termination_certificate = cert
        if not is_confluent(P):
            raise LpError("file claims 'certified convergent' but a critical pair fails")
    return P, meta


def parse_file(path: str):
    return parse(read_text(path))


def read_text(path: str) -> str:
    """The text of a UTF-8 file.  A byte sequence that is not UTF-8 raises
    LpError naming the file and the line and column where it starts."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[: e.start].decode("utf-8")
        message = f"{path} is not UTF-8: cannot decode byte 0x{data[e.start]:02x} ({e.reason})"
        raise LpError(message, before.count("\n") + 1, len(before) - before.rfind("\n")) from None


def _coeff_str(field, c) -> str:
    s = field.to_str(c)
    if any(ch in s for ch in "+- */") and not (s.startswith("-") and s[1:].isdigit()):
        return f"({s})"
    return s


def _poly_str(f: Polynomial) -> str:
    field = f.field
    parts = []
    for c, m in f.items():
        cs = _coeff_str(field, c)
        word = str(m) if not m.is_identity() else ""
        if cs == "1" and word:
            parts.append(word)
        elif cs == "-1" and word:
            parts.append(f"- {word}" if parts else f"-{word}")
            continue
        else:
            parts.append(f"{cs} {word}".strip())
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("- "):
            out += " " + p
        else:
            out += " + " + p
    return out


def print_polygraph(P: Polygraph2, meta: Optional[dict] = None) -> str:
    """Canonical text form; parse(print_polygraph(P)) reproduces P."""
    meta = meta or {}
    lines = []
    field = P.field
    if isinstance(field, ParameterField):
        lines.append("field Q")
        for p in field.params:
            nz = " nonzero" if any(str(e) == p for e in field.nonvanishing) else ""
            lines.append(f"param {p}{nz}")
        for e in field.nonvanishing:
            if str(e) not in field.params:
                lines.append(f"nonvanishing {e}")
    elif hasattr(field, "p"):
        lines.append(f"field GF({field.p})")
    else:
        lines.append("field Q")
        for name, val in meta.get("params", {}).items():
            lines.append(f"param {name} = {val}")
    if list(P.quiver.objects) != ["*"]:
        lines.append("objects " + " ".join(P.quiver.objects))
    gens = list(P.quiver.generators.values())
    if all(g.source == g.target == P.quiver.objects[0] and g.degree == 1 for g in gens):
        lines.append("generators " + " ".join(g.name for g in gens))
    else:
        for g in gens:
            extra = f" degree {g.degree}" if g.degree != 1 else ""
            lines.append(f"generator {g.name} : {g.source} -> {g.target}{extra}")
    order = P.order or meta.get("order")
    if order is not None:
        if order.kind == "deglex":
            lines.append("order deglex " + " < ".join(order.precedence))
        elif order.kind == "weighted-deglex":
            lines.append(
                "order weighted-deglex "
                + " < ".join(f"{g}:{order.weights.get(g, 1)}" for g in order.precedence)
            )
        else:
            lines.append(
                "order elimination " + " < ".join(" ".join(b) for b in order.blocks)
            )
    measure = meta.get("measure")
    if measure is not None:
        for g, w in measure.letter_weights:
            lines.append(f"measure letter {g} {w}")
        for pat, w in measure.pattern_weights:
            lines.append(f"measure pattern {' '.join(pat)} {w}")
        lines.append(f"measure bound {measure.context_bound}")
    for r in P.rules:
        lines.append(f"rule {r.name} : {r.source} -> {_poly_str(r.target)}")
    if P.certified_convergent:
        lines.append("certified convergent")
    return "\n".join(lines) + "\n"


def write_file(path: str, P: Polygraph2, meta: Optional[dict] = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_polygraph(P, meta))

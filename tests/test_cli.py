import hashlib
import io
import itertools
import json
import time
from fractions import Fraction

import pytest

from linrew import Monomial, Polynomial, complete, lpformat, standard_basis
from linrew.cli import _emit, main
from linrew.completion import DEFAULT_WORK_BUDGET, MEASURE_PAIR_BUDGET

from brute_force import dense_quotient_dimension
from conftest import EQUAL_SOURCES, cubic_system, h1_system, plactic_system, tableau_count
from tor_oracle import tor_oracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_nf(capsys, fixtures_dir):
    code, out = run(capsys, "nf", fx(fixtures_dir, "xyz.lp"), "--term", "x y z x")
    assert code == 0
    assert out.strip() == "x^4 + y^3 x + z^3 x"


def test_check_convergent(capsys, fixtures_dir):
    code, doc = run_json(capsys, "check", fx(fixtures_dir, "xyz.lp"))
    assert code == 0
    assert doc["convergent"]
    assert doc["termination"]["kind"] == "pattern-measure"
    assert doc["confluence"]["critical_branchings"] == 0


def test_check_refuses_measures_of_non_terminating_systems(capsys, tmp_path):
    """Two systems whose rewriting never ends, once accepted as convergent:
    a negative letter weight is refused at its line, and the pattern
    c c c c b is checked in contexts longer than the declared bound 3."""
    negative = tmp_path / "negative.lp"
    negative.write_text("field Q\ngenerators x\nmeasure letter x -1\nrule r : x -> x x\n")
    assert main(["check", str(negative)]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("line 3, col 9: measure weight -1")
    pattern = tmp_path / "pattern.lp"
    pattern.write_text(
        "field Q\ngenerators a b c\nmeasure letter a 2\nmeasure letter b 1\n"
        "measure pattern c c c c b 10\nrule r : a -> b\nrule s : c c c c b -> c c c c a\n"
    )
    code, doc = run_json(capsys, "check", str(pattern))
    assert code == 3 and not doc["convergent"] and not doc["termination"]["ok"]
    assert run(capsys, "nf", str(pattern), "--term", "c c c c a")[0] == 3


def test_check_measure_budget_exits_3(capsys, fixtures_dir, tmp_path):
    """xyz.lp at measure bound 7 has 3280 contexts a side: its measure check
    is refused by its pair budget at once, with exit 3 and the report."""
    path = tmp_path / "xyz7.lp"
    path.write_text((fixtures_dir / "xyz.lp").read_text().replace("measure bound 3", "measure bound 7"))
    start = time.perf_counter()
    code, doc = run_json(capsys, "check", str(path))
    assert time.perf_counter() - start < 2
    assert code == 3 and not doc["convergent"]
    assert doc["termination"]["notes"] == (
        f"measure check over contexts of up to 7 letters exceeds its budget of "
        f"{MEASURE_PAIR_BUDGET} (u, v) context pairs: 1194649 pairs already at 6 letters"
    )


def test_check_nonconfluent_exits_3(capsys, fixtures_dir):
    code, doc = run_json(capsys, "check", fx(fixtures_dir, "xyrev.lp"))
    assert code == 3
    assert not doc["convergent"]
    entry = doc["confluence"]["entries"][0]
    assert entry["word"] == "x^3" and not entry["joinable"]


def test_complete_writes_output(capsys, fixtures_dir, tmp_path):
    out_path = tmp_path / "xy_done.lp"
    code, doc = run_json(
        capsys, "complete", fx(fixtures_dir, "xy.lp"), "-o", str(out_path)
    )
    assert code == 0
    assert list(doc["added_rules"].values()) == [
        {"source": "y x^2", "target": "x^3"}
    ]
    assert "certified convergent" in out_path.read_text()
    assert lpformat.parse_file(str(out_path))[0].certified_convergent


def test_nf_nonterminating_exits_3(capsys, tmp_path):
    # Rule c is not compatible with the order: z y rewrites forever.
    path = tmp_path / "h1.lp"
    path.write_text(
        "field Q\n"
        "generators x y z\n"
        "order deglex x < y < z\n"
        "rule a : z y -> y z + x x\n"
        "rule b : z x -> x z + 2 y y\n"
        "rule c : y x -> x y + z z\n"
    )
    code, doc = run_json(capsys, "nf", str(path), "--term", "z z y")
    assert code == 3
    assert doc == {"error": "step budget exceeded (system may be non-terminating)"}


def test_nf_long_normalisation(capsys, tmp_path):
    # A path of 1,600 rightmost steps: deeper than one recursion per step allows.
    path = tmp_path / "ba.lp"
    path.write_text("field Q\ngenerators a b\norder deglex a < b\nrule s : b a -> a b\n")
    code, out = run(capsys, "nf", str(path), "--term", " ".join(["b"] * 40 + ["a"] * 40))
    assert code == 0
    assert out.strip() == "a^40 b^40"


@pytest.mark.parametrize("rule, term", [("x -> x x", "x"), ("y -> x y x", "y")], ids=["x_xx", "y_xyx"])
def test_nf_growing_words_exit_3(capsys, tmp_path, rule, term):
    # Every step lengthens the word: the budget charges each rewritten
    # monomial its weight, so this stops after about a thousand steps.
    path = tmp_path / "grow.lp"
    path.write_text(f"field Q\ngenerators x y\nrule r : {rule}\n")
    code, doc = run_json(capsys, "nf", str(path), "--term", term)
    assert code == 3
    assert doc == {"error": "step budget exceeded (system may be non-terminating)"}


def test_complete_scalar_in_ideal_exits_3(capsys, tmp_path):
    # The ideal contains the scalar 2, which no rule can orient.
    path = tmp_path / "scalar.lp"
    path.write_text(
        "field Q\n"
        "generators x y\n"
        "order deglex x < y\n"
        "rule r1 : y -> 0\n"
        "rule r2 : x y^2 -> 0\n"
        "rule r3 : y x^2 -> -x + 2 x^2 y\n"
        "rule r4 : y x y -> 2 + 2 y\n"
    )
    assert main(["complete", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert "nonzero scalar" in err and err.startswith("rule ")


def test_complete_work_budget_exits_3(capsys, tmp_path):
    # Neither the degree nor the rule bound trips for a long time here; the
    # cost is coefficient arithmetic on ever larger normal forms.
    path = tmp_path / "grow.lp"
    path.write_text(
        "field Q\n"
        "generators x y z\n"
        "order deglex x < y < z\n"
        "rule r0 : y y z -> 2 - 2 z y\n"
        "rule r1 : y y y -> -2 z + 2 x z y\n"
        "rule r2 : z z -> 2 y + 2 z x\n"
    )
    code, doc = run_json(capsys, "complete", str(path), "--max-degree", "6")
    assert code == 3
    assert doc["error"].startswith(
        f"completion exceeded its work budget of {DEFAULT_WORK_BUDGET} terms summed "
        "into normal forms while reducing S-polynomials, at "
    )
    assert len(doc["partial_rules"]) > 3


def test_pbw_h1_work_budget_exits_3(capsys, tmp_path):
    """pbw reads dim A_d off the normal forms of H1's completion through
    --dmax; at degree 10 that completion runs out of its work budget, and
    pbw exits 3 naming the stage."""
    path, basis = tmp_path / "h1.lp", tmp_path / "basis.txt"
    lpformat.write_file(str(path), h1_system())
    words = (w for d in range(1, 11) for w in itertools.combinations_with_replacement("xyz", d))
    basis.write_text("\n".join(" ".join(w) for w in words) + "\n", encoding="utf-8")
    assert main(["pbw", str(path), "--basis-file", str(basis), "--dmax", "10"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"].startswith(
        f"completion exceeded its work budget of {DEFAULT_WORK_BUDGET} terms summed "
        "into normal forms while reducing S-polynomials, at "
    )


def test_hilbert_plactic_p3_counts_tableaux(capsys, tmp_path):
    path = tmp_path / "p3.lp"
    lpformat.write_file(str(path), plactic_system(3))
    code, doc = run_json(capsys, "hilbert", str(path), "--dmax", "9")
    assert code == 0 and doc["completed"]
    assert list(doc["counts"].values()) == [tableau_count(3, d) for d in range(10)]


def test_branchings(capsys, fixtures_dir):
    code, doc = run_json(capsys, "branchings", fx(fixtures_dir, "groebner2.lp"))
    assert code == 0
    assert [e["word"] for e in doc["critical_branchings"]] == [
        "z^4",
        "z^5",
        "z^3 y^3",
    ]


def test_chains(capsys, fixtures_dir):
    code, doc = run_json(
        capsys, "chains", fx(fixtures_dir, "pp05.lp"), "--kmax", "4", "--dmax", "6"
    )
    assert code == 0
    assert doc["completed"]
    assert doc["counts"]["3,3"] == 2 and doc["counts"]["4,4"] == 2


def test_tor_writes_json(capsys, fixtures_dir, tmp_path):
    path = tmp_path / "tor.json"
    code, doc = run_json(
        capsys,
        "tor",
        fx(fixtures_dir, "xyz.lp"),
        "--kmax",
        "3",
        "--dmax",
        "6",
        "--json",
        str(path),
    )
    assert code == 0
    assert doc["tor"]["2,3"] == {"kind": "exact", "dim": 1}
    on_disk = json.loads(path.read_text())
    assert on_disk["tor"] == doc["tor"]


def test_tor_non_augmented_exits_3(capsys, tmp_path):
    # The Weyl algebra: y x = x y + 1 leaves K no module structure.
    path = tmp_path / "weyl.lp"
    path.write_text("field Q\ngenerators x y\norder deglex x < y\nrule w : y x -> x y + 1\n")
    assert main(["tor", str(path), "--kmax", "3", "--dmax", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "Tor needs an augmented algebra, but the target of rule w has a constant term"
    }


@pytest.mark.parametrize("kmax, dmax", [(0, 0), (1, 1), (4, 2)])
def test_koszul_small_window_not_certified(capsys, fixtures_dir, kmax, dmax):
    # pp05's relations meet in degree l_2(3) = 3, outside these windows.
    code, doc = run_json(
        capsys, "koszul", fx(fixtures_dir, "pp05.lp"), "--kmax", str(kmax), "--dmax", str(dmax)
    )
    assert code == 0
    verdict = doc["verdict"]
    assert verdict["status"] == "Koszul-up-to-bound" and verdict["reason"] is None
    assert verdict["notes"].startswith(f"window (kmax={kmax}, dmax={dmax}) is too small")


def test_koszul_seed_echoed(capsys, fixtures_dir):
    code, doc = run_json(
        capsys, "--seed", "7", "koszul", fx(fixtures_dir, "pp05.lp")
    )
    assert code == 0
    assert doc["seed"] == 7
    assert doc["verdict"]["status"] == "Koszul-certified"


def test_hilbert(capsys, fixtures_dir):
    code, doc = run_json(
        capsys, "hilbert", fx(fixtures_dir, "xyz.lp"), "--dmax", "4"
    )
    assert code == 0
    assert doc["counts"] == {"0": 1, "1": 3, "2": 9, "3": 26, "4": 75}


def test_hilbert_basis_budget_exits_3(capsys, fixtures_dir):
    """groebner2 has 4.5 million irreducible words up to degree 14: they
    are counted, and refused, before any is listed."""
    code = main(["hilbert", fx(fixtures_dir, "groebner2.lp"), "--dmax", "300"])
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err) == {
        "error": "standard basis exceeded its budget of 2000000 words while counting them: "
        "4502773 words up to degree 14"
    }


def test_hilbert_large_basis_within_budget(capsys, fixtures_dir):
    code, doc = run_json(capsys, "hilbert", fx(fixtures_dir, "xyonly.lp"), "--dmax", "1500")
    assert code == 0
    assert sum(doc["counts"].values()) == 1_127_251
    assert doc["basis"]["1500"][:2] == ["x^1500", "y x^1499"]


def test_hilbert_cubic_digest(capsys, tmp_path):
    # Degree 11 reaches runs such as x^10 that the fixtures at --dmax 6 do
    # not; the digest was recorded with the Monomial-by-Monomial listing.
    path = tmp_path / "cubic.lp"
    lpformat.write_file(str(path), cubic_system())
    code, out = run(capsys, "hilbert", str(path), "--dmax", "11")
    assert code == 0
    digest = hashlib.sha256(out.replace(str(path), "<cubic>").encode("utf-8")).hexdigest()
    assert digest == "2ead984ee24f0a05678cd05213af2a5c20e6499e347defb93d5d4cb29b1a8022"


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "{F}", "--dmax", "-1"],
        ["koszul", "{F}", "--dmax", "-1"],
        ["tor", "{F}", "--kmax", "-1", "--dmax", "3"],
    ],
    ids=["hilbert", "koszul", "tor"],
)
def test_negative_bound_exit_2(capsys, fixtures_dir, argv):
    code = main([a.format(F=fx(fixtures_dir, "xyz.lp")) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be non-negative, got -1" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["complete", "{F}", "--max-degree", "-1"], "must be non-negative, got -1"),
        (["complete", "{F}", "--max-rules", "-1"], "must be non-negative, got -1"),
        (["branchings", "{F}", "--fold", "1"], "must be at least 2, got 1"),
        (["branchings", "{F}", "--fold", "0"], "must be at least 2, got 0"),
        (["branchings", "{F}", "--fold", "-3"], "must be at least 2, got -3"),
    ],
    ids=["max-degree", "max-rules", "fold1", "fold0", "fold-3"],
)
def test_invalid_completion_and_fold_bounds_exit_2(capsys, fixtures_dir, argv, message):
    code = main([a.format(F=fx(fixtures_dir, "xy.lp")) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "rules, error",
    [
        # Critical branchings on y y x y: Tor_{2,2} = Tor_{2,3} = 1.
        (["y y -> x x", "y x y -> x x x"],
         "its minimal relations lie in degrees 2 and 3 (Tor_2 is nonzero in each)"),
        # No critical branchings at all.
        (["x y -> 0", "z z y -> x x x"], "its rules have degrees 2 and 3"),
    ],
    ids=["tor2", "no-criticals"],
)
def test_koszul_mixed_degree_relations_exit_3(capsys, tmp_path, rules, error):
    path = tmp_path / "mixed.lp"
    path.write_text(
        "field Q\ngenerators x y z\norder deglex x < y < z\n"
        + "".join(f"rule r{i} : {r}\n" for i, r in enumerate(rules))
    )
    code, doc = run_json(capsys, "koszul", str(path))
    assert code == 3
    assert "verdict" not in doc
    assert doc["error"] == f"Koszulity verdict needs an N-homogeneous algebra, but {error}"


@pytest.mark.parametrize(
    "rules",
    [
        ["x y -> y x"],  # no critical branching: was Koszul-certified, "N=3"
        ["x x -> y y y y", "x y y -> y y x"],  # was Not-Koszul, witness the generator x
    ],
    ids=["no-criticals", "completed"],
)
def test_koszul_refuses_generators_of_degree_other_than_1(capsys, tmp_path, rules):
    path = tmp_path / "weighted.lp"
    path.write_text(
        "field Q\ngenerator x : * -> * degree 2\ngenerator y : * -> *\norder deglex y < x\n"
        + "".join(f"rule r{i} : {r}\n" for i, r in enumerate(rules))
    )
    code, doc = run_json(capsys, "koszul", str(path))
    assert code == 3
    assert "verdict" not in doc
    assert doc["error"] == "Koszulity verdict needs generators of degree 1, but generator x has degree 2"
    code, doc = run_json(capsys, "tor", str(path), "--kmax", "3", "--dmax", "6")
    assert code == 0
    assert "hard-zero" in {e["kind"] for e in doc["tor"].values()}


def test_koszul_groebner2_relations_in_one_degree(capsys, fixtures_dir):
    # Its rules have degrees 3 and 4, but r2 is no minimal relation: Tor_2
    # lives in degree 3 alone, so the verdict stands.
    code, doc = run_json(capsys, "koszul", fx(fixtures_dir, "groebner2.lp"))
    assert code == 0
    verdict = doc["verdict"]
    assert (verdict["status"], verdict["reason"]) == ("Koszul-certified", "concentrated-after-collapse")
    tor2 = {k: e["dim"] for k, e in verdict["tor"].items() if k.startswith("2,") and e["dim"]}
    assert tor2 == {"2,3": 1}


def test_pbw(capsys, fixtures_dir, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text(
        "\n".join(
            " ".join(["y"] * i + ["x"] * (d - i))
            for d in range(1, 5)
            for i in range(d + 1)
        )
    )
    code, doc = run_json(
        capsys,
        "pbw",
        fx(fixtures_dir, "xyonly.lp"),
        "--basis-file",
        str(basis),
        "--dmax",
        "4",
    )
    assert code == 0
    assert doc["pbw"]["passed"]


def test_missing_file_exit_2(capsys, fixtures_dir):
    assert main(["check", str(fixtures_dir / "nope.lp")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{D}"],
        ["check", "{D}/latin1.lp"],
        ["complete", "{F}", "-o", "{D}"],
        ["tor", "{F}", "--kmax", "2", "--dmax", "3", "--json", "{D}"],
    ],
    ids=["check-dir", "check-not-utf8", "complete-output-dir", "tor-json-dir"],
)
def test_unreadable_or_unwritable_path_exit_2(capsys, fixtures_dir, tmp_path, argv):
    (tmp_path / "latin1.lp").write_bytes("field Q\ngenerators x \xe9\n".encode("latin-1"))
    code = main([a.format(F=fx(fixtures_dir, "xy.lp"), D=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"]


def test_bad_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_reports_deterministic(capsys, fixtures_dir):
    _, a = run(capsys, "koszul", fx(fixtures_dir, "pp05.lp"))
    _, b = run(capsys, "koszul", fx(fixtures_dir, "pp05.lp"))
    assert a == b


_ESCAPED = {"quote": '"', "backslash": "\\", "del": "\x7f", "unit-separator": "\x1f", "e-acute": "\u00e9"}
_ESCAPE_AT = (0, 4095, 4096)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": [], "b": {}, "c": [[], [{}], {"d": []}]},
        ["caf\u00e9 \u2603 \U0001d11e", "tab\tnul\x00quote\"back\\slash\nline"],
        {"flags": [True, 1, False, 0, None], "float": [2.5, -0.0, 1e300]},
        {"m": [Monomial(("x", "y"), "*", "*", 2), "x y"], "bare": Monomial((), "*", "*", 0)},
        {"q": [Fraction(1, 3), Fraction(-2), "1/3"], "f": Fraction(5, 7)},
        {1: "one", 2.5: "float", True: "true", None: "none", "k": ("a", ("b", 3))},
        {"many": [f"w{i}" for i in range(10_000)] + [Fraction(1, 2), 7] + ["t"] * 5_000},
        {"empty": [""] * 4096 + ["", "w", ""] + [""] * 10},
    ]
    + [  # one item to escape among plain strings
        {"plain": [f"w{i}" if i != at else f"a{c}b" for i in range(4196)] + ["", "z"]}
        for at in _ESCAPE_AT
        for c in _ESCAPED.values()
    ],
    ids=["empty-dict", "empty-list", "nested-empty", "non-ascii-and-control", "bool-int-none-float",
         "monomial", "fraction", "non-str-keys", "long-mixed-list", "empty-strings"]
    + [f"escape-{name}-at-{at}" for at in _ESCAPE_AT for name in _ESCAPED],
)
def test_emit_writes_what_json_dump_writes(capsys, doc):
    expected = io.StringIO()
    json.dump(doc, expected, indent=2, default=str)
    _emit(doc)
    assert capsys.readouterr().out == expected.getvalue() + "\n"


_HILBERT_CASES = {
    "e-acute": ("field Q\ngenerators x \u00e9\norder deglex x < \u00e9\nrule r : \u00e9 x -> x \u00e9\n", 4),
    "quote": ('field Q\ngenerators x a"b\norder deglex x < a"b\nrule r : a"b x -> x x\n', 4),
    "backslash": ("field Q\ngenerators x c\\d\norder deglex x < c\\d\nrule r : c\\d c\\d -> x\n", 4),
    "two-objects": (
        "field Q\nobjects p q\ngenerator f : p -> q\ngenerator g : q -> p\ngenerator h : p -> p\n"
        "order deglex f < g < h\nrule r : g f -> 0\nrule s : h h -> 0\n",
        5,
    ),
    "no-words": ("field Q\ngenerators x\norder deglex x\nrule r : x x -> 0\n", 3),
    "dmax-0": ("field Q\ngenerators x y\norder deglex x < y\nrule r : y x -> x y\n", 0),
    "many-words": ("field Q\ngenerators x y z\norder deglex x < y < z\nrule r : z x -> x z\n", 8),
    "many-words-escaped": (
        'field Q\ngenerators x a"b c\\d \u00e9\norder deglex x < a"b < c\\d < \u00e9\n'
        'rule r : \u00e9 x -> x \u00e9\nrule s : c\\d a"b -> x x\n',
        7,
    ),
}


@pytest.mark.parametrize("text, dmax", _HILBERT_CASES.values(), ids=_HILBERT_CASES)
def test_hilbert_report_is_what_json_dump_writes(capsys, tmp_path, text, dmax):
    """The basis is written as json.dump writes the lists of
    StandardBasis.text, whether its blocks are written whole (plain names)
    or text by text (names json escapes)."""
    path = tmp_path / "names.lp"
    path.write_text(text, encoding="utf-8")
    code, out = run(capsys, "hilbert", str(path), "--dmax", str(dmax))
    assert code == 0
    doc = json.loads(out)
    P = lpformat.parse_file(str(path))[0]
    if doc.get("completed"):
        P = complete(P, P.order)
    doc["basis"] = {str(d): texts for d, texts in sorted(standard_basis(P, dmax).text.items())}
    expected = io.StringIO()
    json.dump(doc, expected, indent=2)
    assert out == expected.getvalue() + "\n"


def test_tor_json_file_is_the_report_on_stdout(capsys, fixtures_dir, tmp_path):
    path = tmp_path / "tor.json"
    code, out = run(capsys, "tor", fx(fixtures_dir, "pp05.lp"), "--kmax", "4", "--dmax", "6", "--json", str(path))
    assert code == 0
    assert path.read_bytes() + b"\n" == out.encode()


@pytest.mark.parametrize("flag", ["file", "basis-file"])
def test_not_utf8_names_the_file_line_and_column(capsys, fixtures_dir, tmp_path, flag):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("field Q\n# caf\u00e9 x\n".encode("latin-1"))
    if flag == "file":
        argv = ["check", str(bad)]
    else:
        argv = ["pbw", fx(fixtures_dir, "xy.lp"), "--basis-file", str(bad), "--dmax", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith(f"line 2, col 6: {bad} is not UTF-8")
    assert "0xe9" in error


SKEW = """field Q
generators x y z
order deglex x < y < z
rule a : y x -> 2 x y
rule b : z x -> 3 x z
rule c : z y -> 5 y z
"""


@pytest.mark.parametrize("command", ["complete-pp05", "tor-skew"])
def test_decided_confluence_formats_no_polynomial(capsys, monkeypatch, fixtures_dir, tmp_path, command):
    """complete certifies its result, and tor its convergent input, without
    writing an S-polynomial or a normal form as text."""
    skew = tmp_path / "skew.lp"
    skew.write_text(SKEW, encoding="utf-8")

    def no_str(self):
        raise AssertionError("Polynomial.__str__ called")

    monkeypatch.setattr(Polynomial, "__str__", no_str)
    if command == "complete-pp05":
        code, doc = run_json(capsys, "complete", fx(fixtures_dir, "pp05.lp"))
        assert doc["convergent"]
    else:
        code, doc = run_json(capsys, "tor", str(skew), "--kmax", "3", "--dmax", "4")
        assert "completed" not in doc
    assert code == 0


NON_CONFLUENT_NO_ORDER = """field Q
generators x y
measure letter y 1
measure bound 3
rule b : y y -> x x
rule a : x y -> x x
"""


def test_non_confluent_without_order_reports_every_branching(capsys, tmp_path):
    """A resolution command on a terminating system that is not confluent
    and declares no order exits 3 with the full confluence report, whose
    first branching is already not joinable."""
    path = tmp_path / "no_order.lp"
    path.write_text(NON_CONFLUENT_NO_ORDER, encoding="utf-8")
    code, out = run(capsys, "tor", str(path), "--kmax", "3", "--dmax", "4")
    assert code == 3
    entries = json.loads(out)["confluence"]["entries"]
    assert [(e["word"], e["joinable"], e["s_polynomial_nf"]) for e in entries] == [
        ("y^3", False, "x^3 - y x^2"),
        ("x y^2", True, "0"),
    ]
    digest = hashlib.sha256(out.replace(str(path), "{F}").encode()).hexdigest()
    assert digest == "68753d969cc727c471c7fd54df9a983d3c92c828e4136175f8ae6b2bdfe4683a"


@pytest.mark.parametrize("name", sorted(EQUAL_SOURCES))
def test_equal_sources_agree_with_brute_force(capsys, tmp_path, name):
    """Two rules of one source are not confluent when their targets differ:
    check exits 3 (on y y -> x x, x x -> 2 y y, whose second rule the
    order does not orient, by termination), and the commands that complete
    count the algebra as brute force does."""
    path = tmp_path / f"{name}.lp"
    path.write_text(EQUAL_SOURCES[name], encoding="utf-8")
    P = lpformat.parse(EQUAL_SOURCES[name])[0]
    code, doc = run_json(capsys, "check", str(path))
    assert code == 3 and not doc["convergent"]
    if name == "yx":
        assert [(e["word"], e["rules"], e["joinable"]) for e in doc["confluence"]["entries"]] == [
            ("y x", ["a", "b"], False)
        ]
    code, doc = run_json(capsys, "hilbert", str(path), "--dmax", "4")
    assert code == 0
    assert list(doc["counts"].values()) == [dense_quotient_dimension(P, d) for d in range(5)] == [1, 2, 2, 2, 2]
    code, _ = run(capsys, "chains", str(path), "--kmax", "4", "--dmax", "6")
    assert code == 0
    code, doc = run_json(capsys, "tor", str(path), "--kmax", "4", "--dmax", "6")
    assert code == 0
    oracle = tor_oracle(complete(P), 4, 6)
    assert {ki: e["dim"] for ki, e in doc["tor"].items()} == {f"{k},{i}": n for (k, i), n in oracle.items()}
    # Tor concentrated on the diagonal: k<x, y>/(x^2, y^2) and k<x, y>/(x y, y x) are Koszul.
    assert all(n == 0 for (k, i), n in oracle.items() if k != i)
    code, doc = run_json(capsys, "koszul", str(path))
    assert code == 0 and doc["verdict"]["status"] == "Koszul-certified"

"""The benchmark's own tests: each oracle accepts linrew's real output and
rejects a deliberately corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from linrew import cli, lpformat  # noqa: E402
from linrew.rewriting import quotient_dimension  # noqa: E402
from oracles import Wrong  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def write(tmp_path, name, system):
    path = tmp_path / f"{name}.lp"
    path.write_text(system.render(), encoding="utf-8")
    return str(path)


def corrupt(stdout, edit):
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc)


@pytest.fixture
def book():
    return oracles.Oracles(json.loads(oracles.GOLDEN.read_text(encoding="utf-8")))


def test_tor_oracle_rejects_one_wrong_dimension(tmp_path, book):
    path = write(tmp_path, "q5", inputs.skew(5, random.Random(3)))
    rc, stdout = run_cli(["tor", path, "--kmax", "4", "--dmax", "5"])
    check = book.check_for("tor/q5", "skew_tor", 5, 4, 5)
    check(rc, stdout)

    def bump(doc):
        doc["tor"]["2,2"]["dim"] += 1

    with pytest.raises(Wrong, match="Tor_2,2"):
        check(rc, corrupt(stdout, bump))


def test_euler_characteristic_rejects_an_off_diagonal_class():
    diagonal = {(0, 0): 1, (1, 1): 3, (2, 2): 3}  # k[x, y, z]
    tor = {f"{k},{i}": {"dim": diagonal.get((k, i), 0)} for i in range(3) for k in range(i + 1)}
    hilbert = [1, 3, 6]
    assert oracles.euler_problems(tor, hilbert, 2) == []
    tor["1,2"]["dim"] = 1
    assert oracles.euler_problems(tor, hilbert, 2)


def test_hilbert_oracle_rejects_one_wrong_count(tmp_path):
    path = write(tmp_path, "cubic", inputs.CUBIC)
    _, stdout = run_cli(["hilbert", path, "--dmax", "6"])
    want = oracles.quotient_dims(inputs.CUBIC, 6)
    oracles.hilbert_counts(json.loads(stdout), want)

    def drop_a_word(doc):  # still self-consistent: only brute force can tell
        doc["basis"]["5"].pop()
        doc["counts"]["5"] -= 1

    with pytest.raises(Wrong, match="degree 5"):
        oracles.hilbert_counts(json.loads(corrupt(stdout, drop_a_word)), want)


def test_a6_oracle_rejects_a_flipped_verdict(tmp_path, book):
    rng = random.Random("a6-0")
    seen = set()
    for i in range(40):
        system = inputs.a6_system(rng)
        rc, stdout = run_cli(["check", write(tmp_path, f"a6-{i}", system)])
        check = book.check_for(f"a6-{i}", "a6", system)
        check(rc, stdout)
        verdict = json.loads(stdout)["convergent"]
        if verdict in seen:
            continue
        seen.add(verdict)

        def flip(doc):
            doc["convergent"] = not doc["convergent"]

        with pytest.raises(Wrong, match="brute force"):
            check(rc, corrupt(stdout, flip))
    assert seen == {True, False}


def test_confluence_oracle_rejects_a_flipped_branching(tmp_path, book):
    path = tmp_path / "h1-partial-d4.lp"
    system = inputs.h1_partial(4, path)
    rc, stdout = run_cli(["check", str(path)])
    check = book.check_for("check/h1-partial-d4", "confluence", system)
    check(rc, stdout)

    def flip(doc):
        entry = doc["confluence"]["entries"][0]
        entry["joinable"] = not entry["joinable"]

    with pytest.raises(Wrong, match="joinability"):
        check(rc, corrupt(stdout, flip))


def test_bound_trip_oracle_rejects_a_missing_rule(tmp_path, book):
    path = write(tmp_path, "h1", inputs.H1)
    rc, stdout = run_cli(["complete", path, "--max-degree", "5"])
    check = book.check_for("complete/h1-d5", "bound_trip", inputs.H1, 5)
    check(rc, stdout)

    def drop(doc):
        doc["partial_rules"].pop()

    with pytest.raises(Wrong, match="quotient has dim"):
        check(rc, corrupt(stdout, drop))


def test_golden_rejects_a_changed_report(book):
    rc, stdout = run_cli(["complete", str(inputs.CORPUS / "xy.lp")])
    check = book.check_for("complete/xy", "golden")
    check(rc, stdout)

    def rename(doc):
        doc["rules"]["a"]["target"] = "x^2 + x y"

    with pytest.raises(Wrong, match="seed commit"):
        check(rc, corrupt(stdout, rename))


@pytest.mark.parametrize("name", ["H1", "CUBIC", "PP05", "XY"])
def test_quotient_dims_match_linrew_over_q(name):
    system = getattr(inputs, name)
    P, _ = lpformat.parse(system.render())
    want = [quotient_dimension(P, d) for d in range(5)]
    assert oracles.quotient_dims(system, 4) == want


def test_rendered_inputs_parse_to_their_data():
    systems = [inputs.H1, inputs.CUBIC, inputs.skew(6, random.Random(1))]
    rng = random.Random("a6-1")
    systems += [inputs.a6_system(rng) for _ in range(30)]
    for system in systems:
        P, _ = lpformat.parse(system.render())
        assert [(r.name, r.source.word, {m.word: c for m, c in r.target.terms.items()}) for r in P.rules] == [
            (name, src, tgt) for name, src, tgt in system.rules
        ]


@pytest.mark.parametrize("name", ["PP05", "XY"])
def test_fixture_data_matches_corpus_file(name):
    system = getattr(inputs, name)
    P, _ = lpformat.parse_file(str(inputs.CORPUS / f"{name.lower()}.lp"))
    assert {(r.source.word, tuple(sorted((m.word, c) for m, c in r.target.terms.items()))) for r in P.rules} == {
        (src, tuple(sorted(tgt.items()))) for _, src, tgt in system.rules
    }


def test_tracer_spans_nest_and_uninstall_restores(tmp_path):
    from linrew import completion, rewriting

    original = rewriting.normal_form
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert completion.normal_form is not original and rewriting.normal_form is not original
        first = len(tracer.spans)
        rc, _ = run_cli(["complete", write(tmp_path, "h1", inputs.H1), "--max-degree", "5"])
        assert rc == 3
        tracer.check_op(first, len(tracer.spans), float("inf"))
    finally:
        tracer.uninstall()
    assert completion.normal_form is original and rewriting.normal_form is original
    assert tracer.counts["completion.enumerate_critical_branchings_calls"] > 1
    assert tracer.counts["completion.rules_added"] > 0
    assert tracer.counts["rewriting.trace_steps"] > 0
    times = tracer.self_times()
    assert times["rewriting.normal_form"] > 0
    assert sum(times.values()) == pytest.approx(tracer.spans[first][2] - tracer.spans[first][1])

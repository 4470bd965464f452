"""What the benchmark harness in perfbench/ needs from linrew: every name it
imports and every layer its tracer wraps.  The harness's own tests do not
run with this suite, so a library change that removes one of these would
otherwise go unseen until the benchmark runs.  perfbench/ is read, never
imported as a package or changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from linrew import CompletionBoundExceeded, certify_termination, cli, complete, monomial_poly, nf

from conftest import FIXTURES, cubic_system, h1_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _linrew_imports() -> list:
    found = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "linrew":
                    found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module, name", _linrew_imports(), ids=lambda v: v)
def test_perfbench_import_resolves(module, name):
    # What `from module import name` does: name may be a submodule.
    assert hasattr(__import__(module, fromlist=[name]), name)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layers_are_callable():
    missing = [
        f"linrew.{mod}.{fname}"
        for mod, fname in _tracing().LAYERS
        if not callable(getattr(importlib.import_module(f"linrew.{mod}"), fname, None))
    ]
    assert missing == []


def test_traced_invariants_commands_run(capsys):
    """tor, koszul and hilbert on pp05 under the installed tracer, as a
    traced benchmark pass runs them: the counts the tracer takes from each
    layer's arguments and result, what linalg.rank receives among them,
    raise nothing, and rank is called."""
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        codes = [
            cli.main([command, str(FIXTURES / "pp05.lp"), *bounds])
            for command, bounds in (("tor", ["--kmax", "4", "--dmax", "5"]), ("koszul", []), ("hilbert", ["--dmax", "6"]))
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert tracer.counts["linalg.rank_calls"] > 0


def test_complete_leaves_its_input_untouched():
    """tracing._rules_added reads len(args[0].rules) after complete returns
    or raises: complete grows a system of its own, and leaves its input's
    rules, certificates and nf memo as they were."""
    for P, bounds in ((cubic_system(), {}), (h1_system(), {"max_degree": 5})):
        P.termination_certificate = cert = certify_termination(P)
        nf(monomial_poly(P.field, P.quiver.monomial(("z",) * 5)), P)
        rules, cache = list(P.rules), dict(P._nf_cache)
        try:
            done = complete(P, P.order, **bounds)
        except CompletionBoundExceeded as e:
            done = e.partial
        assert done is not P and len(done.rules) > len(rules)
        assert P.rules == rules and P._nf_cache == cache and cache
        assert P.termination_certificate is cert and P.convergence_certificate is None

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


def test_traced_layers_are_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"linrew.{mod}.{fname}"
        for mod, fname in tracing.LAYERS
        if not callable(getattr(importlib.import_module(f"linrew.{mod}"), fname, None))
    ]
    assert missing == []

"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper in
every linrew module that holds it, so calls through a module attribute
(``lpformat.parse_file``, ``linalg.rank``) and through names bound by
``from .x import f`` are both seen.  Nothing under ``src/`` changes.

A span is (name, start, end, parent index); a layer's self time is the
span's duration minus the durations of its direct children.  ``algebra``
and ``scalars`` are called too often to wrap without distorting the run:
their cost counts in the self time of the layer that calls them.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter


def _rules_added(args, result, exc):
    done = exc.partial if exc is not None and hasattr(exc, "partial") else result
    return {"rules_added": len(done.rules) - len(args[0].rules)} if done is not None else {}


def _rank_entries(args, result, exc):
    rows = args[0]
    return {"rank_entries": len(rows) * len(rows[0]) if rows else 0}


# (module, function) -> extra counts taken from (args, result, exception).
LAYERS = {
    ("cli", "main"): None,
    ("lpformat", "parse_file"): None,
    ("completion", "complete"): _rules_added,
    ("completion", "check_confluence"): None,
    ("completion", "enumerate_critical_branchings"): lambda a, r, e: {"critical_branchings": len(r or ())},
    ("completion", "certify_termination"): None,
    ("rewriting", "normal_form"): lambda a, r, e: {"trace_steps": len(r[1].steps) if r else 0},
    ("rewriting", "standard_basis"): lambda a, r, e: {
        "basis_words": sum(map(len, r.by_degree.values())) if r else 0
    },
    ("resolution", "enumerate_chains"): lambda a, r, e: {"chains": len(r or ())},
    ("resolution", "generating_confluence"): None,
    ("resolution", "boundary4"): None,
    ("homology", "build_complex"): None,
    ("homology", "tor_table"): None,
    ("homology", "collapse_saturate"): None,
    ("homology", "koszul_verdict"): None,
    ("linalg", "rank"): _rank_entries,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn, extra):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                counts[name + "_calls"] += 1
                if extra is not None:
                    module = name.split(".", 1)[0]
                    for key, n in extra(args, result, exc).items():
                        counts[f"{module}.{key}"] += n

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "linrew" or k.startswith("linrew.")]
        for (mod, fname), extra in LAYERS.items():
            original = getattr(importlib.import_module(f"linrew.{mod}"), fname)
            traced = self._wrap(f"{mod}.{fname}", original, extra)
            for m in modules:
                if getattr(m, fname, None) is original:
                    setattr(m, fname, traced)
                    self._patched.append((m, fname, original))

    def uninstall(self):
        for m, fname, original in reversed(self._patched):
            setattr(m, fname, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self, first: int = 0, last: int | None = None) -> Counter:
        """Self time per layer over spans[first:last], a closed set of trees."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: Counter = Counter()
        for (name, start, end, _), inner in zip(spans, child):
            out[name] += end - start - inner
        return out

    def check_op(self, first: int, last: int, op_seconds: float):
        """spans[first:last], one operation's spans, nest under one cli.main
        span, and their self times add up to the operation's time."""
        spans = self.spans[first:last]
        root = spans[0]
        if root[0] != "cli.main" or root[3] != -1:
            raise RuntimeError(f"operation does not start with a cli.main span: {root}")
        for name, start, end, parent in spans[1:]:
            p = self.spans[parent]
            if parent < first or not (p[1] <= start <= end <= p[2]):
                raise RuntimeError(f"span {name} is not inside its parent {p[0]}")
        total = sum(self.self_times(first, last).values())
        if not (abs(total - (root[2] - root[1])) <= 1e-6 and total <= op_seconds):
            raise RuntimeError(f"self times sum to {total} s, operation took {op_seconds} s")

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

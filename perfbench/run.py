"""Benchmark for linrew: one workload per process, a closed loop with one
client calling ``linrew.cli.main(argv)`` in-process, one call after another.

    python3 perfbench/run.py --workload completion --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; linrew is imported from ``src/``.  Set-up
(importing linrew, generating and parsing the inputs, a warm-up that pays
for lazy imports) is timed in this process and in fresh ones, and reported
as the median.  Then whole passes over the workload's calls repeat while
the next one is expected to end within ``--seconds``.  Every output is
checked by ``oracles.py`` after its pass, outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics of the
median pass; with ``--trace 1`` it reports per-layer metrics from traced
passes (see ``tracing.py``) and the tracing overhead against the untraced
pass run just before each.  The last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

# Address-space cap for this process and the set-up probes it starts: a
# blow-up fails one operation instead of exhausting the machine.
MEMORY_CAP = 3 << 30
SETUP_SAMPLES = 5  # this process plus fresh probe processes
PROBE_TIMEOUT = 60

PER_LAYER_TIMES = tuple(f"{module}.{name}" for module, name in tracing.LAYERS)
PER_LAYER_COUNTS = (
    "completion.enumerate_critical_branchings_calls",
    "completion.certify_termination_calls",
    "completion.critical_branchings",
    "completion.rules_added",
    "rewriting.normal_form_calls",
    "rewriting.trace_steps",
    "rewriting.basis_words",
    "resolution.chains",
    "resolution.boundary4_calls",
    "linalg.rank_calls",
    "linalg.rank_entries",
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("completion", "confluence", "invariants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int, work: Path):
    """Import linrew, generate and parse the inputs, warm up.  Returns
    (seconds, cli module, Workload)."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    from linrew import cli, lpformat

    import workloads

    wl = workloads.build(workload, seed, work)
    for path in wl.files:
        lpformat.parse_file(path)
    for argv in wl.warmup:
        run_op(cli, argv)
    return perf_counter() - start, cli, wl


def probe_setup(args) -> float:
    """Set-up time of a fresh process, as measured inside it."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True)
    return float(done.stdout.split()[-1])


def run_op(cli, argv):
    """One call with stdout captured: (exit code or error text, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except MemoryError:
            rc = "hit the memory cap"
        except Exception:  # a crash is a failed operation, not a failed benchmark
            rc = "raised " + traceback.format_exc(limit=-3)
        seconds = perf_counter() - start
    return rc, out.getvalue(), seconds


def run_pass(cli, ops, checks, tracer=None):
    """All calls once, then every check.  Returns (pass stats, failures)."""
    gc.collect()
    results = []
    start = perf_counter()
    for op in ops:
        first = len(tracer.spans) if tracer else 0
        rc, stdout, seconds = run_op(cli, op.argv)
        results.append((op, rc, stdout, seconds, first, len(tracer.spans) if tracer else 0))
    wall = perf_counter() - start
    failures = []
    for op, rc, stdout, seconds, first, last in results:
        if tracer:
            tracer.check_op(first, last, seconds)
        if not isinstance(rc, int):
            failures.append(f"{op.id}: {rc}")
            continue
        try:
            checks[op.id](rc, stdout)
        except Exception as e:  # a malformed report fails its call, whatever the error
            failures.append(f"{op.id}: {e!r}")
    times = [r[3] for r in results]
    stats = {
        "wall_s": wall,
        "slowest_op_s": max(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "cli.output_bytes": sum(len(r[2]) for r in results),
    }
    return stats, failures


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "linrew" / "__init__.py").is_file():
        print(f"linrew sources not found under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed, work)[0])
            return 0
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    own_setup, cli, wl = setup(args.workload, args.seed, work)
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setup_times = [own_setup] + [probe_setup(args) for _ in range(probes)]

    import oracles

    golden = json.loads(oracles.GOLDEN.read_text(encoding="utf-8"))
    book = oracles.Oracles(golden)
    checks = {op.id: book.check_for(op.id, *op.expect) for op in wl.ops}

    passes, failures = [], []
    tracer = tracing.Tracer() if args.trace else None
    # A traced run pairs each traced pass with an untraced one just before
    # it, so the overhead compares passes made under the same machine load.
    # The first pass after set-up grows the heap; it stays out of the pairs.
    per_iteration = 2 if tracer else 1
    warm = 1 if tracer else 0
    for _ in range(warm):
        failures += run_pass(cli, wl.ops, checks)[1]
    start = perf_counter()
    while not passes or (
        perf_counter() - start + per_iteration * statistics.median(p["wall_s"] for p in passes) <= args.seconds
    ):
        if tracer:
            untraced, failed = run_pass(cli, wl.ops, checks)
            failures += failed
            tracer.reset()
            tracer.install()
            try:
                stats, failed = run_pass(cli, wl.ops, checks, tracer)
            finally:
                tracer.uninstall()
            times = tracer.self_times()
            stats.update({f"{name}_s": times[name] for name in PER_LAYER_TIMES})
            stats.update({name: tracer.counts[name] for name in PER_LAYER_COUNTS})
            stats["trace.overhead_pct"] = 100 * (stats["wall_s"] / untraced["wall_s"] - 1)
        else:
            stats, failed = run_pass(cli, wl.ops, checks)
        failures += failed
        passes.append(stats)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def median(key):
        return statistics.median(p[key] for p in passes)

    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {f"{name}_s": (median(f"{name}_s"), "s") for name in PER_LAYER_TIMES}
        metrics["cli.self_s"] = metrics.pop("cli.main_s")
        metrics.update({name: (median(name), "count") for name in PER_LAYER_COUNTS})
        metrics["cli.output_bytes"] = (median("cli.output_bytes"), "bytes")
        metrics["trace.overhead_pct"] = (median("trace.overhead_pct"), "%")
    else:
        metrics = {
            "wall_s": (median("wall_s"), "s"),
            "slowest_op_s": (median("slowest_op_s"), "s"),
            "op_p50_ms": (median("op_p50_ms"), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    attempted = len(wl.ops) * (len(passes) * per_iteration + warm)
    for line in failures[:20]:
        print("FAILED", line, file=sys.stderr)
    kind = "untraced/traced pairs of passes" if tracer else "passes"
    print(f"workload {args.workload}: {len(passes)} {kind} of {len(wl.ops)} calls, "
          f"seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

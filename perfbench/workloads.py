"""The three workloads: which files each generates and which CLI calls it
makes on them.  Each call carries the name of the oracle that checks it
(see ``oracles.Oracles``).  Why each input was chosen is in README.md."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import inputs
from inputs import CORPUS, CUBIC, FIXTURES, H1, PP05

SKEW_SIZES = range(4, 13)
A6_SYSTEMS = 200
# Degree bounds H1 trips in `complete`; 8 takes a minute and 1.9 GB.
H1_TRIP_DEGREES = (5, 6, 7)
# Partial systems of H1 for `check`; the one at 6 needs more than 4 GB.
H1_PARTIAL_DEGREES = (4, 5)


@dataclass
class Op:
    id: str
    argv: list  # subcommand, input file, options
    expect: tuple  # (oracle name, *arguments)


@dataclass
class Workload:
    ops: list
    files: list  # every input file, parsed once during set-up
    warmup: list  # argv lists run once during set-up, unchecked


def _write(path: Path, system) -> str:
    path.write_text(system.render(), encoding="utf-8")
    return str(path)


def _corpus(name: str) -> str:
    return str(CORPUS / f"{name}.lp")


def _skew(n: int, seed: int):
    return inputs.skew(n, random.Random(f"skew-{seed}-{n}"))


def completion(seed: int, work: Path) -> list:
    h1 = _write(work / "h1.lp", H1)
    cubic = _write(work / "cubic.lp", CUBIC)
    ops = [
        Op(f"complete/h1-d{d}", ["complete", h1, "--max-degree", str(d)], ("bound_trip", H1, d))
        for d in H1_TRIP_DEGREES
    ]
    for name, path in (("pp05", _corpus("pp05")), ("xy", _corpus("xy")), ("cubic", cubic)):
        ops.append(Op(f"complete/{name}", ["complete", path], ("golden",)))
    return ops


def confluence(seed: int, work: Path) -> list:
    fixed = []
    for d in H1_PARTIAL_DEGREES:
        path = work / f"h1-partial-d{d}.lp"
        system = inputs.h1_partial(d, path)
        fixed.append(Op(f"check/h1-partial-d{d}", ["check", str(path)], ("confluence", system)))
    q12 = _skew(12, seed)
    fixed.append(Op("check/q12", ["check", _write(work / "q12.lp", q12)], ("confluence", q12)))
    fixed += [Op(f"check/{name}", ["check", _corpus(name)], ("golden",)) for name in FIXTURES]
    rng = random.Random(f"a6-{seed}")
    a6 = []
    for i in range(A6_SYSTEMS):
        system = inputs.a6_system(rng)
        path = _write(work / f"a6-{i:03d}.lp", system)
        a6.append(Op(f"check/a6-{i:03d}", ["check", path], ("a6", system)))
    # The A6 calls set op_p50_ms; spreading them over the pass samples the
    # machine's speed at several moments instead of one.
    chunk = -(-len(a6) // len(fixed))
    return [op for i, f in enumerate(fixed) for op in (f, *a6[i * chunk : (i + 1) * chunk])]


def invariants(seed: int, work: Path) -> list:
    ops = []
    for n in SKEW_SIZES:
        path = _write(work / f"q{n}.lp", _skew(n, seed))
        ops.append(Op(f"tor/q{n}", ["tor", path, "--kmax", "4", "--dmax", "5"], ("skew_tor", n, 4, 5)))
    cubic = _write(work / "cubic.lp", CUBIC)
    pp05 = _corpus("pp05")
    ops += [
        Op("koszul/cubic", ["koszul", cubic, "--dmax", "12"], ("koszul", CUBIC, 4)),
        Op("koszul/pp05", ["koszul", pp05], ("koszul", PP05, 4)),
        Op("hilbert/cubic", ["hilbert", cubic, "--dmax", "11"], ("hilbert", CUBIC, 11)),
        Op("hilbert/pp05", ["hilbert", pp05, "--dmax", "12"], ("hilbert", PP05, 12)),
    ]
    return ops


WORKLOADS = {"completion": completion, "confluence": confluence, "invariants": invariants}


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs under ``work`` and list its calls."""
    ops = WORKLOADS[name](seed, work)
    files = sorted({op.argv[1] for op in ops})
    xy, pp05 = _corpus("xy"), _corpus("pp05")
    warmup = [
        ["check", xy],
        ["complete", xy],
        ["tor", xy, "--kmax", "2", "--dmax", "3"],
        ["koszul", pp05],
        ["hilbert", xy, "--dmax", "3"],
    ]
    return Workload(ops, files, warmup)

"""Expected answers for the benchmark's operations, from sources that do not
share code with linrew.

- Skew-polynomial algebras: Tor_{k,k} = C(n, k), zero elsewhere; Hilbert
  counts C(n + d - 1, d).
- Hilbert counts and H1's standard-basis counts: dimension of the quotient
  by sparse Gaussian elimination over the relation ideal in each degree
  (the definition behind ``rewriting.quotient_dimension``), up to degree 7.
- Tor tables: the Euler characteristic must match the Hilbert series.
- ``check`` verdicts: an own trace-free rightmost reducer, run on every
  critical branching (reports) or on every local branching of every word up
  to six letters (the A6 corpus), as in ``tests/test_acceptance.py``.
- Everything else: a digest of the report produced at the seed commit,
  with the ``file`` path reduced to its base name (``golden.json``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from math import comb
from pathlib import Path

from inputs import System

GOLDEN = Path(__file__).resolve().parent / "golden.json"

PRIME = 2**31 - 1
# Degrees checked by brute force: 3^7 = 2187 words is the largest slice
# that stays well under a second.
BRUTE_DEGREE = 7
LOCAL_WORD_LENGTH = 6


class Wrong(Exception):
    """An output that disagrees with its expected answer."""


# -- words and polynomials ----------------------------------------------------


def word_str(word) -> str:
    """Monomial text as linrew prints it: runs written as x^k."""
    if not word:
        return "1_*"
    return " ".join(
        g if n == 1 else f"{g}^{n}"
        for g, n in ((g, len(list(run))) for g, run in itertools.groupby(word))
    )


def parse_word(text: str) -> tuple:
    out = []
    for tok in text.split():
        g, _, power = tok.partition("^")
        out.extend([g] * int(power or 1))
    return tuple(out)


def _add(acc: dict, word, c):
    v = acc.get(word, 0) + c
    if v:
        acc[word] = v
    else:
        acc.pop(word, None)


class Reducer:
    """Trace-free normal forms: rewrite the occurrence that starts furthest
    right, the lowest rule index among ties, memoised per monomial."""

    def __init__(self, system: System):
        self.rules = [(src, tgt) for _, src, tgt in system.rules]
        self.memo: dict = {}

    def occurrences(self, word) -> list:
        return [
            (i, s)
            for s in range(len(word))
            for i, (src, _) in enumerate(self.rules)
            if word[s : s + len(src)] == src
        ]

    def reduct(self, word, idx: int, start: int) -> dict:
        src, tgt = self.rules[idx]
        left, right = word[:start], word[start + len(src) :]
        return {left + w + right: c for w, c in tgt.items()}

    def nf_word(self, word) -> dict:
        hit = self.memo.get(word)
        if hit is None:
            occ = self.occurrences(word)
            if not occ:
                hit = {word: Fraction(1)}
            else:
                start = max(s for _, s in occ)
                idx = min(i for i, s in occ if s == start)
                hit = self.nf(self.reduct(word, idx, start))
            self.memo[word] = hit
        return hit

    def nf(self, poly: dict) -> dict:
        out: dict = {}
        for word, c in poly.items():
            for w, d in self.nf_word(word).items():
                _add(out, w, c * d)
        return out


def critical_branchings(system: System) -> list:
    """(word, rule1, rule2, joinable) for every overlap of two sources, and
    for every inclusion when the sources are not left-reduced."""
    red = Reducer(system)
    rules = system.rules
    sources = [src for _, src, _ in rules]

    def inside(big, small):
        return [s for s in range(len(big) - len(small) + 1) if big[s : s + len(small)] == small]

    left_reduced = not any(inside(a, b) for a, b in itertools.permutations(sources, 2))
    out = []

    def branch(i, j, word, start2):
        diff = red.reduct(word, i, 0)
        for w, c in red.reduct(word, j, start2).items():
            _add(diff, w, -c)
        out.append((word_str(word), rules[i][0], rules[j][0], not red.nf(diff)))

    for (i, w1), (j, w2) in itertools.product(enumerate(sources), repeat=2):
        for o in range(1, min(len(w1), len(w2))):
            if w1[len(w1) - o :] == w2[:o]:
                branch(i, j, w1 + w2[o:], len(w1) - o)
        if not left_reduced and i != j and len(w2) <= len(w1):
            for start2 in inside(w1, w2):
                if not (start2 == 0 and len(w2) == len(w1)):
                    branch(i, j, w1, start2)
    return out


def locally_confluent(system: System, max_len: int = LOCAL_WORD_LENGTH) -> bool:
    """Every word up to max_len letters: all its one-step reducts share one
    normal form."""
    red = Reducer(system)
    for n in range(1, max_len + 1):
        for word in itertools.product(system.gens, repeat=n):
            occ = red.occurrences(word)
            if len(occ) < 2:
                continue
            forms = {frozenset(red.nf(red.reduct(word, i, s)).items()) for i, s in occ}
            if len(forms) > 1:
                return False
    return True


# -- Hilbert series -----------------------------------------------------------


def quotient_dims(system: System, dmax: int) -> list:
    """dim A_d for d <= dmax of a homogeneous presentation: words of degree
    d minus the rank of every u (source - target) v of degree d.

    Ranks are taken over GF(PRIME), which is five times faster than over Q
    on H1 in degree 7.  They can only fall short of the rational ranks when
    PRIME divides a minor; the benchmark's tests compare both fields.
    """
    if not system.homogeneous:
        raise ValueError("degreewise quotient dimensions need homogeneous rules")
    dims = []
    for d in range(dmax + 1):
        pivots: dict = {}
        for _, src, tgt in system.rules:
            minus_tgt = [(w, -c.numerator * pow(c.denominator, -1, PRIME) % PRIME) for w, c in tgt.items()]
            rest = d - len(src)
            for a in range(rest + 1):
                for u in itertools.product(system.gens, repeat=a):
                    for v in itertools.product(system.gens, repeat=rest - a):
                        row = {u + src + v: 1}
                        for w, c in minus_tgt:
                            _add_mod(row, u + w + v, c)
                        _eliminate(row, pivots)
        dims.append(len(system.gens) ** d - len(pivots))
    return dims


def _add_mod(acc: dict, word, c):
    v = (acc.get(word, 0) + c) % PRIME
    if v:
        acc[word] = v
    else:
        acc.pop(word, None)


def _eliminate(row: dict, pivots: dict):
    while row:
        col = max(row)
        piv = pivots.get(col)
        if piv is None:
            inv = pow(row[col], -1, PRIME)
            pivots[col] = {w: c * inv % PRIME for w, c in row.items()}
            return
        factor = row[col]
        for w, c in piv.items():
            _add_mod(row, w, -factor * c)


def irreducible_counts(gens, sources, dmax: int) -> list:
    """Words of each degree <= dmax with no source as a factor."""
    counts, frontier = [1], [()]
    for _ in range(dmax):
        frontier = [
            w + (g,)
            for w in frontier
            for g in gens
            if not any((w + (g,))[-len(s) :] == s for s in sources)
        ]
        counts.append(len(frontier))
    return counts


def euler_problems(tor: dict, hilbert: list, kmax: int) -> list:
    """sum_k (-1)^k dim Tor_{k,i} = [t^i] 1/H(t) for each i <= kmax whose
    entries are all exact (Tor_{k,i} = 0 for k > i)."""
    inverse = [Fraction(1)]
    for i in range(1, kmax + 1):
        inverse.append(-sum(hilbert[j] * inverse[i - j] for j in range(1, i + 1)))
    problems = []
    for i in range(kmax + 1):
        entries = [tor.get(f"{k},{i}") for k in range(i + 1)]
        if any(e is None or "dim" not in e for e in entries):
            continue
        chi = sum((-1) ** k * e["dim"] for k, e in enumerate(entries))
        if chi != inverse[i]:
            problems.append(f"Euler characteristic in degree {i} is {chi}, Hilbert series gives {inverse[i]}")
    return problems


# -- reports ------------------------------------------------------------------


def digest(stdout: str) -> str:
    doc = json.loads(stdout)
    if isinstance(doc.get("file"), str):
        doc["file"] = Path(doc["file"]).name
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _report(rc: int, stdout: str, want_rc: int) -> dict:
    if rc != want_rc:
        raise Wrong(f"exit code {rc}, expected {want_rc}")
    try:
        return json.loads(stdout)
    except ValueError:
        raise Wrong("stdout is not one JSON document") from None


def _fail_on(problems: list):
    if problems:
        raise Wrong("; ".join(problems[:3]))


class Oracles:
    """Builds one check per operation; expected answers are computed once
    and reused across passes."""

    def __init__(self, golden: dict):
        self.golden = golden
        self._dims: dict = {}

    def dims(self, system: System, dmax: int) -> list:
        key = system.render()
        if len(self._dims.get(key, ())) <= dmax:
            self._dims[key] = quotient_dims(system, dmax)
        return self._dims[key][: dmax + 1]

    def check_for(self, op_id: str, kind: str, *args):
        """A function (exit code, stdout) -> None that raises Wrong."""
        return getattr(self, "_" + kind)(op_id, *args)

    def _golden(self, op_id):
        entry = self.golden.get(op_id)
        if entry is None:
            raise KeyError(f"no golden report for {op_id}; run make_golden.py")

        def check(rc, stdout):
            _report(rc, stdout, entry["exit"])
            if digest(stdout) != entry["sha256"]:
                raise Wrong("report differs from the seed commit's")

        return check

    def _bound_trip(self, op_id, system: System, max_degree: int):
        want = self.dims(system, max_degree)

        def check(rc, stdout):
            doc = _report(rc, stdout, 3)
            sources = [parse_word(r.split(" : ", 1)[1].split(" => ", 1)[0]) for r in doc["partial_rules"]]
            got = irreducible_counts(system.gens, sources, max_degree)
            _fail_on([
                f"degree {d}: partial system leaves {g} words, quotient has dim {w}"
                for d, (g, w) in enumerate(zip(got, want)) if g != w
            ])

        return check

    def _confluence(self, op_id, system: System):
        want = sorted(critical_branchings(system))
        convergent = all(j for *_, j in want)

        def check(rc, stdout):
            doc = _report(rc, stdout, 0 if convergent else 3)
            conf = doc["confluence"]
            got = sorted((e["word"], *e["rules"], e["joinable"]) for e in conf["entries"])
            if doc["convergent"] is not convergent or conf["convergent"] is not convergent:
                raise Wrong(f"convergent should be {convergent}")
            if conf["critical_branchings"] != len(want) or got != want:
                raise Wrong("critical branchings or their joinability differ")

        return check

    def _a6(self, op_id, system: System):
        convergent = locally_confluent(system)

        def check(rc, stdout):
            doc = _report(rc, stdout, 0 if convergent else 3)
            if doc["convergent"] is not convergent:
                raise Wrong(f"verdict convergent={doc['convergent']}, brute force says {convergent}")

        return check

    def _skew_tor(self, op_id, n: int, kmax: int, dmax: int):
        hilbert = [comb(n + d - 1, d) for d in range(dmax + 1)]

        def check(rc, stdout):
            tor = _report(rc, stdout, 0)["tor"]
            problems = []
            for k in range(kmax + 1):
                for i in range(dmax + 1):
                    e = tor.get(f"{k},{i}")
                    want = comb(n, k) if i == k else 0
                    if e is None:
                        problems.append(f"Tor_{k},{i} missing")
                    elif "dim" in e and e["dim"] != want:
                        problems.append(f"Tor_{k},{i} = {e['dim']}, expected {want}")
                    elif "dim" not in e and not e["lo"] <= want <= e["hi"]:
                        problems.append(f"Tor_{k},{i} in [{e['lo']}, {e['hi']}] excludes {want}")
            _fail_on(problems + euler_problems(tor, hilbert, kmax))

        return check

    def _koszul(self, op_id, system: System, kmax: int):
        golden = self._golden(op_id)
        hilbert = self.dims(system, kmax)

        def check(rc, stdout):
            golden(rc, stdout)
            tor = json.loads(stdout)["verdict"].get("tor")
            if tor is not None:
                _fail_on(euler_problems(tor, hilbert, kmax))

        return check

    def _hilbert(self, op_id, system: System, dmax: int):
        golden = self._golden(op_id)
        want = self.dims(system, min(dmax, BRUTE_DEGREE))

        def check(rc, stdout):
            golden(rc, stdout)
            hilbert_counts(json.loads(stdout), want)

        return check


def hilbert_counts(doc: dict, want: list):
    """The counts agree with the listed basis and with brute force."""
    counts = doc["counts"]
    problems = [f"degree {d}: count {n} but {len(doc['basis'][d])} basis words"
                for d, n in counts.items() if n != len(doc["basis"][d])]
    problems += [f"degree {d}: count {counts.get(str(d))}, quotient has dim {w}"
                 for d, w in enumerate(want) if counts.get(str(d)) != w]
    _fail_on(problems)

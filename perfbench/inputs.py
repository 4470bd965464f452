"""Benchmark inputs: presentations as plain data, rendered to .lp text.

The program under test only ever sees the rendered files.  The oracles in
``oracles.py`` read the same data, so no expected answer depends on linrew
parsing its own input.  Every generator is a pure function of its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"
FIXTURES = ("groebner2", "pp05", "pp05_sym", "xy", "xyonly", "xyrev", "xyz")


@dataclass
class System:
    """A presentation over Q, ordered deglex by the order of ``gens``.

    ``rules`` holds (name, source word, {target word: coefficient}); a word
    is a tuple of generator names, () being the identity.
    """

    gens: tuple
    rules: list

    def render(self) -> str:
        lines = [
            "field Q",
            "generators " + " ".join(self.gens),
            "order deglex " + " < ".join(self.gens),
        ]
        for name, source, target in self.rules:
            lines.append(f"rule {name} : {' '.join(source)} -> {_render_poly(target)}")
        return "\n".join(lines) + "\n"

    @property
    def homogeneous(self) -> bool:
        return all(len(w) == len(src) for _, src, tgt in self.rules for w in tgt)


def _render_poly(terms: dict) -> str:
    parts = []
    for word, c in terms.items():
        text = " ".join(word)
        if not word:
            parts.append(f"({c})")
        elif c == 1:
            parts.append(text)
        else:
            parts.append(f"({c}) {text}")
    return " + ".join(parts) or "0"


def _system(gens: str, rules) -> System:
    """Shorthand: single-letter generators, words as strings."""
    return System(
        tuple(gens),
        [
            (name, tuple(src), {tuple(w): Fraction(c) for c, w in tgt})
            for name, src, tgt in rules
        ],
    )


# H1: a three-generator quadratic presentation whose completion never stops.
H1 = _system("xyz", [
    ("a", "zy", [(1, "yz"), (1, "xx")]),
    ("b", "zx", [(1, "xz"), (2, "yy")]),
    ("c", "yx", [(1, "xy"), (1, "zz")]),
])

CUBIC = _system("xyz", [
    ("p", "zzz", [(1, "xyz"), (1, "yyx")]),
    ("q", "zzy", [(1, "xxy")]),
])

# The fixtures the oracles need as data; the program reads the corpus text
# (pp05.lp declares `param a = 2`, which makes linrew import sympy).
PP05 = _system("xyz", [
    ("alpha", "yz", [(-1, "xx")]),
    ("beta", "zy", [(Fraction(-1, 2), "xx")]),
])
XY = _system("xy", [
    ("a", "xy", [(1, "xx")]),
    ("b", "yy", [(1, "xx")]),
])

SKEW_COEFFS = (2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 3))


def skew(n: int, rng: random.Random) -> System:
    """Skew-polynomial algebra x_j x_i -> c_ij x_i x_j (i < j): convergent and
    Koszul for every choice of nonzero c_ij."""
    gens = tuple(f"x{i}" for i in range(1, n + 1))
    rules = [
        (f"s{i}_{j}", (gens[j], gens[i]), {(gens[i], gens[j]): Fraction(rng.choice(SKEW_COEFFS))})
        for j in range(n)
        for i in range(j)
    ]
    return System(gens, rules)


def _deglex_key(word, rank) -> tuple:
    return (len(word), tuple(rank[g] for g in word))


def a6_system(rng: random.Random) -> System:
    """One system from the distribution of acceptance gate A6: 1-3
    generators, 1-4 rules of degree <= 3, targets below their source."""
    gens = "xyz"[: rng.randint(1, 3)]
    rank = {g: i for i, g in enumerate(gens)}
    rules = []
    seen = set()
    for i in range(rng.randint(1, 4)):
        for _ in range(30):
            src = tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))
            if src not in seen:
                break
        else:
            continue
        seen.add(src)
        src_key = _deglex_key(src, rank)
        target: dict = {}
        for _ in range(rng.randint(0, 2)):
            for _ in range(20):
                w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
                if _deglex_key(w, rank) < src_key:
                    target[w] = target.get(w, 0) + Fraction(rng.choice([-2, -1, 1, 2]))
                    break
        rules.append((f"r{i}", src, {w: c for w, c in target.items() if c}))
    return System(tuple(gens), rules)


def h1_partial(max_degree: int, path: Path) -> System:
    """Run linrew's completion on H1 until it trips ``max_degree`` and write
    the partial system it leaves with ``lpformat.write_file``."""
    from linrew import lpformat
    from linrew.completion import CompletionBoundExceeded, complete

    P, meta = lpformat.parse(H1.render())
    try:
        complete(P, P.order, max_degree=max_degree)
    except CompletionBoundExceeded as e:
        partial = e.partial
    else:
        raise RuntimeError(f"H1 completion stopped below degree {max_degree}")
    lpformat.write_file(str(path), partial, meta)
    rules = [
        (r.name, r.source.word, {m.word: Fraction(c) for m, c in r.target.terms.items()})
        for r in partial.rules
    ]
    return System(H1.gens, rules)

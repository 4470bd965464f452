"""tor_table against an independent minimal resolution (tor_oracle): every
exact or hard-zero entry must equal the oracle's dimension and every interval
or bound must contain it.  A disagreement over GF(p) counts only after the
oracle is rerun over the system's own field."""

from math import comb

import pytest

from linrew import complete, lpformat, tor_table

from conftest import FIXTURES, cubic_system, deglex_system, plactic_system
from test_resolution import _a6_systems
from tor_oracle import tor_oracle


def _disagreements(table, oracle) -> list:
    out = []
    for (k, i), e in sorted(table.entries.items()):
        dim = oracle[(k, i)]
        if e["kind"] in ("exact", "hard-zero"):
            ok = e["dim"] == dim
        else:
            ok = e["lo"] <= dim <= e["hi"]
        if not ok:
            out.append(((k, i), e, dim))
    return out


def _check(P, kmax, dmax):
    table = tor_table(P, kmax, dmax)
    bad = _disagreements(table, tor_oracle(P, kmax, dmax))
    if bad:
        bad = _disagreements(table, tor_oracle(P, kmax, dmax, P.field))
    assert bad == []


def test_oracle_polynomial_ring():
    # K[x, y, z] is resolved by the Koszul complex: Tor_k = C(3, k) in degree k.
    P = deglex_system("xyz", [
        ("c", "yx", [(1, "xy")]), ("b", "zx", [(1, "xz")]), ("a", "zy", [(1, "yz")]),
    ])
    P = complete(P, P.order)
    tor = tor_oracle(P, 4, 5)
    assert {ki: n for ki, n in tor.items() if n} == {(k, k): comb(3, k) for k in range(4)}


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.lp") if p.stem != "xyrev"))
def test_tor_table_matches_oracle_fixtures(name):
    # xyrev has no finite completion.
    P = lpformat.parse_file(FIXTURES / f"{name}.lp")[0]
    _check(complete(P, P.order), 5, 7)


def test_tor_table_matches_oracle_cubic():
    P = cubic_system()
    _check(complete(P, P.order), 5, 9)


def test_tor_table_matches_oracle_plactic_p3():
    # Three entries of Tor_4 are intervals here: (4, 6), (4, 7) and (4, 8).
    P = plactic_system(3)
    _check(complete(P, P.order), 4, 9)


def test_tor_table_matches_oracle_a6():
    systems = [P for P in _a6_systems() if P.homogeneous]
    assert len(systems) == 52
    for P in systems:
        _check(P, 5, 6)

"""Whole-report regression test: every subcommand on every fixture.

Each case pins the exit code and the sha256 of stdout and of stderr, with the
fixture directory and the generated basis file's directory replaced by
placeholders.  After an intended report change, re-record the digests with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from linrew.cli import main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
DIGESTS = HERE / "golden_reports.json"

CASES = {
    "nf": ["nf", "{F}", "--term", "x y x y"],
    "check": ["check", "{F}"],
    "complete": ["complete", "{F}"],
    "complete-d3": ["complete", "{F}", "--max-degree", "3"],
    "branchings": ["branchings", "{F}"],
    "branchings-f3": ["branchings", "{F}", "--fold", "3", "--dmax", "6"],
    "chains": ["chains", "{F}", "--kmax", "4", "--dmax", "6"],
    "tor": ["tor", "{F}", "--kmax", "4", "--dmax", "6"],
    "koszul": ["koszul", "{F}"],
    "koszul-seed7": ["--seed", "7", "koszul", "{F}", "--kmax", "4", "--dmax", "7"],
    "hilbert": ["hilbert", "{F}", "--dmax", "6"],
    "pbw": ["pbw", "{F}", "--basis-file", "{B}", "--dmax", "4"],
    "pbw-xi": ["pbw", "{F}", "--basis-file", "{B}", "--dmax", "3", "--xi"],
}

CASE_IDS = [
    f"{fixture.stem}/{label}"
    for fixture in sorted(FIXTURES.glob("*.lp"))
    for label in CASES
]


def write_basis(directory: Path) -> Path:
    """The y^i x^(d-i) words up to degree 4, one per line."""
    path = directory / "yx_basis.txt"
    path.write_text(
        "\n".join(
            " ".join(["y"] * i + ["x"] * (d - i)) for d in range(1, 5) for i in range(d + 1)
        )
        + "\n",
        encoding="utf-8",
    )
    return path


def run_case(case_id: str, basis: Path) -> dict:
    stem, label = case_id.split("/")
    argv = [
        a.format(F=FIXTURES / f"{stem}.lp", B=basis) for a in CASES[label]
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    def digest(text: str) -> str:
        text = text.replace(str(FIXTURES), "<fixtures>").replace(str(basis.parent), "<tmp>")
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {"exit": code, "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}


@pytest.fixture(scope="module")
def basis(tmp_path_factory):
    return write_basis(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_covers_every_case(expected):
    assert sorted(expected) == sorted(CASE_IDS)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_report_unchanged(case_id, basis, expected):
    assert run_case(case_id, basis) == expected[case_id]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        b = write_basis(Path(tmp))
        digests = {case_id: run_case(case_id, b) for case_id in CASE_IDS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)

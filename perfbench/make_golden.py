"""Record golden.json: the exit code and report digest of every call whose
oracle compares against a reference run.  Run it on the commit that fixes
the expected reports, from the root of a checkout:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracles
import run
import workloads

GOLDEN_ORACLES = ("golden", "koszul", "hilbert")


def main() -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        run.WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK))
        try:
            _, cli, wl = run.setup(name, 0, work)
            for op in wl.ops:
                if op.expect[0] in GOLDEN_ORACLES:
                    rc, stdout, _ = run.run_op(cli, op.argv)
                    golden[op.id] = {"exit": rc, "sha256": oracles.digest(stdout)}
        finally:
            shutil.rmtree(work)
    oracles.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} reports to {oracles.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 2 input error, 3 bound exceeded or certification
failed.  Reports are JSON on stdout (``nf`` prints the bare polynomial).
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _encode

from . import lpformat
from .algebra import monomial_poly
from .completion import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_RULES,
    CompletionBoundExceeded,
    certify_declared,
    check_confluence,
    complete,
    enumerate_critical_branchings,
    is_confluent,
)
from .homology import koszul_verdict, tor_table
from .lpformat import LpError
from .resolution import cell_degrees, enumerate_chains
from .rewriting import (
    BasisBudgetExceeded,
    NotCertifiedError,
    RewriteError,
    StepBudgetExceeded,
    nf,
    pbw_check,
    standard_basis,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNCERTIFIED = 3


class _Uncertified(Exception):
    """Exit 3 after merging ``report`` into the command's JSON report."""

    def __init__(self, report):
        self.report = report


def _load(path: str, seed=None):
    try:
        P, meta = lpformat.parse_file(path)
    except FileNotFoundError:
        raise LpError(f"no such file: {path}")
    meta["path"] = path
    if seed is not None:
        meta["seed"] = seed
    return P, meta


def _rules(rules) -> dict:
    return {r.name: {"source": str(r.source), "target": lpformat._poly_str(r.target)} for r in rules}


def _base_report(P, meta) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "file": meta.get("path"),
        "field": str(P.field),
        "generators": [g.name for g in P.quiver.generators.values()],
        "rules": _rules(P.rules),
    }
    if meta.get("seed") is not None:
        out["seed"] = meta["seed"]
    return out


def _terminates(P, meta):
    """Certify termination under the declared order, then the declared
    measure (with no hint when neither is declared); attach the first
    certificate that holds to P and return it, else return the last one."""
    cert = certify_declared(P, meta.get("measure"))
    if cert.ok:
        P.termination_certificate = cert
    return cert


def _summary(P, cert) -> dict:
    """The termination certificate and, when it holds, the confluence report."""
    summary = {"termination": cert.summary()}
    if cert.ok:
        summary["confluence"] = check_confluence(P)
    return summary


def _added_rules(done, P) -> dict:
    names = {r.name for r in P.rules}
    return _rules(r for r in done.rules if r.name not in names)


def _prepare(P, meta, doc):
    """Certified-convergent system for resolution-level commands, completing
    under the declared order when the input itself is not convergent.  The
    input's confluence is decided without a report, which is built only when
    the command fails on it: there is no order to complete under."""
    cert = _terminates(P, meta)
    if cert.ok and is_confluent(P):
        return P
    if P.order is None:
        raise _Uncertified(_summary(P, cert))
    done = complete(P, P.order)
    doc["completed"] = True
    doc["added_rules"] = _added_rules(done, P)
    return done


def _emit(doc, basis=None) -> None:
    """Print doc as json.dumps(doc, indent=2, default=str) writes it.  A
    StandardBasis is written as the report's last key, "basis", the list
    of each degree's texts, as json.dumps writes them, a degree at a time:
    no text of the whole basis is ever built."""
    text = json.dumps(doc, indent=2, default=str)
    if basis is None:
        print(text)
        return
    write = sys.stdout.write
    write(text[:-2] + ',\n  "basis": {')  # text ends with the doc's "\n}"
    # A text is names, spaces, digits, "^" and "_": json writes it as it
    # is when the names are printable ASCII with no quote and no backslash.
    names = "".join([*basis.quiver.generators, *basis.quiver.objects])
    plain = names.isascii() and names.isprintable() and '"' not in names and "\\" not in names
    lead = "\n"
    for d, block in sorted(basis.block.items()):
        write(f'{lead}    "{d}": ')
        if not block:
            write("[]")
        elif plain:  # three writes, so that no second copy of the block is made
            write('[\n      "')
            write(block.replace("\n", '",\n      "'))
            write('"\n    ]')
        else:
            write("[\n      " + ",\n      ".join(map(_encode, block.split("\n"))) + "\n    ]")
        lead = ",\n"
    write("\n  }\n}\n")


def _cmd_nf(args, P, meta, doc) -> int:
    quiver = P.quiver
    word = lpformat._expand_word(lpformat._tokens_with_cols(args.term), 0, quiver)
    if not word:
        raise LpError("--term needs a nonempty word")
    m = quiver.monomial(word)
    try:
        result = nf(monomial_poly(P.field, m), P)
    except StepBudgetExceeded:
        _emit({"error": "step budget exceeded (system may be non-terminating)"})
        return EXIT_UNCERTIFIED
    print(lpformat._poly_str(result))
    return EXIT_OK


def _cmd_check(args, P, meta, doc) -> int:
    cert = _terminates(P, meta)
    doc.update(_summary(P, cert))
    doc["convergent"] = cert.ok and doc["confluence"]["convergent"]
    _emit(doc)
    return EXIT_OK if doc["convergent"] else EXIT_UNCERTIFIED


def _cmd_complete(args, P, meta, doc) -> int:
    if P.order is None:
        raise LpError("complete needs an order declaration")
    try:
        done = complete(P, P.order, max_degree=args.max_degree, max_rules=args.max_rules)
    except CompletionBoundExceeded as e:
        raise _Uncertified({"error": str(e), "partial_rules": [str(r) for r in e.partial.rules]})
    doc["added_rules"] = _added_rules(done, P)
    doc["rules"] = _rules(done.rules)
    doc["convergent"] = done.certified_convergent
    if args.output:
        lpformat.write_file(args.output, done, meta)
        doc["output"] = args.output
    _emit(doc)
    return EXIT_OK


def _cmd_branchings(args, P, meta, doc) -> int:
    if args.fold == 2:
        doc["fold"] = 2
        doc["critical_branchings"] = [
            {
                "word": str(b.word),
                "rules": [b.rule1.name, b.rule2.name],
                "positions": [0, b.start2],
            }
            for b in enumerate_critical_branchings(P)
        ]
    else:
        cells = enumerate_chains(_prepare(P, meta, doc), args.fold + 1, args.dmax)
        doc["fold"] = args.fold
        doc["branchings"] = [
            {"word": str(c.word), "redexes": [[r, s] for r, s in c.redexes]}
            for c in cells
            if c.dim == args.fold + 1
        ]
    _emit(doc)
    return EXIT_OK


def _cmd_chains(args, P, meta, doc) -> int:
    P = _prepare(P, meta, doc)
    cells = enumerate_chains(P, args.kmax, args.dmax)
    N = P.homogeneity_degree if P.homogeneous else None
    doc["kmax"] = args.kmax
    doc["dmax"] = args.dmax
    stats = cell_degrees(cells, N)
    doc["counts"] = {f"{k},{d}": n for (k, d), n in stats["counts"].items()}
    if "l_N_concentrated" in stats:
        doc["l_N_concentrated"] = {str(k): v for k, v in stats["l_N_concentrated"].items()}
    doc["chains"] = [
        {"dim": c.dim, "word": str(c.word), "redexes": [[r, s] for r, s in c.redexes]}
        for c in cells
        if c.dim >= 3
    ]
    _emit(doc)
    return EXIT_OK


def _cmd_tor(args, P, meta, doc) -> int:
    table = tor_table(_prepare(P, meta, doc), args.kmax, args.dmax)
    doc["kmax"] = args.kmax
    doc["dmax"] = args.dmax
    doc["tor"] = table.as_dict()
    text = json.dumps(doc, indent=2, default=str)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


def _cmd_koszul(args, P, meta, doc) -> int:
    # Unlike the other resolution commands, koszul reports a failed
    # completion or verdict inside its JSON rather than on stderr.
    try:
        verdict = koszul_verdict(_prepare(P, meta, doc), args.kmax, args.dmax)
    except RewriteError as e:
        raise _Uncertified({"error": str(e)})
    doc["verdict"] = verdict.as_dict()
    _emit(doc)
    return EXIT_OK


def _cmd_hilbert(args, P, meta, doc) -> int:
    basis = standard_basis(_prepare(P, meta, doc), args.dmax)
    doc["dmax"] = args.dmax
    doc["counts"] = {str(d): n for d, n in basis.counts().items()}
    _emit(doc, basis)
    return EXIT_OK


def _cmd_pbw(args, P, meta, doc) -> int:
    candidate = []
    for lineno, line in enumerate(lpformat.read_text(args.basis_file).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        word = lpformat._expand_word(lpformat._tokens_with_cols(line), lineno, P.quiver)
        candidate.append(
            P.quiver.monomial(word) if word else P.quiver.identity(P.quiver.objects[0])
        )
    report = pbw_check(P, candidate, args.dmax, build_xi=args.xi)
    doc["pbw"] = report
    _emit(doc)
    return EXIT_OK if report["passed"] else EXIT_UNCERTIFIED


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _bound(text: str) -> int:
    """argparse type of --kmax, --dmax, --max-degree and --max-rules: a
    non-negative int."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _fold(text: str) -> int:
    """argparse type of --fold: a branching has at least two legs."""
    value = _int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linrew", description="Linear rewriting: completion, resolutions, Koszulity."
    )
    ap.add_argument("--seed", type=int, default=None, help="seed echoed into reports")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of a term")
    p.add_argument("file")
    p.add_argument("--term", required=True, help="word, space-separated generators")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("check", help="termination and confluence report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("complete", help="Knuth-Bendix/Buchberger completion")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_bound, default=DEFAULT_MAX_DEGREE)
    p.add_argument("--max-rules", type=_bound, default=DEFAULT_MAX_RULES)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("branchings", help="critical (n-fold) branchings")
    p.add_argument("file")
    p.add_argument("--fold", type=_fold, default=2)
    p.add_argument("--dmax", type=_bound, default=8)
    p.set_defaults(func=_cmd_branchings)

    p = sub.add_parser("chains", help="overlap chain cells")
    p.add_argument("file")
    p.add_argument("--kmax", type=_bound, required=True)
    p.add_argument("--dmax", type=_bound, required=True)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("tor", help="Tor dimension table")
    p.add_argument("file")
    p.add_argument("--kmax", type=_bound, required=True)
    p.add_argument("--dmax", type=_bound, required=True)
    p.add_argument("--json", default=None, help="also write the report to PATH")
    p.set_defaults(func=_cmd_tor)

    p = sub.add_parser("koszul", help="Koszulity verdict")
    p.add_argument("file")
    p.add_argument("--kmax", type=_bound, default=4)
    p.add_argument("--dmax", type=_bound, default=6)
    p.set_defaults(func=_cmd_koszul)

    p = sub.add_parser("hilbert", help="standard-basis counts per degree")
    p.add_argument("file")
    p.add_argument("--dmax", type=_bound, required=True)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("pbw", help="PBW basis conditions")
    p.add_argument("file")
    p.add_argument("--basis-file", required=True)
    p.add_argument("--dmax", type=_bound, required=True)
    p.add_argument("--xi", action="store_true", help="build the induced quadratic polygraph")
    p.set_defaults(func=_cmd_pbw)
    return ap


_PARSER = build_parser()  # parse_args does not change it: build it once


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        P, meta = _load(args.file, args.seed)
        doc = _base_report(P, meta)
        return args.func(args, P, meta, doc)
    except _Uncertified as u:
        doc.update(u.report)
        _emit(doc)
        return EXIT_UNCERTIFIED
    except (LpError, OSError, RewriteError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        uncertified = (BasisBudgetExceeded, CompletionBoundExceeded, NotCertifiedError, StepBudgetExceeded)
        return EXIT_UNCERTIFIED if isinstance(e, uncertified) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
